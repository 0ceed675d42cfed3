import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import exhaustive_top_energy, former_penalty_mask, partition_hard_threshold
from sparselms import hard_threshold, penalty_mask, support


def vectors(max_n=64, min_n=1, dtype=np.float64):
    return hnp.arrays(
        dtype,
        st.integers(min_n, max_n),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
    )


class TestSupport:
    def test_mixed_entries(self):
        assert support([2, -2, 1, 0]).tolist() == [0, 1, 2]

    def test_zero_vector(self):
        assert support([0, 0, 0]).tolist() == []

    def test_sparse(self):
        assert support([0, 3, 0, -1]).tolist() == [1, 3]

    def test_complex(self):
        assert support([0j, 1j, 0.5 + 0j]).tolist() == [1, 2]


class TestHardThreshold:
    def test_keeps_two_largest(self):
        assert hard_threshold([2, -2, 1, 0], 2).tolist() == [2, -2, 0, 0]

    def test_tie_keeps_both(self):
        # both entries of magnitude 2 tie for the single slot
        assert hard_threshold([2, -2, 1, 0], 1).tolist() == [2, -2, 0, 0]

    def test_full_size_is_identity(self):
        assert hard_threshold([2, -2, 1, 0], 4).tolist() == [2, -2, 1, 0]

    def test_zero_vector_fixed_point(self):
        assert hard_threshold([0, 0, 0, 0], 3).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("s", [0, 5, -1])
    def test_out_of_range_rejected(self, s):
        with pytest.raises(ValueError):
            hard_threshold([1.0, 2.0, 3.0, 4.0], s)

    @pytest.mark.parametrize("s", [2.0, 1.5, True, "2", None])
    def test_non_integer_keep_count_named(self, s):
        # True would keep one entry, 2.0 fail in a slice, as a bare TypeError
        with pytest.raises(ValueError, match="s must be an integer"):
            hard_threshold([1.0, 2.0, 3.0, 4.0], s)

    def test_numpy_integer_keep_count_accepted(self):
        assert hard_threshold([1.0, 2.0, 3.0, 4.0], np.uint8(2)).tolist() == [0, 0, 3, 4]

    def test_input_not_mutated(self):
        v = np.array([3.0, 1.0, 2.0])
        hard_threshold(v, 1)
        assert v.tolist() == [3.0, 1.0, 2.0]

    @settings(max_examples=200, deadline=None)
    @given(vectors(), st.data(), st.sampled_from(["self", "other"]))
    def test_out_gets_the_copy_result(self, v, data, target):
        # in place on v itself, or into another array holding stale values
        s = data.draw(st.integers(1, len(v)))
        expected = hard_threshold(v, s)
        out = v if target == "self" else np.full_like(v, 7.0)
        assert hard_threshold(v, s, out=out) is out
        assert np.array_equal(out, expected)

    def test_out_slice_of_a_stack(self):
        # a slice thresholded in place leaves its stack mates alone
        w = np.array([[[3.0, -1.0, 2.0]], [[1.0 + 1j, 0.5, -2j]]])
        row = w[1]
        hard_threshold(row, 1, out=row)
        assert w.tolist() == [[[3.0, -1.0, 2.0]], [[0, 0, -2j]]]

    def test_complex_ranks_by_magnitude(self):
        out = hard_threshold(np.array([3j, 1 + 1j, 0]), 1)
        assert out.tolist() == [3j, 0, 0]

    def test_complex_magnitude_tie(self):
        out = hard_threshold(np.array([1 + 0j, 1j]), 1)
        assert out.tolist() == [1 + 0j, 1j]

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.data())
    def test_idempotent(self, v, data):
        s = data.draw(st.integers(1, len(v)))
        once = hard_threshold(v, s)
        assert np.array_equal(hard_threshold(once, s), once)

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.data())
    def test_value_preservation(self, v, data):
        s = data.draw(st.integers(1, len(v)))
        out = hard_threshold(v, s)
        assert all(out[i] == v[i] or out[i] == 0 for i in range(len(v)))

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.data())
    def test_majorization(self, v, data):
        s = data.draw(st.integers(1, len(v)))
        out = hard_threshold(v, s)
        kept = np.abs(v[out != 0])
        dropped = np.abs(v[(out == 0) & (np.asarray(v) != 0)])
        if kept.size and dropped.size:
            assert kept.min() >= dropped.max()

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.data())
    def test_retained_count(self, v, data):
        s = data.draw(st.integers(1, len(v)))
        nnz_in = np.count_nonzero(v)
        nnz_out = np.count_nonzero(hard_threshold(v, s))
        assert nnz_out >= min(s, nnz_in)
        mags = np.abs(np.asarray(v))
        if len(set(mags.tolist())) == len(v):
            assert nnz_out == min(s, nnz_in)

    @settings(max_examples=200, deadline=None)
    @given(vectors(max_n=8), st.data())
    def test_matches_exhaustive_oracle(self, v, data):
        s = data.draw(st.integers(1, len(v)))
        assert np.array_equal(hard_threshold(v, s), exhaustive_top_energy(v, s))


class TestPenaltyMask:
    def test_tie_spares_both(self):
        assert penalty_mask(np.array([2.0, -2.0, 1.0, 0.0]), 1).tolist() == [0, 0, 1, 0]

    def test_zero_outside_support_gives_zero_sign(self):
        assert penalty_mask(np.array([5.0, -3.0, 0.0, 0.0]), 2).tolist() == [0, 0, 0, 0]

    def test_zero_vector(self):
        assert penalty_mask(np.zeros(3), 1).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("s", [0, 3, 4])
    def test_bounds_rejected(self, s):
        with pytest.raises(ValueError):
            penalty_mask(np.array([1.0, 2.0, 3.0]), s)

    @pytest.mark.parametrize("s", [1.5, 2.0, True, None])
    def test_non_integer_keep_count_named(self, s):
        with pytest.raises(ValueError, match="s must be an integer"):
            penalty_mask(np.array([1.0, 2.0, 3.0]), s)

    @settings(max_examples=300, deadline=None)
    @given(vectors(min_n=2), st.data())
    def test_disjoint_from_kept_support(self, v, data):
        s = data.draw(st.integers(1, len(v) - 1))
        mask = penalty_mask(v, s)
        kept = support(hard_threshold(v, s))
        assert not np.intersect1d(support(mask), kept).size

    @settings(max_examples=300, deadline=None)
    @given(vectors(min_n=2), st.data())
    def test_values_are_signs(self, v, data):
        s = data.draw(st.integers(1, len(v) - 1))
        mask = penalty_mask(v, s)
        assert set(np.unique(mask)).issubset({-1.0, 0.0, 1.0})
        outside = np.setdiff1d(support(v), support(hard_threshold(v, s)))
        assert np.array_equal(mask[outside], np.sign(np.asarray(v)[outside]))


class TestRowWise:
    """A 2-D input is thresholded row by row, each row as if alone."""

    @staticmethod
    def tied_rows():
        # few distinct magnitudes, so exact ties at the cut are common
        return hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(2, 12)),
            elements=st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 0.5]),
        )

    def test_tie_in_one_row_only(self):
        v = np.array([[2.0, -2.0, 1.0, 0.0], [3.0, 1.0, 2.0, -4.0]])
        assert hard_threshold(v, 1).tolist() == [[2.0, -2.0, 0.0, 0.0], [0.0, 0.0, 0.0, -4.0]]
        assert penalty_mask(v, 1).tolist() == [[0.0, 0.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0]]

    @settings(max_examples=300, deadline=None)
    @given(tied_rows(), st.data())
    def test_hard_threshold_matches_each_row(self, v, data):
        s = data.draw(st.integers(1, v.shape[1]))
        out = hard_threshold(v, s)
        assert np.array_equal(out, np.stack([hard_threshold(row, s) for row in v]))

    @settings(max_examples=300, deadline=None)
    @given(tied_rows(), st.data())
    def test_penalty_mask_matches_each_row(self, v, data):
        s = data.draw(st.integers(1, v.shape[1] - 1))
        out = penalty_mask(v, s)
        assert np.array_equal(out, np.stack([penalty_mask(row, s) for row in v]))

    def test_complex_rows(self):
        v = np.array([[1j, 1.0, 0.5], [0.1, -2j, 2.0]])
        assert hard_threshold(v, 1).tolist() == [[1j, 1.0, 0.0], [0.0, -2j, 2.0]]

    def test_bounds_use_row_length(self):
        with pytest.raises(ValueError):
            hard_threshold(np.zeros((5, 3)), 4)
        with pytest.raises(ValueError):
            penalty_mask(np.zeros((5, 3)), 3)


class TestNaNRule:
    """NaN entries are never dropped and each takes one of the s places."""

    def test_nan_kept_and_counted(self):
        out = hard_threshold([np.nan, 1.0, 2.0, 3.0], 2)
        np.testing.assert_array_equal(out, [np.nan, 0.0, 0.0, 3.0])

    def test_s_or_more_nans_keep_the_row(self):
        v = np.array([np.nan, 1.0, np.nan, 2.0])
        np.testing.assert_array_equal(hard_threshold(v, 2), v)
        np.testing.assert_array_equal(hard_threshold([np.inf, np.nan, 1.0], 1), [np.inf, np.nan, 1.0])

    def test_complex_nan_magnitude(self):
        out = hard_threshold(np.array([complex(np.nan, 0.0), 1j, 2.0, 3.0]), 2)
        np.testing.assert_array_equal(out, [complex(np.nan, 0.0), 0, 0, 3.0])

    def test_rows_follow_the_rule_alone(self):
        out = hard_threshold(np.array([[np.nan, 1.0, 2.0, 3.0], [4.0, 3.0, 2.0, 1.0]]), 2)
        np.testing.assert_array_equal(out, [[np.nan, 0.0, 0.0, 3.0], [4.0, 3.0, 0.0, 0.0]])

    def test_penalty_mask_spares_nan(self):
        pm = penalty_mask(np.array([np.nan, 1.0, -2.0, 3.0]), 2)
        np.testing.assert_array_equal(pm, [0.0, 1.0, -1.0, 0.0])


class TestPartitionOracle:
    """The cuts keep every bit of the former implementations.

    The sorted cut matches the ``np.partition`` cut, and the one-cut penalty
    the penalty that zeroed the signs of a thresholded copy.
    """

    # signed zeros, infinities, NaN, subnormals and a few values that tie
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.5e-308,
               1.0, -1.0, 0.5, 2.0, 1e300]

    @staticmethod
    def assert_matches(v, s):
        with np.errstate(all="ignore"):
            expected = partition_hard_threshold(v, s)
            assert hard_threshold(v, s).tobytes() == expected.tobytes()
            if s < v.shape[-1]:
                assert penalty_mask(v, s).tobytes() == former_penalty_mask(v, s).tobytes()

    @staticmethod
    @st.composite
    def special_arrays(draw):
        shape = draw(st.sampled_from([(), (1,), (3,)])) + (draw(st.integers(1, 24)),)
        values = st.one_of(st.sampled_from(TestPartitionOracle.SPECIAL), st.floats(width=64))
        parts = [draw(hnp.arrays(np.float64, shape, elements=values)) for _ in range(2)]
        if not draw(st.booleans()):
            return parts[0]
        v = np.empty(shape, dtype=complex)
        v.real, v.imag = parts
        return v

    @staticmethod
    @st.composite
    def constant_modulus_rows(draw):
        # a sparse estimate plus one LMS increment along a partial-DFT row,
        # as in the spectrum experiment: every entry off the support grows
        # by the same modulus, up to rounding
        n = draw(st.integers(2, 64))
        rows = draw(st.integers(1, 3))
        c = draw(st.sampled_from([1.0, 0.1, 1e-3, 3.7]))
        positions = np.array(draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)))
        v = c * np.exp(-2j * np.pi * np.outer(positions, np.arange(n)) / n) / np.sqrt(n)
        if draw(st.booleans()):
            v = c * np.sign(v.real)
        for row in v:
            idx = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
            row[idx] += draw(st.sampled_from([-2.0, 1.0, 5.0]))
        return v[0] if rows == 1 and draw(st.booleans()) else v

    @settings(max_examples=400, deadline=None)
    @given(special_arrays())
    def test_special_values_every_s(self, v):
        for s in range(1, v.shape[-1] + 1):
            self.assert_matches(v, s)

    @settings(max_examples=300, deadline=None)
    @given(constant_modulus_rows())
    def test_constant_modulus_ties_every_s(self, v):
        for s in range(1, v.shape[-1] + 1):
            self.assert_matches(v, s)
