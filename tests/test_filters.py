from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    Algorithm,
    FilterConfig,
    FilterState,
    IdentScenario,
    MeasurementStream,
    SpectrumScenario,
    gen_ident_stream,
    gen_spectrum_stream,
    hard_threshold,
    run_stream,
    step,
    step_size_from_stream,
    support,
)
from sparselms import filters
from sparselms.filters import StackStepper
from sparselms.signals import _root_table


def cfg_for(alg, n_taps=4, mu=0.1, **kw):
    kw.setdefault("sparsity", 1 if alg in ("sza_lms", "hard_lms", "hard_init_lms", "hard_rel_lms") else None)
    if alg == "hard_rel_lms":
        kw.setdefault("relaxed_sparsity", 2)
    return FilterConfig(alg, n_taps=n_taps, mu=mu, **kw)


def random_stream(n_taps, length, seed, noise=0.1):
    rng = np.random.default_rng(seed)
    w = np.zeros(n_taps)
    w[rng.choice(n_taps, max(1, n_taps // 4), replace=False)] = 1.0
    x = rng.standard_normal((length, n_taps))
    y = x @ w + noise * rng.standard_normal(length)
    return MeasurementStream(x, y, w)


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            FilterConfig("nlms", n_taps=4, mu=0.1)

    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(mu=0.0), "mu"),
            (dict(mu=-1.0), "mu"),
            (dict(rho=-0.1), "rho"),
            (dict(epsilon=0.0), "epsilon"),
            (dict(warmup_steps=-1), "warmup_steps"),
            (dict(sparsity=0), "sparsity"),
            (dict(sparsity=4), "sparsity"),
            (dict(sparsity=2, relaxed_sparsity=1), "relaxed_sparsity"),
            (dict(sparsity=2, relaxed_sparsity=4), "relaxed_sparsity"),
            (dict(mu=np.nan), "mu"),
            (dict(mu=np.inf), "mu"),
            (dict(rho=np.nan), "rho"),
            (dict(rho=np.inf), "rho"),
            (dict(epsilon=np.nan), "epsilon"),
            (dict(epsilon=np.inf), "epsilon"),
            (dict(n_taps=4.5), "n_taps"),
            (dict(n_taps=True), "n_taps"),
            (dict(n_taps=None), "n_taps"),
            (dict(sparsity=1.5), "sparsity"),
            (dict(sparsity=2, relaxed_sparsity=3.0), "relaxed_sparsity"),
            (dict(warmup_steps=2.5), "warmup_steps"),
            (dict(warmup_steps=False), "warmup_steps"),
        ],
    )
    def test_bad_fields_name_the_field(self, kw, field):
        base = dict(n_taps=4, mu=0.1)
        base.update(kw)
        with pytest.raises(ValueError, match=field):
            FilterConfig("lms", **base)

    def test_numpy_integer_counts_accepted(self):
        cfg = FilterConfig(
            "hard_rel_lms", n_taps=np.int64(8), mu=0.1, sparsity=np.int32(2),
            relaxed_sparsity=np.uint8(4), warmup_steps=np.int16(3),
        )
        counts = (cfg.n_taps, cfg.sparsity, cfg.relaxed_sparsity, cfg.warmup_steps)
        assert counts == (8, 2, 4, 3)
        assert all(type(c) is int for c in counts)

    def test_sparsity_required_for_threshold_variants(self):
        for alg in ("sza_lms", "hard_lms", "hard_init_lms"):
            with pytest.raises(ValueError, match="sparsity"):
                FilterConfig(alg, n_taps=4, mu=0.1)
        with pytest.raises(ValueError, match="relaxed_sparsity"):
            FilterConfig("hard_rel_lms", n_taps=4, mu=0.1, sparsity=1)
        # d = s + tau relaxes a known s
        with pytest.raises(ValueError, match="sparsity is required for hard_rel_lms"):
            FilterConfig("hard_rel_lms", n_taps=4, mu=0.1, relaxed_sparsity=2)

    def test_label_defaults_to_algorithm(self):
        assert cfg_for("lms").label == "lms"
        assert cfg_for("lms", label="baseline").label == "baseline"


class TestLmsStep:
    def test_single_update(self):
        cfg = FilterConfig("lms", n_taps=2, mu=0.5)
        state, err = step(FilterState.initial(2), [1.0, 0.0], 1.0, cfg)
        assert err == 1.0
        assert state.estimate.tolist() == [0.5, 0.0]
        assert state.iteration == 1

    def test_fixed_point_at_zero_noise(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(5)
        cfg = FilterConfig("lms", n_taps=5, mu=0.2)
        state = FilterState(w.copy(), 0)
        for _ in range(10):
            x = rng.standard_normal(5)
            state, err = step(state, x, float(np.dot(w, x)), cfg)
            assert err == 0.0
        assert np.array_equal(state.estimate, w)

    def test_two_tap_example(self):
        cfg = FilterConfig("lms", n_taps=2, mu=0.1)
        state, err = step(FilterState(np.array([1.0, 1.0]), 0), [1.0, -1.0], 1.0, cfg)
        assert err == pytest.approx(1.0)
        assert state.estimate == pytest.approx([1.1, 0.9])

    def test_dimension_mismatch(self):
        cfg = FilterConfig("lms", n_taps=3, mu=0.1)
        with pytest.raises(ValueError, match="n_taps"):
            step(FilterState.initial(3), [1.0, 2.0], 0.0, cfg)


class TestZeroAttractors:
    @pytest.mark.parametrize("alg", ["za_lms", "rza_lms", "sza_lms"])
    def test_rho_zero_matches_lms(self, alg):
        stream = random_stream(6, 50, seed=1)
        base_w, base_e = run_stream(FilterConfig("lms", n_taps=6, mu=0.05), stream)
        w, e = run_stream(cfg_for(alg, n_taps=6, mu=0.05, rho=0.0), stream)
        assert np.array_equal(base_e, e)
        assert np.array_equal(base_w, w)

    def test_za_pure_shrink(self):
        cfg = FilterConfig("za_lms", n_taps=2, mu=0.1, rho=0.1)
        state, err = step(FilterState(np.array([1.0, -1.0]), 0), [0.0, 0.0], 0.0, cfg)
        assert err == 0.0
        assert state.estimate == pytest.approx([0.9, -0.9])

    def test_za_sign_of_zero(self):
        cfg = FilterConfig("za_lms", n_taps=2, mu=0.1, rho=0.1)
        state, _ = step(FilterState.initial(2), [0.0, 0.0], 0.0, cfg)
        assert state.estimate.tolist() == [0.0, 0.0]

    def test_rza_reweighted_shrink(self):
        cfg = FilterConfig("rza_lms", n_taps=2, mu=0.1, rho=0.1, epsilon=10.0)
        state, _ = step(FilterState(np.array([1.0, 0.0]), 0), [0.0, 0.0], 0.0, cfg)
        assert state.estimate == pytest.approx([1.0 - 0.1 / 11.0, 0.0])

    def test_rza_penalty_decreases_with_magnitude(self):
        cfg = FilterConfig("rza_lms", n_taps=1, mu=0.1, rho=0.1, epsilon=10.0)
        shrinks = []
        for w0 in (0.1, 1.0, 10.0, 1000.0):
            state, _ = step(FilterState(np.array([w0]), 0), [0.0], 0.0, cfg)
            shrinks.append(w0 - state.estimate[0])
        assert all(a > b > 0 for a, b in zip(shrinks, shrinks[1:]))

    def test_sza_tie_spares_tying_pair(self):
        cfg = FilterConfig("sza_lms", n_taps=4, mu=0.1, rho=0.5, sparsity=1)
        state, _ = step(
            FilterState(np.array([2.0, -2.0, 1.0, 0.0]), 0), np.zeros(4), 0.0, cfg
        )
        assert state.estimate == pytest.approx([2.0, -2.0, 0.5, 0.0])

    def test_sza_support_never_penalized(self):
        # estimate sparser than s with a clear top set: penalty skips it
        cfg = FilterConfig("sza_lms", n_taps=4, mu=0.1, rho=0.3, sparsity=2)
        w = np.array([3.0, 1.0, 0.0, 0.0])
        state, _ = step(FilterState(w.copy(), 0), np.zeros(4), 0.0, cfg)
        assert state.estimate == pytest.approx(w)

    def test_sza_mask_disjoint_from_top_support_each_step(self):
        stream = random_stream(8, 200, seed=5)
        cfg = cfg_for("sza_lms", n_taps=8, mu=0.05, rho=1e-3, sparsity=2)
        lms_cfg = FilterConfig("lms", n_taps=8, mu=0.05)
        state = FilterState.initial(8)
        for x, y in stream:
            top_before = support(hard_threshold(state.estimate, 2))
            plain, _ = step(state, x, y, lms_cfg)
            state, _ = step(state, x, y, cfg)
            penalized = support(plain.estimate - state.estimate)
            assert not np.intersect1d(penalized, top_before).size


def z_over_abs_z(z):
    """The complex sign of a Python complex number: ``z/|z|``, and 0 at 0."""
    return 0j if z == 0 else z / abs(z)


class TestComplexAttractors:
    """The sign attractors on complex estimates against plain Python complex arithmetic."""

    @settings(max_examples=100, deadline=None)
    @given(
        alg=st.sampled_from(["za_lms", "rza_lms", "sza_lms"]),
        n_taps=st.integers(2, 12),
        data=st.data(),
    )
    def test_attractor_is_z_over_abs_z(self, alg, n_taps, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        w = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
        w *= 10.0 ** rng.integers(-300, 300, n_taps)  # |w| overflows if squared
        w[rng.random(n_taps) < 0.3] = 0
        s = data.draw(st.integers(1, n_taps - 1))
        cfg = cfg_for(alg, n_taps=n_taps, rho=1e-3, epsilon=data.draw(st.floats(0.1, 20.0)),
                      sparsity=s)
        attractor = filters._VARIANTS[cfg.algorithm][0]
        got = attractor(w, cfg, None)
        sign = np.array([z_over_abs_z(z) for z in w.tolist()])
        if alg == "za_lms":
            assert got.tobytes() == sign.tobytes()
        elif alg == "rza_lms":
            want = [g / (1 + cfg.epsilon * abs(z)) for g, z in zip(sign.tolist(), w.tolist())]
            # NumPy divides by a real array through its reciprocal
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        else:
            cut = sorted(abs(z) for z in w.tolist())[-s]
            want = [g if abs(z) < cut else 0j for g, z in zip(sign.tolist(), w.tolist())]
            assert np.array_equal(got, want)
        assert not got[w == 0].any()

    def test_za_step_is_python_arithmetic(self):
        # small dyadic values: the error and the gradient step are exact
        cfg = FilterConfig("za_lms", n_taps=4, mu=0.125, rho=0.25)
        w = np.array([3 - 4j, 0j, -2j, 1 + 1j])
        x = np.array([1 + 2j, -1j, 0.5, 2 - 1j])
        y = 0.5 - 0.25j
        state, err = step(FilterState(w.copy(), 0), x, y, cfg)
        e = y - sum(z.conjugate() * xk for z, xk in zip(w.tolist(), x.tolist()))
        want = [z + cfg.mu * (e.conjugate() * xk) - cfg.rho * z_over_abs_z(z)
                for z, xk in zip(w.tolist(), x.tolist())]
        assert np.array_equal(state.estimate, want)
        assert state.estimate[1] == cfg.mu * (e.conjugate() * -1j)  # no pull at 0


class TestHardVariants:
    def test_basic_threshold_step(self):
        cfg = FilterConfig("hard_lms", n_taps=2, mu=0.1, sparsity=1)
        state, err = step(FilterState.initial(2), [1.0, 2.0], 1.0, cfg)
        assert err == 1.0
        assert state.estimate == pytest.approx([0.0, 0.2])

    def test_warmup_never_reached_matches_lms(self):
        stream = random_stream(6, 80, seed=2)
        base_w, base_e = run_stream(FilterConfig("lms", n_taps=6, mu=0.05), stream)
        hard_w, hard_e = run_stream(
            FilterConfig("hard_init_lms", n_taps=6, mu=0.05, sparsity=2, warmup_steps=10**9),
            stream,
        )
        assert np.array_equal(base_e, hard_e)
        assert np.array_equal(base_w, hard_w)

    def test_warmup_boundary(self):
        # with warmup_steps=k the (k+1)-th update is the first thresholded one
        stream = random_stream(4, 6, seed=7, noise=0.0)
        cfg = FilterConfig("hard_init_lms", n_taps=4, mu=0.1, sparsity=1, warmup_steps=3)
        estimates, _ = run_stream(cfg, stream)
        assert np.count_nonzero(estimates[2]) == 4
        assert np.count_nonzero(estimates[3]) == 1

    @pytest.mark.parametrize("alg", ["hard_lms", "hard_rel_lms"])
    def test_every_hard_variant_honours_warmup(self, alg):
        # hard_init_lms is hard_lms with a warm-up; the relaxed one has it too
        stream = random_stream(6, 80, seed=12)
        warm = cfg_for("hard_init_lms", n_taps=6, mu=0.05, sparsity=2, warmup_steps=25)
        variant = cfg_for(
            alg, n_taps=6, mu=0.05, sparsity=2, relaxed_sparsity=4, warmup_steps=25
        )
        lms_w, _ = run_stream(FilterConfig("lms", n_taps=6, mu=0.05), stream)
        a_w, a_e = run_stream(warm, stream)
        b_w, b_e = run_stream(variant, stream)
        for n in range(len(stream)):
            if alg == "hard_lms" or n < 25:
                assert a_e[n] == b_e[n]
                assert np.array_equal(a_w[n], b_w[n])
            if n < 25:
                assert np.array_equal(b_w[n], lms_w[n])
        assert np.count_nonzero(b_w[-1]) == (2 if alg == "hard_lms" else 4)

    def test_relaxed_uses_d(self):
        cfg = FilterConfig("hard_rel_lms", n_taps=4, mu=0.1, sparsity=1, relaxed_sparsity=3)
        state, _ = step(FilterState.initial(4), [4.0, 3.0, 2.0, 1.0], 1.0, cfg)
        assert np.count_nonzero(state.estimate) == 3

    def test_support_size_equals_s_without_ties(self):
        stream = random_stream(16, 300, seed=11)
        cfg = FilterConfig("hard_lms", n_taps=16, mu=0.02, sparsity=3)
        estimates, _ = run_stream(cfg, stream)
        for w in estimates:
            # Gaussian data gives distinct magnitudes, so exactly s survive
            assert np.count_nonzero(w) == 3

    def test_fixed_point_at_truth(self):
        rng = np.random.default_rng(9)
        w = np.zeros(6)
        w[[1, 4]] = [1.0, -2.0]
        cfg = FilterConfig("hard_lms", n_taps=6, mu=0.1, sparsity=2)
        state = FilterState(w.copy(), 0)
        for _ in range(20):
            x = rng.standard_normal(6)
            state, err = step(state, x, float(np.dot(w, x)), cfg)
            assert err == 0.0
        assert np.array_equal(state.estimate, w)


@contextmanager
def counted_sparse_steps():
    """Yield a one-item list counting the :class:`filters._KeptCut` steps inside that did not sort."""
    sparse, sorts = [0], [0]
    sliced, below_cut = filters._KeptCut.step, filters._below_cut

    def counted_step(*a):
        before = sorts[0]
        sliced(*a)
        sparse[0] += sorts[0] == before

    def counted_sort(*a):
        sorts[0] += 1
        return below_cut(*a)

    with mock.patch.object(filters._KeptCut, "step", counted_step), \
            mock.patch.object(filters, "_below_cut", counted_sort):
        yield sparse


def step_rows(estimates, inputs, outputs, cfgs, iteration):
    """One update ``iteration`` of an (algorithms, runs, taps) stack by a fresh stepper."""
    dtype = np.result_type(estimates, inputs, outputs)
    return StackStepper(np.asarray(estimates, dtype), cfgs).step(inputs, outputs, iteration)


class TestStepRows:
    """One stacked update against the scalar stepper it must reproduce."""

    @pytest.mark.parametrize("n_taps", [16, 256])
    @pytest.mark.parametrize("alg", [a.value for a in Algorithm])
    def test_rows_track_scalar_steps(self, alg, n_taps):
        s = max(1, n_taps // 8)
        cfg = FilterConfig(
            alg, n_taps=n_taps, mu=0.5 / n_taps, rho=1e-3, sparsity=s,
            relaxed_sparsity=2 * s, warmup_steps=20,
        )
        streams = [
            gen_ident_stream(IdentScenario(n_taps=n_taps, n_nonzero=s, signal_len=120, seed=k))
            for k in range(3)
        ]
        states = [FilterState.initial(n_taps) for _ in streams]
        rows = np.zeros((len(streams), n_taps))
        for n in range(120):
            x = np.stack([st.inputs[n] for st in streams])
            y = np.array([st.outputs[n] for st in streams])
            rows = step_rows(rows[None], x, y, [cfg], n)[0]
            for r, st in enumerate(streams):
                states[r], _ = step(states[r], st.inputs[n], st.outputs[n], cfg)
                assert np.array_equal(rows[r], states[r].estimate)

    @pytest.mark.parametrize("alg", ["lms", "hard_lms", "hard_init_lms", "hard_rel_lms"])
    def test_complex_rows_track_scalar_steps(self, alg):
        n_taps, s = 32, 3
        cfg = FilterConfig(
            alg, n_taps=n_taps, mu=0.5 / n_taps, sparsity=s, relaxed_sparsity=2 * s,
            warmup_steps=20,
        )
        rng = np.random.default_rng(13)
        truth = np.zeros((3, n_taps), dtype=complex)
        for row in truth:
            row[rng.choice(n_taps, s, replace=False)] = rng.standard_normal(s) + 1j
        x = rng.standard_normal((120, 3, n_taps)) + 1j * rng.standard_normal((120, 3, n_taps))
        y = np.einsum("rj,nrj->nr", truth.conj(), x) + 0.01 * rng.standard_normal((120, 3))
        states = [FilterState.initial(n_taps, complex) for _ in range(3)]
        rows = np.zeros((3, n_taps), dtype=complex)
        for n in range(120):
            rows = step_rows(rows[None], x[n], y[n], [cfg], n)[0]
            for r in range(3):
                states[r], _ = step(states[r], x[n, r], y[n, r], cfg)
                assert np.array_equal(rows[r], states[r].estimate)

    @settings(max_examples=200, deadline=None)
    @given(
        alg=st.sampled_from(list(Algorithm)),
        dtype=st.sampled_from([float, complex]),
        n_taps=st.integers(2, 40),
        runs=st.integers(1, 6),
        iteration=st.integers(0, 8),
        data=st.data(),
    )
    def test_each_row_is_one_scalar_step(self, alg, dtype, n_taps, runs, iteration, data):
        s = data.draw(st.integers(1, n_taps - 1))
        cfg = FilterConfig(
            alg,
            n_taps=n_taps,
            mu=data.draw(st.floats(1e-3, 1.0)),
            rho=data.draw(st.floats(0.0, 1e-2)),
            epsilon=data.draw(st.floats(0.1, 20.0)),
            sparsity=s,
            relaxed_sparsity=data.draw(st.integers(s, n_taps - 1)),
            warmup_steps=data.draw(st.integers(0, 8)),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def draw(*shape):
            out = rng.standard_normal(shape)
            return out + 1j * rng.standard_normal(shape) if dtype is complex else out

        w, x, y = draw(runs, n_taps), draw(runs, n_taps), draw(runs)
        rows = step_rows(w[None], x, y, [cfg], iteration)[0]
        assert rows.dtype == w.dtype
        for r in range(runs):
            state, _ = step(FilterState(w[r].copy(), iteration), x[r], y[r], cfg)
            assert np.array_equal(rows[r], state.estimate)

    MIXED = dict(
        dtype=st.sampled_from([float, complex]),
        n_taps=st.integers(2, 40),
        runs=st.integers(1, 6),
        iteration=st.integers(0, 8),
        data=st.data(),
    )

    @settings(max_examples=150, deadline=None)
    @given(**MIXED)
    def test_mixed_stack_is_scalar_steps(self, dtype, n_taps, runs, iteration, data):
        self.check_mixed_stack(dtype, n_taps, runs, iteration, data)

    def test_mixed_stack_reusing_cuts_is_scalar_steps(self):
        # every hard slice cuts through filters._KeptCut, bounded by the largest |x| it steps
        @settings(max_examples=150, deadline=None)
        @given(**self.MIXED)
        def check(dtype, n_taps, runs, iteration, data):
            self.check_mixed_stack(dtype, n_taps, runs, iteration, data, bounded=True)

        with counted_sparse_steps() as sparse:
            check()
        assert sparse[0] > 0

    @staticmethod
    def check_mixed_stack(dtype, n_taps, runs, iteration, data, bounded=False):
        # all seven variants in one stack, each with its own tuning
        order = data.draw(st.permutations(list(Algorithm)))
        cfgs = []
        for alg in order:
            s = data.draw(st.integers(1, n_taps - 1))
            cfgs.append(FilterConfig(
                alg,
                n_taps=n_taps,
                mu=data.draw(st.floats(1e-3, 1.0)),
                rho=data.draw(st.floats(0.0, 1e-2)),
                epsilon=data.draw(st.floats(0.1, 20.0)),
                sparsity=s,
                relaxed_sparsity=data.draw(st.integers(s, n_taps - 1)),
                warmup_steps=data.draw(st.integers(0, 8)),
            ))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def draw(*shape):
            out = rng.standard_normal(shape)
            return out + 1j * rng.standard_normal(shape) if dtype is complex else out

        w, x, y = draw(len(cfgs), runs, n_taps), draw(2, runs, n_taps), draw(2, runs)
        # two updates, so that a bounded slice's second cut may keep its first cut's taps
        stepper = StackStepper(w, cfgs, peak=np.abs(x).max() if bounded else None)
        states = [[FilterState(row.copy(), iteration) for row in rows] for rows in w]
        for n in range(2):
            stack = stepper.step(x[n], y[n], iteration + n)
            assert stack.dtype == w.dtype and stack.shape == w.shape
            for i, cfg in enumerate(cfgs):
                for r in range(runs):
                    states[i][r], _ = step(states[i][r], x[n, r], y[n, r], cfg)
                    assert np.array_equal(stack[i, r], states[i][r].estimate), (cfg.algorithm, n, r)

    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from([float, complex]),
        n_taps=st.integers(1, 300),
        runs=st.integers(1, 8),
        data=st.data(),
    )
    def test_stacked_product_is_vdot_on_strided_slices(self, dtype, n_taps, runs, data):
        # the engine's windows are column slices of one wide array
        width = n_taps + data.draw(st.integers(0, 50))
        lead = data.draw(st.integers(0, width - n_taps))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def draw(*shape):
            out = rng.standard_normal(shape)
            return out + 1j * rng.standard_normal(shape) if dtype is complex else out

        w, big, y = draw(runs, n_taps), draw(runs, width), draw(runs)
        if dtype is complex and data.draw(st.booleans(), label="gathered"):
            # the spectrum's rows: entries of one root table, gathered by np.take
            positions = rng.integers(0, width, runs)
            big = np.take(_root_table(width), np.multiply.outer(positions, np.arange(width)) % width)
        x = big[:, lead : lead + n_taps]
        assert np.array_equal(np.vecdot(w, x), [np.vdot(w[r], x[r]) for r in range(runs)])
        cfg = FilterConfig("lms", n_taps=n_taps, mu=0.1)
        rows = step_rows(w[None], x, y, [cfg], 0)[0]
        for r in range(runs):
            state, _ = step(FilterState(w[r].copy(), 0), x[r], y[r], cfg)
            assert np.array_equal(rows[r], state.estimate)

    def test_exact_error_gives_identical_bits(self):
        # integer data make both inner products exact
        cfg = cfg_for("hard_rel_lms", n_taps=4)
        w = np.array([[1.0, -2.0, 0.0, 3.0]])
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        rows = step_rows(w[None], x, np.array([5.0]), [cfg], 0)[0]
        state, _ = step(FilterState(w[0].copy(), 0), x[0], 5.0, cfg)
        assert np.array_equal(rows[0], state.estimate)


class TestStackStepper:
    """The prepared in-place stepper against chained scalar steps."""

    HARD = (Algorithm.HARD_LMS, Algorithm.HARD_INIT_LMS, Algorithm.HARD_REL_LMS)

    CHAINED = dict(
        dtype=st.sampled_from([float, complex]),
        n_taps=st.integers(4, 24),
        runs=st.integers(1, 3),
        shared_mu=st.booleans(),
        data=st.data(),
    )

    @settings(max_examples=25, deadline=None)
    @given(**CHAINED)
    def test_every_step_is_chained_scalar_steps(self, dtype, n_taps, runs, shared_mu, data):
        self.check_chained_steps(dtype, n_taps, runs, shared_mu, data)

    def test_every_step_reusing_cuts_is_chained_scalar_steps(self):
        # every hard slice cuts through filters._KeptCut, bounded by the largest |x| it steps
        @settings(max_examples=25, deadline=None)
        @given(**self.CHAINED)
        def check(dtype, n_taps, runs, shared_mu, data):
            self.check_chained_steps(dtype, n_taps, runs, shared_mu, data, bounded=True)

        with counted_sparse_steps() as sparse:
            check()
        assert sparse[0] > 0

    def check_chained_steps(self, dtype, n_taps, runs, shared_mu, data, bounded=False):
        n_steps = 120
        order = data.draw(st.permutations(list(Algorithm)))
        # the hard variants' warm-ups end mid-run on consecutive updates,
        # so each of the two swapped buffers is written across a boundary
        warmup = data.draw(st.integers(1, n_steps - 3))
        mu = data.draw(st.floats(0.05, 0.5)) / n_taps
        cfgs = []
        for k, alg in enumerate(order):
            s = data.draw(st.integers(1, n_taps - 2))
            cfgs.append(FilterConfig(
                alg,
                n_taps=n_taps,
                mu=mu if shared_mu else mu * (1 + k / 8),  # mixed: a (algorithms, 1, 1) column
                rho=data.draw(st.floats(0.0, 1e-2)),
                epsilon=data.draw(st.floats(0.1, 20.0)),
                sparsity=s,
                relaxed_sparsity=data.draw(st.integers(s, n_taps - 1)),
                warmup_steps=warmup + self.HARD.index(alg) if alg in self.HARD else 0,
            ))
        # one factor per run, as a spectrum run's 1/||x||^2
        scale = [data.draw(st.floats(0.5, 2.0)) for _ in range(runs)]
        own = [[replace(cfg, mu=cfg.mu * f) for f in scale] for cfg in cfgs]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def draw(*shape):
            out = rng.standard_normal(shape)
            return out + 1j * rng.standard_normal(shape) if dtype is complex else out

        truth = draw(runs, n_taps) * (rng.random((runs, n_taps)) < 0.3)
        x = draw(n_steps, runs, n_taps)
        y = np.einsum("rj,nrj->nr", truth.conj(), x) + 0.01 * draw(n_steps, runs)
        peak = np.abs(x).max() if bounded else None
        stepper = StackStepper(np.zeros((len(cfgs), runs, n_taps), dtype), cfgs, np.array(scale), peak)
        states = [[FilterState.initial(n_taps, dtype) for _ in range(runs)] for _ in cfgs]
        outputs = set()
        for n in range(n_steps):
            stack = stepper.step(x[n], y[n], n)
            outputs.add(stack.__array_interface__["data"][0])
            assert stack.dtype == np.dtype(dtype)
            for i, cfg in enumerate(cfgs):
                for r in range(runs):
                    states[i][r], _ = step(states[i][r], x[n, r], y[n, r], own[i][r])
                    assert np.array_equal(stack[i, r], states[i][r].estimate), (n, cfg.algorithm)
        assert len(outputs) == 2

    @pytest.mark.parametrize("n_taps", [8, 256, 520, 1024])
    def test_cut_exactly_when_bounded(self, n_taps):
        # each hard slice steps through a _KeptCut when the stepper is given a bound on |x|
        cfgs = [cfg_for(a.value, n_taps=n_taps, rho=1e-3) for a in Algorithm]
        w = np.zeros((len(cfgs), 2, n_taps))
        hard = [i for i, cfg in enumerate(cfgs) if cfg.algorithm in self.HARD]
        # every variant but plain LMS has a tail
        assert [cut for *_, cut in StackStepper(w, cfgs)._tails] == [None] * (len(cfgs) - 1)
        cuts = [i for i, _, cut in StackStepper(w, cfgs, peak=1.0)._tails if cut is not None]
        assert cuts == hard

    def test_callers_array_left_unchanged(self):
        cfgs = [cfg_for(a.value, n_taps=6, rho=1e-3) for a in Algorithm]
        rng = np.random.default_rng(4)
        w = rng.standard_normal((len(cfgs), 2, 6))
        before = w.copy()
        stepper = StackStepper(w, cfgs)
        for n in range(3):
            stack = stepper.step(rng.standard_normal((2, 6)), rng.standard_normal(2), n)
            assert not np.shares_memory(stack, w)
        assert np.array_equal(w, before)


class TestKeptCut:
    """Chained steps of slices that cut where their last cut kept, bounded by the largest ``|x|``.

    Zero inputs leave the estimates as they are, so that only the cut acts;
    the input ``e_j`` with ``mu = 1`` adds ``conj(y - conj(w_j))`` to tap ``j``.
    """

    N_TAPS = 8

    def chained(self, monkeypatch, cfg, w0, x, y):
        """Step ``w0`` against chained scalar steps; returns the sorted cuts of each step."""
        calls, below_cut = [], filters._below_cut
        monkeypatch.setattr(filters, "_below_cut", lambda *a: calls.append(a) or below_cut(*a))
        stepper = StackStepper(np.asarray(w0)[None], [cfg], peak=np.abs(x).max())
        states = [FilterState(np.array(row), 0) for row in w0]
        sorts = []
        for n in range(len(x)):
            before = len(calls)
            rows = stepper.step(x[n], y[n], n)[0]
            sorts.append(len(calls) - before)
            for r, state in enumerate(states):
                states[r], _ = step(state, x[n, r], y[n, r], cfg)
                assert np.array_equal(rows[r], states[r].estimate, equal_nan=True), (n, r)
        return sorts, rows

    def inputs(self, n_steps, dtype, *taps):
        """Zero inputs, except ``e_j`` with output ``y`` at each ``(step, row, j, y)`` of ``taps``."""
        x, y = np.zeros((n_steps, 2, self.N_TAPS), dtype), np.zeros((n_steps, 2), dtype)
        for n, r, j, value in taps:
            x[n, r, j], y[n, r] = 1, value
        return x, y

    def test_tie_at_the_cut_sorts_the_next_cut(self, monkeypatch):
        assert np.abs(3 + 4j) == 5  # a tie in complex magnitude
        cfg = FilterConfig("hard_lms", n_taps=self.N_TAPS, mu=1.0, sparsity=2)
        w0 = np.zeros((2, self.N_TAPS), complex)
        w0[0, :3] = 7, 5j, 0.5
        w0[1, :3] = 1j, -4, 0.25
        # step 2 sets tap 5 of row 0 to 3+4j, at the cut; step 4 sets it to 1
        x, y = self.inputs(6, complex, (2, 0, 5, 3 - 4j), (4, 0, 5, 1))
        sorts, _ = self.chained(monkeypatch, cfg, w0, x, y)
        assert sorts == [1, 0, 1, 1, 1, 0]

    def test_constant_modulus_row_keeps_every_tie(self, monkeypatch):
        cfg = FilterConfig("hard_lms", n_taps=self.N_TAPS, mu=1.0, sparsity=2)
        w0 = np.zeros((2, self.N_TAPS), complex)
        w0[0] = 5, 5j, -5, 3 + 4j, 4 - 3j, -3 - 4j, -5j, 0  # seven taps of modulus 5
        w0[1, :3] = 1j, -4, 0.25
        sorts, rows = self.chained(monkeypatch, cfg, w0, *self.inputs(3, complex))
        assert sorts == [1, 1, 1]
        assert np.array_equal(rows[0], w0[0])

    @pytest.mark.parametrize("tap,kept", [(1, True), (3, False)])
    def test_nan_entering_a_tap_sorts(self, monkeypatch, tap, kept):
        cfg = FilterConfig("hard_lms", n_taps=self.N_TAPS, mu=1.0, sparsity=2)
        w0 = np.zeros((2, self.N_TAPS), complex)
        w0[0, :3] = 7, 5j, 0.5
        w0[1, :3] = 1j, -4, 0.25
        x, y = self.inputs(4, complex)
        # an error of 1e200*(1+1j) times an input of 1e200*(1+1j): inf - inf in one product
        big = 1e200 * (1 + 1j)
        x[2, 0, tap], y[2, 0] = big, big + np.conj(w0[0, tap]) * big
        with np.errstate(invalid="ignore", over="ignore"):
            stepper = StackStepper(w0[None], [cfg], peak=np.abs(x).max())
            for n in range(3):
                rows = stepper.step(x[n], y[n], n)[0]
            assert np.isnan(rows[0]).sum() == 1 and np.isnan(rows[0, tap])
            assert np.count_nonzero(rows[0]) == 2 and np.array_equal(rows[1], hard_threshold(w0[1], 2))
            assert (w0[0, tap] != 0) == kept
            sorts, rows = self.chained(monkeypatch, cfg, w0, x, y)
        # the row's NaN error then spreads to every tap, which are all kept
        assert sorts == [1, 0, 1, 1]
        assert np.isnan(rows[0]).all()

    def test_support_change_sorts_once(self, monkeypatch):
        cfg = FilterConfig("hard_lms", n_taps=self.N_TAPS, mu=1.0, sparsity=2)
        w0 = np.zeros((2, self.N_TAPS))
        w0[0, :3] = 7, 5, 0.5
        w0[1, :3] = 1, -4, 0.25
        # tap 4 of row 0 rises to 6 and displaces tap 1; row 1 stays put
        x, y = self.inputs(5, float, (2, 0, 4, 6.0))
        sorts, rows = self.chained(monkeypatch, cfg, w0, x, y)
        assert sorts == [1, 0, 1, 0, 0]
        assert list(support(rows[0])) == [0, 4] and list(support(rows[1])) == [0, 1]

    def test_warmup_boundary(self, monkeypatch):
        cfg = FilterConfig("hard_init_lms", n_taps=self.N_TAPS, mu=1.0, sparsity=2, warmup_steps=3)
        w0 = np.zeros((2, self.N_TAPS))
        w0[0, :3] = 7, 5, 0.5
        w0[1, :3] = 1, -4, 0.25
        # tap 5 of row 1 rises to 3 during the warm-up
        x, y = self.inputs(6, float, (1, 1, 5, 3.0))
        sorts, rows = self.chained(monkeypatch, cfg, w0, x, y)
        assert sorts == [0, 0, 0, 1, 0, 0]
        assert list(support(rows[1])) == [1, 5]

    def test_relaxed_keep_count(self, monkeypatch):
        cfg = FilterConfig(
            "hard_rel_lms", n_taps=self.N_TAPS, mu=1.0, sparsity=1, relaxed_sparsity=3
        )
        w0 = np.zeros((2, self.N_TAPS))
        w0[0, :5] = 7, 5, 4, 0.5, 0.25
        w0[1, :4] = 1, -4, 2, 3
        # tap 6 of row 0 ties the third place, at 4; then tap 7 rises to 4.5
        x, y = self.inputs(6, float, (1, 0, 6, 4.0), (3, 0, 7, 4.5))
        sorts, rows = self.chained(monkeypatch, cfg, w0, x, y)
        assert sorts == [1, 1, 1, 1, 0, 0]
        assert list(support(rows[0])) == [0, 1, 7] and list(support(rows[1])) == [1, 2, 3]


class TestSparseStep:
    """Hard slices stepped on their kept taps alone against scalar steps.

    :meth:`chained` holds every row to :func:`step` in ``tobytes()`` and
    counts, per update, the hard slices that stepped sparsely.  Unless
    given a ``peak``, the bound is the largest magnitude of the inputs.
    """

    N_TAPS = 8

    @pytest.fixture(autouse=True)
    def counted(self):
        with counted_sparse_steps() as self.sparse:
            yield

    def chained(self, cfgs, w0, x, y, scale=1.0, peak=None):
        """Step the (algorithms, runs, taps) ``w0``; returns the sparse slice steps of each update."""
        own = [[replace(cfg, mu=cfg.mu * f) for f in np.broadcast_to(scale, len(x[0]))] for cfg in cfgs]
        stepper = StackStepper(w0, cfgs, scale, np.abs(x).max() if peak is None else peak)
        states = [[FilterState(row.copy(), 0) for row in rows] for rows in w0]
        counts = []
        for n in range(len(x)):
            before = self.sparse[0]
            stack = stepper.step(x[n], y[n], n)
            counts.append(self.sparse[0] - before)
            for i, cfg in enumerate(cfgs):
                for r, state in enumerate(states[i]):
                    states[i][r], _ = step(state, x[n, r], y[n, r], own[i][r])
                    assert stack[i, r].tobytes() == states[i][r].estimate.tobytes(), (n, i, r)
        return counts, stack

    def inputs(self, n_steps, dtype, *taps):
        """Zero inputs, except ``e_j`` with output ``y`` at each ``(step, row, j, y)`` of ``taps``."""
        x, y = np.zeros((n_steps, 2, self.N_TAPS), dtype), np.zeros((n_steps, 2), dtype)
        for n, r, j, value in taps:
            x[n, r, j], y[n, r] = 1, value
        return x, y

    def hard(self, mu=1.0):
        return FilterConfig("hard_lms", n_taps=self.N_TAPS, mu=mu, sparsity=2)

    def start(self, dtype=float):
        w0 = np.zeros((1, 2, self.N_TAPS), dtype)
        w0[0, 0, :3] = 7, 5, 0.5
        w0[0, 1, :3] = 1, -4, 0.25
        return w0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_settled_supports_step_sparsely(self, dtype):
        n_taps, runs, n_steps = 16, 3, 300
        kw = dict(n_taps=n_taps, mu=0.3 / n_taps, sparsity=3)
        cfgs = [
            FilterConfig("lms", **kw),
            FilterConfig("hard_lms", **kw),
            FilterConfig("hard_init_lms", warmup_steps=40, **kw),
            FilterConfig("hard_rel_lms", relaxed_sparsity=5, **kw),
        ]
        rng = np.random.default_rng(11)

        def draw(*shape):
            out = rng.standard_normal(shape)
            return out + 1j * rng.standard_normal(shape) if dtype is complex else out

        truth = np.zeros((runs, n_taps), dtype)
        for r in range(runs):
            truth[r, rng.choice(n_taps, 3, replace=False)] = draw(3)
        x = draw(n_steps, runs, n_taps)
        y = np.einsum("rj,nrj->nr", truth.conj(), x) + 0.01 * draw(n_steps, runs)
        counts, _ = self.chained(cfgs, np.zeros((len(cfgs), runs, n_taps), dtype), x, y)
        # hard_lms and hard_init_lms hold their true supports once settled; the bound from
        # the stream's largest |x|, about twice a row's, fails on a fifth of their float steps
        assert sum(counts[-100:]) >= 180

    def test_moved_support_clears_the_older_buffer(self):
        # tap 4 of row 0 rises to 6 at update 4 and displaces tap 1; update 5
        # writes the buffer of update 3, whose nonzeros are the old support
        x, y = self.inputs(8, float, (4, 0, 4, 6.0))
        counts, stack = self.chained([self.hard()], self.start(), x, y)
        assert counts == [0, 1, 1, 1, 0, 1, 1, 1]
        assert list(support(stack[0, 0])) == [0, 4] and list(support(stack[0, 1])) == [0, 1]

    def test_tie_at_the_cut_sorts(self):
        assert np.abs(3 + 4j) == 5
        # update 2 sets tap 5 of row 0 to 3+4j, level with the kept 5j; update 4 sets it to 1
        x, y = self.inputs(7, complex, (2, 0, 5, 3 - 4j), (4, 0, 5, 1))
        w0 = self.start(complex)
        w0[0, 0, 1] = 5j
        counts, stack = self.chained([self.hard()], w0, x, y)
        assert counts == [0, 1, 0, 0, 0, 1, 1]
        assert list(support(stack[0, 0])) == [0, 1]

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "value,big,mu", [(np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (1e200, 1e200, 1e-300)]
    )
    def test_non_finite_error_or_overflowing_product_sorts(self, dtype, value, big, mu):
        # at big = 1e200 the estimates and x_6 are 1e200 and mu is 1e-300: conj(e)*x_6
        # overflows to inf at a dropped tap, though mu*|e|*|x_6| is far below every kept tap
        x, y = self.inputs(5, dtype, (2, 0, 6, value))
        x[2, 0, 6] = big
        with np.errstate(invalid="ignore", over="ignore"):
            counts, stack = self.chained([self.hard(mu)], self.start(dtype) * big, x, y)
        assert counts[:3] == [0, 1, 0] and not np.isfinite(stack[0, 0]).all()
        assert list(support(stack[0, 1])) == [0, 1]

    @pytest.mark.parametrize("small,counts", [(1e-300, [0, 1, 1, 1]), (1e-310, [0, 0, 0, 0])])
    def test_subnormal_cut_sorts(self, small, counts):
        # the smaller kept magnitude of row 0 is the cut: normal at 1e-300, subnormal at 1e-310
        w0 = self.start()
        w0[0, 0, 1:3] = small, 0
        assert self.chained([self.hard()], w0, *self.inputs(4, float))[0] == counts

    def test_per_run_mu_column(self):
        # three full_len 128 runs whose 1/||x||^2 takes two values, so mu is a column
        sc = SpectrumScenario(full_len=128, n_tones=2, n_samples=24)
        streams = [gen_spectrum_stream(replace(sc, seed=run), passes=8) for run in range(3)]
        scale = np.array([step_size_from_stream(stream) for stream in streams])
        assert len(set(scale)) == 2
        cfgs = [FilterConfig("lms", n_taps=128, mu=1.0),
                FilterConfig("hard_lms", n_taps=128, mu=0.8, sparsity=4, warmup_steps=24)]
        x = np.stack([stream.inputs for stream in streams], axis=1)
        y = np.stack([stream.outputs for stream in streams], axis=1)
        peak = np.abs(_root_table(128)).max()
        counts, _ = self.chained(cfgs, np.zeros((2, 3, 128), complex), x, y, scale, peak)
        assert sum(counts) >= 100

    def test_warmup_crossing(self):
        # tap 5 of row 1 rises to 3 during the warm-up; the first cut sorts,
        # and the next writes the last warm-up estimate, which is full
        cfg = FilterConfig("hard_init_lms", n_taps=self.N_TAPS, mu=1.0, sparsity=2, warmup_steps=3)
        x, y = self.inputs(6, float, (1, 1, 5, 3.0))
        counts, stack = self.chained([cfg], self.start(), x, y)
        assert counts == [0, 0, 0, 0, 1, 1]
        assert list(support(stack[0, 1])) == [1, 5]


class TestRunStream:
    def test_empty_stream(self):
        stream = MeasurementStream(np.zeros((0, 4)), np.zeros(0))
        estimates, errors = run_stream(cfg_for("lms"), stream)
        assert estimates.shape == (0, 4)
        assert errors.shape == (0,)

    def test_integer_stream_gets_float_estimates(self):
        rng = np.random.default_rng(6)
        x, y = rng.integers(-3, 4, (20, 4)), rng.integers(-3, 4, 20)
        w, e = run_stream(cfg_for("lms"), MeasurementStream(x, y))
        w_ref, e_ref = run_stream(cfg_for("lms"), MeasurementStream(x * 1.0, y * 1.0))
        assert w.dtype == e.dtype == float
        assert np.array_equal(w, w_ref) and np.array_equal(e, e_ref)

    def test_deterministic(self):
        stream = random_stream(4, 30, seed=8)
        cfg = cfg_for("hard_lms", sparsity=2)
        a_w, a_e = run_stream(cfg, stream)
        b_w, b_e = run_stream(cfg, stream)
        assert np.array_equal(a_e, b_e)
        assert np.array_equal(a_w[-1], b_w[-1])


class TestStepSizeBound:
    """Empirical mean-convergence check for white inputs (lambda_max = var)."""

    N = 4

    def _mean_error_norms(self, mu, n_runs=150, length=600, checkpoints=(0, 10, 599)):
        truth = np.array([1.0, -0.5, 0.25, 0.0])
        acc = {c: np.zeros(self.N) for c in checkpoints}
        for run in range(n_runs):
            rng = np.random.default_rng(1000 + run)
            cfg = FilterConfig("lms", n_taps=self.N, mu=mu)
            state = FilterState.initial(self.N)
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(length):
                    x = rng.standard_normal(self.N)
                    y = float(np.dot(truth, x)) + 0.1 * rng.standard_normal()
                    state, _ = step(state, x, y, cfg)
                    if i in acc:
                        acc[i] += state.estimate - truth
        return [float(np.linalg.norm(acc[c] / n_runs)) for c in checkpoints]

    def test_converges_below_bound(self):
        norms = self._mean_error_norms(mu=0.2)
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 0.05

    def test_diverges_well_above_bound(self):
        norms = self._mean_error_norms(mu=4.0, n_runs=3, checkpoints=(0, 599))
        assert not np.isfinite(norms[-1]) or norms[-1] > 1e6
