import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    FilterConfig,
    FilterState,
    batch_iht,
    diagnose_run,
    hard_threshold,
    ser_lower_bound,
    support,
    sza_bias_residual,
    theorem1_condition,
    theorem2_condition,
)
from sparselms.filters import step
from sparselms.recovery import GUARANTEE_EXACT, GUARANTEE_NONE, GUARANTEE_SUPERSET, certify_rows


class TestTheorem1:
    def test_small_error_certifies_exact_support(self):
        cert = theorem1_condition([1.0, 0.0], [0.8, 0.1])
        assert cert.condition_holds
        assert cert.guarantee == GUARANTEE_EXACT
        assert cert.error_sq == pytest.approx(0.05)
        assert cert.q == 1.0
        assert cert.s == 1
        assert cert.tau is None

    def test_zero_error_always_holds(self):
        w = np.array([0.0, 2.0, -0.5])
        cert = theorem1_condition(w, w.copy())
        assert cert.condition_holds
        assert cert.q == 0.5

    def test_large_error_gives_no_guarantee(self):
        # H_1 actually misidentifies the support here, so the bound is sharp
        cert = theorem1_condition([1.0, 0.0], [0.3, 0.6])
        assert not cert.condition_holds
        assert cert.guarantee == GUARANTEE_NONE
        assert cert.error_sq == pytest.approx(0.85)
        top = support(hard_threshold(np.array([0.3, 0.6]), 1))
        assert top.tolist() == [1]

    def test_boundary_is_strict(self):
        # error^2 exactly q^2/2 must not hold
        w = np.array([1.0, 0.0])
        w_hat = np.array([1.0, np.sqrt(0.5)])
        cert = theorem1_condition(w, w_hat)
        assert not cert.condition_holds

    def test_exact_boundary_never_certifies(self):
        # error^2 == q^2/2 exactly, and H_1 keeps both tied entries here, so
        # a certificate at equality would be violated and raise
        w = np.array([1.0, 0.0])
        w_hat = np.array([0.5, 0.5])
        cert = theorem1_condition(w, w_hat)
        assert cert.error_sq == 0.5 * cert.q**2
        assert not cert.condition_holds
        rows = certify_rows(w, np.stack([w_hat, w, w_hat]))
        assert rows.holds.tolist() == [False, True, False]
        records = diagnose_run(w, [(1, w_hat), (2, w_hat)])
        assert [r["theorem1_holds"] for r in records] == [False, False]
        assert [r["support_hit_rate"] for r in records] == [1.0, 1.0]

    @pytest.mark.parametrize("w_hat,holds", [
        ([1 - 0.5j, 0, 0, 0.1], False),  # real parts alone would certify
        ([0.9 + 0.9j, 0, 0, 0.1], True),
    ])
    def test_complex_estimates_use_magnitudes(self, w_hat, holds):
        w = np.array([1 + 1j, 0, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = theorem1_condition(w, w_hat)
        assert cert.condition_holds is holds
        assert cert.q == abs(1 + 1j)
        assert cert.error_sq == np.sum(np.abs(w - np.array(w_hat)) ** 2)

    def test_imaginary_support_is_certified(self):
        # the true support is purely imaginary: cast to real it would be empty
        cert = theorem1_condition([1j, 0, 0, 0], [0.9j, 0, 0, 0.05])
        assert cert.condition_holds and cert.guarantee == GUARANTEE_EXACT
        rows = certify_rows([1j, 0, 0, 0], [[0.9j, 0, 0, 0.05], [0.1j, 0, 0, 0.9]])
        assert rows.holds.tolist() == [True, False]

    def test_zero_true_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            theorem1_condition([0.0, 0.0], [0.1, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            theorem1_condition([1.0, 0.0], [1.0, 0.0, 0.0])


class TestTheorem2:
    def test_worked_example(self):
        cert = theorem2_condition([1.0, 0.0, 0.0, 0.0], [0.5, 0.4, 0.3, 0.2], d=2)
        assert cert.condition_holds
        assert cert.guarantee == GUARANTEE_SUPERSET
        assert cert.tau == 1
        assert cert.error_sq == pytest.approx(0.54)
        top = support(hard_threshold(np.array([0.5, 0.4, 0.3, 0.2]), 2))
        assert top.tolist() == [0, 1]

    def test_bound_monotone_in_tau(self):
        q = 1.0
        bounds = [q * q * (1 - 1 / (tau + 2)) for tau in range(1, 10)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] < q * q

    def test_exact_estimate_conclusion_holds_but_needs_density(self):
        # a perfect s-sparse estimate fails the density hypothesis
        # (||w_hat||_0 >= d) even though the superset relation is true
        w = np.array([1.0, 0.0, 0.0, 0.0])
        cert = theorem2_condition(w, w.copy(), d=2)
        assert not cert.condition_holds
        top = support(hard_threshold(w, 2))
        assert set(support(w)).issubset(set(top))

    def test_density_hypothesis_included(self):
        w = np.array([1.0, 0.0, 0.0, 0.0])
        sparse_hat = np.array([0.9, 0.0, 0.0, 0.0])
        dense_hat = np.array([0.9, 0.05, 0.02, 0.01])
        assert not theorem2_condition(w, sparse_hat, d=2).condition_holds
        assert theorem2_condition(w, dense_hat, d=2).condition_holds

    def test_non_strict_boundary_holds(self):
        w = np.array([1.0, 0.0, 0.0, 0.0])
        bound = 1.0 - 1.0 / 3.0
        delta = np.sqrt(bound / 4) * np.ones(4)
        w_hat = w + delta
        cert = theorem2_condition(w, w_hat, d=2)
        assert cert.error_sq <= bound + 1e-15
        assert cert.condition_holds

    @pytest.mark.parametrize("d", [1, 0, 4, 5])
    def test_invalid_d(self, d):
        with pytest.raises(ValueError, match="d must"):
            theorem2_condition([1.0, 0.0, 0.0, 0.0], [0.9, 0.1, 0.0, 0.0], d=d)

    @pytest.mark.parametrize("d", [2.5, 2.0, True, "2"])
    @pytest.mark.parametrize("w_hat", [[0.9, 0.1, 0.0, 0.0], [0.9, 0.1, 0.05, 0.05]])
    def test_non_integer_d_named(self, d, w_hat):
        # the second estimate meets the hypothesis at d = 2 or 3
        with pytest.raises(ValueError, match="d must be an integer"):
            theorem2_condition([1.0, 0.0, 0.0, 0.0], w_hat, d)
        with pytest.raises(ValueError, match="d must be an integer"):
            certify_rows([1.0, 0.0, 0.0, 0.0], [w_hat], d)

    def test_missing_d_rejected(self):
        # without d, certify_rows checks Theorem 1; theorem2_condition needs its d
        with pytest.raises(ValueError, match="d must be an integer, got None"):
            theorem2_condition([1.0, 0.0, 0.0, 0.0], [0.9, 0.1, 0.05, 0.05], None)

    def test_numpy_integer_d_accepted(self):
        cert = theorem2_condition([1.0, 0.0, 0.0, 0.0], [0.9, 0.1, 0.05, 0.05], np.int8(3))
        assert (cert.s, cert.tau, cert.condition_holds) == (1, 2, True)
        assert type(cert.s) is int and type(cert.tau) is int


class TestSerLowerBound:
    def test_exact_bound(self):
        assert ser_lower_bound(28) == 56.0

    def test_relaxed_bound(self):
        assert ser_lower_bound(28, 28) == pytest.approx(28 * 30 / 29)

    def test_relaxed_always_below_exact(self):
        for s in range(1, 40):
            for tau in range(1, 40):
                assert ser_lower_bound(s, tau) < ser_lower_bound(s)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ser_lower_bound(0)
        with pytest.raises(ValueError):
            ser_lower_bound(3, 0)

    @pytest.mark.parametrize(
        "args,field", [((2.5,), "s"), ((True,), "s"), ((28, 1.5), "tau"), ((28, True), "tau")]
    )
    def test_non_integer_counts_named(self, args, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ser_lower_bound(*args)


class TestSzaBiasResidual:
    def test_unbiased_case(self):
        w = np.array([1.0, 0.0, -1.0])
        assert sza_bias_residual(w, w, np.eye(3), mu=0.1, rho=0.0, penalty_mean=np.zeros(3)) == 0.0

    def test_zero_penalty_reduces_to_distance(self):
        w = np.array([1.0, 0.0])
        w_bar = np.array([0.9, 0.1])
        res = sza_bias_residual(w, w_bar, np.eye(2), mu=0.05, rho=1e-3, penalty_mean=np.zeros(2))
        assert res == pytest.approx(np.linalg.norm(w - w_bar))

    def test_bias_prediction_cancels(self):
        rng = np.random.default_rng(0)
        R = np.eye(4) + 0.1 * np.ones((4, 4))
        w = np.array([1.0, 0.0, 0.0, 2.0])
        p = np.array([0.0, 0.3, -0.2, 0.0])
        mu, rho = 0.05, 2e-3
        w_bar = w - (rho / mu) * np.linalg.solve(R, p)
        assert sza_bias_residual(w, w_bar, R, mu, rho, p) < 1e-12

    def test_asymmetric_rejected(self):
        R = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            sza_bias_residual([1.0, 0.0], [1.0, 0.0], R, 0.1, 0.0, [0.0, 0.0])

    def test_singular_rejected(self):
        R = np.zeros((2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            sza_bias_residual([1.0, 0.0], [1.0, 0.0], R, 0.1, 0.0, [0.0, 0.0])


class TestBatchIht:
    def test_zero_iterations(self):
        A = np.eye(3)
        assert batch_iht(A, np.ones(3), 1, 0.5, 0).tolist() == [0.0, 0.0, 0.0]

    def test_recovers_sparse_vector_with_orthonormal_rows(self):
        # frozen small instances: random orthonormal rows, noiseless data
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, m, s = 16, 12, 2
            q, _ = np.linalg.qr(rng.standard_normal((n, m)))
            A = q.T
            w = np.zeros(n)
            w[rng.choice(n, s, replace=False)] = rng.choice([-1.0, 1.0], s) * (1 + rng.random(s))
            wh = batch_iht(A, A @ w, s, mu=1.0, iters=500)
            assert np.allclose(wh, w, atol=1e-8)

    def test_history_lists_every_iterate(self):
        A = np.array([[1.0, 0.5, 0.0]])
        final, hist = batch_iht(A, np.array([1.0]), 1, 0.4, 7, return_history=True)
        assert len(hist) == 7
        assert np.array_equal(final, hist[-1])

    def test_single_row_matches_streaming_hard_lms(self):
        rng = np.random.default_rng(42)
        n, s, steps = 24, 3, 200
        x = rng.standard_normal(n)
        w_gen = np.zeros(n)
        w_gen[rng.choice(n, s, replace=False)] = rng.standard_normal(s)
        y = float(np.dot(x, w_gen))
        mu = 1.0 / float(np.dot(x, x))
        _, hist = batch_iht(x[None, :], np.array([y]), s, mu, steps, return_history=True)
        cfg = FilterConfig("hard_lms", n_taps=n, mu=mu, sparsity=s)
        state = FilterState.initial(n)
        for k in range(steps):
            state, _ = step(state, x, y, cfg)
            assert np.array_equal(state.estimate, hist[k])

    @pytest.mark.parametrize(
        "s,iters,match",
        [
            (2, -1, "iters must be >= 0, got -1"),
            (2, 2.0, "iters must be an integer, got 2.0"),
            (2, True, "iters must be an integer, got True"),
            (2.0, 3, "s must be an integer, got 2.0"),
        ],
    )
    def test_counts_must_be_integers(self, s, iters, match):
        with pytest.raises(ValueError, match=match):
            batch_iht(np.eye(3), np.ones(3), s, 0.5, iters)

    def test_numpy_integer_counts_accepted(self):
        got = batch_iht(np.eye(3), np.array([3.0, 1.0, 2.0]), np.int64(1), 1.0, np.int32(2))
        assert got.tolist() == [3.0, 0.0, 0.0]

    def test_dimension_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            batch_iht(np.ones(3), np.ones(3), 1, 0.1, 1)
        with pytest.raises(ValueError, match="shape"):
            batch_iht(np.ones((2, 3)), np.ones(3), 1, 0.1, 1)


@st.composite
def perturbed_pair(draw):
    n = draw(st.integers(2, 24))
    s = draw(st.integers(1, max(1, n // 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.zeros(n)
    pos = rng.choice(n, s, replace=False)
    w[pos] = rng.choice([-1.0, 1.0], s) * (0.5 + 1.5 * rng.random(s))
    noise = rng.standard_normal(n)
    scale = draw(st.floats(0.0, 2.0))
    q = np.min(np.abs(w[pos]))
    w_hat = w + noise / np.linalg.norm(noise) * q * scale
    return w, w_hat, s, n


class TestTheoremProperties:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_pair())
    def test_exact_support_guarantee(self, pair):
        w, w_hat, s, _ = pair
        cert = theorem1_condition(w, w_hat)
        if cert.condition_holds:
            assert np.array_equal(support(hard_threshold(w_hat, s)), support(w))
            # necessary SER bound (infinite SER for an exact estimate)
            if cert.error_sq > 0:
                # a subnormal error_sq overflows the ratio to inf, which passes
                with np.errstate(over="ignore"):
                    assert np.sum(w * w) / cert.error_sq > 2 * s

    @settings(max_examples=300, deadline=None)
    @given(perturbed_pair(), st.data())
    def test_superset_guarantee(self, pair, data):
        w, w_hat, s, n = pair
        if s + 1 >= n:
            return
        d = data.draw(st.integers(s + 1, n - 1))
        cert = theorem2_condition(w, w_hat, d)
        sup = set(support(w).tolist())
        top = set(support(hard_threshold(w_hat, d)).tolist())
        if cert.condition_holds:
            assert sup.issubset(top)
        elif not sup.issubset(top) and support(w_hat).size >= d:
            # contrapositive: a miss with a dense estimate implies the
            # error bound was violated
            assert cert.error_sq > cert.q ** 2 * (1 - 1 / (cert.tau + 2))
