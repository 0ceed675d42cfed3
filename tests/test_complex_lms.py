import numpy as np
import pytest

from helpers import traced_peak
from sparselms import (
    FilterConfig,
    FilterState,
    MeasurementStream,
    SpectrumScenario,
    complex_hard_lms_step,
    complex_lms_step,
    gen_spectrum_stream,
    run_stream,
    step,
    step_size_from_stream,
)


def make_stream(inputs, outputs):
    return MeasurementStream(np.asarray(inputs), np.asarray(outputs))


def final_and_errors(cfg, stream):
    """Final estimate and a-priori errors of ``run_stream(cfg, stream)``."""
    estimates, errors = run_stream(cfg, stream)
    w = estimates[-1] if len(stream) else np.zeros(cfg.n_taps, dtype=complex)
    return w, np.asarray(errors, dtype=complex)


def complex_stream(n_taps, length, seed):
    rng = np.random.default_rng(seed)
    truth = np.zeros(n_taps, dtype=complex)
    truth[[0, n_taps // 2]] = [2.0 - 1j, 0.5 + 0.5j]
    x = rng.standard_normal((length, n_taps)) + 1j * rng.standard_normal((length, n_taps))
    y = x @ truth.conj() + 0.05 * (rng.standard_normal(length) + 1j * rng.standard_normal(length))
    return make_stream(x, y)


class TestComplexLmsStep:
    def test_real_entries_match_real_rule(self):
        w = np.zeros(1, dtype=complex)
        new, err = complex_lms_step(w, [1 + 0j], 1 + 0j, 0.5)
        assert err == 1 + 0j
        assert new.tolist() == [0.5 + 0j]

    def test_fixed_point(self):
        w = np.array([1j])
        x = np.array([1j])
        y = complex(np.vdot(w, x))  # (-i)(i) = 1
        assert y == 1 + 0j
        new, err = complex_lms_step(w, x, y, 0.5)
        assert err == 0j
        assert np.array_equal(new, w)

    def test_conjugated_error_drives_update(self):
        new, err = complex_lms_step(np.zeros(2, dtype=complex), [1j, 0j], 1.0, 1.0)
        assert err == 1 + 0j
        assert new.tolist() == [1j, 0j]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            complex_lms_step(np.zeros(3, dtype=complex), [1j, 0j], 0j, 0.1)

    def test_single_precision_keeps_imaginary_part(self):
        w = np.zeros(1, dtype=np.complex64)
        new, err = complex_lms_step(w, np.array([1j], np.complex64), np.complex64(1j), 1.0)
        assert err == 1j
        assert new.tolist() == [1 + 0j]

    def test_error_zero_for_exact_model(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for _ in range(10):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            _, err = complex_lms_step(w, x, complex(np.vdot(w, x)), 0.3)
            assert err == 0j


class TestComplexHardLmsStep:
    def test_full_size_matches_plain(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        plain, e1 = complex_lms_step(w, x, 0.7 + 0.1j, 0.2)
        hard, e2 = complex_hard_lms_step(w, x, 0.7 + 0.1j, 0.2, 4)
        assert e1 == e2
        assert np.array_equal(plain, hard)

    def test_magnitude_ranking(self):
        w = np.array([3j, 1 + 1j, 0j])
        new, _ = complex_hard_lms_step(w, np.zeros(3, dtype=complex), 0j, 0.1, 1)
        assert new.tolist() == [3j, 0j, 0j]

    def test_magnitude_tie_keeps_both(self):
        w = np.array([1 + 0j, 1j])
        new, _ = complex_hard_lms_step(w, np.zeros(2, dtype=complex), 0j, 0.1, 1)
        assert new.tolist() == [1 + 0j, 1j]


class TestRealEmbedding:
    def test_trajectory_matches_real_lms(self):
        rng = np.random.default_rng(2)
        truth = np.zeros(6)
        truth[[1, 4]] = [1.0, -0.5]
        x = rng.standard_normal((60, 6))
        y = x @ truth + 0.05 * rng.standard_normal(60)

        real_w, real_e = run_stream(FilterConfig("lms", n_taps=6, mu=0.05), make_stream(x, y))
        w = np.zeros(6, dtype=complex)
        for i in range(60):
            w, err = complex_lms_step(w, x[i].astype(complex), complex(y[i]), 0.05)
            assert err.imag == 0.0
            assert np.allclose(err.real, real_e[i], rtol=0, atol=1e-14)
        assert np.max(np.abs(w.imag)) == 0.0
        assert np.allclose(w.real, real_w[-1], rtol=0, atol=1e-13)


class TestPhaseEquivariance:
    def test_error_magnitudes_invariant_under_global_phase(self):
        rng = np.random.default_rng(3)
        n = 8
        truth = np.zeros(n, dtype=complex)
        truth[[0, 5]] = [2.0 - 1j, 0.5 + 0.5j]
        x = rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))
        y = np.array([np.vdot(truth, xi) for xi in x])

        phase = np.exp(1j * 0.83)
        y_rot = np.array([np.vdot(phase * truth, xi) for xi in x])

        cfg = FilterConfig("hard_lms", n_taps=n, mu=0.05, sparsity=2, warmup_steps=20)
        w1, e1 = final_and_errors(cfg, make_stream(x, y))
        w2, e2 = final_and_errors(cfg, make_stream(x, y_rot))
        assert np.allclose(np.abs(e1), np.abs(e2), rtol=1e-10, atol=1e-12)
        assert np.allclose(w2, phase * w1, rtol=1e-9, atol=1e-11)


class TestStepSizeFromStream:
    def test_unit_norm_rows(self):
        rows = np.exp(2j * np.pi * np.outer(np.arange(5), np.arange(8)) / 8) / np.sqrt(8)
        stream = make_stream(rows, np.zeros(5, dtype=complex))
        assert step_size_from_stream(stream) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_varying_norms(self):
        rows = np.array([[1.0 + 0j, 0j], [2.0 + 0j, 0j]])
        with pytest.raises(ValueError, match="norms vary"):
            step_size_from_stream(make_stream(rows, np.zeros(2, dtype=complex)))

    def test_rejects_zero_first_row(self):
        rows = np.zeros((2, 3), dtype=complex)
        with pytest.raises(ValueError, match="zero norm"):
            step_size_from_stream(make_stream(rows, np.zeros(2, dtype=complex)))

    def test_default_spectrum_stream_by_chunks(self):
        stream = gen_spectrum_stream(SpectrumScenario())
        mu, peak = traced_peak(step_size_from_stream, stream)
        assert mu == 1.0 / float(np.sum(np.abs(stream.inputs) ** 2, axis=1)[0])
        # |x|^2 of the whole stream took two temporaries of half its size
        assert peak < 0.25 * stream.inputs.nbytes
        rows = stream.inputs.copy()
        rows[-1] *= 1.0 + 1e-6  # in the last chunk of rows
        with pytest.raises(ValueError, match="norms vary"):
            step_size_from_stream(make_stream(rows, stream.outputs))


class TestRunComplexStream:
    """Complex streams through :func:`run_stream`."""

    def test_empty_stream(self):
        w, errors = final_and_errors(
            FilterConfig("lms", n_taps=3, mu=0.1),
            make_stream(np.zeros((0, 3), complex), np.zeros(0)),
        )
        assert errors.shape == (0,)

    def test_warmup_then_threshold(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
        truth = np.zeros(5, dtype=complex)
        truth[2] = 3.0
        y = np.array([np.vdot(truth, xi) for xi in x])
        cfg = FilterConfig("hard_lms", n_taps=5, mu=0.05, sparsity=1, warmup_steps=10)
        w, _ = final_and_errors(cfg, make_stream(x, y))
        assert np.count_nonzero(w) == 1

    def test_no_sparsity_is_plain_lms(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        w1, e1 = final_and_errors(FilterConfig("lms", n_taps=4, mu=0.1), make_stream(x, y))
        w2 = np.zeros(4, dtype=complex)
        for i in range(20):
            w2, _ = complex_lms_step(w2, x[i], y[i], 0.1)
        assert np.array_equal(w1, w2)
        assert len(e1) == 20


class TestSharedKernel:
    """``step`` is the complex update: the bare-estimate steps are its bits."""

    def test_step_matches_complex_lms_step(self):
        stream = complex_stream(8, 60, seed=6)
        cfg = FilterConfig("lms", n_taps=8, mu=0.05)
        state = FilterState.initial(8, complex)
        w = np.zeros(8, dtype=complex)
        for x, y in stream:
            state, step_err = step(state, x, y, cfg)
            w, err = complex_lms_step(w, x, y, 0.05)
            assert step_err == err
            assert np.array_equal(state.estimate, w)

    def test_step_matches_complex_hard_lms_step_after_warmup(self):
        stream = complex_stream(8, 60, seed=7)
        cfg = FilterConfig("hard_lms", n_taps=8, mu=0.05, sparsity=2, warmup_steps=15)
        estimates, errors = run_stream(cfg, stream)
        w = np.zeros(8, dtype=complex)
        for n, (x, y) in enumerate(stream):
            if n < 15:
                w, err = complex_lms_step(w, x, y, 0.05)
            else:
                w, err = complex_hard_lms_step(w, x, y, 0.05, 2)
            assert errors[n] == err
            assert np.array_equal(estimates[n], w)
        assert np.count_nonzero(w) == 2

    def test_run_stream_starts_from_stream_dtype(self):
        stream = complex_stream(4, 3, seed=8)
        estimates, errors = run_stream(FilterConfig("lms", n_taps=4, mu=0.1), stream)
        assert estimates.dtype == errors.dtype == complex
