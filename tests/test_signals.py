from dataclasses import replace

import numpy as np
import pytest

from helpers import traced_peak, whole_matrix_ident_stream, whole_matrix_spectrum_stream
from sparselms import (
    ExperimentConfig,
    FilterConfig,
    IdentScenario,
    SpectrumScenario,
    esr,
    esr_db,
    gen_ident_stream,
    gen_spectrum_stream,
    run_stream,
    support,
)
from sparselms.harness import _stack
from sparselms.signals import (
    WINDOW_ROWS,
    _ident_draw,
    _phase_rows,
    _tone_bins,
    check_count,
    check_counts,
)


class TestCheckCount:
    """The one range rule of every integer input."""

    @pytest.mark.parametrize("value", [True, False, 2.0, None, "3", np.float64(3.0), [3]])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError) as info:
            check_count("n", value, 1, 5)
        assert str(info.value) == f"n must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64]
    )
    def test_numpy_integers_returned_as_int(self, dtype):
        value = check_count("n", dtype(5), 1, 5)
        assert value == 5 and type(value) is int
        with pytest.raises(ValueError, match=r"^n must satisfy 1 <= n <= 4, got 5$"):
            check_count("n", dtype(5), 1, 4)

    @pytest.mark.parametrize("value", [1, 3, 5])
    def test_inside_the_range_returned(self, value):
        assert check_count("n", value, 1, 5) == value

    @pytest.mark.parametrize("value", [0, 6, -7])
    def test_outside_the_range_names_both_bounds(self, value):
        with pytest.raises(ValueError) as info:
            check_count("n", value, 1, 5)
        assert str(info.value) == f"n must satisfy 1 <= n <= 5, got {value}"

    def test_lower_bound_only(self):
        assert check_count("seed", 0, 0) == 0
        assert check_count("seed", 10**30, 0) == 10**30
        with pytest.raises(ValueError) as info:
            check_count("seed", -1, 0)
        assert str(info.value) == "seed must be >= 0, got -1"

    def test_no_bound_checks_the_type_only(self):
        assert check_count("d", -3) == -3

    def test_empty_range_rejects_everything(self):
        # a one-tap filter has no sparsity with 1 <= s <= n_taps - 1
        for value in (0, 1):
            with pytest.raises(ValueError, match=r"^s must satisfy 1 <= s <= 0, got "):
                check_count("s", value, 1, 0)

    def test_check_counts_stores_each_field_in_order(self):
        class Obj:
            a, b = np.int16(2), np.int64(0)

        obj = Obj()
        check_counts(obj, a=1, b=0)
        assert (obj.a, obj.b) == (2, 0) and type(obj.a) is type(obj.b) is int
        obj.a, obj.b = 0, -1
        with pytest.raises(ValueError, match=r"^a must be >= 1, got 0$"):
            check_counts(obj, a=1, b=0)


class TestIdentScenario:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_nonzero"):
            IdentScenario(n_taps=8, n_nonzero=9)
        with pytest.raises(ValueError, match="signal_len"):
            IdentScenario(signal_len=0)

    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(n_taps=8.5), "n_taps"),
            (dict(n_nonzero=True), "n_nonzero"),
            (dict(n_nonzero=2.0), "n_nonzero"),
            (dict(signal_len=10.5), "signal_len"),
        ],
    )
    def test_non_integer_counts_name_the_field(self, kw, field):
        with pytest.raises(ValueError, match=field):
            IdentScenario(**kw)

    @pytest.mark.parametrize("seed,match", [(-1, "seed must be >= 0"), (2.5, "seed must be an integer")])
    def test_bad_seed_names_the_field(self, seed, match):
        with pytest.raises(ValueError, match=match):
            IdentScenario(seed=seed)

    def test_n_taps_named_before_the_counts_it_bounds(self):
        with pytest.raises(ValueError, match=r"^n_taps must be >= 1, got -5$"):
            IdentScenario(n_taps=-5)

    def test_numpy_integer_counts_accepted(self):
        sc = IdentScenario(n_taps=np.int64(8), n_nonzero=np.int32(2), signal_len=np.uint16(20))
        assert (sc.n_taps, sc.n_nonzero, sc.signal_len) == (8, 2, 20)
        assert gen_ident_stream(sc).inputs.shape == (20, 8)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_meaningless_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            IdentScenario(snr_db=snr_db)

    @pytest.mark.parametrize("tap_value", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_unusable_tap_value_names_the_field(self, tap_value):
        with pytest.raises(ValueError, match="tap_value must be finite and nonzero"):
            IdentScenario(tap_value=tap_value)

    @pytest.mark.parametrize("tap_value", [1e200, 1e155, -1e160, 1e-170, 1e-160])
    def test_energy_out_of_range_names_tap_value(self, tap_value):
        # the truth's energy 28 * tap_value**2 overflows, is subnormal or is zero
        with pytest.raises(ValueError, match=r"tap_value .*n_nonzero\*tap_value\*\*2"):
            IdentScenario(tap_value=tap_value)

    @pytest.mark.parametrize("tap_value", [1e150, -1e150, 1e-150, 5e-154])
    def test_energy_in_range_accepted(self, tap_value):
        sc = IdentScenario(n_taps=8, n_nonzero=2, signal_len=20, tap_value=tap_value)
        truth = gen_ident_stream(sc).truth
        assert np.isfinite(np.sum(truth**2)) and np.sum(truth**2) > 0

    def test_infinite_snr_means_noiseless(self):
        sc = IdentScenario(n_taps=8, n_nonzero=2, signal_len=20, snr_db=np.inf)
        stream = gen_ident_stream(sc)
        assert np.array_equal(stream.outputs, stream.inputs @ stream.truth)

    def test_defaults_match_benchmark(self):
        sc = IdentScenario()
        assert (sc.n_taps, sc.n_nonzero, sc.signal_len, sc.snr_db) == (256, 28, 2000, 30.0)


class TestGenIdentStream:
    def test_shapes_and_truth(self):
        stream = gen_ident_stream(IdentScenario(seed=1))
        assert stream.inputs.shape == (2000, 256)
        assert stream.outputs.shape == (2000,)
        assert np.count_nonzero(stream.truth) == 28
        assert set(np.unique(stream.truth[stream.truth != 0])) == {1.0}

    def test_tap_delay_structure(self):
        # an impulse-like check: window n holds [u(n), ..., u(n-N+1)]
        stream = gen_ident_stream(IdentScenario(n_taps=4, n_nonzero=1, signal_len=6, seed=0))
        x = stream.inputs
        u = x[:, 0]
        for n in range(6):
            for k in range(4):
                expected = u[n - k] if n - k >= 0 else 0.0
                assert x[n, k] == expected

    def test_noiseless_outputs_reproduce_model(self):
        stream = gen_ident_stream(IdentScenario(snr_db=np.inf, seed=2))
        assert np.array_equal(stream.outputs, stream.inputs @ stream.truth)

    def test_same_seed_identical(self):
        a = gen_ident_stream(IdentScenario(seed=5))
        b = gen_ident_stream(IdentScenario(seed=5))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.truth, b.truth)

    def test_different_seeds_differ(self):
        a = gen_ident_stream(IdentScenario(seed=5))
        b = gen_ident_stream(IdentScenario(seed=6))
        assert not np.array_equal(support(a.truth), support(b.truth))

    def test_random_signs_option(self):
        stream = gen_ident_stream(IdentScenario(seed=3, random_signs=True))
        values = stream.truth[stream.truth != 0]
        assert set(np.unique(values)) == {-1.0, 1.0}

    def test_empirical_snr_calibration(self):
        # the calibration is unbiased; single realizations scatter by a
        # few tenths of a dB, so check the mean over seeds
        devs = []
        for seed in range(16):
            stream = gen_ident_stream(IdentScenario(seed=seed))
            clean = stream.inputs @ stream.truth
            noise = stream.outputs - clean
            snr = 10 * np.log10(np.sum(clean**2) / np.sum(noise**2))
            devs.append(snr - 30.0)
            assert abs(devs[-1]) < 1.0
        assert abs(np.mean(devs)) < 0.5


class TestNoiseCalibration:
    def test_noise_variance_counts_the_warmup(self):
        # With 256 taps and 300 samples the zero-padded warm-up windows cut
        # the clean power to ~0.57x of sum w_k^2, and the noise is scaled to
        # the reduced power sum_k w_k^2 (L-k)/L.  6,000 noise samples put the
        # standard error of the measured variance at ~1.8%, so the 10% bound
        # is ~5.5 sigma; calibrating to the full power would read ~1.74.
        measured = expected = 0.0
        for seed in range(20):
            sc = IdentScenario(n_taps=256, n_nonzero=28, signal_len=300, snr_db=10.0, seed=seed)
            stream = gen_ident_stream(sc)
            noise = stream.outputs - stream.inputs @ stream.truth
            weights = (sc.signal_len - np.arange(sc.n_taps)) / sc.signal_len
            measured += float(np.sum(noise**2))
            expected += sc.signal_len * float(np.sum(stream.truth**2 * weights)) / 10.0
        assert abs(measured / expected - 1.0) < 0.1


class TestChunkedIdentDraw:
    """The clean output summed over window-row chunks keeps the whole-matrix bits."""

    @pytest.mark.parametrize("n_taps", [1, 2, 7, 64, 255, 256, 257, 1000])
    def test_matches_whole_matrix_stream(self, n_taps):
        # 1 (mod 64) lengths end in a one-row tail, which joins the chunk before it
        for signal_len in [1, 2, 3, 63, 64, 65, 66, 127, 128, 129, 200, 2000, 2001, 2049]:
            for seed in range(3):
                sc = IdentScenario(
                    n_taps=n_taps, n_nonzero=1 + n_taps // 9, signal_len=signal_len,
                    snr_db=np.inf, seed=seed, random_signs=True,
                )
                want = whole_matrix_ident_stream(sc)
                windows, outputs, truth = _ident_draw(sc)
                case = (n_taps, signal_len, seed)
                assert outputs.tobytes() == want.outputs.tobytes(), case
                assert truth.tobytes() == want.truth.tobytes(), case
                assert windows[:, 0].tobytes() == want.inputs[:, 0].tobytes(), case
                got = gen_ident_stream(sc)
                assert got.inputs.flags.c_contiguous, case
                for field in ("inputs", "outputs", "truth"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), (field, case)

    @pytest.mark.parametrize("kw", [dict(), dict(signal_len=WINDOW_ROWS + 1, random_signs=True)])
    def test_noisy_draw_matches(self, kw):
        sc = IdentScenario(seed=4, **kw)
        want = whole_matrix_ident_stream(sc)
        got = gen_ident_stream(sc)
        for field in ("inputs", "outputs", "truth"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_harness_inputs_match(self):
        # each run's slice of the harness stack steps on the whole-matrix stream's windows
        # and outputs: plain LMS rows equal run_stream on that stream at every update
        scenario = IdentScenario(n_taps=64, n_nonzero=5, signal_len=129)
        lms = FilterConfig("lms", n_taps=64, mu=0.01)
        truths, updates = _stack(ExperimentConfig(scenario, [lms], base_seed=3), (0, 3))
        wants = [whole_matrix_ident_stream(replace(scenario, seed=seed)) for seed in range(3, 6)]
        estimates = [run_stream(lms, want)[0] for want in wants]
        for n, w in updates:
            for r in range(3):
                assert w[0, r].tobytes() == estimates[r][n].tobytes(), (n, r)
        assert n == 128
        for r, want in enumerate(wants):
            assert truths[r].tobytes() == want.truth.tobytes()

    def test_harness_never_builds_a_window_matrix(self):
        # one (2000, 256) window matrix is 4.1 MB; six runs need ~0.46 MB without one
        cfg = ExperimentConfig(IdentScenario(), [FilterConfig("lms", n_taps=256, mu=0.005)])
        _stack(cfg, (0, 1))  # a first draw in the process allocates ~0.8 MB once
        _, peak = traced_peak(_stack, cfg, (0, 6))
        assert peak < 1_000_000


class TestSpectrumScenario:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            SpectrumScenario(full_len=100, n_samples=101)
        with pytest.raises(ValueError, match="n_tones"):
            SpectrumScenario(full_len=10, n_samples=10, n_tones=5)

    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(full_len=100.0), "full_len"),
            (dict(n_tones=2.5), "n_tones"),
            (dict(n_samples=True), "n_samples"),
            (dict(n_samples="300"), "n_samples"),
        ],
    )
    def test_non_integer_counts_name_the_field(self, kw, field):
        with pytest.raises(ValueError, match=field):
            SpectrumScenario(**kw)

    @pytest.mark.parametrize("seed,match", [(-1, "seed must be >= 0"), (2.5, "seed must be an integer")])
    def test_bad_seed_names_the_field(self, seed, match):
        with pytest.raises(ValueError, match=match):
            SpectrumScenario(seed=seed)

    def test_tone_bound_is_the_usable_bin_count(self):
        # at the bound every tone bin is drawn: all of 1 .. ceil(L/2) - 1, never Nyquist
        for full_len in range(3, 131):
            n_usable = (full_len - 1) // 2
            sc = SpectrumScenario(full_len=full_len, n_tones=n_usable, n_samples=1)
            bins = sorted(_tone_bins(sc, np.random.default_rng(0)))
            assert bins == list(range(1, (full_len + 1) // 2)) and full_len / 2 not in bins
            match = rf"^n_tones must satisfy 1 <= n_tones <= {n_usable}, got {n_usable + 1}$"
            with pytest.raises(ValueError, match=match):
                SpectrumScenario(full_len=full_len, n_tones=n_usable + 1, n_samples=1)

    def test_full_len_named_before_the_counts_it_bounds(self):
        with pytest.raises(ValueError, match=r"^full_len must be >= 1, got 0$"):
            SpectrumScenario(full_len=0)


class TestNoiseLevel:
    """One snr_db rule for both scenarios: +inf is noiseless, and every noise level is finite."""

    SCENARIOS = {
        "ident": (lambda snr: IdentScenario(n_taps=8, n_nonzero=2, signal_len=20, snr_db=snr),
                  gen_ident_stream),
        "spectrum": (lambda snr: SpectrumScenario(full_len=32, n_tones=2, n_samples=12, snr_db=snr),
                     gen_spectrum_stream),
    }

    @pytest.mark.parametrize("kind", SCENARIOS)
    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_meaningless_snr_rejected(self, kind, snr_db):
        make, _ = self.SCENARIOS[kind]
        with pytest.raises(ValueError, match="snr_db must be a number or \\+inf"):
            make(snr_db)

    @pytest.mark.parametrize("kind", SCENARIOS)
    @pytest.mark.parametrize("snr_db", [-3100.0, -4000.0])
    def test_non_finite_noise_variance_names_snr_db(self, kind, snr_db):
        # -3100 dB overflows the variance to inf; at -4000 dB its divisor underflows to 0
        make, draw = self.SCENARIOS[kind]
        with pytest.raises(ValueError, match="snr_db .* non-finite noise variance"):
            draw(make(snr_db))

    def test_overflowing_snr_adds_zero_noise(self):
        # 10**(4000/10) overflows a float; the noise variance is then 0
        sc = IdentScenario(n_taps=8, n_nonzero=2, signal_len=20, snr_db=4000.0)
        noiseless = gen_ident_stream(replace(sc, snr_db=np.inf))
        assert np.array_equal(gen_ident_stream(sc).outputs, noiseless.outputs)


class TestGenSpectrumStream:
    def test_truth_occupies_two_bins_per_tone(self):
        sc = SpectrumScenario(full_len=64, n_tones=1, n_samples=64, snr_db=np.inf, seed=0)
        stream = gen_spectrum_stream(sc)
        sup = support(stream.truth)
        assert sup.size == 2
        k = sup[0]
        assert sup[1] == 64 - k
        assert np.allclose(np.abs(stream.truth[sup]), np.sqrt(64) / 2)

    def test_dft_round_trip(self):
        sc = SpectrumScenario(seed=4)
        stream = gen_spectrum_stream(sc)
        L = sc.full_len
        synth = np.sqrt(L) * np.fft.ifft(stream.truth)
        assert np.max(np.abs(synth.imag)) < 1e-9
        bins = np.sort(support(stream.truth))[: sc.n_tones]
        t = np.arange(L)
        clean = np.sin(2 * np.pi * np.outer(t, bins) / L).sum(axis=1)
        scale = np.linalg.norm(clean)
        assert np.linalg.norm(synth.real - clean) < 1e-9 * scale

    def test_conjugation_convention(self):
        # noise off: w^H x(n) equals the sampled time signal
        sc = SpectrumScenario(full_len=128, n_tones=3, n_samples=40, snr_db=np.inf, seed=7)
        stream = gen_spectrum_stream(sc)
        for x, y in stream:
            assert abs(np.vdot(stream.truth, x) - y) < 1e-9

    def test_row_norms_constant(self):
        stream = gen_spectrum_stream(SpectrumScenario(seed=1))
        norms = np.sum(np.abs(stream.inputs) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_passes_repeat_in_order(self):
        sc = SpectrumScenario(full_len=64, n_tones=2, n_samples=10, seed=2)
        one = gen_spectrum_stream(sc, passes=1)
        three = gen_spectrum_stream(sc, passes=3)
        assert len(three) == 30
        for p in range(3):
            assert np.array_equal(three.inputs[p * 10 : (p + 1) * 10], one.inputs)
            assert np.array_equal(three.outputs[p * 10 : (p + 1) * 10], one.outputs)

    def test_sample_positions_distinct(self):
        sc = SpectrumScenario(full_len=200, n_tones=4, n_samples=60, seed=3)
        stream = gen_spectrum_stream(sc)
        # recover the time position from the first-bin phase
        angles = np.angle(stream.inputs[:, 1])
        positions = np.round((-angles * 200) / (2 * np.pi)) % 200
        assert len(set(positions.tolist())) == 60

    def test_sampling_uniformity_chi_square(self):
        L, M = 50, 20
        counts = np.zeros(L)
        for seed in range(400):
            sc = SpectrumScenario(full_len=L, n_tones=2, n_samples=M, seed=seed)
            stream = gen_spectrum_stream(sc)
            angles = np.angle(stream.inputs[:, 1])
            positions = (np.round((-angles * L) / (2 * np.pi)) % L).astype(int)
            counts[positions] += 1
        expected = 400 * M / L
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # df = 49, mean 49, std ~9.9; generous 5-sigma smoke bound
        assert chi2 < 49 + 5 * np.sqrt(2 * 49)

    def test_empirical_snr(self):
        devs = []
        for seed in range(12):
            sc = SpectrumScenario(n_samples=1000, seed=seed)
            stream = gen_spectrum_stream(sc)
            residual = stream.outputs - np.array([np.vdot(stream.truth, x) for x in stream.inputs])
            noise_power = float(np.mean(np.abs(residual) ** 2))
            devs.append(10 * np.log10((sc.n_tones / 2) / noise_power) - 20.0)
        assert abs(np.mean(devs)) < 0.5


class TestChunkedSpectrumRows:
    """Rows read in place by chunks from the table of roots keep the bits of one whole-matrix gather.

    The samples and the truth keep the bits of the former whole-matrix
    draw, whose ``np.exp`` over the phase matrix the rows replace.
    """

    @pytest.mark.parametrize("passes", [1, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "kw",
        [
            dict(),  # 300 rows: not a multiple of the 32-row chunk
            dict(full_len=999, n_tones=5, n_samples=100),  # odd full_len
            dict(full_len=2048, n_tones=8, n_samples=200),  # 16-row chunks
            dict(full_len=127, n_tones=3, n_samples=127),  # a single chunk
            dict(full_len=2**15 + 1, n_tones=2, n_samples=3),  # one row per chunk
        ],
    )
    def test_matches_whole_matrix_stream(self, kw, seed, passes):
        sc = SpectrumScenario(seed=seed, **kw)
        got = gen_spectrum_stream(sc, passes=passes)
        former = whole_matrix_spectrum_stream(sc, passes=passes)
        table = whole_matrix_spectrum_stream(sc, passes=passes, table=True)
        for field, want in (("inputs", table), ("outputs", former), ("truth", former)):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        # the former rows rounded phases of up to 2*pi*full_len, so their
        # entries are off by up to ~2*pi*eps*sqrt(full_len): 4.4e-14 at the
        # default 1000 (measured 3.2e-14), 2.5e-13 at 2**15 + 1 (2.0e-13)
        bound = max(1e-13, 4 * np.pi * np.finfo(float).eps * np.sqrt(sc.full_len))
        assert np.max(np.abs(got.inputs - former.inputs)) <= bound

    @pytest.mark.parametrize("full_len", [46341, 46342])
    def test_index_rows_exact_at_the_int32_bound(self, full_len):
        # (full_len - 1)**2 fits int32 at 46341, and not at 46342, whose products are int64
        positions = [1, full_len // 2, full_len - 2, full_len - 1]
        got = np.concatenate([k for _, k in _phase_rows(np.array(positions), full_len)])
        assert got.tolist() == [[p * j % full_len for j in range(full_len)] for p in positions]

    def test_peak_memory_close_to_the_rows(self):
        # the whole-matrix draw peaked at ~2.1x the rows it returned
        stream, peak = traced_peak(gen_spectrum_stream, SpectrumScenario())
        assert peak <= 1.5 * stream.inputs.nbytes


class TestEsr:
    def test_exact_estimate(self):
        assert esr([1.0, 0.0], [1.0, 0.0]) == 0.0
        assert esr_db([1.0, 0.0], [1.0, 0.0]) == float("-inf")

    def test_zero_estimate(self):
        assert esr([1.0, 2.0], [0.0, 0.0]) == 1.0
        assert esr_db([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_orthogonal_estimate(self):
        assert esr([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_complex(self):
        assert esr([1j, 0j], [0j, 0j]) == 1.0

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            esr([0.0, 0.0], [1.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            esr([1.0], [1.0, 0.0])
