"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line and asserts the
criterion at its frozen tolerance.  The randomized suites use fixed
seeds, so the whole module is deterministic.
"""

import os
import time

import numpy as np
import pytest

from helpers import exhaustive_top_energy, replay_sza_run, sza_ensemble
from sparselms import (
    ExperimentConfig,
    FilterConfig,
    FilterState,
    IdentScenario,
    SpectrumScenario,
    batch_iht,
    complex_hard_lms_step,
    emit_outputs,
    hard_threshold,
    ident_diagnostics,
    penalty_mask,
    run_ident_experiment,
    run_spectrum_experiment,
    support,
    sza_bias_residual,
    theorem1_condition,
    theorem2_condition,
)
from sparselms.filters import step

WORKERS = min(os.cpu_count() or 1, 8)


_capture = None


@pytest.fixture(autouse=True)
def _gate_console(capfd):
    # keep a handle so _report can print through pytest's fd capture
    global _capture
    _capture = capfd
    yield
    _capture = None


def _report(name, ok, elapsed, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s)"
    if detail:
        line += f" :: {detail}"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line)
    assert ok, line


def test_criterion_1_operator_property_suite():
    """10^5 randomized vectors, N <= 64: threshold/penalty invariants."""
    t0 = time.time()
    rng = np.random.default_rng(11_0001)
    n_vectors = 100_000
    oracle_checks = 0
    for i in range(n_vectors):
        n = int(rng.integers(1, 65))
        kind = i % 10
        if kind < 6:
            v = rng.standard_normal(n)
        elif kind < 8:
            v = rng.integers(-3, 4, size=n).astype(float)  # frequent exact ties
        else:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if kind == 5:
            v[rng.random(n) < 0.5] = 0  # exercise ||v||_0 < s
        s = int(rng.integers(1, n + 1))

        out = hard_threshold(v, s)
        out2 = hard_threshold(out, s)
        assert np.array_equal(out2, out), "idempotence"
        assert np.all((out == v) | (out == 0)), "value preservation"

        mags = np.abs(v)
        kept = out != 0
        dropped = (~kept) & (v != 0)
        if kept.any() and dropped.any():
            assert mags[kept].min() >= mags[dropped].max(), "majorization"

        nnz_in = int(np.count_nonzero(v))
        nnz_out = int(np.count_nonzero(out))
        assert nnz_out >= min(s, nnz_in), "retained count"
        if len(set(mags.tolist())) == n:
            assert nnz_out == min(s, nnz_in), "no-tie cardinality"

        if n >= 2:
            sp = int(rng.integers(1, n))
            pm = penalty_mask(v, sp)
            kept_sp = support(hard_threshold(v, sp))
            assert not np.intersect1d(support(pm), kept_sp).size, "penalty disjointness"

        if n <= 8:
            assert np.array_equal(out, exhaustive_top_energy(v, s)), "oracle equivalence"
            oracle_checks += 1

    _report(
        "criterion 1: operator property suite",
        True,
        time.time() - t0,
        f"{n_vectors} vectors, {oracle_checks} exhaustive-oracle checks, 0 violations",
    )


def _random_sparse_pair(rng, n, s):
    w = np.zeros(n)
    pos = rng.choice(n, s, replace=False)
    w[pos] = rng.choice([-1.0, 1.0], s) * (0.5 + 1.5 * rng.random(s))
    q = float(np.min(np.abs(w[pos])))
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    # squared error up to 1.5 q^2 straddles both theorem bounds
    target = rng.random() * 1.5 * q * q
    return w, w + direction * np.sqrt(target), q


def test_criterion_2_support_theorems():
    """10^5 randomized pairs per theorem; conclusions must never fail."""
    t0 = time.time()
    rng = np.random.default_rng(22_0002)
    n_pairs = 100_000

    held1 = held2 = misses = 0
    for _ in range(n_pairs):
        n = int(rng.integers(2, 65))
        s = int(rng.integers(1, max(2, n // 2 + 1)))
        w, w_hat, q = _random_sparse_pair(rng, n, s)
        # theorem 1: hypothesis error^2 < q^2/2 (strict)
        cert = theorem1_condition(w, w_hat)  # raises on any conclusion violation
        if cert.condition_holds:
            held1 += 1
            assert np.array_equal(support(hard_threshold(w_hat, s)), support(w))
            if cert.error_sq > 0:
                assert float(np.sum(w * w)) / cert.error_sq > 2 * s, "SER necessity"

        # theorem 2: needs s < d < n
        if s + 1 >= n:
            continue
        d = int(rng.integers(s + 1, n))
        cert2 = theorem2_condition(w, w_hat, d)
        sup = support(w)
        top = support(hard_threshold(w_hat, d))
        is_superset = bool(np.all(np.isin(sup, top)))
        if cert2.condition_holds:
            held2 += 1
            assert is_superset
        elif not is_superset and support(w_hat).size >= d:
            # contrapositive: dense estimate misses the support only when
            # the error bound is violated
            misses += 1
            assert cert2.error_sq > cert2.q ** 2 * (1 - 1 / (cert2.tau + 2))

    assert held1 > n_pairs // 20, "theorem 1 hypothesis never exercised"
    assert held2 > n_pairs // 20, "theorem 2 hypothesis never exercised"
    _report(
        "criterion 2: support theorems as tests",
        True,
        time.time() - t0,
        f"{n_pairs} pairs/theorem, thm1 held {held1}, thm2 held {held2}, "
        f"{misses} contrapositive checks, 0 violations",
    )


def test_criterion_3_fig1_ordering_desk_scale():
    """Benchmark ordering of final-500 mean ESR at 20 runs."""
    t0 = time.time()

    def mk(alg, **kw):
        return FilterConfig(alg, n_taps=256, mu=0.005, **kw)

    cfg = ExperimentConfig(
        scenario=IdentScenario(n_taps=256, n_nonzero=28, tap_value=1.0,
                               signal_len=2000, snr_db=30.0),
        algorithms=[
            mk("lms"),
            mk("za_lms", rho=5e-5),
            mk("rza_lms", rho=5e-5, epsilon=10.0),
            mk("sza_lms", rho=5e-5, sparsity=28),
            mk("hard_lms", sparsity=28),
            mk("hard_init_lms", sparsity=28, warmup_steps=512),
            mk("hard_rel_lms", sparsity=28, relaxed_sparsity=56),
        ],
        n_runs=20,
        base_seed=0,
    )
    curves = run_ident_experiment(cfg, max_workers=WORKERS)
    win = {
        label: 10.0 * np.log10(curve.esr_linear[-500:].mean())
        for label, curve in curves.items()
    }
    # "<" needs a >= 1 dB gap, "~" tolerates 3 dB; the unquantified "<="
    # between RZA and ZA is pinned at the chain's own 1 dB resolution
    # (RZA crosses below ZA near iteration 1840, inside the window).
    legs = [
        ("hard_init ~ hard_rel", abs(win["hard_init_lms"] - win["hard_rel_lms"]) <= 3.0),
        ("hard_init < sza", win["hard_init_lms"] <= win["sza_lms"] - 1.0),
        ("hard_rel < sza", win["hard_rel_lms"] <= win["sza_lms"] - 1.0),
        ("sza < rza", win["sza_lms"] <= win["rza_lms"] - 1.0),
        ("rza <= za", win["rza_lms"] <= win["za_lms"] + 1.0),
        ("za < lms", win["za_lms"] <= win["lms"] - 1.0),
        ("lms < hard", win["lms"] <= win["hard_lms"] - 1.0),
    ]
    failed = [name for name, ok in legs if not ok]
    detail = "  ".join(f"{k}={v:.1f}dB" for k, v in win.items())
    if failed:
        detail += " | failed legs: " + ", ".join(failed)
    _report("criterion 3: benchmark ordering (20 runs)", not failed, time.time() - t0, detail)


def test_criterion_4_sza_unbiased_on_found_support():
    """Mean SZA limit satisfies the stationarity equation at N=8, s=2."""
    t0 = time.time()
    n, n_runs, n_steps, tail = 8, 100, 200_000, 100_000
    w_true = np.zeros(n)
    w_true[[1, 5]] = 1.0
    mu, rho, noise_std = 0.05, 5e-4, np.sqrt(0.02)

    tail_w, tail_p, hit_fraction, _ = sza_ensemble(
        w_true, mu, rho, noise_std, n_runs=n_runs, n_steps=n_steps, tail=tail, seed=44_0004
    )
    assert np.all(hit_fraction == 1.0), "support hit-rate below 1 in the tail"

    w_bar = tail_w.mean(axis=0)
    p_bar = tail_p.mean(axis=0)
    se_w = tail_w.std(axis=0, ddof=1) / np.sqrt(n_runs)
    support_dev = np.abs(w_bar[[1, 5]] - 1.0)
    assert np.all(support_dev < 3.0 * se_w[[1, 5]]), "support mean outside 3 SE"

    residual = sza_bias_residual(w_true, w_bar, np.eye(n), mu, rho, p_bar)
    per_run = tail_w - w_true + (rho / mu) * tail_p
    se_combined = per_run.std(axis=0, ddof=1) / np.sqrt(n_runs)
    tolerance = 3.0 * float(np.sqrt(np.sum(se_combined**2)))
    ok = residual < tolerance
    _report(
        "criterion 4: selective attractor unbiasedness",
        ok,
        time.time() - t0,
        f"residual {residual:.2e} < tol {tolerance:.2e}, "
        f"support dev {support_dev.max():.2e} ({(support_dev / se_w[[1, 5]]).max():.2f} SE)",
    )


def test_criterion_4b_ensemble_driver_matches_stepper():
    """The vectorized Monte Carlo twin replays the scalar SZA stepper."""
    t0 = time.time()
    w_true = np.zeros(8)
    w_true[[1, 5]] = 1.0
    _, _, _, capture = sza_ensemble(
        w_true, 0.05, 5e-4, np.sqrt(0.02), n_runs=4, n_steps=400, tail=100,
        seed=44_0004, capture_steps=400,
    )
    cap_x, cap_y, cap_w = capture
    estimates = replay_sza_run(w_true, 0.05, 5e-4, cap_x, cap_y)
    err = float(np.max(np.abs(estimates - cap_w)))
    _report("criterion 4 twin check: ensemble == stepper", err < 1e-10,
            time.time() - t0, f"max deviation {err:.1e}")


def test_criterion_5_spectrum_experiment():
    """Spectrum benchmark: full support recovery in >= 90% of 50 seeds."""
    t0 = time.time()
    cfg = ExperimentConfig(
        scenario=SpectrumScenario(full_len=1000, n_tones=10, n_samples=300, snr_db=20.0),
        algorithms=[
            FilterConfig("lms", n_taps=1000, mu=1.0, label="complex_lms"),
            FilterConfig("hard_lms", n_taps=1000, mu=1.0, sparsity=20, label="complex_hard_lms"),
        ],
        n_runs=50,
        base_seed=0,
        passes=10,
    )
    report = run_spectrum_experiment(cfg, max_workers=WORKERS)
    hits = np.array(report.per_run_hit_rates["complex_hard_lms"])
    perfect = float(np.mean(hits == 1.0))
    hard_amp = float(np.mean(report.true_bin_means["complex_hard_lms"]))
    lms_amp = float(np.mean(report.true_bin_means["complex_lms"]))
    ok = perfect >= 0.90 and lms_amp < 0.5 * hard_amp
    _report(
        "criterion 5: spectrum recovery (50 seeds)",
        ok,
        time.time() - t0,
        f"hit-rate-1 fraction {perfect:.2f} (>=0.90), "
        f"amplitude ratio lms/hard {lms_amp / hard_amp:.2f} (<0.50)",
    )


def test_criterion_6_single_measurement_iht_equivalence():
    """Batch IHT at M=1 is bit-identical to streaming hard-threshold LMS."""
    t0 = time.time()
    n, s, steps = 32, 4, 1000
    for seed in range(20):
        rng = np.random.default_rng(seed)

        x = rng.standard_normal(n)
        w_gen = np.zeros(n)
        w_gen[rng.choice(n, s, replace=False)] = rng.standard_normal(s)
        y = float(np.dot(x, w_gen))
        mu = 1.0 / float(np.dot(x, x))
        _, hist = batch_iht(x[None, :], np.array([y]), s, mu, steps, return_history=True)
        state = FilterState.initial(n)
        cfg = FilterConfig("hard_lms", n_taps=n, mu=mu, sparsity=s)
        for k in range(steps):
            state, _ = step(state, x, y, cfg)
            assert np.array_equal(state.estimate, hist[k]), f"real divergence, seed {seed}"

        xc = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        wc = np.zeros(n, dtype=complex)
        wc_gen = np.zeros(n, dtype=complex)
        idx = rng.choice(n, s, replace=False)
        wc_gen[idx] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        yc = complex(np.vdot(wc_gen, xc))
        muc = 1.0 / float(np.real(np.vdot(xc, xc)))
        _, histc = batch_iht(
            np.conj(xc)[None, :], np.array([np.conj(yc)]), s, muc, steps, return_history=True
        )
        for k in range(steps):
            wc, _ = complex_hard_lms_step(wc, xc, yc, muc, s)
            assert np.array_equal(wc, histc[k]), f"complex divergence, seed {seed}"

    _report(
        "criterion 6: M=1 batch/streaming equivalence",
        True,
        time.time() - t0,
        "20 seeds x 1000 steps, real and complex, bit-identical",
    )


def test_criterion_7_byte_identical_outputs(tmp_path):
    """Reruns and maximal run-parallelism produce identical artifacts."""
    t0 = time.time()
    ident_cfg = ExperimentConfig(
        scenario=IdentScenario(n_taps=16, n_nonzero=3, signal_len=150),
        algorithms=[
            FilterConfig("lms", n_taps=16, mu=0.02),
            FilterConfig("za_lms", n_taps=16, mu=0.02, rho=1e-4),
            FilterConfig("rza_lms", n_taps=16, mu=0.02, rho=1e-4, epsilon=10.0),
            FilterConfig("sza_lms", n_taps=16, mu=0.02, rho=1e-4, sparsity=3),
            FilterConfig("hard_lms", n_taps=16, mu=0.02, sparsity=3),
            FilterConfig("hard_init_lms", n_taps=16, mu=0.02, sparsity=3, warmup_steps=40),
            FilterConfig("hard_rel_lms", n_taps=16, mu=0.02, sparsity=3, relaxed_sparsity=6),
        ],
        n_runs=6,
        base_seed=0,
    )
    spectrum_cfg = ExperimentConfig(
        scenario=SpectrumScenario(full_len=128, n_tones=3, n_samples=48, snr_db=20.0),
        algorithms=[
            FilterConfig("lms", n_taps=128, mu=1.0, label="complex_lms"),
            FilterConfig("hard_lms", n_taps=128, mu=1.0, sparsity=6, label="complex_hard_lms"),
        ],
        n_runs=6,
        base_seed=0,
        passes=5,
    )

    outputs = {}
    for trial, workers in (("a", WORKERS), ("b", WORKERS), ("serial", 1)):
        d = tmp_path / trial
        curves = run_ident_experiment(ident_cfg, max_workers=workers)
        emit_outputs(curves, d / "ident", experiment=ident_cfg,
                     diagnostics=ident_diagnostics(ident_cfg))
        report = run_spectrum_experiment(spectrum_cfg, max_workers=workers)
        emit_outputs(report, d / "spectrum", experiment=spectrum_cfg)
        outputs[trial] = {
            rel: (d / rel).read_bytes()
            for rel in ("ident/curves.csv", "ident/summary.json",
                        "spectrum/spectrum.csv", "spectrum/summary.json")
        }

    same = all(
        outputs["a"][rel] == outputs["b"][rel] == outputs["serial"][rel]
        for rel in outputs["a"]
    )
    _report(
        "criterion 7: byte-identical artifacts",
        same,
        time.time() - t0,
        f"2 parallel reruns ({WORKERS} workers) + serial, 4 files each",
    )
