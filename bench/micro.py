"""Isolated layer microbenchmarks through the public sparselms API.

Each case times one public function at the size the workloads use, on
inputs drawn from the benchmark seed.  One sample times a batch of calls
long enough to dwarf the clock resolution; a case reports the median
microseconds per call over its samples, with quartiles in the report.
"""

import time

import numpy as np

from stats import summarize
from tracing import ALGORITHMS

SAMPLE_S = 0.002  # shortest timed batch
BUDGET_S = 0.25  # sampling time per case, before the sample-count clamp
MIN_SAMPLES, MAX_SAMPLES = 7, 41


def per_call_us(fn):
    """Microseconds per call of ``fn``, one value per timed batch."""
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= SAMPLE_S:
            break
        batch *= 2
    count = min(MAX_SAMPLES, max(MIN_SAMPLES, int(BUDGET_S / elapsed)))
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append(1e6 * (time.perf_counter() - start) / batch)
    return samples


def cases(seed):
    """``{metric prefix: zero-argument callable}`` at benchmark sizes."""
    import sparselms as sl

    rng = np.random.default_rng(seed)
    out = {}
    for n in (64, 256, 1000):
        s = round(28 * n / 256)  # the ident scenario's sparsity ratio
        v = rng.standard_normal(n)
        out[f"thresholding.hard_threshold.n{n}"] = lambda v=v, s=s: sl.hard_threshold(v, s)
        out[f"thresholding.penalty_mask.n{n}"] = lambda v=v, s=s: sl.penalty_mask(v, s)
    vc = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    out["thresholding.hard_threshold.complex_n1000"] = lambda: sl.hard_threshold(vc, 20)

    ident_scenario = sl.IdentScenario(seed=seed)
    ident = sl.gen_ident_stream(ident_scenario)
    truth = ident.truth
    estimate = truth + 0.01 * rng.standard_normal(truth.shape[0])
    x, y = ident.inputs[1000], ident.outputs[1000]
    for algorithm in ALGORITHMS:
        cfg = sl.FilterConfig(
            algorithm, n_taps=256, mu=0.005, rho=5e-5, epsilon=10.0,
            sparsity=28, relaxed_sparsity=56, warmup_steps=512,
        )
        # past the warm-up, so hard_init_lms thresholds like the others
        state = sl.FilterState(estimate.copy(), iteration=1000)
        out[f"filters.{algorithm}.step"] = lambda state=state, cfg=cfg: sl.step(state, x, y, cfg)

    spectrum_scenario = sl.SpectrumScenario(seed=seed)
    spectrum = sl.gen_spectrum_stream(spectrum_scenario, passes=10)
    w = spectrum.truth + 0.1 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    xc, yc = spectrum.inputs[0], spectrum.outputs[0]
    out["complex_lms.complex_lms_step"] = lambda: sl.complex_lms_step(w, xc, yc, 1.0)
    out["complex_lms.complex_hard_lms_step"] = lambda: sl.complex_hard_lms_step(w, xc, yc, 1.0, 20)

    out["signals.gen_ident_stream"] = lambda: sl.gen_ident_stream(ident_scenario)
    out["signals.gen_spectrum_stream"] = lambda: sl.gen_spectrum_stream(spectrum_scenario, passes=10)
    out["signals.esr"] = lambda: sl.esr(truth, estimate)
    out["recovery.theorem1_condition"] = lambda: sl.theorem1_condition(truth, estimate)
    # eight snapshots at the default cadence, converging so that the
    # early ones fail the exact-support condition and the late ones pass
    snapshots = [
        (250 * (k + 1), truth + 0.3 * 0.6**k * rng.standard_normal(truth.shape[0]))
        for k in range(8)
    ]
    out["harness.diagnose_run"] = lambda: sl.diagnose_run(truth, snapshots, relaxed_sparsity=56)
    return out


def run_micro(seed):
    """Median microseconds per call of every case: ``(metrics, stats)``."""
    metrics, stats = {}, {}
    for prefix, fn in cases(seed).items():
        st = summarize(per_call_us(fn))
        metrics[f"{prefix}.us_per_call"] = (st["median"], "us")
        stats[f"{prefix}.us_per_call"] = st
    return metrics, stats
