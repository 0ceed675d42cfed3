"""Identification learning curves against the independence theory of LMS.

The curves of ``run_ident_experiment`` at the CLI's filter settings
(``mu`` 0.005, ``s = 28`` unit taps of 256, 30 dB SNR) are checked
against closed forms for white Gaussian input (:func:`helpers.lms_msd`),
with each run's noise variance the one its draw calibrates.  Plain LMS
adapts all ``N`` taps; ``hard_init_lms`` after its warm-up adapts only the
``s`` taps its threshold keeps, so it is LMS on ``K = s`` taps.  The
zero-padded start makes the first few hundred updates ~1 dB slower than
the theory, which the tolerances absorb.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import calibrated_noise_var, lms_msd, lms_msd_limit
from sparselms import ExperimentConfig, FilterConfig, IdentScenario, run_ident_experiment

MU, N_TAPS, S, WARMUP = 0.005, 256, 28, 512


def db(x):
    return 10.0 * np.log10(x)


def run(signal_len, n_runs, algorithms):
    """``(curves, mean noise variance)`` of ``n_runs`` default-scenario runs from seed 0."""
    sc = IdentScenario(n_taps=N_TAPS, n_nonzero=S, signal_len=signal_len)
    cfg = ExperimentConfig(sc, algorithms, n_runs=n_runs, snapshot_every=signal_len)
    noise = np.mean([calibrated_noise_var(replace(sc, seed=r)) for r in range(n_runs)])
    return run_ident_experiment(cfg), noise


@pytest.fixture(scope="module")
def steady():
    # 24 runs of 6000 samples, whose last 3000 are LMS's steady state
    return run(6000, 24, [
        FilterConfig("lms", N_TAPS, MU),
        FilterConfig("hard_init_lms", N_TAPS, MU, sparsity=S, warmup_steps=WARMUP),
    ])


def test_noise_variance_is_calibrated(steady):
    # 28 unit taps at 30 dB, a few of them weighted down by the padded start
    assert 0.0270 < steady[1] < 0.0280


@pytest.mark.parametrize("label,n_active", [("lms", N_TAPS), ("hard_init_lms", S)])
def test_steady_state_esr(steady, label, n_active):
    # predicted -27.53 and -41.30 dB; measured -27.43 and -41.21 dB
    curves, noise = steady
    measured = db(np.mean(curves[label].esr_linear[-3000:]))
    predicted = db(lms_msd_limit(MU, n_active, noise) / S)
    assert abs(measured - predicted) <= 0.5


def test_lms_crosses_theorem1_line_on_time(steady):
    # Theorem 1's line for unit taps is ESR < 1/(2s); predicted 1161, measured 1156
    curves, noise = steady
    line = 1.0 / (2 * S)
    measured = int(np.argmax(curves["lms"].esr_linear < line)) + 1
    predicted = int(np.argmax(lms_msd(MU, N_TAPS, noise, float(S), 6000) / S < line)) + 1
    assert abs(measured - predicted) <= 0.03 * predicted


@pytest.fixture(scope="module")
def misestimated():
    # one 12-run roster of three keep-counts below s, 4000 samples
    return run(4000, 12, [
        FilterConfig("hard_init_lms", N_TAPS, MU, sparsity=k, warmup_steps=WARMUP, label=f"s{k}")
        for k in (20, 24, 27)
    ])


@pytest.mark.parametrize("keep", [20, 24, 27])
def test_misestimated_sparsity_floor(misestimated, keep):
    """``hard_init_lms`` keeping ``keep < s`` taps: a bias floor plus LMS on ``keep`` taps.

    The ``s - keep`` dropped unit taps leave ``(s - keep)/s`` of the truth
    unestimated, and their output power adds to the noise the kept taps
    see.  Predicted -5.22, -8.18 and -14.16 dB; measured -5.22, -8.19 and
    -14.16 dB (the bias floor with the noise alone is 0.22-0.30 dB lower).
    """
    curves, noise = misestimated
    measured = db(np.mean(curves[f"s{keep}"].esr_linear[-1000:]))
    bias = (S - keep) / S
    predicted = db(bias + lms_msd_limit(MU, keep, noise + (S - keep)) / S)
    assert abs(measured - predicted) <= 0.5
