"""Shared test utilities: oracles and Monte Carlo drivers."""

import math
import tracemalloc
from enum import Enum
from fractions import Fraction
from itertools import combinations

import numpy as np

from sparselms import FilterConfig, MeasurementStream, run_stream
from sparselms.signals import _ident_draw, _tone_bins


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the tracemalloc peak of the call above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def exhaustive_top_energy(v, s):
    """Brute-force hard threshold for short vectors.

    Enumerates every size-s index set, finds the maximum retained energy
    and keeps the union of all maximizing sets (so entry-level ties are
    resolved exactly like the conservative rule).  Subset energies are
    accumulated in exact rational arithmetic over the same float
    magnitudes the implementation ranks by; float sums would invent ties
    (1.0 + 1e-300 rounds back to 1.0).
    """
    v = np.asarray(v)
    n = v.shape[0]
    energy = [Fraction(float(m)) ** 2 for m in np.abs(v)]
    best = None
    keep = set()
    for subset in combinations(range(n), s):
        e = sum(energy[i] for i in subset)
        if best is None or e > best:
            best = e
            keep = set(subset)
        elif e == best:
            keep |= set(subset)
    out = np.zeros_like(v)
    idx = sorted(keep)
    out[idx] = v[idx]
    return out


def partition_hard_threshold(v, s, out=None):
    """Reference hard threshold that takes its cut from ``np.partition``.

    The package's former implementation, kept verbatim; the package now
    reads the same order statistic from ``np.sort`` and must match this
    bit for bit.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    if not 1 <= s <= n:
        raise ValueError(f"s must satisfy 1 <= s <= {n}, got {s}")
    if out is None:
        out = v.copy()
    elif out is not v:
        out[...] = v
    if s == n:
        return out
    mags = np.abs(v)
    # the slice keeps the last axis, so each row's cut broadcasts over its row
    cut = np.partition(mags, n - s, axis=-1)[..., n - s : n - s + 1]
    out[mags < cut] = 0
    return out


def former_penalty_mask(v, s):
    """Reference penalty mask that zeroes the signs of a thresholded copy.

    The package's former ``penalty_mask``, kept verbatim but for its
    threshold, which is :func:`partition_hard_threshold`.  The package now
    takes the signs below one cut, ``np.sign(v, where=mags < cut,
    out=zeros)``, and must match this bit for bit.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    if not 1 <= s < n:
        raise ValueError(f"s must satisfy 1 <= s < {n}, got {s}")
    kept = partition_hard_threshold(v, s)
    out = np.sign(v)
    out[kept != 0] = 0
    return out


def whole_matrix_spectrum_stream(sc, passes=1, table=False):
    """Reference spectrum stream built through whole-matrix temporaries.

    The package's former ``gen_spectrum_stream``, kept verbatim: one
    ``(n_samples, full_len)`` phase matrix, one ``np.exp`` over it and an
    ``np.tile`` copy even at ``passes=1``.  With ``table``, the rows are
    instead one gather from the table of the ``full_len`` roots of unity,
    through one whole-matrix index.  The package draws the table rows in
    place, a chunk at a time, and must match those bit for bit.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    rng = np.random.default_rng(sc.seed)
    L = sc.full_len
    bins = _tone_bins(sc, rng)

    t = np.arange(L)
    clean = np.sin(2.0 * np.pi * np.outer(t, bins) / L).sum(axis=1)
    if np.isinf(sc.snr_db):
        noisy = clean
    else:
        noise_var = (sc.n_tones / 2.0) / 10.0 ** (sc.snr_db / 10.0)
        noisy = clean + np.sqrt(noise_var) * rng.standard_normal(L)

    amp = np.sqrt(L) / 2.0
    truth = np.zeros(L, dtype=complex)
    truth[bins] = -1j * amp
    truth[L - bins] = 1j * amp

    positions = rng.choice(L, size=sc.n_samples, replace=False)
    # conj of the inverse-DFT rows, so that truth^H x(t) = clean(t)
    if table:
        rows = (np.exp(-2j * np.pi * t / L) / np.sqrt(L))[np.outer(positions, t) % L]
    else:
        rows = np.exp(-2j * np.pi * np.outer(positions, t) / L) / np.sqrt(L)
    samples = noisy[positions]

    inputs = np.tile(rows, (passes, 1))
    outputs = np.tile(samples, passes)
    return MeasurementStream(inputs, outputs, truth)


def whole_matrix_ident_stream(sc):
    """Reference identification stream built through the whole window matrix.

    The package's former ``gen_ident_stream``, kept verbatim: the
    contiguous ``(signal_len, n_taps)`` window matrix and one matrix-vector
    product over it.  The package computes the clean output over chunks
    of window rows and must match this bit for bit.
    """
    rng = np.random.default_rng(sc.seed)
    w = np.zeros(sc.n_taps)
    positions = rng.choice(sc.n_taps, size=sc.n_nonzero, replace=False)
    if sc.random_signs:
        w[positions] = sc.tap_value * rng.choice([-1.0, 1.0], size=sc.n_nonzero)
    else:
        w[positions] = sc.tap_value

    u = rng.standard_normal(sc.signal_len)
    padded = np.concatenate([np.zeros(sc.n_taps - 1), u])
    windows = np.lib.stride_tricks.sliding_window_view(padded, sc.n_taps)[:, ::-1]
    inputs = np.ascontiguousarray(windows)
    clean = inputs @ w

    if np.isinf(sc.snr_db):
        outputs = clean
    else:
        # E[clean(n)^2] = sum_{k <= n} w_k^2 for unit-variance white input
        lags = np.arange(sc.n_taps)
        weights = np.clip(sc.signal_len - lags, 0, None) / sc.signal_len
        power = float(np.sum(w * w * weights))
        noise_var = power / 10.0 ** (sc.snr_db / 10.0)
        outputs = clean + np.sqrt(noise_var) * rng.standard_normal(sc.signal_len)
    return MeasurementStream(inputs, outputs, w)


def sza_ensemble(
    w_true,
    mu,
    rho,
    noise_std,
    n_runs,
    n_steps,
    tail,
    seed,
    capture_steps=0,
):
    """Vectorized multi-run SZA-LMS with fresh white Gaussian inputs.

    Every step draws an independent standard-normal input vector per run
    (no tap-delay overlap), applies the selective zero-attractor update
    to all runs at once and accumulates tail averages of the estimate and
    of the penalty pattern, both taken on the pre-update state.

    Returns (tail_mean_w, tail_mean_p, hit_fraction, capture) where the
    first two are (n_runs, N) arrays, hit_fraction is the per-run share
    of tail steps whose top-s support matches the true support exactly,
    and capture holds run 0's first ``capture_steps`` inputs, outputs and
    post-update estimates for cross-checking against the scalar stepper.
    """
    w_true = np.asarray(w_true, dtype=float)
    n = w_true.shape[0]
    s = int(np.count_nonzero(w_true))
    sup = np.flatnonzero(w_true)
    off = np.setdiff1d(np.arange(n), sup)
    rng = np.random.default_rng(seed)

    W = np.zeros((n_runs, n))
    sum_w = np.zeros((n_runs, n))
    sum_p = np.zeros((n_runs, n))
    hits = np.zeros(n_runs, dtype=int)
    tail_start = n_steps - tail
    cap_x, cap_y, cap_w = [], [], []

    for step_idx in range(n_steps):
        X = rng.standard_normal((n_runs, n))
        v = noise_std * rng.standard_normal(n_runs)
        y = X @ w_true + v
        e = y - np.einsum("ij,ij->i", X, W)
        mags = np.abs(W)
        cut = np.partition(mags, n - s, axis=1)[:, n - s][:, None]
        penalty = np.sign(W)
        penalty[mags >= cut] = 0.0
        if step_idx >= tail_start:
            sum_w += W
            sum_p += penalty
            hits += np.min(mags[:, sup], axis=1) > np.max(mags[:, off], axis=1)
        W = W + mu * e[:, None] * X - rho * penalty
        if step_idx < capture_steps:
            cap_x.append(X[0].copy())
            cap_y.append(float(y[0]))
            cap_w.append(W[0].copy())

    capture = (np.array(cap_x), np.array(cap_y), np.array(cap_w)) if capture_steps else None
    return sum_w / tail, sum_p / tail, hits / tail, capture


def replay_sza_run(w_true, mu, rho, cap_x, cap_y):
    """Run the scalar SZA stepper over a captured input/output sequence."""
    n = len(w_true)
    s = int(np.count_nonzero(w_true))
    cfg = FilterConfig("sza_lms", n_taps=n, mu=mu, rho=rho, sparsity=s)
    stream = MeasurementStream(np.asarray(cap_x), np.asarray(cap_y), np.asarray(w_true))
    estimates, _ = run_stream(cfg, stream)
    return estimates


def ref_json_safe(obj):
    """Reference conversion of a summary for ``json.dumps(..., indent=2, sort_keys=True)``.

    A deep copy in which Enum members become their values, NumPy scalars
    and arrays become Python numbers and lists, tuples become lists,
    complex numbers become ``{"re", "im"}`` dicts, non-finite numbers
    become None and keys become ``str(key)``.
    """
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind is int or kind is bool or kind is str or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): ref_json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_json_safe(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return [ref_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": ref_json_safe(obj.real), "im": ref_json_safe(obj.imag)}
    return obj


def calibrated_noise_var(sc):
    """The noise variance an identification draw of ``sc`` adds to its clean output.

    ``snr_db`` below the clean output's analytic power for unit-variance
    white input, whose zero-padded start lowers the weight of lag ``k`` to
    ``(signal_len - k) / signal_len``.
    """
    w = _ident_draw(sc)[2]
    weights = np.clip(sc.signal_len - np.arange(sc.n_taps), 0, None) / sc.signal_len
    return float(np.sum(w * w * weights)) / 10.0 ** (sc.snr_db / 10.0)


def lms_msd(mu, n_active, noise_var, msd0, steps):
    """Independence-theory MSD ``E||w - w_hat||^2`` after each of ``steps`` LMS updates.

    For white Gaussian unit-variance input and ``n_active`` adapting taps,
    ``m <- (1 - 2 mu + mu^2 (K + 2)) m + mu^2 K noise_var`` from ``m =
    msd0`` (Feuer & Weinstein, IEEE TASSP 1985; Sayed, *Fundamentals of
    Adaptive Filtering*, 2003).  Returns the (steps,) values after each update.
    """
    decay = 1.0 - 2.0 * mu + mu * mu * (n_active + 2)
    drive = mu * mu * n_active * noise_var
    out = np.empty(steps)
    m = msd0
    for n in range(steps):
        m = decay * m + drive
        out[n] = m
    return out


def lms_msd_limit(mu, n_active, noise_var):
    """The limit of :func:`lms_msd`: ``mu noise_var K / (2 - mu (K + 2))``."""
    return mu * noise_var * n_active / (2.0 - mu * (n_active + 2))
