"""Seeded generators for the two benchmark scenarios.

``gen_ident_stream`` drives sparse FIR identification with a
tap-delay-line Gaussian input; ``gen_spectrum_stream`` emits undersampled
partial-DFT measurements of a noisy multi-tone signal.  Both are pure
functions of their scenario, so identical seeds give identical streams.

Conventions used throughout:

* The DFT is unitary (1/sqrt(N) in both directions), which makes every
  measurement row of the spectrum scenario have unit squared norm.
* Spectrum measurements are generated for the conjugate inner product
  ``y = w^H x``: each input vector is the conjugated row of the
  undersampled inverse-DFT matrix, so for the real signals produced here
  ``w^H x(n)`` equals the time-domain sample exactly.
"""

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IdentScenario",
    "SpectrumScenario",
    "MeasurementStream",
    "gen_ident_stream",
    "gen_spectrum_stream",
    "esr",
    "esr_db",
    "step_size_from_stream",
]


def check_count(name, value, low=None, high=None):
    """``value`` as an ``int`` in ``[low, high]``: the one range rule of every integer input.

    ``bool``, ``2.0`` and non-numbers raise ValueError("{name} must be an
    integer, got {value!r}"); NumPy integers are accepted.  Out of range it
    raises "{name} must be >= {low}, got {value}" when only ``low`` is
    given, else "{name} must satisfy {low} <= {name} <= {high}, got {value}".
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must satisfy {low} <= {name} <= {high}, got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_counts(obj, **lows):
    """Store each field ``name=low`` of ``obj`` through :func:`check_count` with that lower bound.

    Raises ValueError naming the first field that fails, in argument order.
    """
    for name, low in lows.items():
        setattr(obj, name, check_count(name, getattr(obj, name), low))


def _check_snr(sc):
    """Reject a scenario whose ``snr_db`` is NaN or -inf; +inf means noiseless."""
    if math.isnan(sc.snr_db) or sc.snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {sc.snr_db}")


def _add_noise(clean, power, snr_db, rng):
    """``clean`` plus white Gaussian noise ``snr_db`` dB below ``power``; none at +inf."""
    if snr_db == math.inf:
        return clean
    try:
        noise_var = power / 10.0 ** (snr_db / 10.0)
    except ZeroDivisionError:  # 10**(snr_db/10) underflowed to 0
        noise_var = math.inf
    except OverflowError:  # 10**(snr_db/10) beyond the float range: no noise
        noise_var = 0.0
    if not math.isfinite(noise_var):
        raise ValueError(f"snr_db {snr_db} gives a non-finite noise variance")
    return clean + np.sqrt(noise_var) * rng.standard_normal(len(clean))


@dataclass
class MeasurementStream:
    """Ordered (input vector, observed output) pairs plus ground truth.

    ``inputs`` has one row per measurement; ``truth`` carries the
    generating tap vector for evaluation and is not consumed by filters.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError("inputs and outputs must have the same number of rows")

    def __len__(self):
        return self.inputs.shape[0]

    def __iter__(self):
        return zip(self.inputs, self.outputs)


@dataclass
class IdentScenario:
    """Sparse FIR identification task.

    ``n_nonzero`` taps are placed uniformly at random and set to
    ``tap_value`` (optionally with random signs); the input is white
    standard Gaussian and the output observed through additive white
    Gaussian noise scaled to meet ``snr_db``.
    """

    n_taps: int = 256
    n_nonzero: int = 28
    tap_value: float = 1.0
    signal_len: int = 2000
    snr_db: float = 30.0
    seed: int = 0
    random_signs: bool = False

    def __post_init__(self):
        check_counts(self, n_taps=1, signal_len=1, seed=0)
        self.n_nonzero = check_count("n_nonzero", self.n_nonzero, 1, self.n_taps)
        # the noise is calibrated from the truth's energy; math.fabs takes numbers only
        energy = self.n_nonzero * math.fabs(self.tap_value) * math.fabs(self.tap_value)
        if not sys.float_info.min <= energy < math.inf:
            raise ValueError(
                "tap_value must be finite and nonzero, and n_nonzero*tap_value**2 a "
                f"normal float, got {self.tap_value}"
            )
        _check_snr(self)


@dataclass
class SpectrumScenario:
    """Undersampled multi-tone spectrum estimation task.

    The signal is a superposition of ``n_tones`` unit-amplitude sinusoids
    whose frequencies are drawn without replacement from the DFT bins,
    excluding DC and Nyquist so every tone occupies exactly two bins.
    ``n_samples`` time positions are then kept uniformly at random.
    """

    full_len: int = 1000
    n_tones: int = 10
    n_samples: int = 300
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        check_counts(self, full_len=1, seed=0)
        self.n_samples = check_count("n_samples", self.n_samples, 1, self.full_len)
        # the usable tone bins, 1 .. ceil(full_len/2) - 1: no DC, no Nyquist
        self.n_tones = check_count("n_tones", self.n_tones, 1, (self.full_len - 1) // 2)
        _check_snr(self)


def gen_ident_stream(sc: IdentScenario) -> MeasurementStream:
    """Generate a sparse identification stream.

    The n-th input vector is the tap-delay window
    ``[u(n), u(n-1), ..., u(n-N+1)]``, zero padded before the start of
    the input sequence.  Noise power is calibrated from the analytic
    power of the clean output (including the reduced power of the padded
    warm-up samples), not from a per-realization estimate.

    Draw order from the seed: support positions, tap signs (when
    enabled), input samples, noise samples.
    """
    windows, outputs, w = _ident_draw(sc)
    return MeasurementStream(np.ascontiguousarray(windows), outputs, w)


WINDOW_ROWS = 64


def _ident_draw(sc: IdentScenario):
    """:func:`gen_ident_stream`'s draw, with the windows as a strided (L, N) view.

    The clean output is the product of contiguous copies of ``WINDOW_ROWS``
    window rows at a time with the taps, which has the whole matrix's bits.
    A one-row tail joins the chunk before it: NumPy takes a one-row product
    as a dot instead of a matrix-vector product, whose bits can differ.
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
    clean = np.empty(sc.signal_len)
    bounds = [*range(0, sc.signal_len, WINDOW_ROWS), sc.signal_len]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    rows = np.empty((min(sc.signal_len, WINDOW_ROWS + 1), sc.n_taps))
    for i, j in zip(bounds, bounds[1:]):
        np.copyto(rows[: j - i], windows[i:j])
        np.matmul(rows[: j - i], w, out=clean[i:j])

    # E[clean(n)^2] = sum_{k <= n} w_k^2 for unit-variance white input
    lags = np.arange(sc.n_taps)
    weights = np.clip(sc.signal_len - lags, 0, None) / sc.signal_len
    power = float(np.sum(w * w * weights))
    return windows, _add_noise(clean, power, sc.snr_db, rng), w


def _tone_bins(sc: SpectrumScenario, rng):
    return rng.choice(np.arange(1, (sc.full_len + 1) // 2), size=sc.n_tones, replace=False)


def gen_spectrum_stream(sc: SpectrumScenario, passes: int = 1) -> MeasurementStream:
    """Generate undersampled spectrum measurements.

    The ground truth is the unitary DFT of the clean signal, constructed
    analytically: a unit sinusoid at bin k contributes -+i*sqrt(N)/2 at
    bins k and N-k and exact zeros elsewhere.  Each measurement pairs the
    conjugated inverse-DFT row of a sampled time position, read from the
    root table, with the noisy sample there, and the whole sample set is
    repeated ``passes`` times in the same order to support retraining.
    """
    passes = check_count("passes", passes, 1)
    positions, samples, truth = _spectrum_draw(sc)
    rows, table = np.empty((sc.n_samples, sc.full_len), dtype=complex), _root_table(sc.full_len)
    for i, k in _phase_rows(positions, sc.full_len):
        np.take(table, k, out=rows[i : i + len(k)], mode="clip")  # k is in range: no buffered out
    if passes == 1:
        return MeasurementStream(rows, samples, truth)
    return MeasurementStream(np.tile(rows, (passes, 1)), np.tile(samples, passes), truth)


def _root_table(L):
    return np.exp(-2j * np.pi * np.arange(L) / L) / np.sqrt(L)


def _spectrum_draw(sc: SpectrumScenario):
    """:func:`gen_spectrum_stream`'s draw of bins, noise and positions: ``(positions, samples, truth)``."""
    rng = np.random.default_rng(sc.seed)
    L = sc.full_len
    bins = _tone_bins(sc, rng)

    t = np.arange(L)
    clean = np.sin(2.0 * np.pi * np.outer(t, bins) / L).sum(axis=1)
    noisy = _add_noise(clean, sc.n_tones / 2.0, sc.snr_db, rng)

    amp = np.sqrt(L) / 2.0
    truth = np.zeros(L, dtype=complex)
    truth[bins] = -1j * amp
    truth[L - bins] = 1j * amp

    positions = rng.choice(L, size=sc.n_samples, replace=False)
    return positions, noisy[positions], truth


def _phase_rows(positions, L):
    """``(i, k)`` by chunks: ``k[t, j] = (positions[i + t] * j) % L``, the rows' root-table indices."""
    # the products are int32 while (L - 1)**2 fits, else int64
    j = np.arange(L, dtype=np.int32 if (L - 1) ** 2 <= np.iinfo(np.int32).max else np.int64)
    chunk = max(1, 2**15 // L)
    for i in range(0, len(positions), chunk):
        yield i, np.multiply.outer(positions[i : i + chunk], j, dtype=j.dtype) % L


# Relative spread allowed between the squared input-row norms of a stream.
NORM_RTOL = 1e-9


def step_size_from_stream(stream):
    """Step size 1/||x||^2 from the first input row of a stream.

    The squared norm must be constant across the whole stream (relative
    tolerance ``NORM_RTOL``); rows of an undersampled DFT matrix satisfy
    this by construction.
    """
    inputs = np.asarray(stream.inputs)
    # summed a chunk of rows at a time, without whole-stream temporaries;
    # each row's sum has the same bits as in one sum over all rows
    rows = max(1, 2**15 // max(1, inputs.shape[1]))
    norms = np.concatenate(
        [np.sum(np.abs(inputs[i : i + rows]) ** 2, axis=1) for i in range(0, len(inputs), rows)]
    )
    first = norms[0]
    if first <= 0:
        raise ValueError("first input row has zero norm")
    if np.max(np.abs(norms - first)) > NORM_RTOL * first:
        raise ValueError(f"input row norms vary by more than rtol={NORM_RTOL}")
    return 1.0 / float(first)


def esr(w_true, w_hat):
    """Error-to-signal ratio ``||w_true - w_hat||^2 / ||w_true||^2``."""
    w = np.asarray(w_true)
    wh = np.asarray(w_hat)
    if w.shape != wh.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {wh.shape}")
    denom = float(np.sum(np.abs(w) ** 2))
    if denom == 0.0:
        raise ValueError("true vector must be nonzero")
    return float(np.sum(np.abs(w - wh) ** 2)) / denom


def esr_db(w_true, w_hat):
    """ESR in decibels; -inf for an exact estimate."""
    ratio = esr(w_true, w_hat)
    if ratio == 0.0:
        return float("-inf")
    return 10.0 * np.log10(ratio)
