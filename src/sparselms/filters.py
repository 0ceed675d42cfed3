"""LMS family with a uniform step interface, for real and complex data.

Seven variants share the signature ``*_step(state, x, y, cfg) ->
(new_state, error)``: plain LMS, the zero-attracting pair (uniform and
reweighted), a selective zero-attractor that spares the current top-``s``
support, and three hard-threshold variants (immediate, warm-started and
relaxed).  All seven are one update, a gradient step followed by an
optional attractor and an optional projection; :func:`step_rows` applies
it to an (algorithms, runs, taps) stack of estimates at once.  States are
treated as immutable; each step returns a fresh estimate, so independent
filters can run on concurrent workers.

The inner product is ``w^H x`` (conjugation on the estimate) and the
gradient step adds ``mu * conj(e) * x``; for real data both reduce to the
real LMS rule with the same bits.  :func:`complex_lms_step` and
:func:`complex_hard_lms_step` are the same update on a bare estimate.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signals import check_counts
from .thresholding import hard_threshold, penalty_mask

__all__ = [
    "Algorithm",
    "FilterConfig",
    "FilterState",
    "lms_step",
    "za_lms_step",
    "rza_lms_step",
    "sza_lms_step",
    "hard_lms_step",
    "complex_lms_step",
    "complex_hard_lms_step",
    "step",
    "step_rows",
    "run_stream",
]


class Algorithm(str, Enum):
    LMS = "lms"
    ZA_LMS = "za_lms"
    RZA_LMS = "rza_lms"
    SZA_LMS = "sza_lms"
    HARD_LMS = "hard_lms"
    HARD_INIT_LMS = "hard_init_lms"
    HARD_REL_LMS = "hard_rel_lms"


_NEEDS_SPARSITY = {
    Algorithm.SZA_LMS,
    Algorithm.HARD_LMS,
    Algorithm.HARD_INIT_LMS,
}


@dataclass
class FilterConfig:
    """Algorithm selection plus every tuning constant the variants use.

    Fields irrelevant to the chosen algorithm are ignored by the step
    functions but still validated when set.

    Parameters
    ----------
    algorithm: Algorithm or str
    n_taps: int
        filter length N
    mu: float
        gradient step size, > 0
    rho: float
        zero-attractor strength for the ZA/RZA/SZA variants
    epsilon: float
        reweighting constant of RZA
    sparsity: int
        target number of nonzeros s, ``1 <= s < n_taps``
    relaxed_sparsity: int
        relaxed keep-count d for the relaxed hard-threshold variant,
        ``sparsity <= d < n_taps``
    warmup_steps: int
        updates to run before the hard threshold of any hard-threshold
        variant is applied; the other variants ignore it
    label: str
        name used in experiment outputs; defaults to the algorithm name
    """

    algorithm: Algorithm
    n_taps: int
    mu: float
    rho: float = 0.0
    epsilon: float = 10.0
    sparsity: int | None = None
    relaxed_sparsity: int | None = None
    warmup_steps: int = 0
    label: str = ""

    def __post_init__(self):
        self.algorithm = Algorithm(self.algorithm)
        check_counts(
            self, "n_taps", "warmup_steps", optional=("sparsity", "relaxed_sparsity")
        )
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be positive, got {self.n_taps}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be non-negative and finite, got {self.rho}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {self.warmup_steps}")
        if self.sparsity is not None and not 1 <= self.sparsity < self.n_taps:
            raise ValueError(
                f"sparsity must satisfy 1 <= sparsity < n_taps, got {self.sparsity}"
            )
        if self.relaxed_sparsity is not None:
            lo = self.sparsity if self.sparsity is not None else 1
            if not lo <= self.relaxed_sparsity < self.n_taps:
                raise ValueError(
                    "relaxed_sparsity must satisfy "
                    f"sparsity <= relaxed_sparsity < n_taps, got {self.relaxed_sparsity}"
                )
        if self.algorithm in _NEEDS_SPARSITY and self.sparsity is None:
            raise ValueError(f"sparsity is required for {self.algorithm.value}")
        if self.algorithm is Algorithm.HARD_REL_LMS and self.relaxed_sparsity is None:
            raise ValueError("relaxed_sparsity is required for hard_rel_lms")
        if not self.label:
            self.label = self.algorithm.value


@dataclass
class FilterState:
    """Current estimate plus the number of updates applied so far."""

    estimate: np.ndarray
    iteration: int = 0

    @classmethod
    def initial(cls, n_taps, dtype=float):
        return cls(np.zeros(n_taps, dtype=dtype), 0)


def _checked_error(w, x, y):
    """``(x, e)`` with the a-priori error ``e = y - w^H x`` as a Python number.

    Converting costs ~0.2 us, against ~0.6 us for ``.item()`` and ~1 us
    for the ``conjugate`` of a NumPy scalar that the update would call
    instead.
    """
    x = np.asarray(x)
    if x.shape[0] != w.shape[0]:
        raise ValueError(f"input length {x.shape[0]} does not match n_taps {w.shape[0]}")
    err = y - np.vdot(w, x)
    return x, complex(err) if isinstance(err, (complex, np.complexfloating)) else float(err)


# Variants with a zero attractor.  Their sign terms are defined for real
# estimates only: NumPy 2.0 changed what np.sign returns for complex input.
ATTRACTING = frozenset({Algorithm.ZA_LMS, Algorithm.RZA_LMS, Algorithm.SZA_LMS})

# The field holding each hard-threshold variant's keep-count.  The per-step
# dispatch looks variants up in these tables instead of comparing with
# ``Algorithm.X``: on Python 3.11 each Enum member read costs ~0.18 us,
# a few percent of a plain LMS update on 1000 taps.
_KEEP_FIELD = {
    Algorithm.HARD_LMS: "sparsity",
    Algorithm.HARD_INIT_LMS: "sparsity",
    Algorithm.HARD_REL_LMS: "relaxed_sparsity",
}


def _attractor(w, cfg):
    """Zero-attractor ``a(w)`` of the configured variant, or None.

    Uniform sign (ZA), sign reweighted by ``1/(1 + epsilon*|w|)`` so
    established taps keep most of their value (RZA), or the sign pattern
    outside the top-``s`` support of the estimate *before* the gradient
    step (SZA).  ``w`` is one estimate or a (runs, taps) array of them.
    """
    if cfg.algorithm not in ATTRACTING:
        return None
    if cfg.algorithm is Algorithm.ZA_LMS:
        return np.sign(w)
    if cfg.algorithm is Algorithm.RZA_LMS:
        return np.sign(w) / (1.0 + cfg.epsilon * np.abs(w))
    return penalty_mask(w, cfg.sparsity)


def _keep_count(cfg, iteration):
    """Entries the hard threshold keeps after update ``iteration``, or None.

    Every hard-threshold variant skips the first ``warmup_steps`` updates;
    the relaxed one then keeps ``relaxed_sparsity`` entries, the others
    ``sparsity``.
    """
    field = _KEEP_FIELD.get(cfg.algorithm)
    if field is None or iteration < cfg.warmup_steps:
        return None
    return getattr(cfg, field)


def _gradient(w, err, x, mu):
    """``w + mu*conj(err)*x``, row by row for a stacked ``w``.

    Evaluated as ``w + (mu * (conj(err) * x))``; the in-place forms below
    round exactly like that expression and allocate less.  ``err`` is a
    Python number or an array, whose ``conjugate`` returns a real operand
    itself; ``mu`` is a number or an array broadcasting over ``w``.
    """
    new = err.conjugate() * x
    new *= mu
    new += w
    return new


def _project(new, w, cfg, iteration):
    """Finish update ``iteration`` of ``cfg`` on ``new``, the gradient step from ``w``.

    Subtracts ``rho * a(w)`` for the zero-attracting variants, then applies
    the hard threshold of the hard-threshold variants, both in place.
    :func:`step` and every slice of :func:`step_rows` end here.  Returns
    ``new``.
    """
    attractor = _attractor(w, cfg)
    if attractor is not None:
        new -= cfg.rho * attractor
    keep = _keep_count(cfg, iteration)
    if keep is not None:
        hard_threshold(new, keep, out=new)
    return new


def step(state, x, y, cfg):
    """Apply one update of the algorithm selected by ``cfg``: ``(new_state, e)``.

    Every variant is ``w <- P(w + mu*conj(e)*x - rho*a(w))`` with the
    a-priori error ``e = y - w^H x``: plain LMS has no attractor ``a`` and
    identity ``P``, the zero-attracting variants add ``a`` and the
    hard-threshold variants make ``P`` a hard threshold.
    """
    w = state.estimate
    x, err = _checked_error(w, x, y)
    new = _project(_gradient(w, err, x, cfg.mu), w, cfg, state.iteration)
    return FilterState(new, state.iteration + 1), err


# One update serves every variant; ``cfg.algorithm`` selects the terms.
lms_step = za_lms_step = rza_lms_step = sza_lms_step = hard_lms_step = step


def complex_lms_step(w, x, y, mu):
    """One LMS update of the estimate ``w``: ``(new_estimate, y - w^H x)``."""
    x, err = _checked_error(w, x, y)
    return _gradient(w, err, x, mu), err


def complex_hard_lms_step(w, x, y, mu, s):
    """LMS update of ``w`` followed by a magnitude-ranked hard threshold to ``s`` entries."""
    x, err = _checked_error(w, x, y)
    new = _gradient(w, err, x, mu)
    return hard_threshold(new, s, out=new), err


def step_rows(estimates, inputs, outputs, cfgs, iteration):
    """Apply update ``iteration`` to an (algorithms, runs, taps) stack.

    ``cfgs`` holds one config per leading slice; all read the same (runs,
    taps) ``inputs`` and (runs,) ``outputs``.  Row ``r`` of slice ``i`` gets
    :func:`step` under ``cfgs[i]`` bit for bit: the errors are 1xN by Nx1
    ``matmul`` products, which use the BLAS dot of ``np.vdot``.  Errors and
    gradient step cover the whole stack; only attractors and thresholds run
    per algorithm.  Returns the new stack.
    """
    err = outputs - (estimates.conj()[..., None, :] @ inputs[:, :, None])[..., 0, 0]
    # a shared step size stays a Python number: broadcasting an (algorithms,
    # 1, 1) column costs a few us a step, 4% of the spectrum benchmark
    mu = cfgs[0].mu
    if any(cfg.mu != mu for cfg in cfgs):
        mu = np.array([cfg.mu for cfg in cfgs])[:, None, None]
    # inputs of the stack's rank: a (1, 1, 1) stack broadcast from (1, 1) rounds unlike step
    new = _gradient(estimates, err[..., None], inputs[None], mu)
    for i, cfg in enumerate(cfgs):
        _project(new[i], estimates[i], cfg, iteration)
    return new


def run_stream(cfg, stream):
    """Run the configured filter over a measurement stream from w(0) = 0.

    Every input row must have length ``cfg.n_taps``.  Returns
    ``(estimates, errors)``: the (len(stream), n_taps) estimate after each
    update and the (len(stream),) a-priori errors, both of the stream's
    result dtype, complex for complex data and float for integer data.
    """
    dtype = np.result_type(stream.inputs, stream.outputs, 0.0)
    estimates = np.empty((len(stream), cfg.n_taps), dtype)
    errors = np.empty(len(stream), dtype)
    state = FilterState.initial(cfg.n_taps, dtype)
    for n, (x, y) in enumerate(stream):
        state, errors[n] = step(state, x, y, cfg)
        estimates[n] = state.estimate
    return estimates, errors
