"""LMS family with a uniform step interface, for real and complex data.

Seven variants, stepped by one ``step(state, x, y, cfg) -> (new_state,
error)``: plain LMS, the zero-attracting pair (uniform and reweighted), a
selective zero-attractor that spares the current top-``s`` support, and
three hard-threshold variants (immediate, warm-started and relaxed).  All
seven are one update, a gradient step followed by an optional attractor
and an optional projection, which one table (``_VARIANTS``) assigns per
variant.  States are treated as immutable; each step returns a fresh
estimate.  :class:`StackStepper` updates an (algorithms, runs, taps) stack in
place; given a bound on the input magnitudes, it steps a settled
hard-threshold slice on its kept taps alone.

The inner product is ``w^H x`` (conjugation on the estimate) and the
gradient step adds ``mu * conj(e) * x``; for real data both reduce to the
real LMS rule with the same bits.  :func:`complex_lms_step` and
:func:`complex_hard_lms_step` are the same update on a bare estimate.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signals import check_count, check_counts
from .thresholding import _below_cut, _penalty, hard_threshold

__all__ = [
    "Algorithm",
    "FilterConfig",
    "FilterState",
    "complex_lms_step",
    "complex_hard_lms_step",
    "step",
    "StackStepper",
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


@dataclass
class FilterConfig:
    """Algorithm selection plus every tuning constant the variants use.

    Fields irrelevant to the chosen algorithm are ignored by the step
    functions but still validated when set.  Each variant requires the
    fields ``_VARIANTS`` configures it with whose default is None.

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
        check_counts(self, n_taps=1, warmup_steps=0)
        if self.sparsity is not None:
            self.sparsity = check_count("sparsity", self.sparsity, 1, self.n_taps - 1)
        if self.relaxed_sparsity is not None:
            self.relaxed_sparsity = check_count(
                "relaxed_sparsity", self.relaxed_sparsity, self.sparsity or 1, self.n_taps - 1
            )
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be non-negative and finite, got {self.rho}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        # only the fields whose default is None can still be None here
        for name in PARAMETERS[self.algorithm.value]:
            if getattr(self, name) is None:
                raise ValueError(f"{name} is required for {self.algorithm.value}")
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


def _reweighted_sign(w, cfg, out, mags=None, *_):
    mags = np.abs(w, out=mags)
    mags *= cfg.epsilon
    mags += 1.0
    return np.divide(np.sign(w, out=out), mags, out=out)


# Per variant: its zero-attractor ``a(w)``, written to ``out`` if given; the
# field holding its hard-threshold keep-count; and the fields it is configured
# with besides n_taps and mu.  The attractors are the uniform sign (ZA), the
# sign reweighted by ``1/(1 + epsilon*|w|)`` so established taps keep most of
# their value (RZA), and the sign pattern outside the top-``s`` support of the
# estimate *before* the gradient step (SZA).  On complex estimates np.sign is
# w/|w|, 0 at 0 (NumPy 2.0 and later).
_VARIANTS = {
    Algorithm.LMS: (None, None, ()),
    Algorithm.ZA_LMS: (lambda w, cfg, out, *_: np.sign(w, out=out), None, ("rho",)),
    Algorithm.RZA_LMS: (_reweighted_sign, None, ("rho", "epsilon")),
    Algorithm.SZA_LMS: (lambda w, cfg, out, *cut: _penalty(w, cfg.sparsity, out, *cut),
                        None, ("rho", "sparsity")),
    Algorithm.HARD_LMS: (None, "sparsity", ("sparsity",)),
    Algorithm.HARD_INIT_LMS: (None, "sparsity", ("sparsity", "warmup_steps")),
    Algorithm.HARD_REL_LMS: (None, "relaxed_sparsity", ("sparsity", "relaxed_sparsity")),
}
# each variant's configured fields, by algorithm name
PARAMETERS = {a.value: fields for a, (*_, fields) in _VARIANTS.items()}


def _tail(cfg):
    """``(cfg, attractor, keep-count)`` finishing each update of ``cfg``, or None for plain LMS."""
    attractor, field, _ = _VARIANTS[cfg.algorithm]
    if attractor is None and field is None:
        return None
    return cfg, attractor, None if field is None else getattr(cfg, field)


def _gradient(w, err, x, mu, out=None):
    """``w + mu*conj(err)*x``, row by row for a stacked ``w``.

    Evaluated as ``w + (mu * (conj(err) * x))``; the in-place forms below
    round exactly like that expression and allocate less.  ``err`` is a
    Python number or an array, whose ``conjugate`` returns a real operand
    itself; ``mu`` is a number or an array broadcasting over ``w``.
    """
    new = np.multiply(err.conjugate(), x, out=out)
    new *= mu
    new += w
    return new


def _finish(new, w, tail, iteration, scratch=None, *cut_buffers):
    """Finish update ``iteration`` on ``new``, the gradient step from ``w``, in place.

    Subtracts ``rho * a(w)``, then hard-thresholds after the warm-up, as
    ``tail`` (:func:`_tail`'s) says.  The buffers, if given, are scratch of
    ``new``'s shape for the attractor and the cut.
    """
    cfg, attractor, keep = tail
    if attractor is not None:
        a = attractor(w, cfg, scratch, *cut_buffers)
        a *= cfg.rho
        new -= a
    if keep is not None and iteration >= cfg.warmup_steps:
        new[_below_cut(new, keep, *cut_buffers)] = 0


class _KeptCut:
    """Steps one hard-threshold (runs, taps) slice past its warm-up, on its kept taps while they hold.

    ``kept`` and ``held`` hold the flat indices of the only entries that may
    be nonzero in the last output and in the other buffer (all, before a cut).
    """

    def __init__(self, w, keep, mu, peak, buffers):
        self.keep, self.mu, self.peak, self.buffers = keep, mu, peak, buffers
        self.kept = self.held = np.arange(w.size)
        # 512 eps covers the roundings of the two products, each hypot and the bound's own
        self.slack, self.tiny = 1 + 512 * np.finfo(w.real.dtype).eps, np.finfo(w.real.dtype).tiny

    def step(self, w, new, err, x):
        """Write the thresholded gradient step from ``w`` to ``new``.

        Steps only the kept taps when each row kept exactly ``keep`` and the
        bound from ``peak``, above every ``|x_j|``, puts every other tap
        below its row's smallest new kept magnitude (README, Conventions).
        """
        kept, keep, mu = self.kept, self.keep, self.mu
        if kept.size == len(w) * keep:
            values = _gradient(w.take(kept).reshape(-1, keep), err, x.take(kept).reshape(-1, keep), mu)
            cut = np.abs(values).min(axis=1, keepdims=True)
            # |e| peak first, so that an overflowing conj(e)*x_j makes the bound infinite
            if ((abs(err) * self.peak * self.slack * abs(mu) < cut) & (cut >= self.tiny)).all():
                if self.held is not kept:
                    new.put(self.held, 0)
                new.put(kept, values)
                self.held = kept
                return
        below = _below_cut(_gradient(w, err, x, mu, out=new), keep, *self.buffers)
        new[below] = 0
        self.held, self.kept = self.kept, np.flatnonzero(~below)


def step(state, x, y, cfg):
    """Apply one update of the algorithm selected by ``cfg``: ``(new_state, e)``.

    Every variant is ``w <- P(w + mu*conj(e)*x - rho*a(w))`` with the
    a-priori error ``e = y - w^H x``: plain LMS has no attractor ``a`` and
    identity ``P``, the zero-attracting variants add ``a`` and the
    hard-threshold variants make ``P`` a hard threshold.
    """
    w = state.estimate
    x, err = _checked_error(w, x, y)
    new = _gradient(w, err, x, cfg.mu)
    tail = _tail(cfg)
    if tail is not None:
        _finish(new, w, tail, state.iteration)
    return FilterState(new, state.iteration + 1), err


def complex_lms_step(w, x, y, mu):
    """One LMS update of the estimate ``w``: ``(new_estimate, y - w^H x)``."""
    x, err = _checked_error(w, x, y)
    return _gradient(w, err, x, mu), err


def complex_hard_lms_step(w, x, y, mu, s):
    """LMS update of ``w`` followed by a magnitude-ranked hard threshold to ``s`` entries."""
    x, err = _checked_error(w, x, y)
    new = _gradient(w, err, x, mu)
    return hard_threshold(new, s, out=new), err


class StackStepper:
    """Updates an (algorithms, runs, taps) stack in place, one config per leading slice.

    Prepared once from a copy of ``estimates``: two estimate buffers, which
    :meth:`step` swaps, one scratch set and each slice's :func:`_tail`.
    Row ``r`` of slice ``i`` gets :func:`step` under ``cfgs[i]`` bit for
    bit: ``np.vecdot`` forms the errors' ``w^H x`` with ``np.vdot``'s kernel.
    A ``scale``, one number or one per run, multiplies each config's ``mu``.
    Given ``peak``, a bound on every input magnitude, each hard-threshold
    slice steps through a :class:`_KeptCut`; without one every cut sorts.
    """

    def __init__(self, estimates, cfgs, scale=1.0, peak=None):
        w = np.array(estimates)
        self._pair = [(b, list(b)) for b in (w, np.empty_like(w))]
        err = np.empty((*w.shape[:2], 1), w.dtype)
        self._err = err, err[..., 0]
        # an (algorithms, runs, 1) column costs a few us a step, so equal
        # step sizes multiply as one Python number, with the same bits
        mu = np.multiply.outer([cfg.mu for cfg in cfgs], scale).reshape(len(cfgs), -1, 1)
        self._mu = float(mu.flat[0]) if (mu == mu.flat[0]).all() else mu
        self._mus = [self._mu] * len(cfgs) if isinstance(self._mu, float) else list(mu)
        # the attractor, magnitudes, sorted magnitudes and mask of one slice
        mags = np.empty(w.shape[1:], w.real.dtype)
        self._scratch = np.empty_like(w[0]), mags, np.empty_like(mags), np.empty(mags.shape, bool)
        cut = lambda i, keep: _KeptCut(w[i], keep, self._mus[i], peak, self._scratch[1:])
        self._tails = [(i, t, cut(i, t[2]) if t[2] and peak is not None else None)
                       for i, t in enumerate(map(_tail, cfgs)) if t is not None]

    def step(self, inputs, outputs, iteration):
        """Apply update ``iteration`` from the (runs, taps) ``inputs`` and (runs,) ``outputs``.

        Updates come in order; returns the new stack, which the step after next overwrites.
        """
        (w, w_rows), (new, new_rows) = self._pair
        err, err_row = self._err
        np.vecdot(w, inputs, out=err_row)
        np.subtract(outputs, err_row, out=err_row)
        cuts = {i: cut for i, (cfg, *_), cut in self._tails if cut and iteration >= cfg.warmup_steps}
        if cuts:
            for j, mu in enumerate(self._mus):
                if j in cuts:
                    cuts[j].step(w_rows[j], new_rows[j], err[j], inputs)
                else:
                    _gradient(w_rows[j], err[j], inputs, mu, out=new_rows[j])
        else:  # inputs of the stack's rank: a (1, 1, 1) stack broadcast from (1, 1) rounds unlike step
            _gradient(w, err, inputs[None], self._mu, out=new)
        for i, tail, _ in self._tails:
            if i not in cuts:
                _finish(new_rows[i], w_rows[i], tail, iteration, *self._scratch)
        self._pair.reverse()
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
