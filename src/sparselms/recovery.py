"""Executable support-recovery guarantees and the batch IHT baseline.

The two support guarantees are implemented as runtime checkers: each one
evaluates its hypothesis on every row of a stack of estimates
(:func:`certify_rows`; one (true, estimate) pair is a one-row stack) and,
on the rows where the hypothesis holds, verifies the promised support
relation before returning.  A verification failure raises, which cannot
happen unless the threshold operator is broken, so the checkers double as
regression traps.
"""

from dataclasses import dataclass

import numpy as np

from .signals import check_count
from .thresholding import hard_threshold

__all__ = [
    "GUARANTEE_EXACT",
    "GUARANTEE_SUPERSET",
    "GUARANTEE_NONE",
    "RecoveryCertificate",
    "RowCertificates",
    "certify_rows",
    "theorem1_condition",
    "theorem2_condition",
    "ser_lower_bound",
    "sza_bias_residual",
    "batch_iht",
]

GUARANTEE_EXACT = "exact_support"
GUARANTEE_SUPERSET = "superset_support"
GUARANTEE_NONE = "none"


@dataclass
class RecoveryCertificate:
    """Outcome of a support-recovery condition check.

    ``q`` is the smallest nonzero magnitude of the true vector,
    ``error_sq`` the squared l2 estimation error, ``s`` the true sparsity
    and ``tau`` the relaxation amount (None for the exact-support check).
    ``guarantee`` names the support relation that is certified when
    ``condition_holds`` is True.
    """

    q: float
    error_sq: float
    s: int
    tau: int | None
    condition_holds: bool
    guarantee: str


@dataclass
class RowCertificates:
    """One support certificate evaluated on every row of a (K, N) stack.

    ``q``, ``s`` and ``tau`` are as in :class:`RecoveryCertificate`;
    ``error_sq`` and ``holds`` are (K,) arrays with each row's squared l2
    error and whether the certificate's hypothesis holds on that row.
    """

    q: float
    s: int
    tau: int | None
    error_sq: np.ndarray
    holds: np.ndarray


# Rows thresholded at a time when a stack is verified.  hard_threshold holds
# three temporaries the size of its input; in slices they stay smaller than
# the stack's one error temporary, and the heap need not grow for them.
VERIFY_ROWS = 64


def _top_mask(estimates, rows, keep):
    """``hard_threshold(estimates[rows], keep) != 0``, ``VERIFY_ROWS`` selected rows at a time."""
    idx = np.flatnonzero(rows)
    slices = [idx[i : i + VERIFY_ROWS] for i in range(0, idx.size, VERIFY_ROWS)]
    return np.concatenate([hard_threshold(estimates[i], keep) != 0 for i in slices])


def certify_rows(w_true, estimates, d=None):
    """Check a support certificate on every row of the (K, N) ``estimates``.

    Without ``d`` this is Theorem 1: when ``error^2 < q^2 / 2`` the top-s
    entries of the row sit exactly on the true support.  With a relaxed
    keep-count ``d = s + tau`` it is Theorem 2: when ``error^2 <= q^2 (1
    - 1/(tau+2))`` and the row has at least ``d`` nonzeros, its top-d
    support contains the true support.  The promised relation is verified
    on every row where the hypothesis holds, with row-wise thresholds of
    ``VERIFY_ROWS`` rows at a time; a violation raises RuntimeError, which
    cannot happen unless the threshold operator is broken.  Complex rows
    are ranked by magnitude and their error is ``sum |w - w_hat|^2``, for
    which both theorems hold verbatim.
    """
    dtype = np.result_type(np.asarray(w_true), np.asarray(estimates), float)
    w, est = np.asarray(w_true, dtype), np.asarray(estimates, dtype)
    if w.ndim != 1 or est.ndim != 2 or est.shape[1:] != w.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {est.shape}")
    n = w.shape[0]
    true_mask = w != 0
    s = int(np.count_nonzero(true_mask))
    if s == 0:
        raise ValueError("true vector must have at least one nonzero entry")
    q = float(np.abs(w[true_mask]).min())
    # |w - est|^2 summed row by row like signals.esr on that row alone, with
    # the same bits; real rows in place
    diff = w - est
    diff = np.abs(diff, out=None if np.iscomplexobj(diff) else diff)
    error_sq = np.square(diff, out=diff).sum(axis=1)
    del diff  # the thresholds below reuse its memory
    if d is None:
        tau = None
        holds = error_sq < 0.5 * q * q
        if np.count_nonzero(holds):
            kept = _top_mask(est, holds, s)
            if np.count_nonzero(kept != true_mask):
                raise RuntimeError("exact-support guarantee violated; threshold operator is broken")
    else:
        d = check_count("d", d, s + 1, n - 1)
        tau = d - s
        holds = error_sq <= q * q * (1.0 - 1.0 / (tau + 2))
        if np.count_nonzero(holds):
            holds &= (est != 0).sum(axis=1) >= d
        if np.count_nonzero(holds):
            kept = _top_mask(est, holds, d)
            if not kept[:, true_mask].all():
                raise RuntimeError("superset-support guarantee violated; threshold operator is broken")
    return RowCertificates(q, s, tau, error_sq, holds)


def _certify_one(w_true, w_hat, d):
    c = certify_rows(w_true, np.asarray(w_hat)[None], d)
    holds = bool(c.holds[0])
    guarantee = GUARANTEE_EXACT if d is None else GUARANTEE_SUPERSET
    return RecoveryCertificate(
        c.q, float(c.error_sq[0]), c.s, c.tau, holds, guarantee if holds else GUARANTEE_NONE
    )


def theorem1_condition(w_true, w_hat):
    """Exact-support certificate: error^2 < q^2 / 2.

    When the condition holds the top-s entries of the estimate are
    guaranteed to sit exactly on the true support; this is verified
    before returning.  The one-row case of :func:`certify_rows`.
    """
    return _certify_one(w_true, w_hat, None)


def theorem2_condition(w_true, w_hat, d):
    """Superset certificate for a relaxed keep-count d = s + tau.

    The hypothesis has two parts: error^2 <= q^2 * (1 - 1/(tau+2)) and
    the estimate itself has at least d nonzeros.  When both hold, the
    top-d support of the estimate is guaranteed to contain the true
    support; this is verified before returning.  The one-row case of
    :func:`certify_rows`.
    """
    return _certify_one(w_true, w_hat, check_count("d", d))


def ser_lower_bound(s, tau=None):
    """Signal-to-error ratio required by the support guarantees.

    Returns ``2 s`` for the exact-support condition and the looser
    ``s / (1 - 1/(tau+2))`` when a relaxation ``tau`` is given.
    """
    s = check_count("s", s, 1)
    if tau is None:
        return 2.0 * s
    return s / (1.0 - 1.0 / (check_count("tau", tau, 1) + 2))


def sza_bias_residual(w_true, w_inf_mean, R_x, mu, rho, penalty_mean):
    """Stationarity residual of the selective zero-attractor mean limit.

    Measures how far an averaged estimate sits from the predicted fixed
    point ``w_true - (rho/mu) * R_x^-1 * penalty_mean``.  Returns the l2
    norm of the difference; zero means the averages satisfy the limit
    equation exactly.
    """
    w = np.asarray(w_true, dtype=float)
    w_bar = np.asarray(w_inf_mean, dtype=float)
    p_bar = np.asarray(penalty_mean, dtype=float)
    R = np.asarray(R_x, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] != w.shape[0]:
        raise ValueError(f"R_x must be square of size {w.shape[0]}, got shape {R.shape}")
    if not np.allclose(R, R.T, rtol=1e-10, atol=1e-12):
        raise ValueError("R_x must be symmetric")
    target = w - (rho / mu) * np.linalg.solve(R, p_bar)
    return float(np.linalg.norm(w_bar - target))


def batch_iht(A, y, s, mu, iters, return_history=False):
    """Iterative hard thresholding for the batch model y = A w.

    Starts from the zero vector and iterates
    ``w <- H_s(w + mu * A^H (y - A w))`` for ``iters >= 0`` iterations.  Real
    measurement matrices use the plain transpose; complex ones the
    conjugate transpose.

    Residuals and gradients are accumulated row by row, with the scalar
    residual as the left factor of each product, so that the M = 1
    special case performs bit-for-bit the same arithmetic as one
    streaming hard-threshold LMS step.

    Returns the final iterate, or ``(final, history)`` with the list of
    all iterates when ``return_history`` is set.
    """
    A = np.asarray(A)
    y = np.asarray(y)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got ndim {A.ndim}")
    n_meas, n = A.shape
    if y.shape != (n_meas,):
        raise ValueError(f"y must have shape ({n_meas},), got {y.shape}")
    if n_meas < 1:
        raise ValueError("at least one measurement row is required")
    iters = check_count("iters", iters, 0)
    dtype = np.result_type(A.dtype, y.dtype, float)
    rows = [A[m] for m in range(n_meas)]
    conj_rows = [np.conj(A[m]) for m in range(n_meas)]
    w = np.zeros(n, dtype=dtype)
    history = []
    for _ in range(iters):
        grad = (y[0] - np.dot(rows[0], w)) * conj_rows[0]
        for m in range(1, n_meas):
            grad = grad + (y[m] - np.dot(rows[m], w)) * conj_rows[m]
        w = hard_threshold(w + mu * grad, s)
        if return_history:
            history.append(w)
    if return_history:
        return w, history
    return w
