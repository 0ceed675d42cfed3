"""Hard threshold and selective penalty operators.

The hard threshold operator keeps the entries with the largest absolute
values (magnitudes, for complex input) and zeroes the rest; the penalty
operator emits the sign pattern of everything the threshold would discard.
Both are pure functions shared by every adaptive filter in this package.
"""

import numpy as np

from .signals import check_count

__all__ = ["support", "hard_threshold", "penalty_mask"]


def support(v):
    """Indices of the nonzero entries of ``v``, in increasing order."""
    return np.flatnonzero(np.asarray(v))


def hard_threshold(v, s, out=None):
    """Keep the ``s`` largest-magnitude entries of ``v``, zero the rest.

    Entries are ranked by absolute value (magnitude for complex input) and
    an entry survives exactly when its magnitude is >= the s-th largest.
    Ties at the cut are resolved conservatively: every tying entry is
    retained, so the output can have more than ``s`` nonzeros when exact
    (bitwise-equal) magnitude ties occur.  When ``v`` has fewer than ``s``
    nonzeros the cut is zero and the output equals the input.  The cut is
    read from ``np.sort``: the same order statistic as ``np.partition``'s,
    NaN last, but much faster on rows with few distinct magnitudes, which
    are common (a spectrum estimate grows by constant-modulus DFT rows).

    NaN entries are never dropped.  A NaN magnitude ranks above every
    number, as in ``np.sort``, so each NaN also takes one of the ``s``
    places: ``hard_threshold([nan, 1, 2, 3], 2)`` is ``[nan, 0, 0, 3]``,
    and a row with ``s`` or more NaNs is returned unchanged.  Nothing is
    checked per call; a diverging filter is reported by the experiment
    runners instead.

    Parameters
    ----------
    v: array_like
        dense vector, real or complex; a 2-D array is thresholded row by
        row, each row exactly as it would be on its own
    s: int
        number of entries to keep per row, ``1 <= s <= v.shape[-1]``;
        ``s == v.shape[-1]`` is accepted and returns a copy of the input
    out: ndarray, optional
        array of ``v``'s shape and dtype to write the result to; passing
        ``v`` itself zeroes its dropped entries in place

    Returns
    -------
    ``out``, or a new ndarray with the same shape and dtype as ``v``,
    dropped entries set to zero.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    s = check_count("s", s, 1, n)
    if out is None:
        out = v.copy()
    elif out is not v:
        out[...] = v
    if s == n:
        return out
    out[_below_cut(v, s)] = 0
    return out


def _below_cut(v, s, mags=None, srt=None, mask=None):
    """Mask of the entries of ``v`` below the ``s``-th largest magnitude of their row.

    The one cut of every threshold and penalty; the buffers, of ``v``'s
    shape, take the magnitudes, their sorted copy and the mask.
    """
    n = v.shape[-1]
    mags = np.abs(v, out=mags)
    if srt is None:
        srt = np.sort(mags, axis=-1)
    else:
        srt[...] = mags
        srt.sort(axis=-1)
    # the slice keeps the last axis, so each row's cut broadcasts over its row
    return np.less(mags, srt[..., n - s : n - s + 1], out=mask)


def _penalty(v, s, out=None, *cut_buffers):
    """:func:`penalty_mask` of ``v``, written to ``out`` if given."""
    if out is None:
        out = np.empty_like(v)
    out[...] = 0
    return np.sign(v, where=_below_cut(v, s, *cut_buffers), out=out)


def penalty_mask(v, s):
    """Sign pattern of the entries outside the top-``s`` support of ``v``.

    Entry ``i`` is 0 when ``i`` lies in ``support(hard_threshold(v, s))``
    and ``sgn(v_i)`` otherwise, with ``sgn(0) = 0``.  The conservative tie
    rule of :func:`hard_threshold` carries over, so all tying entries are
    spared the penalty, and so does its NaN rule: a NaN entry is kept,
    so its penalty is 0.

    Requires ``1 <= s < v.shape[-1]``: keeping nothing would penalize even the
    largest entry, and keeping everything leaves nothing to penalize.  A
    2-D ``v`` gets one mask per row.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    return _penalty(v, check_count("s", s, 1, n - 1))
