"""Majorization engine over real vectors plus the doubly-stochastic machinery.

Vectors are accepted unsorted and possibly of unequal length; operations
sort descending and zero-pad internally, so callers never pre-sort.  One
kernel, compare_rows, does the partial-sum work for whole (..., d) stacks;
majorizes and compare are its single-row views.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import BadResolution, NonFinite, NotMajorized, TraceMismatch
from .linalg import eigvals_hermitian, is_hermitian
from .tolerances import IMAG_TOL, MAJ_TOL, NOISE_TOL, PROJ_TOL, TRACE_TOL


class MajVerdict(enum.Enum):
    XPrecY = "XPrecY"  # x majorized by y
    YPrecX = "YPrecX"
    Equal = "Equal"
    Incomparable = "Incomparable"


_TWO_BITS = np.float64(2.0).view(np.uint64)


def as_prob_vector(v):
    """Validate and clean a probability vector: a float copy with negative
    entries down to -NOISE_TOL clamped to 0 (-0.0 is kept as it is).

    Raises NonFinite for a NaN or infinite entry, then TraceMismatch for an
    entry below -NOISE_TOL, then for a total (after the clamp) more than
    TRACE_TOL from 1.  A valid vector costs one copy, one max and one sum:
    as unsigned integers, float64 bit patterns order like the values from
    +0.0 up, and a sign bit (a negative entry, -0.0) or a NaN reads above
    2.0's pattern, so one max shows every entry in [0, 2], where the sum
    cannot overflow.  Only errors and clamps run the full scans, and a
    total past the float range is a TraceMismatch without a numpy warning.
    """
    v = np.array(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise TraceMismatch("expected a nonempty 1-d probability vector")
    if not (v.view(np.uint64).max() <= _TWO_BITS and abs(v.sum() - 1.0) <= TRACE_TOL):
        if not np.isfinite(v).all():
            raise NonFinite("probability vector has a NaN or infinite component")
        low = v.min()
        if low < -NOISE_TOL:
            raise TraceMismatch(f"negative component {low} in probability vector")
        v[v < 0] = 0.0
        with np.errstate(over="ignore"):
            total = v.sum()
        if abs(total - 1.0) > TRACE_TOL:
            raise TraceMismatch(f"probability vector sums to {total}, not 1")
    return v


class RowFlags(NamedTuple):
    """Row-wise outcome of compare_rows; each field has the batch shape."""

    fwd: np.ndarray  # x majorized by y: the majorizes result
    bwd: np.ndarray  # y majorized by x
    equal: np.ndarray  # compare's Equal verdict

    @property
    def incomparable(self):
        return ~(self.fwd | self.bwd | self.equal)


def _zero_pad(v, d):
    if v.shape[-1] == d:
        return v
    return np.concatenate((v, np.zeros(v.shape[:-1] + (d - v.shape[-1],))), axis=-1)


def sorted_padded(x, y):
    """Copies zero-padded to a common length, then sorted descending.

    Works on (..., d) stacks: the shorter side gains zero columns and rows
    are sorted independently, so a zero lands above any negative entry.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d = max(x.shape[-1], y.shape[-1], 1)
    x, y = _zero_pad(x, d), _zero_pad(y, d)
    return np.sort(x, axis=-1)[..., ::-1], np.sort(y, axis=-1)[..., ::-1]


def _check_totals(tx, ty):
    """Raise unless every pair of row totals is finite and agrees within
    TRACE_TOL: NonFinite first, else TraceMismatch naming the worst row."""
    gap = abs(tx - ty)  # NaN or inf whenever either row is not finite
    if not (gap <= TRACE_TOL).all():
        if not np.isfinite(gap).all():
            raise NonFinite("majorization input has a NaN or infinite component")
        row = gap.argmax()
        tx, ty = np.broadcast_arrays(tx, ty)
        raise TraceMismatch(f"totals differ: {tx.flat[row]} vs {ty.flat[row]}")


# d entries each at most _SUM_BOUND / d in magnitude have every partial sum
# inside the float range.
_SUM_BOUND = sys.float_info.max / 2


def _check_ends(xs, ys):
    """compare_rows' slow path for a sorted, padded pair with an end that
    is not finite or so large that the sums could overflow.  Raises
    NonFinite for a NaN or infinite entry, else TraceMismatch unless the
    totals, summed scaled down so that numpy never overflows, agree within
    TRACE_TOL."""
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise NonFinite("majorization input has a NaN or infinite component")
    tx = float((xs / xs.size).sum()) * xs.size  # Python floats overflow quietly
    ty = float((ys / ys.size).sum()) * ys.size
    if not abs(tx - ty) <= TRACE_TOL:
        if math.isfinite(tx) and math.isfinite(ty):
            raise TraceMismatch(f"totals differ: {tx} vs {ty}")
        raise TraceMismatch(f"a total is past the float range: {tx} vs {ty}")


def compare_rows(x, y):
    """Majorization flags for every row of two (..., d) stacks.

    Row lengths may differ (the shorter side is zero-padded) and the leading
    shapes broadcast, so one vector can be compared with a whole stack.  One
    sort and one cumsum per side; every row's totals must be finite and
    agree within the trace tolerance.

    One pair of vectors, as every verdict and CLI command passes, with a NaN
    or infinity raises NonFinite without a numpy warning.  Four scalar tests
    on the sorted ends catch every entry that would make the cumsum or the
    totals meet inf - inf: a NaN or +inf sorts first and -inf last, zero
    padding included.  The same tests bound every end by _SUM_BOUND / d, so an
    overflowing total is reported, again without a warning, as a
    TraceMismatch naming it.  Stacks, which the searches build from validated
    vectors, skip those tests (testing a stack's ends, or an np.errstate
    around its cumsum, added 2% or more to a catalyst call), so a stack
    holding inf and -inf raises NonFinite after numpy's invalid-value
    warning.
    """
    xs, ys = sorted_padded(x, y)
    if xs.ndim == ys.ndim == 1:
        lim = _SUM_BOUND / xs.size  # a NaN fails every comparison
        x_in = -lim <= float(xs[-1]) and float(xs[0]) <= lim
        if not (x_in and -lim <= float(ys[-1]) and float(ys[0]) <= lim):
            _check_ends(xs, ys)
        cx, cy = xs.cumsum(), ys.cumsum()
        _check_totals(cx[-1], cy[-1])
    else:
        cx, cy = xs.cumsum(axis=-1), ys.cumsum(axis=-1)
        _check_totals(cx[..., -1], cy[..., -1])
    fwd = (cx <= cy + MAJ_TOL).all(axis=-1)
    bwd = (cy <= cx + MAJ_TOL).all(axis=-1)
    close = abs(xs - ys).max(axis=-1) <= MAJ_TOL
    return RowFlags(fwd=fwd, bwd=bwd, equal=close | (fwd & bwd))


def majorizes(x, y):
    """True iff x is majorized by y (x more mixed than y).

    Every descending partial sum of x must stay <= the corresponding sum of
    y within MAJ_TOL; totals must agree within the trace tolerance.
    """
    return bool(compare_rows(x, y).fwd)


def compare(x, y):
    """Classify the pair: XPrecY, YPrecX, Equal or Incomparable."""
    flags = compare_rows(x, y)
    if flags.equal:
        return MajVerdict.Equal
    if flags.fwd:
        return MajVerdict.XPrecY
    if flags.bwd:
        return MajVerdict.YPrecX
    return MajVerdict.Incomparable


def _window_affine(v0, v1, lo, hi, slack):
    """window_affine on the (2, d) stacks v0 = (x0, y0) and v1 = (x1, y1),
    with partial-sum slack `slack` in place of MAJ_TOL."""
    # nodes: lo, hi and every t in (lo, hi) where two entries of one side
    # cross; parallel entries (equal rise) never cross
    rise = v1[:, None, :] - v1[:, :, None]
    t = (v0[:, :, None] - v0[:, None, :]) / np.where(rise == 0.0, np.nan, rise)
    t = np.sort(np.concatenate(([lo, hi], t[(t > lo) & (t < hi)])))
    # between adjacent nodes both sort orders are fixed, so every partial
    # sum, and every gap S_k(y) - S_k(x) + slack, is linear in t
    sums = np.sort(v0[:, None, :] + t[:, None] * v1[:, None, :], axis=-1)[..., ::-1].cumsum(axis=-1)
    gap = sums[1] - sums[0] + slack
    g0, g1 = gap[:-1], gap[1:]
    neg = gap < 0
    # a gap that changes sign along a piece is zero at fraction root of it;
    # one negative at both ends gives end = g0 < 0 <= start, which drops
    # the piece
    root = g0 / np.where(neg[:-1] != neg[1:], g0 - g1, 1.0)
    start = np.where(neg[:-1], root, 0.0).max(axis=-1, initial=0.0)
    end = np.where(neg[1:], root, 1.0).min(axis=-1)
    width = np.diff(t)
    left, right = t[:-1] + start * width, t[1:] - (1.0 - end) * width
    intervals = []
    for j in np.flatnonzero(start <= end).tolist():
        if intervals and start[j] == 0.0 and end[j - 1] == 1.0:  # joins piece j - 1
            intervals[-1] = (intervals[-1][0], float(right[j]))
        else:
            intervals.append((float(left[j]), float(right[j])))
    return intervals


def window_affine(x0, x1, y0, y1, lo, hi):
    """The t in [lo, hi] (lo <= hi) where x0 + t * x1 is majorized by y0 + t * y1,
    within compare_rows' MAJ_TOL slack, as sorted disjoint closed
    intervals [(start, end), ...].

    The nodes are lo, hi and every t between them where two entries of one
    side cross.  Between adjacent nodes both sort orders are fixed, so each
    partial-sum gap S_k(y) - S_k(x) is linear and the piece's feasible set
    is one interval, read off the gaps at its two nodes (Jonathan & Plenio,
    PRL 83, 3566 (1999)).  All nodes are sorted and summed as one stack.
    Like compare_rows' fwd flag, the full sums only need S_d(x) <= S_d(y)
    + MAJ_TOL; the totals are not required to agree.  The shorter side is
    zero-padded before the sort, as in compare_rows.
    """
    x0, x1, y0, y1 = (np.asarray(v, dtype=float) for v in (x0, x1, y0, y1))
    d = max(x0.shape[-1], y0.shape[-1])
    x0, x1, y0, y1 = (_zero_pad(v, d) for v in (x0, x1, y0, y1))
    return _window_affine(np.stack((x0, y0)), np.stack((x1, y1)), lo, hi, MAJ_TOL)


def is_doubly_stochastic(a):
    """Entries nonnegative, every row and column summing to 1."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if np.iscomplexobj(a):
        if np.max(np.abs(a.imag)) > IMAG_TOL:
            return False
        a = a.real
    return bool(
        np.min(a) >= -MAJ_TOL
        and np.max(np.abs(a.sum(axis=0) - 1.0)) <= MAJ_TOL
        and np.max(np.abs(a.sum(axis=1) - 1.0)) <= MAJ_TOL
    )


def ds_witness(x, y):
    """Doubly stochastic A with A @ sort(y) = sort(x), as a T-transform chain.

    Classical Hardy-Littlewood-Polya construction: each step mixes the
    identity with one transposition, fixing at least one coordinate, so at
    most d-1 factors are needed.
    """
    if not majorizes(x, y):
        raise NotMajorized("x is not majorized by y")
    xs, ys = sorted_padded(x, y)
    d = xs.size
    a = np.eye(d)
    v = ys.copy()
    for _ in range(d):
        diff = v - xs
        if np.max(np.abs(diff)) <= MAJ_TOL:
            break
        j = int(np.argmax(diff > MAJ_TOL))  # first v_j > x_j
        ks = np.nonzero(diff[j + 1:] < -MAJ_TOL)[0]
        if ks.size == 0:
            break
        k = j + 1 + int(ks[0])
        delta = min(v[j] - xs[j], xs[k] - v[k])
        t = 1.0 - delta / (v[j] - v[k])
        step = np.eye(d)
        step[j, j] = step[k, k] = t
        step[j, k] = step[k, j] = 1.0 - t
        v = step @ v
        a = step @ a
    return a


def spectra_majorized(rho, sigma):
    """spectrum(rho) majorized by spectrum(sigma), traces matching."""
    return majorizes(eigvals_hermitian(rho), eigvals_hermitian(sigma))


def dephase(rho, projectors):
    """Pinch rho through a complete set of orthogonal projectors.

    Returns sum_j P_j rho P_j; its spectrum is majorized by rho's.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    total = np.zeros_like(rho)
    for i, p in enumerate(projectors):
        p = np.asarray(p, dtype=complex)
        if not is_hermitian(p) or np.max(np.abs(p @ p - p)) > PROJ_TOL:
            raise BadResolution(f"element {i} is not an orthogonal projector")
        total += p
    if np.max(np.abs(total - np.eye(n))) > PROJ_TOL:
        raise BadResolution("projectors do not resolve the identity")
    out = np.zeros_like(rho)
    for p in projectors:
        out += np.asarray(p, dtype=complex) @ rho @ np.asarray(p, dtype=complex)
    return out


def ensemble_exists(p, lam):
    """Whether a pure-state ensemble with probabilities p realizes a state
    whose spectrum is lam: holds iff p is majorized by lam."""
    return majorizes(as_prob_vector(p), as_prob_vector(lam))
