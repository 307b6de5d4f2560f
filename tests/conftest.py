"""Shared test helpers: seeded random objects and independent oracles."""

import zlib
from typing import NamedTuple

import numpy as np

from entanglia.errors import NonFinite, TraceMismatch
from entanglia.majorization import _check_ends, sorted_padded
from entanglia.pairs import _SUM_BOUND
from entanglia.tolerances import MAJ_TOL, TRACE_TOL


def rng_for(*key):
    """Deterministic generator from a mixed string/int key."""
    parts = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key]
    return np.random.default_rng(parts)


def random_prob(d, rng):
    v = rng.dirichlet(np.ones(d))
    return np.sort(v)[::-1]


def random_density(d, rng, rank=None):
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_doubly_stochastic(d, rng, terms=6):
    """Convex mixture of random permutation matrices (Birkhoff form)."""
    w = rng.dirichlet(np.ones(terms))
    a = np.zeros((d, d))
    for t in range(terms):
        a += w[t] * np.eye(d)[rng.permutation(d)]
    return a


def brute_majorized(x, y, tol=1e-9):
    """Independent partial-sum check (no library calls)."""
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    d = max(len(xs), len(ys))
    xs = xs + [0.0] * (d - len(xs))
    ys = ys + [0.0] * (d - len(ys))
    sx = sy = 0.0
    for i in range(d):
        sx += xs[i]
        sy += ys[i]
        if sx > sy + tol:
            return False
    return abs(sx - sy) <= tol


# ---------------------------------------------------------------------------
# the stacked majorization reference: the library's former batched kernel,
# verbatim, with the row-wise total check it called


class RowFlags(NamedTuple):
    """Row-wise outcome of ref_compare_rows; each field has the batch shape."""

    fwd: np.ndarray  # x majorized by y: the majorizes result
    bwd: np.ndarray  # y majorized by x
    equal: np.ndarray  # compare's Equal verdict

    @property
    def incomparable(self):
        return ~(self.fwd | self.bwd | self.equal)


def ref_check_totals(tx, ty):
    """Raise unless every pair of row totals is finite and agrees within
    TRACE_TOL: NonFinite first, else TraceMismatch naming the worst row."""
    gap = abs(tx - ty)  # NaN or inf whenever either row is not finite
    if not (gap <= TRACE_TOL).all():
        if not np.isfinite(gap).all():
            raise NonFinite("majorization input has a NaN or infinite component")
        row = gap.argmax()
        tx, ty = np.broadcast_arrays(tx, ty)
        raise TraceMismatch(f"totals differ: {tx.flat[row]} vs {ty.flat[row]}")


def ref_compare_rows(x, y):
    """Majorization flags for every row of two (..., d) stacks."""
    xs, ys = sorted_padded(x, y)
    if xs.ndim == ys.ndim == 1:
        lim = _SUM_BOUND / xs.size  # a NaN fails every comparison
        x_in = -lim <= float(xs[-1]) and float(xs[0]) <= lim
        if not (x_in and -lim <= float(ys[-1]) and float(ys[0]) <= lim):
            _check_ends(xs, ys)
        cx, cy = xs.cumsum(), ys.cumsum()
        ref_check_totals(cx[-1], cy[-1])
    else:
        cx, cy = xs.cumsum(axis=-1), ys.cumsum(axis=-1)
        ref_check_totals(cx[..., -1], cy[..., -1])
    fwd = (cx <= cy + MAJ_TOL).all(axis=-1)
    bwd = (cy <= cx + MAJ_TOL).all(axis=-1)
    close = abs(xs - ys).max(axis=-1) <= MAJ_TOL
    return RowFlags(fwd=fwd, bwd=bwd, equal=close | (fwd & bwd))
