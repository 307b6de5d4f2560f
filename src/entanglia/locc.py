"""Deterministic LOCC convertibility of pure bipartite states: the Nielsen
criterion, incomparability classification, catalysis, multi-copy conversion,
entanglement assistance and mutual cooperation.

States enter as Schmidt vectors (descending probabilities).  Every plan
emitted by the constructive routines is certified by the direct
product-vector majorization check before it is returned, so search
heuristics affect completeness, never soundness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BadParam,
    Degenerate,
    EmptyRange,
    NoPlanFound,
    NotIncomparable3x3,
    RankMismatch,
    TooLarge,
)
from .majorization import (
    _pair_flags,
    _prob_sorted,
    _sorted_pair,
    _vectors,
    _window_affine,
    as_prob_vector,
    compare_rows,
    majorizes,
    sorted_padded,
)
from .measures import binary_entropy
from .pairs import (  # PairClass is exported from here
    _SHORT,
    MajVerdict,
    PairClass,
    min_slack,
    pair_class,
    pair_flags,
    power,
    power_copies,
    rank,
    require_copies,
    require_integer,
    sorted_pair,
    verdict,
)
from .tolerances import INTERVAL_MARGIN, MAJ_TOL, TIE_TOL, ZERO_TOL

# Searches certify candidates a chunk at a time; chunks double from the
# first size up to the cap, so an early winner costs little and a long scan
# keeps its arrays small.  A cooperation chunk keeps only the rows whose chi
# and eta are incomparable, about a quarter of the fallback draws.  Its
# fixed cost is large against its per-row cost (2-core x86, numpy 2.4.6, on
# the paper's pairs: a kept chunk of m draws takes about 30 + 0.01 m us to
# find its full rows, the joint check of its other kept rows, which a search
# runs only where they can change its answer, 25 + 0.065 m us more, and
# drawing and keeping it 60 + 0.06 m us; checking every drawn row took
# 37 + 0.17 m us with the draw), so a long scan takes few chunks.  The
# recipe's at most 35 candidates take one, about 80 us to build and certify
# against 10-15 us to show that none of them can be full.
# The catalyst search certifies only the grid points inside its window.  The
# first point of each window interval nearly always passes, so it is
# certified alone, on the pair core; the points after it go in chunks of
# _CATALYST_FIRST_CHUNK points, doubling.  One pair call a point would be
# about 4x slower than the chunks on a long span.  The window itself
# (_window_affine, about 45 us of a 60 us miss) is now most of every
# catalyst op's cost and of split_two_copies'.
_FIRST_CHUNK = 256
_MAX_CHUNK = 2048
_CATALYST_FIRST_CHUNK = 4
# The cooperation fallback draws and keeps the chunks of its first
# _STREAM_DRAWS draws (the first four) at once, when a search first asks
# for its seed (0.5-0.8 ms), for each of the last _STREAM_SEEDS seeds
# searched: 88 bytes of column sums and stream index a kept row, so at most
# 330 KiB a seed and 2.6 MiB in all; seeds 0-3 keep 82-84 KiB each.
_STREAM_DRAWS = 3840
_STREAM_SEEDS = 8


def _chunk_sizes(first):
    size = first
    while True:
        yield size
        size = min(2 * size, _MAX_CHUNK)


def _schmidt_sorted(v):
    return np.sort(as_prob_vector(v))[::-1]


def _rank(s):
    """Schmidt rank of a validated descending vector: the number of its
    leading entries above ZERO_TOL, at least 1 (pairs.rank for a list)."""
    return rank(s) if type(s) is list else max(int(np.count_nonzero(s > ZERO_TOL)), 1)


def _stripped(v):
    """_strip(v) as the pair core sorts it: Python floats for a short v."""
    s = _prob_sorted(np.asarray(v, dtype=float))
    return s[: _rank(s)]


def _strip(v):
    """Descending sort with trailing zeros removed."""
    return np.asarray(_stripped(v))


def vec_kron(a, b):
    """Schmidt vector of a tensor product (outer product, flattened).

    Works row-wise on (..., d) stacks, broadcasting the leading shapes.
    """
    out = np.asarray(a, dtype=float)[..., :, None] * np.asarray(b, dtype=float)[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


def _listed(v):
    """A vector as a list of Python floats."""
    return v if type(v) is list else v.tolist()


def _kron(s, t):
    """vec_kron of two validated vectors, as Python products in its order."""
    s, t = _listed(s), _listed(t)
    return [p * q for p in s for q in t]


def _flags(x, y):
    """compare_rows' (fwd, bwd, equal) for two validated vectors, lists or
    arrays, sorted or not.  Two lists of at most _SHORT entries go straight
    to the pair core (pairs.sorted_pair on copies, then pairs.pair_flags),
    without the array round trip of majorizes and compare; anything else
    takes their path."""
    if type(x) is list and type(y) is list and len(x) <= _SHORT and len(y) <= _SHORT:
        pair = sorted_pair(x[:], y[:])
        if pair is not None:
            return pair_flags(*pair)
    return _pair_flags(*_sorted_pair(*_vectors(x, y)))


def nielsen(a, b):
    """True iff the state with Schmidt vector a converts to b under
    deterministic LOCC (a majorized by b)."""
    sa = _prob_sorted(np.asarray(a, dtype=float))
    sb = _prob_sorted(np.asarray(b, dtype=float))
    return bool(_pair_flags(sa, sb)[0])


def _classified(a, b):
    """classify(a, b), and a and b validated and sorted descending.

    Each raw input is sorted once, by the pair core: the compare verdict
    reads the sorted copies (so malformed input fails there first), and the
    validated vectors are those copies unless an entry needs the clamp.
    """
    x, y = _vectors(a, b)
    xs, ys = _sorted_pair(x, y)
    v = verdict(*_pair_flags(xs, ys))
    sa, sb = _prob_sorted(x, xs), _prob_sorted(y, ys)
    return pair_class(v, sa, sb, _rank(sa), _rank(sb)), sa, sb


def classify(a, b):
    """Full pair classification: verdict, 3x3 interleaving pattern, strong
    incomparability, and the first/last-coefficient catalysis filter."""
    return _classified(a, b)[0]


def tensor_power(a, k):
    k = require_copies(k)
    out = np.asarray(a, dtype=float)
    for _ in range(k - 1):
        out = vec_kron(out, a)
    return out


def multicopy(a, b, k):
    """Whether k joint copies convert: nielsen on the k-fold tensor powers.

    (rank_a * rank_b)^k may be at most 10^6.  The power is never formed for
    large k: r^20 > 10^6 for every r >= 2, and r = 1 (two product states)
    is the same comparison for every k.
    """
    k = require_copies(k)
    sa, sb = _stripped(a), _stripped(b)
    k = power_copies(len(sa), len(sb), k)
    return bool(_pair_flags(_power(sa, k), _power(sb, k))[0])


def _power(s, k):
    """The k-fold tensor power of a stripped vector s, sorted descending.
    A power of at most _SHORT entries is formed from a list, by
    pairs.power."""
    if type(s) is list and len(s) ** k <= _SHORT:
        return power(s, k)
    return np.sort(tensor_power(np.asarray(s), k))[::-1]


def _catalyst_window(sa, sb, slack):
    """The window of the affine stacks v0 + c * v1 whose rows hold the
    entries of a (x) (c, 1-c) and b (x) (c, 1-c): v (1-c) and v c.

    sa and sb are descending vectors, lists or arrays; each stack is built
    from Python lists in one call."""
    d = max(len(sa), len(sb))
    pa, pb = list(sa) + [0.0] * (d - len(sa)), list(sb) + [0.0] * (d - len(sb))
    return _window_affine(
        np.array((pa + [0.0] * d, pb + [0.0] * d)),
        np.array(([-x for x in pa] + pa, [-x for x in pb] + pb)),
        0.5,
        1.0 - INTERVAL_MARGIN,
        slack,
    )


def catalyst_window_2x2(a, b):
    """The c in [1/2, 1 - INTERVAL_MARGIN] whose 2x2 catalyst (c, 1-c) makes
    a (x) (c, 1-c) majorized by b (x) (c, 1-c) within MAJ_TOL, as sorted
    disjoint closed intervals (majorization.window_affine in c)."""
    return _catalyst_window(_schmidt_sorted(a), _schmidt_sorted(b), MAJ_TOL)


def _grid_step(grid_step):
    step = float(grid_step)
    # also rejects NaN and infinity; a finer grid has grid indices that a
    # float no longer holds exactly
    if not (0.0 < step <= 0.5 and 0.5 / step <= 2**53):
        raise BadParam(
            f"grid_step = {grid_step} must be finite and in (0, 1/2], with at most 2^53 grid points"
        )
    return step


def _grid_span(lo, hi, step):
    """Index range [start, stop) of the grid points c_i = 1/2 + i * step in
    [lo, hi] below 1 - INTERVAL_MARGIN.  c_i never falls as i grows, and
    with at most 2^53 grid points the float estimates of both ends are off
    by a few indices; the Python float products round as numpy's do."""
    start = max(int((lo - 0.5) / step) - 8, 0)
    while 0.5 + start * step < lo:
        start += 1
    last = int((hi - 0.5) / step) + 8
    top = min(hi, math.nextafter(1.0 - INTERVAL_MARGIN, 0.0))  # c <= hi and c < 1 - margin
    while last >= start and 0.5 + last * step > top:
        last -= 1
    return start, last + 1


def _catalyst_passes(sa, sb, c):
    """compare_rows' fwd flag for a (x) (c, 1-c) and b (x) (c, 1-c), on the
    pair core."""
    chi = [c, 1.0 - c]
    return _flags(_kron(sa, chi), _kron(sb, chi))[0]


def _catalyst_grid_search(a, b, step):
    """find_catalyst_2x2's answer, with the number of grid points certified
    up to it (counted as a one-by-one scan of the window would), and a and
    b validated and sorted as `_classified` leaves them."""
    pair, sa, sb = _classified(a, b)
    if not pair.catalysis_possible:
        return None, 0, sa, sb
    sizes = _chunk_sizes(_CATALYST_FIRST_CHUNK)
    certified = 0
    # every grid point compare_rows passes lies in the window at twice its
    # slack, which leaves room for the rounding of both computations
    for lo, hi in _catalyst_window(sa, sb, 2 * MAJ_TOL):
        start, stop = _grid_span(lo, hi, step)
        if start < stop:
            c = 0.5 + start * step  # as numpy forms the grid point
            certified += 1
            if _catalyst_passes(sa, sb, c):
                return c, certified, sa, sb
            start += 1
        while start < stop:
            c = 0.5 + np.arange(start, min(start + next(sizes), stop)) * step
            chi = np.stack((c, 1.0 - c), axis=-1)
            hit = compare_rows(vec_kron(sa, chi), vec_kron(sb, chi)).fwd
            if hit.any():
                first = int(hit.argmax())
                return float(c[first]), certified + first + 1, sa, sb
            certified += c.size
            start += c.size
    return None, certified, sa, sb


def find_catalyst_2x2(a, b, grid_step=1e-3):
    """First c = 1/2 + i * grid_step below 1 - INTERVAL_MARGIN whose 2x2
    catalyst (c, 1-c) makes the conversion pass; None when the necessary
    condition fails or no grid point works.

    Only the grid points inside the exact catalyst window (computed with
    twice compare_rows' slack) are certified: the first of each window
    interval alone, on the pair core, the others a few at a time.  So the
    answer is the one a scan of the whole grid returns, and a pair whose
    window holds no grid point certifies none.
    """
    return _catalyst_grid_search(a, b, _grid_step(grid_step))[0]


@dataclass(frozen=True)
class CatalystSearch:
    c: float | None  # find_catalyst_2x2's answer
    window: list  # catalyst_window_2x2's intervals
    on_grid: bool  # some grid point lies in the window
    certified: int  # grid points certified up to c (all of them on a miss)
    off_grid_c: float | None  # see catalyst_search


def catalyst_search(a, b, grid_step=1e-3):
    """find_catalyst_2x2 with the evidence behind its answer: the window at
    MAJ_TOL, whether a grid point lies in it, and the number of grid points
    certified.  When the window is nonempty but holds no grid point,
    off_grid_c is the midpoint of its widest interval, certified by
    compare_rows (None if that check fails); it is never returned as c.
    Each input is validated and sorted once, by the grid search."""
    step = _grid_step(grid_step)
    c, certified, sa, sb = _catalyst_grid_search(a, b, step)
    window = _catalyst_window(sa, sb, MAJ_TOL)
    on_grid = any(start < stop for start, stop in (_grid_span(lo, hi, step) for lo, hi in window))
    off_grid_c = None
    if window and not on_grid:
        lo, hi = max(window, key=lambda w: w[1] - w[0])
        mid = 0.5 * (lo + hi)
        if _catalyst_passes(sa, sb, mid):
            off_grid_c = mid
    return CatalystSearch(c, window, on_grid, certified, off_grid_c)


def assist_max_entangled(a, b):
    """Whether a (x) maxent(d-1) -> b (x) product passes, via the d-1
    simplified partial-sum conditions k a1/(d-1) <= sum_1^k b_i (within
    MAJ_TOL), for k = 1..d-1, checked together in one vector comparison.

    Both vectors must have the same Schmidt rank d >= 3 once trailing
    zeros are stripped.  Costs O(d), against O(d^2) for the product
    vectors of assist_max_entangled_direct.
    """
    sa, sb = _stripped(a), _stripped(b)
    if len(sa) != len(sb) or len(sa) < 3:
        raise RankMismatch(
            f"equal Schmidt rank >= 3 required, got ranks {len(sa)} and {len(sb)}"
        )
    d = len(sa)
    if type(sb) is list:  # the same steps on Python floats
        sums = itertools.accumulate(sb)
        return all(k * sa[0] / (d - 1) <= s + MAJ_TOL for k, s in zip(range(1, d), sums))
    sums = np.cumsum(sb)
    return bool((np.arange(1, d) * sa[0] / (d - 1) <= sums[:-1] + MAJ_TOL).all())


def assist_max_entangled_direct(a, b):
    """The same transformation checked on the explicit product vectors
    (cross-validation partner of assist_max_entangled).

    The product vectors have d(d-1) entries, which may be at most 10^6
    (d <= 1000); larger ranks raise TooLarge before anything is built.
    """
    sa, sb = _strip(a), _strip(b)
    if sa.size != sb.size or sa.size < 3:
        raise RankMismatch(
            f"equal Schmidt rank >= 3 required, got ranks {sa.size} and {sb.size}"
        )
    d = sa.size
    if d * (d - 1) > 10**6:
        raise TooLarge(f"product vectors of d(d-1) = {d * (d - 1)} entries exceed 10^6")
    maxent = np.full(d - 1, 1.0 / (d - 1))
    product = np.zeros(d - 1)
    product[0] = 1.0
    return majorizes(vec_kron(sa, maxent), vec_kron(sb, product))


@dataclass(frozen=True)
class AssistPlan:
    kind: str  # "MaxEntangledLowerRank" or "TwoByTwo"
    resource: np.ndarray
    consumed: bool
    c0: float | None = None
    e0: float | None = None


def _require_incomparable_3x3(a, b):
    """a and b stripped (lists of Python floats for short input); raises
    NotIncomparable3x3 unless both have rank 3 and are incomparable."""
    sa, sb = _stripped(a), _stripped(b)
    if len(sa) != 3 or len(sb) != 3:
        raise NotIncomparable3x3(f"need rank-3 vectors, got ranks {len(sa)}, {len(sb)}")
    if verdict(*_flags(sa, sb)) is not MajVerdict.Incomparable:
        raise NotIncomparable3x3("pair is comparable")
    return sa, sb


def min_assist_3x3(a, b):
    """Cheapest 2x2 assisting state for a 3x3 incomparable pair.

    Type-1 (a1 < b1): c0 = (b1+b2)/(a1+a2); Type-2 (a1 > b1): c0 = b1/a1.
    The plan resource (c0, 1-c0) is consumed (target arrives with a product
    ancilla), unlike a catalyst.
    """
    sa, sb = _require_incomparable_3x3(a, b)
    if sa[0] < sb[0] and sa[0] + sa[1] > sb[0] + sb[1]:
        c0 = (sb[0] + sb[1]) / (sa[0] + sa[1])
    elif sa[0] > sb[0] and sa[0] + sa[1] < sb[0] + sb[1]:
        c0 = sb[0] / sa[0]
    else:
        raise NotIncomparable3x3("pair fits neither 3x3 incomparability type")
    return AssistPlan(
        kind="TwoByTwo",
        resource=np.array([c0, 1.0 - c0]),
        consumed=True,
        c0=float(c0),
        e0=binary_entropy(c0),
    )


# ---------------------------------------------------------------------------
# mutual cooperation


@dataclass(frozen=True)
class CoopPlan:
    chi: np.ndarray
    eta: np.ndarray
    joint_ok: bool
    cross_incomparable: dict  # keys: psi_phi, chi_eta, psi_eta, chi_phi
    # min over k < d of S_k(b (x) eta) - S_k(a (x) chi): how far the joint
    # conversion is from failing (joint_ok needs it >= -MAJ_TOL)
    margin: float | None = None
    # set by coop_construct: "recipe" or "fallback", whichever found the
    # plan, and how many candidates a one-by-one scan certifies up to it
    branch: str | None = None
    candidates: int = 0

    @property
    def valid(self):
        return self.joint_ok and self.cross_incomparable["chi_eta"]


def coop_validate(a, b, chi, eta):
    """Evaluate a proposed auxiliary pair: the joint conversion check plus
    all four cross-incomparability flags.

    Each vector is validated and sorted once, and each check is one pair
    call, on the numpy-free pair core for short vectors; the first check
    that fails raises, the joint one before the cross pairs.  Four 3-entry
    vectors, sorted by the validation, and their two krons, sorted once
    here, are the pair core's input as they are."""
    sa, sb, sc, se = (_prob_sorted(np.asarray(v, dtype=float)) for v in (a, b, chi, eta))
    src, tgt = _kron(sa, sc), _kron(sb, se)
    flags = _flags
    if all(type(v) is list and len(v) == 3 for v in (sa, sb, sc, se)):
        src.sort(reverse=True)
        tgt.sort(reverse=True)
        flags = pair_flags
    joint_ok = bool(flags(src, tgt)[0])
    pairs = ((sa, sb), (sc, se), (sa, se), (sc, sb))
    inc = [verdict(*flags(p, q)) is MajVerdict.Incomparable for p, q in pairs]
    return CoopPlan(
        chi=np.array(sc),
        eta=np.array(se),
        joint_ok=joint_ok,
        cross_incomparable=dict(zip(("psi_phi", "chi_eta", "psi_eta", "chi_phi"), inc)),
        margin=_min_slack(src, tgt),
    )


def _min_slack(x, y):
    """min over k < d of S_k(y) - S_k(x); the totals (k = d) are left out.
    Summed on the pair core, in np.cumsum's order."""
    return min_slack(sorted(_listed(x), reverse=True), sorted(_listed(y), reverse=True))


def _sorted_columns(v):
    """The rows of a (..., 3) stack sorted descending, as three columns.

    A three-comparator min/max network: the values are exactly np.sort's.
    """
    hi, lo = np.maximum(v[..., 0], v[..., 1]), np.minimum(v[..., 0], v[..., 1])
    mid, low = np.maximum(lo, v[..., 2]), np.minimum(lo, v[..., 2])
    return np.maximum(hi, mid), np.minimum(hi, mid), low


def _column_sums(x1, x2, x3):
    """Sorted columns x1 >= x2 >= x3 of one shape as one stack (x2, x3, x1,
    x1 + x2, (x1 + x2) + x3): rows 0-2 are the entries and rows 2-4 the
    partial sums that compare_rows' cumsum makes."""
    cx = x1 + x2
    return np.array((x2, x3, x1, cx, cx + x3))


def _incomparable_sums(x, y):
    """compare_rows(x, y).incomparable for 3-entry rows given as two
    _column_sums stacks of one shape, wherever the totals of a row agree
    within TRACE_TOL (compare_rows raises elsewhere; no total is checked
    here): neither side's partial sums all within MAJ_TOL of the other's,
    nor every entry.

    On sorted 3-vectors majorization is x1 <= y1 and x1 + x2 <= y1 + y2 once
    the totals agree.  The partial sums, tolerance tests and close rule are
    compare_rows' own, so every such flag is bit for bit its flag.
    """
    fwd = (x[2:] <= y[2:] + MAJ_TOL).all(axis=0)
    bwd = (y[2:] <= x[2:] + MAJ_TOL).all(axis=0)
    close = (abs(x[:3] - y[:3]) <= MAJ_TOL).all(axis=0)
    return ~(fwd | bwd | close)


class _CoopChunk(NamedTuple):
    """Rows start to start + size - 1 of a stream of cooperation candidates,
    of which only the rows whose chi and eta are incomparable are kept: no
    other row can be valid."""

    start: int
    size: int
    index: np.ndarray  # the kept rows' stream indices, ascending
    # (5, 2, k): the _column_sums of the kept rows' chi ([:, 0]) and eta
    # ([:, 1]), so that their entries are rows 0-2, in the order x2, x3, x1
    sums: np.ndarray

    @property
    def chi(self):
        return self.sums[:3, 0].T

    @property
    def eta(self):
        return self.sums[:3, 1].T

    def head(self, m):
        """The chunk cut to its first m rows."""
        if m >= self.size:
            return self
        k = int(np.searchsorted(self.index, self.start + m))
        return self._replace(size=m, index=self.index[:k], sums=self.sums[:, :, :k])


def _coop_chunk(pairs, start=0):
    """The chunk of an (n, 2, 3) stack of candidates (chi_i, eta_i) whose
    first row is row start of its stream."""
    sums = _column_sums(*_sorted_columns(pairs.transpose(1, 0, 2)))
    (index,) = _incomparable_sums(sums[:, 0], sums[:, 1]).nonzero()
    # take, unlike sums[:, :, index], returns a C-ordered stack, which the
    # kernel reads several times faster
    return _CoopChunk(start, len(pairs), index + start, sums.take(index, axis=2))


class _CoopPair(NamedTuple):
    """The pair (a, b) of one cooperation search, in the forms its chunk
    checks read, computed once a search."""

    sa: np.ndarray
    sb: np.ndarray
    # (5, 2): the _column_sums of b ([:, 0], against chi) and of a ([:, 1],
    # against eta)
    ends: np.ndarray


def _coop_pair(sa, sb):
    return _CoopPair(sa, sb, _column_sums(*np.array((sb, sa)).T))


def _coop_flags(pair, chunk):
    """coop_validate over a chunk of candidates, as far as every search
    needs it: the masks full and rest of its kept rows.  full holds the
    rows that are valid with all four cross pairs incomparable (psi_phi
    holds for every pair coop_construct accepts), rest the rows whose
    psi/eta and chi/phi are not both incomparable.

    Every kept row has chi and eta incomparable, so it is valid iff its
    9-entry joint check passes.  That check runs here on the other rows
    only; a row of rest is valid iff _joint_ok passes it, which the search
    asks only where a row that is valid but not full can change its answer.

    No total is checked: the flags read partial sums alone, and are
    coop_validate's on every row whose totals agree within TRACE_TOL.
    coop_construct re-certifies its winner with coop_validate, which raises
    TraceMismatch for a winner whose totals do not.
    """
    against = np.empty_like(chunk.sums)  # of one shape: broadcasting is slower
    against[...] = pair.ends[..., None]
    cross = _incomparable_sums(chunk.sums, against).all(axis=0)
    rest = ~cross
    return _joint_ok(pair, chunk, cross), rest


def _joint_ok(pair, chunk, rows):
    """The mask rows of the chunk's kept rows with every row whose joint
    check a (x) chi -> b (x) eta fails cleared, in place: compare_rows' fwd
    flag on partial sums alone, the total check left out."""
    (index,) = rows.nonzero()
    if index.size:
        xs, ys = sorted_padded(vec_kron(pair.sa, chunk.chi[index]), vec_kron(pair.sb, chunk.eta[index]))
        rows[index] = (xs.cumsum(axis=-1) <= ys.cumsum(axis=-1) + MAJ_TOL).all(axis=-1)
    return rows


def _first_valid(pair, chunk, branch):
    """The first valid row of the chunk's kept rows, as (chi, eta, branch),
    or None."""
    valid = _joint_ok(pair, chunk, np.ones(chunk.index.size, dtype=bool))
    if valid.any():
        j = valid.argmax()
        return chunk.chi[j], chunk.eta[j], branch
    return None


def _draw(rng, m):
    """The next m fallback candidates: an (m, 2, 3) stack of (chi_i, eta_i)."""
    return rng.dirichlet(np.ones(3), size=(m, 2))


class _CoopStream(NamedTuple):
    """The fallback candidates of one seed, drawn from default_rng((seed,
    99)) in the search's chunks: the kept chunks of its first end rows,
    then chunks drawn from a generator that continues from the state after
    them, which are not kept.  Generator.dirichlet draws row by row, so
    every chunk holds the rows one draw of the whole stream holds."""

    kept: tuple  # chunks, in stream order
    end: int  # rows kept
    state: dict  # the bit generator's state after them
    size: int  # the size of the chunk after them

    def chunks(self, stop):
        """The chunks of rows 0 to stop - 1, the last one cut at stop."""
        for chunk in self.kept:
            if chunk.start >= stop:
                return
            yield chunk.head(stop - chunk.start)
        if self.end < stop:
            rng = np.random.default_rng(0)
            rng.bit_generator.state = self.state
            sizes, start = _chunk_sizes(self.size), self.end
            while start < stop:
                m = min(next(sizes), stop - start)
                yield _coop_chunk(_draw(rng, m), start)
                start += m


# 8 seeds is a memory bound, not a measured working set: every workload
# and the CLI search one seed per process
@lru_cache(maxsize=_STREAM_SEEDS)
def _coop_stream(seed):
    """The stream of a seed, kept for the last _STREAM_SEEDS seeds: its
    chunks (_FIRST_CHUNK rows, doubling up to _MAX_CHUNK) while they end
    within _STREAM_DRAWS rows.  Whatever fallback_samples is, it keeps at
    most _STREAM_DRAWS rows of 88 bytes, 330 KiB.  A stream
    follows the chunk schedule it was built under;
    _coop_stream.cache_clear() drops it once the schedule is changed."""
    rng = np.random.default_rng((seed, 99))
    kept, end, sizes = [], 0, _chunk_sizes(_FIRST_CHUNK)
    while end + (size := next(sizes)) <= _STREAM_DRAWS:
        kept.append(_coop_chunk(_draw(rng, size), end))
        end += size
    return _CoopStream(tuple(kept), end, rng.bit_generator.state, size)


def _coop_case1_candidates(sa, sb):
    """Recipe for a1 > b1: chi = (b1, b1, b2), eta = (a1, a2, a2) shapes, as
    tuples of Python floats; the candidates of one margin share one eta."""
    a1, a2, a3 = map(float, sa)
    b1, b2, b3 = map(float, sb)
    ratio0 = max(a1 / a2, b1 / b3)
    for margin in (1.02, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0):
        ratio = ratio0 * margin
        alpha2 = 1.0 / (ratio + 2.0)
        alpha1 = ratio * alpha2
        lower = max(
            alpha2 * b3 / a3,
            alpha2 * (b2 + 2.0 * b3),
            (alpha2 * (2.0 - b1) - a3) / (1.0 - a3),
            1.0 - alpha1 * (b1 + b2) / a1,
            1.0 - 2.0 * alpha1,
            0.0,
        )
        upper = min(a3 / (2.0 * a1 + a3), 1.0 / 3.0, alpha2)
        if lower >= upper:
            continue
        eta = (alpha1, alpha2, alpha2)
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            beta2 = lower + frac * (upper - lower)
            beta1 = (1.0 - beta2) / 2.0
            yield (beta1, beta1, beta2), eta


def _recipe_can_wait(pair, recipe):
    """Whether the recipe can be left to the search's second pass, which
    runs only when no full row ends it: a is majorized by each distinct
    recipe eta, tested as the chunk tests it (the partial sums of the
    sorted eta against a's, within MAJ_TOL), so that no recipe row can be
    full.  The recipe yields one eta object per margin, so comparing each
    eta with the one before by identity finds the distinct ones."""
    etas = [eta for _, eta in recipe]
    etas = [sorted(eta, reverse=True) for eta, last in zip(etas, [None] + etas) if eta is not last]
    a1, a12, ta = pair.ends[2:, 1].tolist()
    return all(
        a1 <= e1 + MAJ_TOL and a12 <= e1 + e2 + MAJ_TOL and ta <= e1 + e2 + e3 + MAJ_TOL
        for e1, e2, e3 in etas
    )


def _recipe_rows(recipe):
    """The recipe's candidates as one chunk."""
    # np.fromiter on the flat entries: np.array on the nested tuples takes
    # twice as long
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(recipe))
    return _coop_chunk(np.fromiter(flat, float).reshape(-1, 2, 3))


def _coop_found(sa, sb, chi, eta, branch, candidates):
    """coop_validate's plan, tagged with how coop_construct found it."""
    return replace(coop_validate(sa, sb, chi, eta), branch=branch, candidates=int(candidates))


def _nonnegative(name, v):
    """v as a Python int; BadParam naming v unless it is an integer
    (pairs.require_integer) of at least 0."""
    n = require_integer(name, v)
    if n < 0:
        raise BadParam(f"{name} = {v} must be at least 0")
    return n


def coop_construct(a, b, seed=0, fallback_samples=10**5):
    """Auxiliary incomparable pair (chi, eta) making the joint conversion
    a (x) chi -> b (x) eta pass with certainty.

    Tries the a1 > b1 recipe first, then a seeded randomized search; every
    candidate is certified by the direct majorization check, and a
    candidate whose four cross pairs are all incomparable is preferred.
    The plan records which branch found it and how many candidates were
    certified up to it.

    The recipe's at most 35 candidates are certified as one chunk, the
    randomized ones a chunk at a time.  Those of a seed, and which of them
    have chi and eta incomparable, do not depend on a and b: the first
    _STREAM_DRAWS are drawn at once, when a search first asks for the
    seed, and kept for the last _STREAM_SEEDS seeds (_coop_stream).  Plans,
    diagnostics and errors do not depend on the cache.

    The answer is the first full candidate in scan order (the recipe, then
    the randomized ones), else the first valid one; from a fifth of the
    samples on, the first valid candidate ends the search.  So the search
    runs in two passes.  The first finds the candidate that ends it: the
    recipe's full ones (unless a is majorized by each recipe eta, when none
    can be full), then each chunk's full ones and, from a fifth of the
    samples on, its valid ones.  The second runs only when no full
    candidate ends the search, and re-checks the recipe and the candidates
    before a fifth of the samples (drawn again past the kept draws) for
    the first valid one.

    Candidates are ranked on partial sums alone; the only totals check is
    coop_validate's re-certification of the winner.  Where every total
    agrees within TRACE_TOL the answer is that of a scan that checks each
    candidate's totals.  Where a or b sits at the edge of TRACE_TOL, the
    answer is a plan coop_validate certifies, NoPlanFound, or
    coop_validate's TraceMismatch for the winner; never an uncertified plan.
    """
    seed = _nonnegative("seed", seed)
    fallback_samples = _nonnegative("fallback_samples", fallback_samples)
    sa, sb = _require_incomparable_3x3(a, b)
    if sa[0] - sa[1] <= TIE_TOL or sa[1] - sa[2] <= TIE_TOL:
        raise Degenerate("source vector must have strictly distinct entries")

    # a1 <= b1 goes straight to the randomized search: the recipe shape
    # chi = beta, eta = (alpha, alpha, 1 - 2 alpha) with alpha <= min(beta1,
    # (beta1 + beta2)/2) has eta majorized by chi, never incomparable
    recipe = list(_coop_case1_candidates(sa, sb)) if sa[0] > sb[0] else []
    pair = _coop_pair(sa, sb)

    # pass 1: the first full row, or from late on the first valid row; a
    # plan whose four cross pairs are all incomparable wins over the
    # recipe's partially-comparable one
    if recipe and not _recipe_can_wait(pair, recipe):
        rows = _recipe_rows(recipe)
        full = _coop_flags(pair, rows)[0]
        if full.any():
            j = full.argmax()
            return _coop_found(sa, sb, rows.chi[j], rows.eta[j], "recipe", rows.index[j] + 1)
    tried = len(recipe)
    late = fallback_samples // 5
    stream = _coop_stream(seed)
    drawn, stopped = fallback_samples, None
    for rows in stream.chunks(fallback_samples):
        full, rest = _coop_flags(pair, rows)
        stop = full
        if late < rows.start + rows.size:
            stop = full | _joint_ok(pair, rows, rest & (rows.index >= late))
        if stop.any():
            j = stop.argmax()
            if full[j]:
                return _coop_found(sa, sb, rows.chi[j], rows.eta[j], "fallback", tried + rows.index[j] + 1)
            drawn = rows.index[j] + 1
            stopped = rows.chi[j], rows.eta[j], "fallback"
            break

    # pass 2, without a full row: the first valid row in scan order, a
    # recipe row, a row before late or the row that ended pass 1
    firsts = (_first_valid(pair, rows, "fallback") for rows in stream.chunks(late))
    if recipe:
        firsts = itertools.chain([_first_valid(pair, _recipe_rows(recipe), "recipe")], firsts)
    found = next(filter(None, firsts), stopped)
    if found is not None:
        return _coop_found(sa, sb, *found, tried + drawn)
    raise NoPlanFound("no auxiliary pair found by recipe or randomized search")


# ---------------------------------------------------------------------------
# two copies of the same source


@dataclass(frozen=True)
class SplitRange:
    case: int  # 1: x in ((a1+a2)/2, a1), 2: x in (a3, (1-a1)/2)
    param_interval: tuple  # the widest piece of window
    eta: np.ndarray  # validated representative (param_interval's midpoint)
    window: list  # every admissible (start, end) piece, sorted
    # min over k < 9 of S_k(b (x) eta) - S_k(a (x) a), as CoopPlan.margin
    margin: float


def _split_eta(case, x):
    """eta(x) as a list of Python floats."""
    edge = 1.0 - 2.0 * x
    return [x, x, edge] if case == 1 else [edge, x, x]


def split_two_copies(a, b):
    """The x for which psi^(x2) -> chi (x) eta(x) converts and eta(x), with
    entries x, x and 1 - 2x, is incomparable with the source psi (Schmidt
    vectors a and b here).

    eta(x) is incomparable with a exactly for x in (a3, (1-a1)/2), case 2,
    eta = (1-2x, x, x), or for x in ((a1+a2)/2, a1), case 1, eta = (x, x,
    1-2x).  Only one side can pass the joint check a (x) a < b (x) eta.  If
    a1 < b1, incomparability forces a3 < b3, and case 2's last partial sum
    needs b3 x <= a3^2 with x > a3.  If a1 > b1, case 1's first partial sum
    needs b1 x >= a1^2 with x < a1.  So case = 1 iff a1 < b1.

    The first and last partial sums read only the largest and smallest
    entries of b (x) eta and narrow the case's interval in closed form.
    Every partial sum is affine in x, so the exact set is the window of the
    joint check over what is left (majorization.window_affine), without
    the pieces narrower than INTERVAL_MARGIN.  param_interval is the widest
    piece, and its midpoint eta is re-validated by the direct checks.
    """
    sa, sb = _require_incomparable_3x3(a, b)
    a1, a2, a3 = sa
    b1, b2, b3 = sb
    if a1 - a2 <= TIE_TOL or a2 - a3 <= TIE_TOL:
        raise Degenerate("source Schmidt coefficients must be strictly distinct")

    case = 1 if a1 < b1 else 2
    if case == 1:
        lo = max((a1 + a2) / 2.0, a1**2 / b1, (1.0 - a3**2 / b3) / 2.0)
        hi = min(a1, 0.5 - INTERVAL_MARGIN)
    else:
        lo = a3
        hi = min((1.0 - a1) / 2.0, (1.0 - a1**2 / b1) / 2.0, a3**2 / b3)
    if lo >= hi - INTERVAL_MARGIN:
        raise EmptyRange(f"empty parameter interval ({lo}, {hi})")

    e0 = _split_eta(case, 0.0)
    e1 = [p - q for p, q in zip(_split_eta(case, 1.0), e0)]
    source = _kron(sa, sa)
    window = _window_affine(
        np.array((source, _kron(sb, e0))),
        np.array(([0.0] * len(source), _kron(sb, e1))),
        lo,
        hi,
        MAJ_TOL,
    )
    window = [(start, end) for start, end in window if start < end - INTERVAL_MARGIN]
    if not window:
        raise EmptyRange(f"no eta(x) with x in ({lo}, {hi}) passes the joint check")
    start, end = max(window, key=lambda piece: piece[1] - piece[0])
    eta = _split_eta(case, start + 0.5 * (end - start))
    target = _kron(sb, eta)
    if not (_flags(source, target)[0] and verdict(*_flags(sa, eta)) is MajVerdict.Incomparable):
        raise EmptyRange("the interval midpoint failed the direct validation checks")
    return SplitRange(
        case=case,
        param_interval=(start, end),
        eta=np.array(eta),
        window=window,
        margin=_min_slack(source, target),
    )
