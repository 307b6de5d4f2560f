"""Deterministic LOCC convertibility of pure bipartite states: the Nielsen
criterion, incomparability classification, catalysis, multi-copy conversion,
entanglement assistance and mutual cooperation.

States enter as Schmidt vectors (descending probabilities).  Every plan
emitted by the constructive routines is certified by the direct
product-vector majorization check before it is returned: the catalyst
grid and the cooperation LP decide which plan is found, the check whether
it is returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

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

# The catalyst search certifies only the grid points inside its window.  The
# first point of each window interval nearly always passes, so it is
# certified alone, on the pair core; the points after it go in chunks of
# _CATALYST_FIRST_CHUNK points, doubling up to _MAX_CHUNK, so an early hit
# costs little and a long span keeps its arrays small.  One pair call a
# point would be about 4x slower than the chunks on a long span.  The window
# itself (_window_affine, about 45 us of a 60 us miss) is now most of every
# catalyst op's cost and of split_two_copies'.
_MAX_CHUNK = 2048
_CATALYST_FIRST_CHUNK = 4


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
    # set by coop_construct: the order cell whose LP gave the plan, as its
    # chain of b (x) eta entries and the signs of chi/eta, psi/eta, chi/phi
    cell: str | None = None

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


# The cooperation LP.  For sorted 3-vectors of one total, x is majorized by
# y iff x1 <= y1 and x1 + x2 <= y1 + y2, so each cross pair is incomparable
# with a fixed sign when two partial-sum differences are positive.  The k
# largest entries of v (x) x, for sorted v and x, form an order ideal of the
# 3x3 grid of products v_i x_j, so S_k(a (x) chi) <= s iff every ideal of
# size k sums to at most s; S_k(b (x) eta) is at least the sum over any one
# ideal of size k, and equals it for the ideal of a chain that follows the
# order of b (x) eta's entries.  An order cell fixes a chain and the three
# signs; every check g >= t with margin t is then linear in sorted chi =
# (c1, c2, c3) and eta = (e1, e2, e3), and is the LP row t - g <= 0.  The
# variables are s1 = c1 - c2, s2 = c2 - c3, s3 = e1 - e2, s4 = e2 - e3 and
# s5 = t + 1, all >= 0, so s = 0 (chi and eta uniform, t = -1) is a vertex
# of every cell's LP.

# Affine forms in s as (coefficients of s1..s5, constant): t, and the
# partial sums X_l, l = 0..3, of chi = (1 + 2 s1 + s2, 1 - s1 + s2, 1 - s1 -
# 2 s2) / 3 and of eta, the same in s3 and s4.
_T = np.array((0.0, 0.0, 0.0, 0.0, 1.0, -1.0))
_X_CHI = np.array(((0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 1), (1, 2, 0, 0, 0, 2), (0, 0, 0, 0, 0, 3))) / 3.0
_X_ETA = _X_CHI[:, [2, 3, 0, 1, 4, 5]]

# The 18 nonempty proper order ideals of the 3x3 grid, as row lengths: cell
# (i, j) lies in ideal lam iff j < lam[i], so the ideal sums v_i x_j to
# sum_i v_i X_{lam[i]}(x); as those forms, without v, for chi and for eta.
_IDEALS = [lam for lam in itertools.product(range(4), repeat=3) if lam[0] >= lam[1] >= lam[2] and 0 < sum(lam) < 9]
_IDEAL_SUMS = np.array((_X_CHI[np.array(_IDEALS)], _X_ETA[np.array(_IDEALS)]))

# The cross pairs' differences with sign +, X_1(x) - X_1(y) and X_2(y) -
# X_2(x) for (x, y) = (chi, eta), (psi, eta), (chi, phi), without psi's and
# phi's entries; c3 >= 0 and e3 >= 0 as rows X_2 - X_3 <= 0.
_CROSS = (np.array((_X_CHI[1:3] - _X_ETA[1:3], -_X_ETA[1:3], _X_CHI[1:3])) * ((1.0,), (-1.0,))).reshape(6, 6)
_SIMPLEX = np.array((_X_CHI[2] - _X_CHI[3], _X_ETA[2] - _X_ETA[3]))


def _chains(lam=(0, 0, 0)):
    """The chains of ideals from lam up to the whole grid, as the cells (i,
    j) they add one at a time: from the empty ideal, the 42 orders of b (x)
    eta's entries that sorted b and eta allow."""
    if lam == (3, 3, 3):
        yield ()
    for i in range(3):
        if lam[i] < 3 and (i == 0 or lam[i - 1] > lam[i]):
            for rest in _chains(lam[:i] + (lam[i] + 1,) + lam[i + 1 :]):
                yield ((i, lam[i]),) + rest


def _chain_rows(cells):
    """For each ideal J, the index of the chain's ideal of J's size."""
    lam, grown = [0, 0, 0], []
    for i, _ in cells[:-1]:
        lam[i] += 1
        grown.append(_IDEALS.index(tuple(lam)))
    return np.array([grown[sum(lam) - 1] for lam in _IDEALS])


# every chain, named by its order of the entries b_i eta_j as "ij>ij>...",
# and every sign pattern of (chi/eta, psi/eta, chi/phi), "+" where the
# first vector's largest entry is the larger, with its sign for each row
_CHAINS = {">".join(f"{i + 1}{j + 1}" for i, j in cells): _chain_rows(cells) for cells in _chains()}
_SIGNS = {
    "".join(signs): np.repeat([1.0 if c == "+" else -1.0 for c in signs], 2)[:, None]
    for signs in itertools.product("+-", repeat=3)
}
# The cells that hold a plan wherever any cell does, by whether a1 > b1,
# in the order tried: the first holds one for nearly every pair, the others
# the best plan of pairs near comparability, where the first may hold none
# (measured on seeded pairs; the sweep over every cell is the guarantee).
_FAST_CELLS = {
    True: tuple(
        (chain, "--+")
        for chain in ("11>21>31>12>13>22>23>32>33", "11>21>12>13>31>22>23>32>33", "11>21>12>13>22>23>31>32>33")
    ),
    False: tuple((chain, "++-") for chain in ("11>12>21>22>31>32>13>23>33", "11>12>21>31>22>32>13>23>33")),
}


def _lp_max(rows, rhs):
    """max s[-1] over s >= 0 with rows s <= rhs, for rhs >= 0 and a bounded
    feasible set: (s, y), an optimal s and a dual certificate y >= 0 with
    rows^T y >= e_last and rhs . y = s[-1].

    A dense tableau simplex from the vertex s = 0, which needs no phase 1.
    The entering column has the most negative reduced cost, and after the
    first pivot that does not move, the lowest index (Bland's rule, which
    cannot cycle), as does the leaving row among ties.  Entries within
    ZERO_TOL of 0 count as 0.  Every product is elementwise, with no BLAS
    call, so the answer does not depend on the BLAS build."""
    m, n = rows.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = rows
    tab[:m, n:-1].flat[:: m + 1] = 1.0
    tab[:m, -1] = rhs
    tab[m, n - 1] = -1.0
    cost, bound = tab[m, :-1], tab[:m, -1]
    basis = np.arange(n, n + m)
    ratio = np.empty(m)
    bland = False
    while True:
        e = (cost < -ZERO_TOL).argmax() if bland else cost.argmin()
        if cost[e] >= -ZERO_TOL:
            break
        col = tab[:m, e]
        ratio.fill(np.inf)
        np.divide(bound, col, out=ratio, where=col > ZERO_TOL)
        r = ratio.argmin()
        if bland:
            ties = np.flatnonzero(ratio == ratio[r])
            r = ties[basis[ties].argmin()]
        bland = bland or ratio[r] <= ZERO_TOL
        row = tab[r] / col[r]
        tab -= tab[:, e, None] * row
        tab[r] = row
        basis[r] = e
    s = np.zeros(n + m)
    s[basis] = bound
    return s[:n], tab[m, n:-1]


def _coop_tables(sa, sb):
    """A pair's forms of every cell's checks: the ideals' sums of a (x) chi
    and of b (x) eta, which a chain pairs by size, and the cross pairs'
    differences with sign +."""
    a1, a2, _ = sa
    b1, b2, _ = sb
    ideal_a, ideal_b = (np.array((sa, sb), dtype=float)[:, None, :, None] * _IDEAL_SUMS).sum(axis=2)
    cross = _CROSS.copy()
    cross[2:, 5] += (a1, -(a1 + a2), -b1, b1 + b2)
    return ideal_a, ideal_b, cross


def _coop_cell(tables, chain, signs):
    """The best plan of one cell: (t, chi, eta, y), with chi and eta as
    lists of Python floats, and y the LP's dual certificate."""
    ideal_a, ideal_b, cross = tables
    rows = np.concatenate((_T - ideal_b[_CHAINS[chain]] + ideal_a, _T - _SIGNS[signs] * cross, _SIMPLEX))
    s, y = _lp_max(rows[:, :5], -rows[:, 5])
    s1, s2, s3, s4, s5 = s.tolist()
    chi = [(1.0 + 2.0 * s1 + s2) / 3.0, (1.0 - s1 + s2) / 3.0, (1.0 - s1 - 2.0 * s2) / 3.0]
    eta = [(1.0 + 2.0 * s3 + s4) / 3.0, (1.0 - s3 + s4) / 3.0, (1.0 - s3 - 2.0 * s4) / 3.0]
    return s5 - 1.0, chi, eta, y


def _coop_plan(sa, sb, found, cell):
    """coop_validate's plan of a cell's optimum found = (t, chi, eta, y),
    tagged with the cell, if t > MAJ_TOL and the plan is valid with all four
    cross pairs incomparable; else None."""
    t, chi, eta, _ = found
    if t <= MAJ_TOL:
        return None
    plan = coop_validate(sa, sb, chi, eta)
    if plan.joint_ok and all(plan.cross_incomparable.values()):
        return replace(plan, cell=" ".join(cell))
    return None


def coop_construct(a, b, seed=0):
    """Auxiliary pair (chi, eta) making the joint conversion a (x) chi ->
    b (x) eta pass with certainty, with all four cross pairs incomparable.

    Each order cell (a chain of b (x) eta's entries and the signs of the
    three cross pairs with chi or eta) makes every check linear, and a
    small LP finds the cell's plan of largest margin t, the least slack of
    its checks.  A plan needs t > MAJ_TOL, so that each incomparability
    holds beyond compare's tolerance, and coop_validate's certificate with
    all four cross pairs incomparable.  The cells that _FAST_CELLS picks by
    whether a1 > b1 are tried first; only when none of them gives a plan
    are all 42 x 8 cells solved, and their plans tried in order of margin.
    The plan is coop_validate's and names its cell; NoPlanFound names the
    best margin over all cells.  Where a total sits at the edge of
    TRACE_TOL, coop_validate may raise TraceMismatch for the plan: no
    uncertified plan is returned.

    seed must be an integer of at least 0; the search is deterministic and
    reads no seed.
    """
    if require_integer("seed", seed) < 0:
        raise BadParam(f"seed = {seed} must be at least 0")
    sa, sb = _require_incomparable_3x3(a, b)
    if sa[0] - sa[1] <= TIE_TOL or sa[1] - sa[2] <= TIE_TOL:
        raise Degenerate("source vector must have strictly distinct entries")
    tables = _coop_tables(sa, sb)
    for cell in _FAST_CELLS[sa[0] > sb[0]]:
        plan = _coop_plan(sa, sb, _coop_cell(tables, *cell), cell)
        if plan is not None:
            return plan
    solved = [(_coop_cell(tables, *cell), cell) for cell in itertools.product(_CHAINS, _SIGNS)]
    solved.sort(key=lambda found: -found[0][0])
    for found, cell in solved:
        plan = _coop_plan(sa, sb, found, cell)
        if plan is not None:
            return plan
    raise NoPlanFound(
        "no auxiliary pair with all four cross pairs incomparable: the best margin"
        f" over all {len(solved)} order cells is {solved[0][0][0]:.3g}"
    )


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
