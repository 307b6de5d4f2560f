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

import numpy as np

from .errors import (
    BadParam,
    Degenerate,
    EmptyRange,
    NoPlanFound,
    NotIncomparable3x3,
    RankMismatch,
    TooLarge,
    TraceMismatch,
)
from .majorization import (
    _check_totals,
    _pair_flags,
    _prob_sorted,
    _sorted_pair,
    _vectors,
    _window_affine,
    _zero_pad,
    as_prob_vector,
    compare,
    compare_rows,
    majorizes,
    sorted_padded,
)
from .measures import binary_entropy
from .pairs import (  # PairClass is exported from here
    _SHORT,
    MajVerdict,
    PairClass,
    pair_class,
    power,
    power_copies,
    rank,
    require_copies,
    verdict,
)
from .tolerances import INTERVAL_MARGIN, MAJ_TOL, TIE_TOL, ZERO_TOL

# Searches certify candidates a chunk at a time; chunks double from the
# first size up to the cap, so an early winner costs little and a long scan
# keeps its arrays small.  A cooperation chunk's fixed cost is that of about
# 500 more rows, so the first chunk holds all of the recipe's candidates and
# a long scan takes few chunks.  The catalyst search certifies only the grid
# points inside its window, whose first point nearly always passes, so its
# chunks start at _CATALYST_FIRST_CHUNK points.
_FIRST_CHUNK = 256
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
    twice compare_rows' slack) are certified, a few at a time, so the
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
        chi = (mid, 1.0 - mid)
        if majorizes(vec_kron(sa, chi), vec_kron(sb, chi)):
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
    sa, sb = _strip(a), _strip(b)
    if sa.size != 3 or sb.size != 3:
        raise NotIncomparable3x3(f"need rank-3 vectors, got ranks {sa.size}, {sb.size}")
    if compare(sa, sb) is not MajVerdict.Incomparable:
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
    all four cross-incomparability flags."""
    sa, sb = _schmidt_sorted(a), _schmidt_sorted(b)
    sc, se = _schmidt_sorted(chi), _schmidt_sorted(eta)
    src, tgt = vec_kron(sa, sc), vec_kron(sb, se)
    joint_ok = majorizes(src, tgt)
    # the four cross pairs as rows of one comparison; padding zeros only
    # repeat a row's total, so each row's flags are those of its own pair
    pairs = ((sa, sb), (sc, se), (sa, se), (sc, sb))
    d = max(sa.size, sb.size, sc.size, se.size)
    x, y = (np.stack([_zero_pad(v, d) for v in side]) for side in zip(*pairs))
    try:
        inc = compare_rows(x, y).incomparable
    except TraceMismatch:
        for p, q in pairs:  # name the first mismatched pair, not the worst
            compare(p, q)
        raise
    return CoopPlan(
        chi=sc,
        eta=se,
        joint_ok=joint_ok,
        cross_incomparable=dict(zip(("psi_phi", "chi_eta", "psi_eta", "chi_phi"), map(bool, inc))),
        margin=_min_slack(src, tgt),
    )


def _min_slack(x, y):
    """min over k < d of S_k(y) - S_k(x); the totals (k = d) are left out."""
    xs, ys = sorted_padded(x, y)
    slack = np.cumsum(ys)[:-1] - np.cumsum(xs)[:-1]
    return float(slack.min()) if slack.size else 0.0


def _sorted_columns(v):
    """The rows of an (n, 3) stack sorted descending, as three columns.

    A three-comparator min/max network: the values are exactly np.sort's.
    """
    hi, lo = np.maximum(v[:, 0], v[:, 1]), np.minimum(v[:, 0], v[:, 1])
    mid, low = np.maximum(lo, v[:, 2]), np.minimum(lo, v[:, 2])
    return np.maximum(hi, mid), np.minimum(hi, mid), low


def _incomparable_columns(x, y):
    """compare_rows(x, y).incomparable for 3-entry rows given as sorted
    columns (x1, x2, x3) and (y1, y2, y3), each an array or a scalar.

    On sorted 3-vectors majorization is x1 <= y1 and x1 + x2 <= y1 + y2 once
    the totals agree.  The partial sums, tolerance tests and close rule are
    compare_rows' own, so every flag is bit for bit its flag, and a
    non-finite or mismatched total raises as it does.
    """
    (x1, x2, x3), (y1, y2, y3) = x, y
    cx, cy = x1 + x2, y1 + y2
    tx, ty = cx + x3, cy + y3
    _check_totals(tx, ty)
    fwd = (x1 <= y1 + MAJ_TOL) & (cx <= cy + MAJ_TOL) & (tx <= ty + MAJ_TOL)
    bwd = (y1 <= x1 + MAJ_TOL) & (cy <= cx + MAJ_TOL) & (ty <= tx + MAJ_TOL)
    close = (abs(x1 - y1) <= MAJ_TOL) & (abs(x2 - y2) <= MAJ_TOL) & (abs(x3 - y3) <= MAJ_TOL)
    return ~(fwd | bwd | close)


def _coop_flags(sa, sb, chi, eta):
    """coop_validate over (n, 3) stacks of candidates: which rows are valid,
    and which are valid with all four cross pairs incomparable (psi_phi
    holds for every pair coop_construct accepts).

    The cross pairs are compared as sorted columns; the 9-entry joint check
    runs only on the rows whose chi and eta are incomparable (about a
    quarter of random draws), as a row is valid only if both hold.
    """
    sc, se = _sorted_columns(chi), _sorted_columns(eta)
    chi_eta = _incomparable_columns(sc, se)
    psi_eta = _incomparable_columns(sa, se)
    chi_phi = _incomparable_columns(sc, sb)
    valid = chi_eta.copy()
    (rows,) = chi_eta.nonzero()
    if rows.size:
        valid[rows] = compare_rows(vec_kron(sa, chi[rows]), vec_kron(sb, eta[rows])).fwd
    return valid, valid & psi_eta & chi_phi


def _coop_case1_candidates(sa, sb):
    """Recipe for a1 > b1: chi = (b1, b1, b2), eta = (a1, a2, a2) shapes."""
    a1, _, a3 = sa
    b1, b2, b3 = sb
    ratio0 = max(a1 / sa[1], b1 / b3)
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
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            beta2 = lower + frac * (upper - lower)
            beta1 = (1.0 - beta2) / 2.0
            yield np.array([beta1, beta1, beta2]), np.array([alpha1, alpha2, alpha2])


def _coop_found(sa, sb, chi, eta, branch, candidates):
    """coop_validate's plan, tagged with how coop_construct found it."""
    return replace(coop_validate(sa, sb, chi, eta), branch=branch, candidates=int(candidates))


def coop_construct(a, b, seed=0, fallback_samples=10**5):
    """Auxiliary incomparable pair (chi, eta) making the joint conversion
    a (x) chi -> b (x) eta pass with certainty.

    Tries the a1 > b1 recipe first, then a seeded randomized search; every
    candidate is certified by the direct majorization check, and a
    candidate whose four cross pairs are all incomparable is preferred.
    The plan records which branch found it and how many candidates were
    certified up to it.
    """
    sa, sb = _require_incomparable_3x3(a, b)
    if sa[0] - sa[1] <= TIE_TOL or sa[1] - sa[2] <= TIE_TOL:
        raise Degenerate("source vector must have strictly distinct entries")

    # a1 <= b1 goes straight to the randomized search: the recipe shape
    # chi = beta, eta = (alpha, alpha, 1 - 2 alpha) with alpha <= min(beta1,
    # (beta1 + beta2)/2) has eta majorized by chi, never incomparable
    candidates = _coop_case1_candidates(sa, sb) if sa[0] > sb[0] else iter(())

    # Candidates are certified a chunk at a time; the winner is the one the
    # one-by-one scan would stop at, re-certified by coop_validate.
    first_valid = None
    tried = 0
    sizes = _chunk_sizes(_FIRST_CHUNK)
    while chunk := list(itertools.islice(candidates, next(sizes))):
        chi, eta = (np.array(side) for side in zip(*chunk))
        valid, full = _coop_flags(sa, sb, chi, eta)
        if full.any():
            j = full.argmax()
            return _coop_found(sa, sb, chi[j], eta[j], "recipe", tried + j + 1)
        if first_valid is None and valid.any():
            j = valid.argmax()
            first_valid = chi[j], eta[j], "recipe"
        tried += len(chunk)

    # randomized search; a plan whose four cross pairs are all incomparable
    # wins over the recipe's partially-comparable one, and once a fifth of
    # the samples are spent the next valid plan ends the search
    rng = np.random.default_rng((seed, 99))
    late = fallback_samples // 5
    sizes = _chunk_sizes(_FIRST_CHUNK)
    start = 0
    while start < fallback_samples:
        m = min(next(sizes), fallback_samples - start)
        draws = rng.dirichlet(np.ones(3), size=(m, 2))  # chi_i, eta_i in draw order
        chi, eta = draws[:, 0], draws[:, 1]
        valid, full = _coop_flags(sa, sb, chi, eta)
        if first_valid is None and valid.any():
            j = valid.argmax()
            first_valid = chi[j], eta[j], "fallback"
        stop = full | (valid & (np.arange(start, start + m) >= late))
        if stop.any():
            j = stop.argmax()
            tried += j + 1
            if full[j]:
                return _coop_found(sa, sb, chi[j], eta[j], "fallback", tried)
            break
        start += m
        tried += m
    if first_valid is not None:
        return _coop_found(sa, sb, *first_valid, tried)
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
    """eta for every parameter in x, one row each."""
    edge = 1.0 - 2.0 * x
    return np.stack((x, x, edge) if case == 1 else (edge, x, x), axis=-1)


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
    e1 = _split_eta(case, 1.0) - e0
    source = vec_kron(sa, sa)
    window = _window_affine(
        np.stack((source, vec_kron(sb, e0))),
        np.stack((np.zeros_like(source), vec_kron(sb, e1))),
        lo,
        hi,
        MAJ_TOL,
    )
    window = [(start, end) for start, end in window if start < end - INTERVAL_MARGIN]
    if not window:
        raise EmptyRange(f"no eta(x) with x in ({lo}, {hi}) passes the joint check")
    start, end = max(window, key=lambda piece: piece[1] - piece[0])
    eta = _split_eta(case, start + 0.5 * (end - start))
    target = vec_kron(sb, eta)
    if not (majorizes(source, target) and compare(sa, eta) is MajVerdict.Incomparable):
        raise EmptyRange("the interval midpoint failed the direct validation checks")
    return SplitRange(
        case=case,
        param_interval=(start, end),
        eta=eta,
        window=window,
        margin=_min_slack(source, target),
    )
