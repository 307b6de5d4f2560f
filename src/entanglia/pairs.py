"""The pair core: one pair of short vectors decided on Python floats.

Nothing here imports numpy.  majorization and locc run each pair of at
most _SHORT entries through these functions, and the command line answers
majorize, nielsen, classify and multicopy on short inline vectors with
them alone.  Each takes numpy's steps in numpy's order on lists of Python
floats: a descending sort, sequential partial sums as np.cumsum makes them
and the same tolerance tests, so every flag, verdict and error message is
the array path's, bit for bit.  Where an answer needs numpy's own
arithmetic (a NaN or an infinity, an entry so large that a sum could
overflow, a total too close to TRACE_TOL for fsum to place, or a total
that an error message prints), a function returns None and the caller
runs the array path.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from itertools import accumulate

from .errors import BadParam, TooLarge, TraceMismatch
from .tolerances import MAJ_TOL, NOISE_TOL, TIE_TOL, TRACE_TOL, ZERO_TOL


class MajVerdict(enum.Enum):
    XPrecY = "XPrecY"  # x majorized by y
    YPrecX = "YPrecX"
    Equal = "Equal"
    Incomparable = "Incomparable"


@dataclass(frozen=True)
class PairClass:
    verdict: MajVerdict
    pattern_3x3: str | None  # "A", "B" or None
    strong: bool
    catalysis_possible: bool


# A pair of at most _SHORT entries (after zero padding) is sorted and summed
# as Python floats, where numpy's fixed cost of about 1 us a call outweighs
# the work.  Per call, numpy against Python floats (2-core x86, numpy 2.4.6,
# best of 7): at d = 32 compare took 12.0 against 8.6 us, classify 17.9
# against 15.0 us and assist_max_entangled 13.3 against 12.8 us; at d = 40
# assist loses (13.3 against 14.8 us), and at d = 48 classify too.
_SHORT = 32

# d entries each at most _SUM_BOUND / d in magnitude have every partial sum
# inside the float range.
_SUM_BOUND = sys.float_info.max / 2


def verdict(fwd, bwd, equal):
    """compare's verdict from the (fwd, bwd, equal) flags of a pair."""
    if equal:
        return MajVerdict.Equal
    if fwd:
        return MajVerdict.XPrecY
    if bwd:
        return MajVerdict.YPrecX
    return MajVerdict.Incomparable


def sorted_pair(xs, ys):
    """The lists xs and ys of Python floats zero-padded to a common length
    d and sorted descending, in place, when every entry is finite and at
    most _SUM_BOUND / d in size; else None.

    The sum of magnitudes bounds every entry and is NaN or inf if an entry
    is, so it is tested before Python's sort, which leaves a NaN anywhere.
    """
    d = max(len(xs), len(ys), 1)
    if not sum(map(abs, xs)) + sum(map(abs, ys)) <= _SUM_BOUND / d:
        return None
    for s in (xs, ys):
        s += [0.0] * (d - len(s))
        s.sort(reverse=True)
    return xs, ys


def pair_flags(xs, ys):
    """compare_rows' (fwd, bwd, equal) for one pair of descending lists,
    the shorter zero-padded, as Python bools.

    numpy's steps in numpy's order on Python floats: sequential partial
    sums as cumsum makes them, the totals within TRACE_TOL, cx <= cy +
    MAJ_TOL and the close rule, so the flags and errors are the array
    path's, bit for bit.  The entries are finite and bounded, so only
    unequal totals can raise.
    """
    if len(xs) != len(ys):
        d = max(len(xs), len(ys))
        xs, ys = xs + [0.0] * (d - len(xs)), ys + [0.0] * (d - len(ys))
    cx, cy = list(accumulate(xs)), list(accumulate(ys))
    if not abs(cx[-1] - cy[-1]) <= TRACE_TOL:
        raise TraceMismatch(f"totals differ: {cx[-1]} vs {cy[-1]}")
    fwd = bwd = close = True
    for sx, sy, ex, ey in zip(cx, cy, xs, ys):
        fwd = fwd and sx <= sy + MAJ_TOL
        bwd = bwd and sy <= sx + MAJ_TOL
        close = close and abs(ex - ey) <= MAJ_TOL
    return fwd, bwd, close or (fwd and bwd)


def min_slack(xs, ys):
    """min over k < d of S_k(ys) - S_k(xs) for two descending lists, the
    shorter zero-padded, with the totals (k = d) left out, and 0.0 for d =
    1: the sums np.cumsum makes, subtracted and compared in its order."""
    d = max(len(xs), len(ys))
    xs, ys = xs + [0.0] * (d - len(xs)), ys + [0.0] * (d - len(ys))
    return min((sy - sx for sx, sy in zip(accumulate(xs[:-1]), accumulate(ys[:-1]))), default=0.0)


def sums_to_one(s):
    """as_prob_vector's gate abs(v.sum() - 1.0) <= TRACE_TOL, for the list
    s of v's entries (sorted, maybe zero-padded), each in [0, 2]: True or
    False, or None when numpy's own sum must decide.

    numpy's total (pairwise above 8 entries, in v's own order) and
    math.fsum's correctly rounded one are each within (n - 1) u and u
    times the exact sum of it (n entries, u = epsilon / 2), so together
    within len(s) * epsilon * total.  fsum answers unless its gap to 1 is
    that close to TRACE_TOL.
    """
    t = math.fsum(s)
    gap = abs(t - 1.0)
    if abs(gap - TRACE_TOL) > len(s) * sys.float_info.epsilon * t:
        return gap <= TRACE_TOL
    return None


def prob_sorted(v, s=None):
    """as_prob_vector(v) sorted descending, for a list v of Python floats,
    or None where the array path must answer.

    s, if given, is v as sorted_pair sorted it (maybe zero-padded), and is
    returned as it is when v needs no clamp, so that v is sorted once.  The
    checks run in as_prob_vector's order.  An empty v, a NaN or an infinity
    returns None.  An entry below -NOISE_TOL raises TraceMismatch naming
    the smallest, and entries in [-NOISE_TOL, 0) are clamped to 0 (-0.0 is
    kept as it is).  A total that fails returns None, since the message
    prints numpy's sum, and so does one that fsum cannot place.
    """
    if s is None:
        if not all(map(math.isfinite, v)):  # Python's sort leaves a NaN anywhere
            return None
        s = sorted(v, reverse=True)
    if not (s and s[-1] >= 0.0 and s[0] <= 2.0):
        if not s:
            return None
        if s[-1] < -NOISE_TOL:
            raise TraceMismatch(f"negative component {s[-1]} in probability vector")
        if not s[0] <= 2.0:  # the total fails
            return None
        s = sorted((0.0 if x < 0.0 else x for x in v), reverse=True)
    return s if sums_to_one(s) else None


def rank(s):
    """Schmidt rank of a validated descending list: the number of its
    leading entries above ZERO_TOL, at least 1."""
    return max(sum(map(ZERO_TOL.__lt__, s)), 1)


def _chain_ge(seq):
    return all(seq[i] >= seq[i + 1] - TIE_TOL for i in range(len(seq) - 1))


def pair_class(verdict, sa, sb, ra, rb):
    """classify's answer from the compare verdict and the validated
    vectors sa and sb (lists or arrays), sorted descending, with Schmidt
    ranks ra and rb."""
    d = max(ra, rb)
    # the stripped vectors zero-padded to d entries: ends a1, ad and b1, bd
    a1, ad = float(sa[0]), (float(sa[d - 1]) if ra == d else 0.0)
    b1, bd = float(sb[0]), (float(sb[d - 1]) if rb == d else 0.0)
    strong = (a1 < b1 - TIE_TOL and ad < bd - TIE_TOL) or (a1 > b1 + TIE_TOL and ad > bd + TIE_TOL)
    # the necessary condition for any catalyst: a1 <= b1 and ad >= bd
    cat = (a1 <= b1 + TIE_TOL) and (ad >= bd - TIE_TOL)
    pattern = None
    if verdict is MajVerdict.Incomparable and ra == rb == 3:
        if _chain_ge([a1, b1, sb[1], sa[1], sa[2], sb[2]]):
            pattern = "A"
        elif _chain_ge([b1, a1, sa[1], sb[1], sb[2], sa[2]]):
            pattern = "B"
    return PairClass(verdict=verdict, pattern_3x3=pattern, strong=strong, catalysis_possible=cat)


def require_integer(name, v):
    """v as a Python int; BadParam naming v unless it is an integer,
    Python's or numpy's but not a bool."""
    # int first: it answers at once, and the ABC check costs about 0.3 us
    if isinstance(v, bool) or not isinstance(v, (int, numbers.Integral)):
        raise BadParam(f"{name} must be an integer, got {v!r}")
    return int(v)


def require_copies(k):
    """k as a Python int; BadParam unless it is an integer (require_integer)
    of at least 1."""
    k = require_integer("k", k)
    if k < 1:
        raise BadParam(f"k = {k} copies: at least one copy is required")
    return k


def power_copies(ra, rb, k):
    """The number of copies multicopy compares for Schmidt ranks ra and rb:
    k, or 1 for two product states, which compare alike for every k.

    (ra * rb)^k may be at most 10^6, else TooLarge.  It is never formed for
    large k: r^20 > 10^6 for every r >= 2.
    """
    r = ra * rb
    if r ** min(k, 20) > 10**6:
        raise TooLarge(f"(rank_a * rank_b)^k = {r}^{k} exceeds 10^6")
    return 1 if r == 1 else k


def power(s, k):
    """The k-fold tensor power of the list s, sorted descending, formed as
    Python products in vec_kron's order: entry i * len(s) + j of each step
    is out[i] * s[j]."""
    out = s
    for _ in range(k - 1):
        out = [p * q for p in out for q in s]
    return sorted(out, reverse=True)
