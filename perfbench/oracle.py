"""Pure-Python reference checks for the benchmark's answers.

Nothing here imports entanglia or numpy: every verdict the library returns
is recomputed from descending partial sums over plain floats.  A comparison
that lands within EDGE of the library's tolerance is reported as a tie, and
the benchmark then accepts either answer, because a last-bit difference in
summation order may legitimately decide it.
"""

from __future__ import annotations

import math

TOL = 1e-9  # the library's MAJ_TOL and TRACE_TOL
TIE = 1e-9  # locc._TIE
EDGE = 1e-12


class Tie(Exception):
    """The answer depends on rounding at a tolerance boundary."""


def _le(a, b, tol):
    """a <= b + tol, raising Tie when too close to call."""
    gap = b + tol - a
    if abs(gap) <= EDGE:
        raise Tie
    return gap > 0


def desc(v):
    return sorted((float(x) for x in v), reverse=True)


def padded(x, y):
    xs, ys = desc(x), desc(y)
    d = max(len(xs), len(ys))
    return xs + [0.0] * (d - len(xs)), ys + [0.0] * (d - len(ys))


def prefix(v):
    out, s = [], 0.0
    for x in v:
        s += x
        out.append(s)
    return out


def totals_match(xs, ys):
    return _le(abs(math.fsum(xs) - math.fsum(ys)), 0.0, TOL)


def majorized(x, y, tol=TOL):
    """x is majorized by y; None when the totals differ."""
    xs, ys = padded(x, y)
    if not totals_match(xs, ys):
        return None
    return all(_le(a, b, tol) for a, b in zip(prefix(xs), prefix(ys)))


def verdict(x, y, tol=TOL):
    """One of XPrecY, YPrecX, Equal, Incomparable; None when totals differ."""
    xs, ys = padded(x, y)
    if not totals_match(xs, ys):
        return None
    if _le(max(abs(a - b) for a, b in zip(xs, ys)), 0.0, tol):
        return "Equal"
    px, py = prefix(xs), prefix(ys)
    fwd = all(_le(a, b, tol) for a, b in zip(px, py))
    bwd = all(_le(b, a, tol) for a, b in zip(px, py))
    if fwd and bwd:
        return "Equal"
    if fwd:
        return "XPrecY"
    if bwd:
        return "YPrecX"
    return "Incomparable"


def is_prob(v):
    """A valid Schmidt/probability vector under the library's contract."""
    v = [float(x) for x in v]
    if not v or any(math.isnan(x) for x in v):
        return False
    return min(v) >= -1e-12 and abs(math.fsum(v) - 1.0) <= TOL


def strip(v):
    """Descending order with trailing (<= 1e-12) entries removed."""
    s = [max(x, 0.0) for x in desc(v)]
    while len(s) > 1 and s[-1] <= 1e-12:
        s.pop()
    return s


def kron(a, b):
    return [x * y for x in a for y in b]


def power(a, k):
    out = list(a)
    for _ in range(k - 1):
        out = kron(out, a)
    return out


def classify(a, b):
    """(verdict, pattern_3x3, strong, catalysis_possible) as the paper
    defines them for a pair of Schmidt vectors."""
    v = verdict(a, b)
    sa, sb = strip(a), strip(b)
    d = max(len(sa), len(sb))
    pa, pb = sa + [0.0] * (d - len(sa)), sb + [0.0] * (d - len(sb))
    a1, ad, b1, bd = pa[0], pa[-1], pb[0], pb[-1]
    for p, q in ((a1, b1), (ad, bd)):
        if abs(abs(p - q) - TIE) <= EDGE:
            raise Tie
    strong = (a1 < b1 - TIE and ad < bd - TIE) or (a1 > b1 + TIE and ad > bd + TIE)
    cat = a1 <= b1 + TIE and ad >= bd - TIE
    pattern = None
    if v == "Incomparable" and len(sa) == 3 and len(sb) == 3:
        if _chain([a1, b1, pb[1], pa[1], pa[2], pb[2]]):
            pattern = "A"
        elif _chain([b1, a1, pa[1], pb[1], pb[2], pa[2]]):
            pattern = "B"
    return v, pattern, strong, cat


def _chain(seq):
    return all(_le(seq[i + 1], seq[i], TIE) for i in range(len(seq) - 1))


def assist(a, b):
    """a (x) maxent(d-1) -> b (x) product: k a1 / (d-1) <= b1 + ... + bk for
    k < d.  None when the ranks differ or are below 3."""
    sa, sb = strip(a), strip(b)
    if len(sa) != len(sb) or len(sa) < 3:
        return None
    d = len(sa)
    return all(_le(k * sa[0] / (d - 1), s, TOL) for k, s in zip(range(1, d), prefix(sb)))


def catalyst_index(a, b, step):
    """Index i of the first grid point c = 0.5 + i * step in [1/2, 1) whose
    2x2 catalyst (c, 1 - c) makes a (x) chi majorized by b (x) chi, or None."""
    sa, sb = desc(a), desc(b)
    i = 0
    while True:
        c = 0.5 + i * step
        if c >= 1.0 - 1e-12:
            return None
        chi = [c, 1.0 - c]
        if majorized(kron(sa, chi), kron(sb, chi)):
            return i
        i += 1
