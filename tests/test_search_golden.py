"""The LOCC searches return what their references return: the batched
catalyst and split2 searches what one-candidate-at-a-time scans return,
and the cooperation LP's fast cells a certified plan wherever any of the
42 x 8 order cells has one.

The catalyst and split2 golden values were produced by the scans that
certified one candidate per majorization call; the reference scans restate
those loops over the scalar checks, so any pair can be compared bit for
bit.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from entanglia import locc, majorization, pairs
from entanglia.errors import BadParam, Degenerate, EmptyRange, NoPlanFound, NotIncomparable3x3, TraceMismatch
from entanglia.locc import (
    CoopPlan,
    classify,
    coop_construct,
    coop_validate,
    find_catalyst_2x2,
    split_two_copies,
    vec_kron,
)
from entanglia.majorization import MajVerdict, as_prob_vector, compare, majorizes
from entanglia.tolerances import INTERVAL_MARGIN, MAJ_TOL, TIE_TOL, TRACE_TOL, ZERO_TOL

from conftest import random_prob, ref_compare_rows, rng_for

# (a, b) -> (chi, eta) of coop_construct(a, b): the paper's cooperation
# pair, the tests' pairs and four benchmark anchors
COOP_GOLDEN = (
    ((0.41, 0.38, 0.21), (0.4, 0.4, 0.2), (0.4776705619938899, 0.271832420113466, 0.2504970178926441), (0.49483101391650103, 0.2525844930417495, 0.2525844930417495)),
    ((0.51, 0.3, 0.19), (0.49, 0.36, 0.15), (0.49742062848179996, 0.28923630266645023, 0.2133430688517498), (0.5584726053329007, 0.2207636973335497, 0.2207636973335497)),
    ((0.5, 0.3, 0.2), (0.55, 0.24, 0.21), (0.5000000000000001, 0.3061290322580645, 0.19387096774193543), (0.48387096774193566, 0.48387096774193566, 0.032258064516128705)),
    ((0.564, 0.309, 0.127), (0.557, 0.399, 0.044), (0.5693476368380078, 0.27533991907910066, 0.1553124440828916), (0.6646798381582012, 0.16766008092089937, 0.16766008092089937)),
    ((0.705, 0.227, 0.068), (0.685, 0.272, 0.043), (0.6874302398099083, 0.21118015532072779, 0.10138960486936403), (0.7923603106414557, 0.10381984467927212, 0.10381984467927212)),
    ((0.713, 0.236, 0.051), (0.841, 0.082, 0.077), (0.5037364414843007, 0.4229999999999999, 0.07326355851569939), (0.5, 0.5, 0.0)),
    ((0.602, 0.357, 0.041), (0.696, 0.171, 0.133), (0.5052382324687801, 0.367, 0.1277617675312199), (0.5, 0.5, 0.0)),
)

# (a, b) -> (case, interval, eta) of split_two_copies; each window is its
# interval alone
SPLIT_GOLDEN = (
    ((0.5, 0.3, 0.2), (0.55, 0.24, 0.21), 1, (0.45454545454545453, 0.499999999999), (0.47727272727222725, 0.47727272727222725, 0.0454545454555455)),
    ((0.41, 0.38, 0.21), (0.4, 0.4, 0.2), 2, (0.21, 0.22049999999999995), (0.5695000000000001, 0.21524999999999997, 0.21524999999999997)),
    ((0.51, 0.3, 0.19), (0.49, 0.36, 0.15), 2, (0.19, 0.23459183673469386), (0.5754081632653061, 0.21229591836734693, 0.21229591836734693)),
    ((0.564, 0.309, 0.127), (0.557, 0.399, 0.044), 2, (0.127, 0.21354391217712185), (0.6594560878228781, 0.17027195608856094, 0.17027195608856094)),
    ((0.705, 0.227, 0.068), (0.685, 0.272, 0.043), 2, (0.068, 0.09915084078212352), (0.8328491592178765, 0.08357542039106176, 0.08357542039106176)),
)

CAT_A = [0.4, 0.4, 0.1, 0.1]
CAT_B = [0.5, 0.25, 0.25, 0.0]


def _floats(v):
    return tuple(float(x) for x in v)


def test_coop_golden():
    for a, b, chi, eta in COOP_GOLDEN:
        plan = coop_construct(a, b)
        assert (_floats(plan.chi), _floats(plan.eta)) == (chi, eta)
        assert all(plan.cross_incomparable.values()) and plan.joint_ok


def test_catalyst_golden():
    assert find_catalyst_2x2(CAT_A, CAT_B, grid_step=1e-3) == 0.6
    assert find_catalyst_2x2(CAT_A, CAT_B, grid_step=2e-2) == 0.6


def _exactly_majorized(x, y):
    """x majorized by y in Fraction arithmetic of the float entries, each
    side scaled to total 1 (partial sums cross-multiplied by the totals)."""
    sx, sy = (list(itertools.accumulate(sorted(map(Fraction, map(float, v)), reverse=True))) for v in (x, y))
    return all(p * sy[-1] <= q * sx[-1] for p, q in zip(sx, sy))


def test_split_golden():
    for a, b, case, interval, eta in SPLIT_GOLDEN:
        r = split_two_copies(a, b)
        assert (r.case, r.param_interval, _floats(r.eta), r.window) == (case, interval, eta, [interval])
        assert _exactly_majorized(vec_kron(a, a), vec_kron(b, eta))
    for a, b, _, _ in COOP_GOLDEN[5:]:
        with pytest.raises(EmptyRange):
            split_two_copies(a, b)


# ---------------------------------------------------------------------------
# references


def _schmidt_sorted(v):
    """A validated probability vector, sorted descending, as an array."""
    return np.sort(as_prob_vector(v))[::-1]


def _min_slack_reference(x, y):
    """The joint margin as numpy computes it: sorted, padded, summed by
    cumsum, totals left out."""
    xs, ys = majorization.sorted_padded(x, y)
    slack = np.cumsum(ys)[:-1] - np.cumsum(xs)[:-1]
    return float(slack.min()) if slack.size else 0.0


def _coop_validate_reference(a, b, chi, eta):
    """coop_validate as it stood with one compare call per cross pair, on
    arrays."""
    sa, sb = _schmidt_sorted(a), _schmidt_sorted(b)
    sc, se = _schmidt_sorted(chi), _schmidt_sorted(eta)
    src, tgt = vec_kron(sa, sc), vec_kron(sb, se)
    inc = lambda x, y: compare(x, y) is MajVerdict.Incomparable
    return CoopPlan(
        chi=sc,
        eta=se,
        joint_ok=majorizes(src, tgt),
        cross_incomparable={
            "psi_phi": inc(sa, sb),
            "chi_eta": inc(sc, se),
            "psi_eta": inc(sa, se),
            "chi_phi": inc(sc, sb),
        },
        margin=_min_slack_reference(src, tgt),
    )


def _catalyst_one_by_one(a, b, grid_step):
    if not locc.classify(a, b).catalysis_possible:
        return None
    sa, sb = np.sort(a)[::-1], np.sort(b)[::-1]
    i = 0
    while True:
        c = 0.5 + i * grid_step
        if c >= 1.0 - 1e-12:
            return None
        chi = np.array([c, 1.0 - c])
        if majorizes(vec_kron(sa, chi), vec_kron(sb, chi)):
            return float(c)
        i += 1


def _incomparable_pairs(key, count, a1_below_b1=False):
    rng = rng_for(key)
    pairs = []
    while len(pairs) < count:
        a, b = random_prob(3, rng), random_prob(3, rng)
        if a1_below_b1 and a[0] >= b[0]:
            continue
        if compare(a, b) is MajVerdict.Incomparable and min(a[0] - a[1], a[1] - a[2]) > 1e-9:
            pairs.append((a, b))
    return pairs


def _bits(v):
    return np.asarray(v).tobytes()


def _same_validation(got, want):
    """Plans equal bit for bit: chi and eta as float64 arrays, the flags as
    Python bools, and the margin."""
    return (
        got.chi.dtype == got.eta.dtype == np.float64
        and (_bits(got.chi), _bits(got.eta)) == (_bits(want.chi), _bits(want.eta))
        and got.joint_ok is bool(want.joint_ok)
        and got.cross_incomparable == want.cross_incomparable
        and [type(v) for v in got.cross_incomparable.values()] == [bool] * 4
        and _bits(got.margin) == _bits(want.margin)
    )


def _fast_optima(a, b):
    """The optima (t, chi, eta, y) of the pair's fast cells, in order."""
    sa, sb = locc._require_incomparable_3x3(a, b)
    tables = locc._coop_tables(sa, sb)
    return [locc._coop_cell(tables, *cell) for cell in locc._FAST_CELLS[sa[0] > sb[0]]]


def test_coop_validate_matches_reference():
    """The one-pair calls on the pair core give each candidate the plan
    the array checks gave, down to the bits of chi, eta and the margin."""
    seen = set()
    for k, (a, b) in enumerate(_incomparable_pairs("coop-validate", 12)):
        rng = rng_for("coop-validate-draws", k)
        candidates = [found[1:3] for found in _fast_optima(a, b)]
        candidates += [tuple(rng.dirichlet(np.ones(3), size=2)) for _ in range(40)]
        for chi, eta in candidates:
            got = coop_validate(a, b, chi, eta)
            assert _same_validation(got, _coop_validate_reference(a, b, chi, eta))
            seen.add(tuple(got.cross_incomparable.values()) + (got.joint_ok,))
    assert len({s[:4] for s in seen}) >= 4
    assert len(seen) >= 6
    rng = rng_for("coop-validate-long")
    odd = [
        # unequal lengths: each pair is zero-padded to its longer vector
        ([0.6, 0.3, 0.1], [0.5, 0.5], [0.4, 0.3, 0.2, 0.1], [0.7, 0.2, 0.1, 0.0]),
        # a negative entry within the noise is clamped to 0
        ([0.5, 0.3, 0.2 + 1e-13, -1e-13], [0.55, 0.24, 0.21], [0.45, 0.34, 0.21], [0.48, 0.309, 0.211]),
        # signed zeros keep their order
        ([0.5, 0.3, 0.2], [0.55, 0.24, 0.21], [0.5, 0.5, -0.0, 0.0], [0.5, 0.5, 0.0, -0.0]),
        # joint vectors of 36 and 35 entries, past the pair core's 32
        tuple(random_prob(d, rng) for d in (6, 5, 6, 7)),
        (random_prob(6, rng), random_prob(6, rng), [0.5, 0.3, 0.2], random_prob(40, rng)),
    ]
    for args in odd:
        assert _same_validation(coop_validate(*args), _coop_validate_reference(*args)), args


def test_coop_validate_names_the_first_mismatched_pair():
    # each total is within the trace tolerance of 1 and the joint totals
    # agree, but psi/phi and (by more) chi/eta differ: the per-pair scan
    # stops at psi/phi, so coop_validate must name that pair too
    a = [0.5 + 0.5e-9, 0.3, 0.2]
    b = [0.4 - 0.7e-9, 0.35, 0.25]
    chi = [0.5 - 0.9e-9, 0.3, 0.2]
    eta = [0.6 + 0.9e-9, 0.3, 0.1]
    # the joint totals differ by about 1.8e-9 and psi/phi by 0.9e-9: the
    # joint check runs first and names its own totals
    up = [0.5 + 0.9e-9, 0.3, 0.2]
    joint = (up, [0.4, 0.35, 0.25], up, [0.6, 0.3, 0.1])
    for args in ((a, b, chi, eta), joint):
        with pytest.raises(TraceMismatch) as want:
            _coop_validate_reference(*args)
        with pytest.raises(TraceMismatch) as got:
            coop_validate(*args)
        assert str(got.value) == str(want.value)
    with pytest.raises(TraceMismatch) as first:
        compare(a, b)
    with pytest.raises(TraceMismatch) as worst:
        compare(chi, eta)
    assert str(first.value) != str(worst.value)
    compare(*joint[:2])  # psi/phi alone passes its total check
    with pytest.raises(TraceMismatch) as first:
        majorizes(vec_kron(up, up), vec_kron(*joint[1::2]))
    assert str(first.value) == str(got.value)


def test_min_slack_matches_cumsum():
    """The margin summed on the pair core is numpy's, bit for bit, for
    short lists and arrays, unequal lengths and long vectors."""
    rng = rng_for("min-slack")
    for d, e in ((1, 1), (1, 3), (3, 3), (3, 4), (9, 9), (32, 30), (33, 9), (36, 36)):
        for _ in range(20):
            x, y = random_prob(d, rng), random_prob(e, rng)
            want = _min_slack_reference(x, y)
            for args in ((x, y), (x.tolist(), y.tolist()), (x[::-1].tolist(), y.tolist())):
                assert _bits(locc._min_slack(*args)) == _bits(want)
    for a, b, *_ in SPLIT_GOLDEN:
        r = split_two_copies(a, b)
        sa, sb = np.sort(a)[::-1], np.sort(b)[::-1]
        assert _bits(r.margin) == _bits(_min_slack_reference(vec_kron(sa, sa), vec_kron(sb, r.eta)))


def partial_sums(v):
    return np.cumsum(np.sort(np.asarray(v, dtype=float))[::-1])


def test_coop_golden_diagnostics():
    # every golden plan comes from the first fast cell of its order of a1
    # and b1, and its margin is the smallest gap between the joint partial
    # sums below the total
    for a, b, chi, eta in COOP_GOLDEN:
        plan = coop_construct(a, b)
        assert plan.cell == " ".join(locc._FAST_CELLS[a[0] > b[0]][0])
        gap = partial_sums(vec_kron(b, eta)) - partial_sums(vec_kron(a, chi))
        assert plan.margin == pytest.approx(gap[:-1].min(), abs=1e-15)
        assert plan.margin > MAJ_TOL
    assert sum(a[0] < b[0] for a, b, _, _ in COOP_GOLDEN) == 3


# ---------------------------------------------------------------------------
# the cooperation LP


def _best_margin(a, b):
    """The best margin over all 42 x 8 cells."""
    sa, sb = locc._require_incomparable_3x3(a, b)
    tables = locc._coop_tables(sa, sb)
    return max(locc._coop_cell(tables, *cell)[0] for cell in itertools.product(locc._CHAINS, locc._SIGNS))


def _fast_plan(a, b):
    """coop_construct's fast path: the plan of the first fast cell that
    gives one, with that cell's index, else (None, None)."""
    sa, sb = locc._require_incomparable_3x3(a, b)
    for k, (found, cell) in enumerate(zip(_fast_optima(a, b), locc._FAST_CELLS[sa[0] > sb[0]])):
        plan = locc._coop_plan(sa, sb, found, cell)
        if plan is not None:
            return plan, k
    return None, None


def _near(a, d1, d12):
    """b = a + (d1, d12 - d1, -d12): S_1 and S_2 moved by d1 and d12."""
    return np.asarray(a) + (d1, d12 - d1, -d12)


def _coop_corpus():
    """Seeded pairs coop_construct accepts, as (kind, a, b): 1200
    incomparable pairs (a1 > b1 and a1 < b1 alike), 800 near comparability
    (b = a -+ eps (1, -2, 1), and b with S_1 and S_2 moved by independent
    amounts, each drawn log-uniform in [1e-8, 3e-2], a1 > b1 and a1 < b1
    alike), and the TRACE_TOL-edge pairs."""
    corpus = [("random", a, b) for a, b in _incomparable_pairs("coop-corpus", 1200)]
    rng = rng_for("coop-corpus-near")
    near = []
    while len(near) < 800:
        a = random_prob(3, rng)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        e1, e12 = 10.0 ** rng.uniform(math.log10(1e-8), math.log10(3e-2), size=2)
        if len(near) % 2:
            b = _near(a, sign * e1, -sign * e1)
        else:
            b = _near(a, sign * e1, -sign * e12)
        if min(a[0] - a[1], a[1] - a[2], b.min()) <= 1e-9 or compare(a, b) is not MajVerdict.Incomparable:
            continue
        near.append(("near", a, b))
    return corpus + near + [("edge", a, b) for a, b in _edge_total_pairs()]


def test_coop_fast_cells_reach_a_plan_wherever_a_cell_has_one():
    """Wherever the best margin over all 42 x 8 cells exceeds MAJ_TOL, the
    fast cells give a plan that coop_validate certifies with all four cross
    pairs incomparable, and coop_construct returns it; elsewhere
    coop_construct raises NoPlanFound naming that margin.  At the TRACE_TOL
    edge, coop_validate's TraceMismatch for the plan is the other outcome.
    Both orders of a1 and b1 get plans from the first fast cell and from a
    later one."""
    plans, errors = set(), set()
    for kind, a, b in _coop_corpus():
        try:
            plan, k = _fast_plan(a, b)
        except TraceMismatch as exc:
            assert kind == "edge"
            with pytest.raises(TraceMismatch) as caught:
                coop_construct(a, b)
            assert str(caught.value) == str(exc)
            errors.add((kind, "TraceMismatch"))
            continue
        if plan is None:
            best = _best_margin(a, b)
            assert best <= MAJ_TOL, (a, b)
            with pytest.raises(NoPlanFound) as caught:
                coop_construct(a, b)
            assert str(caught.value).endswith(f" {best:.3g}")
            errors.add((kind, "NoPlanFound"))
            continue
        assert plan.valid and all(plan.cross_incomparable.values())
        assert _same_validation(coop_validate(a, b, plan.chi, plan.eta), plan)
        got = coop_construct(a, b)
        assert _same_validation(got, plan) and got.cell == plan.cell
        plans.add((kind, bool(a[0] > b[0]), k > 0))
    assert {(kind, above, False) for kind in ("random", "near") for above in (True, False)} <= plans
    assert {above for _, above, later in plans if later} == {True, False}
    assert ("near", "NoPlanFound") in errors


def test_coop_sweep_returns_a_certified_plan_of_no_smaller_margin(monkeypatch):
    """With no fast cell, coop_construct sweeps all 42 x 8 cells: on the
    golden pairs and seeded ones, the sweep's plan is certified with all
    four cross pairs incomparable, and its cell's LP margin is at least the
    fast plan's."""
    cases = [(a, b) for a, b, _, _ in COOP_GOLDEN] + _incomparable_pairs("coop-sweep", 6)
    fast = {}
    for a, b in cases:
        try:
            fast[tuple(a), tuple(b)] = coop_construct(a, b)
        except NoPlanFound:
            continue
    assert len(fast) >= len(COOP_GOLDEN) + 3
    monkeypatch.setattr(locc, "_FAST_CELLS", {True: (), False: ()})
    for (a, b), first in fast.items():
        plan = coop_construct(a, b)
        assert plan.joint_ok and all(plan.cross_incomparable.values())
        assert _same_validation(coop_validate(a, b, plan.chi, plan.eta), plan)
        sa, sb = locc._require_incomparable_3x3(a, b)
        tables = locc._coop_tables(sa, sb)
        t = locc._coop_cell(tables, *plan.cell.split())[0]
        assert t >= locc._coop_cell(tables, *first.cell.split())[0] > MAJ_TOL


# a pair near comparability, a1 and b1 2e-4 apart, with a plan of margin 6.3e-5
PINNED = ((0.4641, 0.4309, 0.105), (0.4643, 0.39, 0.1457))


def test_coop_lp_optima_carry_dual_certificates(monkeypatch):
    """Every cell's LP optimum s is feasible and carries the final
    tableau's dual y: y >= 0, rows^T y >= e_5 and rhs . y = s_5 = t + 1,
    within 1e-12, so no point of the cell has a larger margin.  The cells
    are the 42 chains of the 18 ideals of the 3x3 grid, nested by size,
    with the 8 sign patterns."""
    assert len(locc._IDEALS) == 18 and len(locc._CHAINS) == 42 and len(locc._SIGNS) == 8
    sizes = np.array([sum(lam) for lam in locc._IDEALS])
    for rows in locc._CHAINS.values():
        assert np.array_equal(sizes[rows], sizes)
        chain = sorted({locc._IDEALS[i] for i in rows}, key=sum)
        assert all(all(p <= q for p, q in zip(x, y)) for x, y in zip(chain, chain[1:]))
    solved, lp_max = [], locc._lp_max

    def spy(rows, rhs):
        s, y = lp_max(rows, rhs)
        solved.append((rows, rhs, s, y))
        return s, y

    monkeypatch.setattr(locc, "_lp_max", spy)
    cases = _incomparable_pairs("coop-dual", 6) + [COOP_GOLDEN[0][:2], PINNED, ((0.5, 0.3, 0.2), _near((0.5, 0.3, 0.2), 2e-9, -2e-9))]
    for a, b in cases:
        _best_margin(a, b)
    assert len(solved) == 336 * len(cases)
    e5 = np.eye(5)[4]
    for rows, rhs, s, y in solved:
        assert (s >= 0).all() and ((rows * s).sum(axis=1) <= rhs + 1e-12).all()
        assert (y >= -1e-12).all()
        assert ((rows * y[:, None]).sum(axis=0) >= e5 - 1e-12).all()
        assert abs((rhs * y).sum() - s[-1]) <= 1e-12


def test_lp_max_leaves_degenerate_vertices_by_blands_rule():
    """Beale's LP, on which the largest-coefficient rule alone cycles, as
    max z with z <= 3/4 x1 - 150 x2 + x3 / 50 - 6 x4: the first pivot from
    s = 0 is degenerate, and Bland's rule then finds the optimum 1/20 at
    x = (1/25, 0, 1, 0), with its dual certificate."""
    rows = np.array(((-0.75, 150.0, -0.02, 6.0, 1.0), (0.25, -60.0, -0.04, 9.0, 0.0), (0.5, -90.0, -0.02, 3.0, 0.0), (0.0, 0.0, 1.0, 0.0, 0.0)))
    rhs = np.array((0.0, 0.0, 0.0, 1.0))
    s, y = locc._lp_max(rows, rhs)
    assert s == pytest.approx((0.04, 0.0, 1.0, 0.0, 0.05), abs=1e-12)
    assert (y >= 0).all() and ((rows * y[:, None]).sum(axis=0) >= np.eye(5)[4] - 1e-12).all()
    assert (rhs * y).sum() == pytest.approx(0.05, abs=1e-12)


def test_coop_pins():
    """The pinned pair has a plan with margin 6.3e-5; b = a + eps (1, -2,
    1) at a = (.5, .3, .2) has one with margin eps / 3 at eps = 1e-7, and
    at eps = 2e-9 none of margin above MAJ_TOL (best eps / 3)."""
    a = (0.5, 0.3, 0.2)
    for pair, margin in ((PINNED, 6.34e-5), ((a, _near(a, 1e-7, -1e-7)), 1e-7 / 3)):
        plan = coop_construct(*pair)
        assert plan.joint_ok and all(plan.cross_incomparable.values())
        assert plan.margin == pytest.approx(margin, rel=1e-3)
    with pytest.raises(NoPlanFound) as caught:
        coop_construct(a, _near(a, 2e-9, -2e-9))
    best = float(str(caught.value).rsplit(" ", 1)[1])
    assert best == pytest.approx(2e-9 / 3, rel=1e-2) and best <= MAJ_TOL


def _accepted(pairs):
    """The pairs whose totals coop_construct's precondition accepts."""
    kept = []
    for a, b in pairs:
        try:
            locc._require_incomparable_3x3(a, b)
        except TraceMismatch:
            continue
        kept.append((a, b))
    return kept


def _edge_total_pairs():
    """Pairs whose totals sit within a few ulps of 1 +- TRACE_TOL: a's and
    b's last entries moved alike (or b's by half as much), kept where
    coop_construct accepts the pair.  The joint totals then agree, and a
    plan whose eta or chi total lies an ulp or two on the far side of 1
    fails the psi/eta or chi/phi total check."""
    return _accepted(
        ([a[0], a[1], a[2] + d], [b[0], b[1], b[2] + scale * d])
        for a, b, *_ in COOP_GOLDEN[:4]
        for d in (TRACE_TOL, TRACE_TOL - 2**-51, -TRACE_TOL, 2**-51 - TRACE_TOL)
        for scale in (1.0, 0.5)
    )


def _edge_corpus():
    """_edge_total_pairs, the golden pairs scaled to totals 1 +- 5e-10 and
    1 -+ 4.995e-10 or 1 -+ 5e-10, and COOP_GOLDEN[6] with a - b a few ulps
    inside TRACE_TOL: the joint totals of a plan can fail while every cross
    pair passes."""
    scaled = [
        (np.array(a) * (1 + s * 5e-10), np.array(b) * (1 - s * gap))
        for a, b, *_ in COOP_GOLDEN
        for s in (1, -1)
        for gap in (4.995e-10, 5e-10)
    ]
    a, b = (np.array(v) for v in COOP_GOLDEN[6][:2])
    return _edge_total_pairs() + _accepted(scaled) + [(a * (1 + 5e-10), b * (1 - 5e-10 + 4 * 2**-53))]


def test_coop_edge_totals_give_a_certified_plan_or_the_winners_error():
    """A pair whose totals sit at the edge of TRACE_TOL: the LP reads only
    partial sums, so coop_construct returns a plan that coop_validate
    re-certifies bit for bit, or raises the TraceMismatch that
    coop_validate raised for the plan it found."""
    outcomes = set()
    for a, b in _edge_corpus():
        raised, validate = [], locc.coop_validate

        def spy(*args):
            try:
                return validate(*args)
            except TraceMismatch as exc:
                raised.append(str(exc))
                raise

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locc, "coop_validate", spy)
            try:
                got = coop_construct(a, b)
            except TraceMismatch as exc:
                assert raised == [str(exc)], (a, b)
                outcomes.add("TraceMismatch")
                continue
        assert got.valid and all(got.cross_incomparable.values())
        assert _same_validation(coop_validate(a, b, got.chi, got.eta), got)
        outcomes.add("CoopPlan")
    assert outcomes == {"CoopPlan", "TraceMismatch"}


def test_catalyst_matches_one_by_one_scan():
    rng = rng_for("catalyst-scan")
    outcomes = set()
    for _ in range(30):
        a = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        b = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        for step in (1e-3, 2e-2, 0.3):
            want = _catalyst_one_by_one(a, b, step)
            assert find_catalyst_2x2(a, b, grid_step=step) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


# a1 <= b1 and a4 >= b4, but S_2(b) = S_2(a) - 1.2e-9: at c = 1/2 the gap
# is -1.2 MAJ_TOL, inside the search window (twice MAJ_TOL) but failing
# compare, and it closes at rate 1/2 in c, so the first 400 points of
# a 1e-12 grid fail before one passes
BAND_A = [0.4, 0.3, 0.2, 0.1]
BAND_B = [0.45, 0.25 - 1.2e-9, 0.25 - 1.2e-9, 0.05 + 2.4e-9]


def test_catalyst_grid_point_by_point(monkeypatch):
    # each grid point of a window interval is certified alone, on the pair
    # core; the incomparable pairs that pass the necessary condition
    # include misses
    points, passes = [], locc._catalyst_passes

    def counting(sa, sb, c):
        points.append(c)
        return passes(sa, sb, c)

    monkeypatch.setattr(locc, "_catalyst_passes", counting)
    rng = rng_for("catalyst-chunks")
    pairs = [(CAT_A, CAT_B)]
    while len(pairs) < 5:
        a, b = random_prob(4, rng), random_prob(4, rng)
        if compare(a, b) is MajVerdict.Incomparable and locc.classify(a, b).catalysis_possible:
            pairs.append((a, b))
    outcomes = set()
    for a, b in pairs:
        for step in (1e-3, 7.8e-3, 0.3):
            want = _catalyst_one_by_one(a, b, step)
            assert find_catalyst_2x2(a, b, grid_step=step) == want
            outcomes.add(want)
    assert {None, 0.6} <= outcomes
    points.clear()
    want = _catalyst_one_by_one(BAND_A, BAND_B, 1e-12)
    assert find_catalyst_2x2(BAND_A, BAND_B, grid_step=1e-12) == want == 0.5 + 400 * 1e-12
    # BAND's window starts below the grid, so the search certifies c_0 = 1/2,
    # c_1, ... in turn, one call each, and c_400 is the first that passes
    assert points == [0.5 + i * 1e-12 for i in range(401)]
    assert locc.catalyst_search(BAND_A, BAND_B, 1e-12).certified == 401


def _catalyst_corpus(key, per_dim):
    """Seeded incomparable pairs of 3x3 to 6x6 Schmidt vectors.  From 4x4 on
    they pass the first/last filter and a third of the targets have a zero
    tail; no incomparable 3x3 pair passes it (a1 <= b1 and a3 >= b3 make
    a majorized by b)."""
    rng = rng_for(key)
    pairs = []
    for d in range(3, 7):
        found = 0
        while found < per_dim:
            a, b = random_prob(d, rng), random_prob(d, rng)
            if d > 3 and found % 3 == 0:
                b = np.append(random_prob(d - 1, rng), 0.0)
            if compare(a, b) is MajVerdict.Incomparable and (d == 3 or locc.classify(a, b).catalysis_possible):
                pairs.append((a, b))
                found += 1
    return pairs


def test_catalyst_window_search_matches_one_by_one_scan():
    outcomes = set()
    for a, b in _catalyst_corpus("catalyst-window-scan", 6) + [(BAND_A, BAND_B)]:
        for step in (1e-3, 1e-4, 7e-3, 0.25, 0.5):
            want = _catalyst_one_by_one(a, b, step)
            assert find_catalyst_2x2(a, b, grid_step=step) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


def test_catalyst_window_midpoints_pass_compare_rows():
    # a nonempty window at MAJ_TOL never comes with a rejected midpoint, and
    # a miss off the grid reports that midpoint; the window does not depend
    # on the grid
    nonempty = 0
    for a, b in _catalyst_corpus("catalyst-window-midpoints", 15) + [(CAT_A, CAT_B)]:
        window = locc.catalyst_search(a, b).window
        for lo, hi in window:
            mid = 0.5 * (lo + hi)
            chi = [mid, 1.0 - mid]
            assert majorizes(vec_kron(a, chi), vec_kron(b, chi))
        search = locc.catalyst_search(a, b, grid_step=0.25)
        assert search.window == window
        assert (search.off_grid_c is not None) == (bool(window) and not search.on_grid)
        nonempty += bool(window)
    assert nonempty >= 5


def test_catalyst_off_grid_window():
    # the window [0.609528, 0.609750] holds no point of the default grid
    a, b = [0.4, 0.4, 0.1, 0.1], [0.4878, 0.2622, 0.25, 0.0]
    search = locc.catalyst_search(a, b)
    ((lo, hi),) = search.window
    assert (round(lo, 6), round(hi, 6)) == (0.609528, 0.60975)
    assert search.c is None and not search.on_grid and search.certified == 0
    assert lo < search.off_grid_c < hi
    assert find_catalyst_2x2(a, b) is None
    fine = locc.catalyst_search(a, b, grid_step=1e-5)
    assert fine.c == find_catalyst_2x2(a, b, grid_step=1e-5) == 0.60953
    assert fine.on_grid and fine.certified == 1 and fine.off_grid_c is None


_REF_CHUNK = 2048  # grid points a chunk of the verbatim search


def ref_find_catalyst_2x2(a, b, grid_step=1e-3):
    """find_catalyst_2x2 before the window, verbatim: classify's filter,
    then the whole grid a chunk at a time."""
    step = float(grid_step)
    if not 0.0 < step <= 0.5:  # also rejects NaN and infinity
        raise BadParam(f"grid_step = {grid_step} must be finite and in (0, 1/2]")
    if not classify(a, b).catalysis_possible:
        return None
    sa, sb = _schmidt_sorted(a), _schmidt_sorted(b)
    # at most 0.5 / step + 1 grid points lie below c = 1, so a chunk one
    # larger holds a whole grid that fits under the cap and shows its end
    size = int(min(_REF_CHUNK, 0.5 / step + 2))
    for start in itertools.count(0, size):
        c = 0.5 + np.arange(start, start + size) * step
        c = c[c < 1.0 - INTERVAL_MARGIN]
        if c.size:
            chi = np.stack((c, 1.0 - c), axis=-1)
            hit = ref_compare_rows(vec_kron(sa, chi), vec_kron(sb, chi)).fwd
            if hit.any():
                return float(c[hit.argmax()])
        if c.size < size:
            return None


def _outcome(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("value", fn(*args))
        except Exception as exc:  # the class and message are compared
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


def test_catalyst_filter_errors_match_verbatim_search():
    # find_catalyst_2x2 validates and sorts each vector once and reads the
    # first/last filter off them; answers, exception classes, messages and
    # warnings must match the classify-first search on valid, borderline
    # and malformed input
    rng = rng_for("catalyst-filter-errors")
    up, down = 1.0 + 0.9 * TRACE_TOL, 1.0 - 0.9 * TRACE_TOL
    near_up, near_down = 1.0 + 0.3 * TRACE_TOL, 1.0 - 0.3 * TRACE_TOL
    cases = [
        (CAT_A, CAT_B),
        (BAND_A, BAND_B),
        ([1.0], [1.0]),
        ([0.5, 0.5], [1.0]),
        ([0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 1e-13]),  # a zero under ZERO_TOL
        ([0.4, 0.4, 0.1, 0.1 - 5e-12, 5e-12], [0.5, 0.25, 0.25, 0.0]),
        ([0.4, 0.4, 0.1, 0.1 + 1e-13, -1e-13], CAT_B),  # a clamped entry
        ([0.4, 0.4, 0.2 + 1e-11, -1e-11], CAT_B),  # below -NOISE_TOL
        (np.array(CAT_A) * up, np.array(CAT_B) * down),  # raw totals 1.8 TRACE_TOL apart
        (np.array(CAT_A) * near_up, np.array(CAT_B) * near_down),
        (np.array(CAT_A) * 1.5, np.array(CAT_B) * 1.5),
        (np.array(CAT_A) * 1.5, CAT_B),
        ([0.5 + TIE_TOL, 0.3, 0.2 - TIE_TOL], [0.5, 0.3, 0.2]),
        ([0.4 + 1.5 * TIE_TOL, 0.4, 0.1, 0.1 - 1.5 * TIE_TOL], [0.4, 0.35, 0.2, 0.05]),
        ([np.nan, 0.5, 0.5], CAT_B),
        ([np.inf, 0.0], [1.0, 0.0]),
        ([np.inf, -np.inf, 1.0], [0.5, 0.5]),
        ([1e308, 1e308, 0.0], [0.5, 0.3, 0.2]),
        ([], [1.0]),
        ([[0.5, 0.5]], [[0.5, 0.5]]),
        ([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.6, 0.4]]),
        (["0.5", "x"], [1.0]),
    ]
    for d in range(2, 7):
        for _ in range(6):
            cases.append((random_prob(d, rng), random_prob(int(rng.integers(1, 7)), rng)))
    for a, b in cases:
        for step in (0.25, 2e-2):
            got = _outcome(find_catalyst_2x2, a, b, step)
            assert got == _outcome(ref_find_catalyst_2x2, a, b, step), (a, b, step)


def test_split_matches_one_by_one_scan():
    for a, b in _incomparable_pairs("split-scan", 60):
        try:
            r = split_two_copies(a, b)
        except EmptyRange:
            continue
        lo, hi = r.param_interval
        sa = np.sort(a)[::-1]
        for frac in (0.5, 0.25, 0.75, 0.1, 0.9):
            x = lo + frac * (hi - lo)
            eta = np.array([x, x, 1.0 - 2.0 * x]) if r.case == 1 else np.array([1.0 - 2.0 * x, x, x])
            if majorizes(vec_kron(sa, sa), vec_kron(np.sort(b)[::-1], eta)) and (
                compare(sa, eta) is MajVerdict.Incomparable
            ):
                break
        assert np.array_equal(r.eta, eta)


# ---------------------------------------------------------------------------
# construct's short-vector checks on the pair core


def _row_flags(x, y):
    """The stacked reference's flags for one pair, as a one-row stack."""
    return tuple(bool(f[0]) for f in ref_compare_rows(np.asarray(x, float)[None], np.asarray(y, float)[None]))


def _stripped_stack(v):
    s = _schmidt_sorted(v)
    return s[: max(int(np.count_nonzero(s > ZERO_TOL)), 1)]


def _require_3x3_stacks(a, b):
    """_require_incomparable_3x3 on arrays and one-row reference stacks."""
    sa, sb = _stripped_stack(a), _stripped_stack(b)
    if sa.size != 3 or sb.size != 3:
        raise NotIncomparable3x3(f"need rank-3 vectors, got ranks {sa.size}, {sb.size}")
    if pairs.verdict(*_row_flags(sa, sb)) is not MajVerdict.Incomparable:
        raise NotIncomparable3x3("pair is comparable")
    return sa, sb


def _coop_validate_stacks(a, b, chi, eta):
    """coop_validate with each check a one-row reference stack, in its
    order: the joint check, then the cross pairs."""
    sa, sb, sc, se = map(_schmidt_sorted, (a, b, chi, eta))
    src, tgt = vec_kron(sa, sc), vec_kron(sb, se)
    joint_ok = _row_flags(src, tgt)[0]
    names = ("psi_phi", "chi_eta", "psi_eta", "chi_phi")
    inc = {k: pairs.verdict(*_row_flags(p, q)) is MajVerdict.Incomparable
           for k, (p, q) in zip(names, ((sa, sb), (sc, se), (sa, se), (sc, sb)))}
    return CoopPlan(sc, se, joint_ok, inc, _min_slack_reference(src, tgt))


def _split_stacks(a, b):
    """split_two_copies on arrays: the window by majorization._window_affine
    on (2, 9) stacks, the midpoint's checks by one-row reference stacks."""
    sa, sb = _require_3x3_stacks(a, b)
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

    def eta_of(x):
        return np.array([x, x, 1.0 - 2.0 * x] if case == 1 else [1.0 - 2.0 * x, x, x])

    source = vec_kron(sa, sa)
    e0 = eta_of(0.0)
    v0 = np.stack((source, vec_kron(sb, e0)))
    v1 = np.stack((np.zeros(9), vec_kron(sb, eta_of(1.0) - e0)))
    window = majorization._window_affine(v0, v1, lo, hi, MAJ_TOL)
    window = [(p, q) for p, q in window if p < q - INTERVAL_MARGIN]
    if not window:
        raise EmptyRange(f"no eta(x) with x in ({lo}, {hi}) passes the joint check")
    start, end = max(window, key=lambda piece: piece[1] - piece[0])
    eta = eta_of(start + 0.5 * (end - start))
    target = vec_kron(sb, eta)
    if not (_row_flags(source, target)[0] and pairs.verdict(*_row_flags(sa, eta)) is MajVerdict.Incomparable):
        raise EmptyRange("the interval midpoint failed the direct validation checks")
    return locc.SplitRange(case, (start, end), eta, window, _min_slack_reference(source, target))


def _plan_key(p):
    return (p.chi.dtype, _bits(p.chi), _bits(p.eta), p.joint_ok, type(p.joint_ok),
            tuple(p.cross_incomparable.items()), _bits(p.margin))


def _split_key(r):
    return (r.case, r.param_interval, r.window, r.eta.dtype, _bits(r.eta), _bits(r.margin))


def _short_vector_inputs(count):
    """Seeded (a, b, chi, eta) of 3-vectors: every other (a, b) incomparable,
    a fifth of chi or eta with a zero entry, a sixth of the pairs with a
    total at the TRACE_TOL edge and a tenth of the a rank 3 but 40 entries
    long."""
    rng = rng_for("short-vector-checks")
    edge = TRACE_TOL - 2.0**-51
    for i in range(count):
        a, b = random_prob(3, rng), random_prob(3, rng)
        while i % 2 and compare(a, b) is not MajVerdict.Incomparable:
            a, b = random_prob(3, rng), random_prob(3, rng)
        chi, eta = random_prob(3, rng), random_prob(3, rng)
        if i % 5 == 0:
            p = float(rng.uniform(0.5, 1.0))
            chi, eta = (np.array([p, 1.0 - p, 0.0]), eta) if i % 10 else (chi, np.array([p, 1.0 - p, 0.0]))
        if i % 6 == 1:  # a gap of up to twice TRACE_TOL between the totals
            a, b = a * (1.0 + (i % 4) * 2.5e-10), b * (1.0 - (i % 3) * 4.99e-10)
        elif i % 6 == 3:
            a = a + np.array([0.0, 0.0, edge if i % 4 == 1 else -edge])
        if i % 10 == 7:
            a = np.concatenate((a, np.zeros(37)))
        yield a, b, chi, eta


def test_short_vector_checks_match_compare_rows_stacks():
    """The pair-core checks of coop_validate, the 3x3 precondition and
    split2, and the helper under them, give the flags, margins, errors and
    messages of the stacked reference and of _window_affine on numpy
    arrays."""
    seen = set()
    for a, b, chi, eta in _short_vector_inputs(1200):
        sa, sb, sc, se = (majorization._prob_sorted(np.asarray(v, dtype=float)) for v in (a, b, chi, eta))
        for x, y in ((sa, sb), (sc, se), (locc._kron(sa, sc), locc._kron(sb, se)), (np.asarray(sa), sb)):
            got = _outcome(lambda: tuple(map(bool, locc._flags(x, y))))
            assert got == _outcome(_row_flags, x, y), (x, y)
        got = _outcome(lambda: _plan_key(coop_validate(a, b, chi, eta)))
        assert got == _outcome(lambda: _plan_key(_coop_validate_stacks(a, b, chi, eta))), (a, b, chi, eta)
        got = _outcome(lambda: tuple(map(_bits, locc._require_incomparable_3x3(a, b))))
        assert got == _outcome(lambda: tuple(map(_bits, _require_3x3_stacks(a, b)))), (a, b)
        split = _outcome(lambda: _split_key(split_two_copies(a, b)))
        assert split == _outcome(lambda: _split_key(_split_stacks(a, b))), (a, b)
        seen.add(split[0][0])
        seen.add(got[0][0])
        if got[0][0] == "value":
            seen.add(type(locc._require_incomparable_3x3(a, b)[0]))
        seen.add(_outcome(coop_validate, a, b, chi, eta)[0][0])
    # answers and both NotIncomparable3x3 messages, split2's EmptyRange and
    # TraceMismatch, and a stripped vector on each path
    assert {"value", "NotIncomparable3x3", "EmptyRange", "TraceMismatch", list, np.ndarray} <= seen


def test_short_vector_checks_make_no_numpy_comparison(monkeypatch):
    """A catalyst hit at its first grid point, split2 and coop_validate on
    3-vectors go straight to the pair core: no majorizes or compare (majorization._pair_flags) and no array round trip
    (locc._pair_flags), but for the catalyst filter's one classification.
    A rank-3 vector longer than _SHORT takes the round trip."""
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(majorization, "_pair_flags", counted("majorization", majorization._pair_flags))
    monkeypatch.setattr(locc, "_pair_flags", counted("locc", locc._pair_flags))
    search = locc.catalyst_search(CAT_A, CAT_B)
    assert (search.c, search.certified) == (0.6, 1)
    assert find_catalyst_2x2(CAT_A, CAT_B) == 0.6
    assert calls == ["locc", "locc"]
    calls.clear()
    a, b, case, interval, eta = SPLIT_GOLDEN[0]
    assert split_two_copies(a, b).param_interval == interval
    a, b, chi, eta = COOP_GOLDEN[0]
    assert coop_validate(a, b, chi, eta).valid
    assert calls == []
    long_a = list(a) + [0.0] * (pairs._SHORT + 5)
    assert coop_validate(long_a, b, chi, eta).valid
    assert "locc" in calls
