"""The batched LOCC searches return exactly what one-candidate-at-a-time
scans return.

The golden values below were produced by the scans that certified one
candidate per majorization call; the reference scans restate those loops
over the scalar checks, so any pair can be compared bit for bit.
"""

import itertools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from fractions import Fraction

import numpy as np
import pytest

from entanglia import locc, majorization, pairs
from entanglia.errors import BadParam, Degenerate, EmptyRange, NoPlanFound, NotIncomparable3x3, TraceMismatch
from entanglia.locc import (
    _MAX_CHUNK,
    CoopPlan,
    _schmidt_sorted,
    classify,
    coop_construct,
    coop_validate,
    find_catalyst_2x2,
    split_two_copies,
    vec_kron,
)
from entanglia.majorization import MajVerdict, compare, compare_rows, majorizes
from entanglia.tolerances import INTERVAL_MARGIN, MAJ_TOL, TIE_TOL, TRACE_TOL, ZERO_TOL

from conftest import random_prob, rng_for

# (a, b) -> (chi, eta) of coop_construct(a, b, seed=1): the paper's
# cooperation pair, the tests' pairs and four search-branch anchors
COOP_GOLDEN = (
    ((0.41, 0.38, 0.21), (0.4, 0.4, 0.2), (0.43017329816897043, 0.3429542484376294, 0.22687245339340026), (0.4460651841937968, 0.3244209899531391, 0.22951382585306404)),
    ((0.51, 0.3, 0.19), (0.49, 0.36, 0.15), (0.5090655760559673, 0.33724855482977334, 0.1536858691142594), (0.5800083730345618, 0.22847063302151419, 0.19152099394392402)),
    ((0.5, 0.3, 0.2), (0.55, 0.24, 0.21), (0.4502208454775324, 0.3819397048796664, 0.16783944964280115), (0.4442935219330637, 0.4187788409107579, 0.1369276371561784)),
    ((0.564, 0.309, 0.127), (0.557, 0.399, 0.044), (0.6285477998731315, 0.2983968945571754, 0.07305530556969307), (0.6709416676983274, 0.1959751997583246, 0.13308313254334792)),
    ((0.705, 0.227, 0.068), (0.685, 0.272, 0.043), (0.6928303832067322, 0.23756485595302723, 0.06960476084024057), (0.7900616082781261, 0.12550696948248208, 0.08443142223939175)),
    ((0.713, 0.236, 0.051), (0.841, 0.082, 0.077), (0.7406152532071648, 0.19152253191077373, 0.06786221488206151), (0.6593957519296845, 0.3109197427315675, 0.029684505338747932)),
    ((0.602, 0.357, 0.041), (0.696, 0.171, 0.133), (0.6189711044054802, 0.28025510448735075, 0.10077379110716893), (0.5728753908960587, 0.4199096472006697, 0.007214961903271627)),
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
        plan = coop_construct(a, b, seed=1)
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
# one-candidate-at-a-time reference scans

# the open ends of the a1 < b1 search's alpha interval
COOP_MARGIN = 1e-6


def _coop_case2_candidates(sa, sb, seed):
    """Structured search for a1 < b1: chi = (b1, b2, b3), eta = (a1, a1, a2)."""
    a1 = sa[0]
    b1 = sb[0]
    rng = np.random.default_rng((seed, 2))
    # first guesses: chi with its two small entries tied
    for beta1 in np.linspace(max(a1, 1.0 / 3.0) + 0.005, min(0.95, a1 + 0.25), 12):
        tail = (1.0 - beta1) / 2.0
        chi = np.array([beta1, tail, tail])
        lo = max(1.0 / 3.0 + COOP_MARGIN, a1 * beta1 / b1 + COOP_MARGIN)
        hi = min(beta1, (beta1 + tail) / 2.0, 0.5 - COOP_MARGIN)
        if lo >= hi:
            continue
        for alpha1 in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 9):
            yield chi, np.array([alpha1, alpha1, 1.0 - 2.0 * alpha1])
    # loosen the tie: 4000 betas in one draw, then one uniform alpha for
    # each beta that leaves a nonempty interval
    beta = np.sort(rng.dirichlet(np.ones(3), size=4000), axis=1)[:, ::-1]
    lo = np.maximum(1.0 / 3.0 + COOP_MARGIN, a1 * beta[:, 0] / b1 + COOP_MARGIN)
    hi = np.minimum(np.minimum(beta[:, 0], (beta[:, 0] + beta[:, 1]) / 2.0), 0.5 - COOP_MARGIN)
    keep = (beta[:, 0] > a1) & (beta[:, 2] >= 1e-3) & (lo < hi)
    for chi, alpha1 in zip(beta[keep], rng.uniform(lo[keep], hi[keep])):
        yield chi, np.array([alpha1, alpha1, 1.0 - 2.0 * alpha1])


@pytest.fixture
def fresh_streams():
    """An empty cache of cooperation streams, emptied again afterwards, so
    that no stream kept under a patched chunk schedule or cap reaches
    another test."""
    locc._coop_stream.cache_clear()
    yield
    locc._coop_stream.cache_clear()


def _coop_one_by_one(a, b, seed, fallback_samples, candidates=None):
    """The search as it stood before the a1 < b1 structured candidates were
    removed from coop_construct: the recipe or that search, then the
    fallback, one candidate per coop_validate call."""
    sa, sb = locc._strip(a), locc._strip(b)
    if candidates is None:
        if sa[0] > sb[0]:
            candidates = locc._coop_case1_candidates(sa, sb)
        else:
            candidates = _coop_case2_candidates(sa, sb, seed)
    first_valid = None
    tried = 0
    for chi, eta in candidates:
        tried += 1
        plan = coop_validate(sa, sb, chi, eta)
        if plan.valid:
            if all(plan.cross_incomparable.values()):
                return replace(plan, branch="recipe", candidates=tried)
            if first_valid is None:
                first_valid = replace(plan, branch="recipe")
    rng = np.random.default_rng((seed, 99))
    for i in range(fallback_samples):
        tried += 1
        chi = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        eta = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        plan = coop_validate(sa, sb, chi, eta)
        if plan.valid:
            if all(plan.cross_incomparable.values()):
                return replace(plan, branch="fallback", candidates=tried)
            if first_valid is None:
                first_valid = replace(plan, branch="fallback")
            if i >= fallback_samples // 5:
                break
    if first_valid is None:
        return None
    return replace(first_valid, candidates=tried)


def _min_slack_reference(x, y):
    """The joint margin as numpy computes it: sorted, padded, summed by
    cumsum, totals left out."""
    xs, ys = majorization.sorted_padded(x, y)
    slack = np.cumsum(ys)[:-1] - np.cumsum(xs)[:-1]
    return float(slack.min()) if slack.size else 0.0


def _coop_validate_reference(a, b, chi, eta):
    """coop_validate as it stood with one compare call per cross pair, on
    arrays."""
    sa, sb = locc._schmidt_sorted(a), locc._schmidt_sorted(b)
    sc, se = locc._schmidt_sorted(chi), locc._schmidt_sorted(eta)
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


def _same_diagnostics(got, want):
    if want is None:
        return got is None
    return (got.branch, got.candidates, got.margin) == (want.branch, want.candidates, want.margin)


def _same_plan(got, want):
    if want is None:
        return got is None
    return (
        np.array_equal(got.chi, want.chi)
        and np.array_equal(got.eta, want.eta)
        and got.cross_incomparable == want.cross_incomparable
        and got.joint_ok == want.joint_ok
    )


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


def test_coop_validate_matches_reference():
    """The one-pair calls on the pair core give each candidate the plan
    the array checks gave, down to the bits of chi, eta and the margin."""
    seen = set()
    for k, (a, b) in enumerate(_incomparable_pairs("coop-validate", 12)):
        rng = rng_for("coop-validate-draws", k)
        candidates = list(locc._coop_case1_candidates(a, b)) if a[0] > b[0] else []
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


def test_coop_matches_one_by_one_scan():
    # small fallbacks end in the first valid plan or in no plan at all
    for k, (a, b) in enumerate(_incomparable_pairs("coop-scan", 10)):
        for fallback in (0, 37, 300):
            want = _coop_one_by_one(a, b, k, fallback)
            try:
                got = coop_construct(a, b, seed=k, fallback_samples=fallback)
            except NoPlanFound:
                got = None
            assert _same_plan(got, want), (k, fallback)
    # with seed 1 this pair's first fully incomparable fallback plan is
    # sample 1189; with 1500 samples the valid plan at sample 505
    # (>= 1500 // 5) ends the search first
    a, b = COOP_GOLDEN[1][:2]
    for fallback, full in ((1500, False), (6000, True)):
        want = _coop_one_by_one(a, b, 1, fallback)
        assert all(want.cross_incomparable.values()) is full
        assert _same_plan(coop_construct(a, b, seed=1, fallback_samples=fallback), want)


def test_coop_a1_below_b1_goes_straight_to_fallback():
    # The removed a1 < b1 search paired chi = beta with eta = (alpha, alpha,
    # 1 - 2 alpha), alpha <= min(beta1, (beta1 + beta2)/2), so eta is
    # majorized by chi.  Every candidate it yields is invalid, its one-by-one
    # scan ends with no plan, and the old search returns what the fallback
    # alone returns: the reference scan below starts there.
    outcomes = set()
    yielded_in_all = 0
    for k, (a, b) in enumerate(_incomparable_pairs("coop-a1-below-b1", 200, a1_below_b1=True)):
        sa, sb = locc._strip(a), locc._strip(b)
        yielded = list(_coop_case2_candidates(sa, sb, k))
        yielded_in_all += len(yielded)
        if yielded:
            chi, eta = (np.array(side) for side in zip(*yielded))
            # compare's Incomparable verdict, row by row
            assert not compare_rows(chi, eta).incomparable.any(), k
        for fallback in (0, 37, 300):
            want = _coop_one_by_one(a, b, k, fallback, candidates=iter(()))
            try:
                got = coop_construct(a, b, seed=k, fallback_samples=fallback)
            except NoPlanFound:
                got = None
            assert _same_plan(got, want) and _same_diagnostics(got, want), (k, fallback)
            if got is not None:
                assert got.branch == "fallback"
                outcomes.add(all(got.cross_incomparable.values()))
            else:
                outcomes.add(None)
    assert outcomes == {True, False, None}
    assert yielded_in_all > 60000


def test_coop_recipe_diagnostics_match_one_by_one_scan(monkeypatch):
    # a1 > b1: the recipe's candidates count before the fallback's
    pairs = [(a, b) for a, b in _incomparable_pairs("coop-recipe", 40) if a[0] > b[0]]
    assert len(pairs) >= 10
    for k, (a, b) in enumerate(pairs[:10]):
        for fallback in (0, 37, 300):
            want = _coop_one_by_one(a, b, k, fallback)
            try:
                got = coop_construct(a, b, seed=k, fallback_samples=fallback)
            except NoPlanFound:
                got = None
            assert _same_plan(got, want) and _same_diagnostics(got, want), (k, fallback)
    # a fully incomparable recipe plan after 20 invalid fillers, all 21
    # candidates certified as one chunk
    a, b = COOP_GOLDEN[0][:2]
    fillers = list(np.random.default_rng((1, 99)).dirichlet(np.ones(3), size=(20, 2)))
    stream = fillers + [COOP_GOLDEN[0][2:]]
    monkeypatch.setattr(locc, "_coop_case1_candidates", lambda sa, sb: iter(stream))
    got = coop_construct(a, b, seed=1)
    assert (got.branch, got.candidates) == ("recipe", 21)
    assert _same_diagnostics(got, _coop_one_by_one(a, b, 1, 0, candidates=iter(stream)))


def partial_sums(v):
    return np.cumsum(np.sort(np.asarray(v, dtype=float))[::-1])


def test_coop_golden_diagnostics():
    # the three a1 < b1 goldens come from the fallback; every golden's margin
    # is the smallest gap between the joint partial sums below the total
    for a, b, chi, eta in COOP_GOLDEN:
        plan = coop_construct(a, b, seed=1)
        if a[0] < b[0]:
            assert plan.branch == "fallback"
        gap = partial_sums(vec_kron(b, eta)) - partial_sums(vec_kron(a, chi))
        assert plan.margin == pytest.approx(gap[:-1].min(), abs=1e-15)
        assert plan.margin >= -MAJ_TOL
    assert sum(a[0] < b[0] for a, b, _, _ in COOP_GOLDEN) == 3


def test_coop_recipe_winner_across_chunks(monkeypatch, fresh_streams):
    # recipes of 100-102 candidates for the cooperation pair built from
    # invalid fillers, a valid but partially comparable plan at index 20,
    # and a fully incomparable one at index 61, each recipe certified as one
    # chunk; the fallback after it runs on a 16/32 schedule
    monkeypatch.setattr(locc, "_FIRST_CHUNK", 16)
    monkeypatch.setattr(locc, "_MAX_CHUNK", 32)
    a, b = COOP_GOLDEN[0][:2]
    sa, sb = locc._strip(a), locc._strip(b)
    partial = (
        np.array([0.6426869721866002, 0.11134931571537954, 0.24596371209802015]),
        np.array([0.7212899060419857, 0.11529402315000901, 0.1634160708080052]),
    )
    full = COOP_GOLDEN[0][2:]
    # the first 100 fallback draws of seed 1 are all invalid
    fillers = list(np.random.default_rng((1, 99)).dirichlet(np.ones(3), size=(100, 2)))
    assert not any(coop_validate(sa, sb, *f).valid for f in fillers)
    plan = coop_validate(sa, sb, *partial)
    assert plan.valid and not all(plan.cross_incomparable.values())

    streams = (
        (fillers[:20] + [partial] + fillers[20:60] + [full] + fillers[60:], 0, "full"),
        (fillers[:20] + [partial] + fillers[20:], 0, "partial"),
        (fillers[:20] + [partial] + fillers[20:], 1000, "full"),  # fallback index 844
        (fillers, 0, None),
    )
    for stream, fallback, kind in streams:
        monkeypatch.setattr(locc, "_coop_case1_candidates", lambda sa, sb: iter(stream))
        want = _coop_one_by_one(a, b, 1, fallback, candidates=iter(stream))
        try:
            got = coop_construct(a, b, seed=1, fallback_samples=fallback)
        except NoPlanFound:
            got = None
        assert _same_plan(got, want)
        if kind == "full":
            assert (_floats(got.chi), _floats(got.eta)) == full
        elif kind == "partial":
            assert np.array_equal(got.chi, np.sort(partial[0])[::-1])
        else:
            assert got is None


def _boundary_rows(trace_tol):
    """(x, y) rows of 3-vectors on and around the majorization boundaries:
    equal vectors, permutations, ties, zero entries, and partial sums moved
    by fractions of MAJ_TOL, with totals moved by up to trace_tol / 2."""
    x, y = [], []
    base = ([0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [0.6, 0.2, 0.2], [1 / 3] * 3, [0.5, 0.5, 0.0], [1.0, 0.0, 0.0])
    for v in base:
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)):
            x.append(v)
            y.append([v[i] for i in perm])
    x += [[0.5, 0.5, 0.0], [0.6, 0.4, 0.0], [0.4, 0.4, 0.2], [0.45, 0.35, 0.2]]
    y += [[0.6, 0.4, 0.0], [1.0, 0.0, 0.0], [0.5, 0.25, 0.25], [0.45, 0.2, 0.35]]
    steps = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]) * MAJ_TOL
    for v in ([0.5, 0.3, 0.2], [0.45, 0.35, 0.2], [0.4, 0.3, 0.3]):
        for d1 in steps:
            for d2 in steps:
                for dt in steps[abs(steps) <= trace_tol / 2]:
                    x.append(v)
                    y.append([v[0] + d1, v[1] + d2 - d1, v[2] - d2 + dt])
    return np.array(x), np.array(y)


def _incomparable_columns(x, y):
    """The cooperation kernel's cross flags for sorted columns (x1, x2, x3)
    and (y1, y2, y3), each an array or a scalar: both sides as
    _column_sums stacks, their totals checked, then _incomparable_sums."""
    columns = np.broadcast_arrays(*x, *y)
    x, y = locc._column_sums(*columns[:3]), locc._column_sums(*columns[3:])
    majorization._check_totals(x[4], y[4])
    return locc._incomparable_sums(x, y)


@pytest.mark.parametrize("trace_tol", [TRACE_TOL, 4 * MAJ_TOL])
def test_coop_column_flags_match_compare_rows(monkeypatch, trace_tol):
    """The sorted-column cross flags are compare_rows' Incomparable flags
    bit for bit, with a stack on either side or a vector on one; also under
    a trace tolerance looser than MAJ_TOL, where the totals' own partial-sum
    test decides some rows."""
    monkeypatch.setattr(majorization, "TRACE_TOL", trace_tol)
    rng = rng_for("coop-columns")
    stacks = [tuple(rng.dirichlet(np.ones(3), size=(2, 400))), _boundary_rows(trace_tol)]
    for x, y in stacks:
        sx, sy = locc._sorted_columns(x), locc._sorted_columns(y)
        assert np.array_equal(np.stack(sx, axis=-1), np.sort(x)[:, ::-1])
        got = _incomparable_columns(sx, sy)
        assert got.dtype == bool
        assert np.array_equal(got, compare_rows(x, y).incomparable)
        for v in x[::37]:
            sv = np.sort(v)[::-1]
            assert np.array_equal(_incomparable_columns(sv, sy), compare_rows(v, y).incomparable)
            assert np.array_equal(_incomparable_columns(sx, sv), compare_rows(x, v).incomparable)
    x, y = _boundary_rows(trace_tol)
    assert 0 < compare_rows(x, y).incomparable.sum() < len(x)
    # a total outside the trace tolerance raises with compare_rows' message
    y[7] *= 1.0 + 2 * trace_tol
    with pytest.raises(TraceMismatch) as want:
        compare_rows(x, y)
    with pytest.raises(TraceMismatch) as got:
        _incomparable_columns(locc._sorted_columns(x), locc._sorted_columns(y))
    assert str(got.value) == str(want.value)


def _coop_kernel_cases():
    """(a, b, chi, eta) for the chunk kernel: seeded candidates for
    incomparable pairs, and boundary rows, where chi and eta are ties,
    permutations or partial-sum shifts of 0-2 MAJ_TOL of each other, and
    of a and b, against pairs (a, b) shifted alike."""
    rng = rng_for("coop-kernel")
    cases = []
    for a, b in [pair[:2] for pair in COOP_GOLDEN[:4]] + _incomparable_pairs("coop-kernel", 4):
        draws = rng.dirichlet(np.ones(3), size=(300, 2))
        cases.append((a, b, draws[:, 0], draws[:, 1]))
    # totals 1 + 5e-10 and 1 - 4.995e-10: every total check passes, and the
    # joint totals differ by up to about TRACE_TOL
    for a, b in [pair[:2] for pair in COOP_GOLDEN[:4]]:
        draws = rng.dirichlet(np.ones(3), size=(300, 2))
        a, b = np.array(a), np.array(b)
        cases.append((a * (1 + 5e-10), b * (1 - 4.995e-10), draws[:, 0], draws[:, 1]))
    x, y = _boundary_rows(TRACE_TOL)
    x, y = np.concatenate((x[:28], x[28::9])), np.concatenate((y[:28], y[28::9]))
    steps = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * MAJ_TOL
    for v in ([0.5, 0.3, 0.2], [0.45, 0.35, 0.2]):
        for d1, d2 in itertools.product(steps, steps):
            w = [v[0] + d1, v[1] + d2 - d1, v[2] - d2]
            cases.append((v, w, x, y))
            cases.append((v, w, np.array([w] * len(x)), y))  # chi = b
            cases.append((v, w, x, np.array([v] * len(x))))  # eta = a
    return cases


def test_coop_flags_match_per_row_validate():
    """The chunk kernel's flags are coop_validate's, row by row, on the rows
    the chunk keeps: full is valid with the three cross pairs it checks all
    incomparable, rest holds the kept rows whose psi/eta and chi/phi are
    not both incomparable, and a row of rest is valid iff _joint_ok passes
    it; a row the chunk drops, chi and eta not incomparable, is never
    valid.  _first_valid finds the first valid kept row."""
    kinds = set()
    for a, b, chi, eta in _coop_kernel_cases():
        sa, sb = locc._strip(a), locc._strip(b)
        plans = [coop_validate(sa, sb, c, e) for c, e in zip(chi, eta)]
        valid = np.array([p.valid for p in plans])
        cross = np.array([p.cross_incomparable["psi_eta"] and p.cross_incomparable["chi_phi"] for p in plans])
        full = valid & cross
        kinds |= {(bool(v), bool(f)) for v, f in zip(valid, full)}
        chunk = locc._coop_chunk(np.stack((chi, eta), axis=1))
        kept = chunk.index
        assert np.array_equal(kept, np.flatnonzero([p.cross_incomparable["chi_eta"] for p in plans]))
        assert not np.delete(valid, kept).any()
        pair = locc._coop_pair(sa, sb)
        got_full, rest = locc._coop_flags(pair, chunk)
        assert got_full.dtype == rest.dtype == bool
        assert np.array_equal(got_full, full[kept])
        assert np.array_equal(rest, ~cross[kept])
        assert np.array_equal(got_full | locc._joint_ok(pair, chunk, rest.copy()), valid[kept]), (a, b)
        first = locc._first_valid(pair, chunk, "fallback")
        if valid.any():
            j = np.flatnonzero(valid[kept])[0]
            assert first[2] == "fallback"
            assert np.array_equal(first[0], chunk.chi[j]) and np.array_equal(first[1], chunk.eta[j])
        else:
            assert first is None
    assert kinds == {(False, False), (True, False), (True, True)}


def test_coop_late_stop_across_chunks(monkeypatch, fresh_streams):
    """On a 16/32 schedule with 300 fallback samples, late = 60 falls inside
    the third chunk, [48, 80).  These a1 < b1 pairs find their first valid
    plan, not full, in the first or second chunk, and a valid row at index
    60-79 ends the search before any full row: the chunk that holds late
    must check the rows that are valid but not full."""
    monkeypatch.setattr(locc, "_FIRST_CHUNK", 16)
    monkeypatch.setattr(locc, "_MAX_CHUNK", 32)
    pairs = _incomparable_pairs("coop-a1-below-b1", 200, a1_below_b1=True)
    for k in (172, 186, 199):
        a, b = pairs[k]
        want = _coop_one_by_one(a, b, k, 300, candidates=iter(()))
        got = coop_construct(a, b, seed=k, fallback_samples=300)
        assert _same_plan(got, want) and _same_diagnostics(got, want), k
        assert got.branch == "fallback" and 60 < got.candidates <= 80
        assert not all(got.cross_incomparable.values())
        draws = np.random.default_rng((k, 99)).dirichlet(np.ones(3), size=(48, 2))
        assert any(coop_validate(a, b, chi, eta).valid for chi, eta in draws)


def test_coop_plans_do_not_depend_on_chunk_schedule(monkeypatch, fresh_streams):
    """Plans, diagnostics and errors are the same under 1/1, 16/32 and the
    default chunks, for pairs whose totals sit at the edge of TRACE_TOL
    too."""
    corpus = [(a, b, 1, 10**5) for a, b, _, _ in COOP_GOLDEN]
    for k, (a, b) in enumerate(_incomparable_pairs("coop-scan", 10)):
        corpus += [(a, b, k, 37), (a, b, k, 300)]
    corpus += [(a, b, seed, fallback) for a, b in _edge_corpus() for seed in range(3) for fallback in (37, 300)]
    runs = []
    for first, cap in ((1, 1), (16, 32), (locc._FIRST_CHUNK, locc._MAX_CHUNK)):
        monkeypatch.setattr(locc, "_FIRST_CHUNK", first)
        monkeypatch.setattr(locc, "_MAX_CHUNK", cap)
        locc._coop_stream.cache_clear()
        runs.append([_coop_outcome(coop_construct, *case) for case in corpus])
    default = runs[-1]
    kinds = {got[0] if isinstance(got, tuple) else got.branch for got in default}
    assert kinds == {"recipe", "fallback", "TraceMismatch", "NoPlanFound"}
    for outcomes in runs[:-1]:
        for got, want, case in zip(outcomes, default, corpus):
            assert _same_outcome(got, want), case


def test_coop_misnormalised_recipe_candidate_is_never_returned(monkeypatch, fresh_streams):
    """A recipe row whose chi or eta total is off is ranked on its partial
    sums like any other row, and never returned: the search returns the
    golden row after it, certified, or raises that row's own coop_validate
    error when it wins, as the totals-free scan does."""
    a, b = COOP_GOLDEN[0][:2]
    chi, eta = (np.array(v) for v in COOP_GOLDEN[0][2:])
    fillers = list(np.random.default_rng((1, 99)).dirichlet(np.ones(3), size=(5, 2)))
    outcomes = set()
    # chi off, eta off, and both off alike (only the cross pairs with psi
    # and phi see that)
    for bad in ((chi * 1.1, eta), (chi, eta * (1 + 3 * MAJ_TOL)), (chi * 1.1, eta * 1.1)):
        stream = fillers + [bad] + [(chi, eta)]
        monkeypatch.setattr(locc, "_coop_case1_candidates", lambda sa, sb: iter(stream))
        got = _edge_outcome(a, b, 1, 10**5)
        assert _same_outcome(got, _coop_outcome(_coop_totals_free, a, b, 1, 10**5, iter(stream)))
        if isinstance(got, CoopPlan):
            assert (_floats(got.chi), _floats(got.eta), got.candidates) == (*COOP_GOLDEN[0][2:], 7)
        else:
            with pytest.raises(TraceMismatch) as own:
                coop_validate(a, b, *bad)
            assert got == ("TraceMismatch", str(own.value))
        outcomes.add(type(got).__name__)
    assert outcomes == {"CoopPlan", "tuple"}


def _coop_or_none(a, b, seed, fallback):
    try:
        return coop_construct(a, b, seed=seed, fallback_samples=fallback)
    except NoPlanFound:
        return None


def test_coop_stream_cache_states_match_one_by_one_scan(monkeypatch, fresh_streams):
    """Plans and diagnostics are the one-by-one scan's whatever the state of
    the seed's kept stream: built by this search or an earlier one, dropped
    by the cache after other seeds, or capped so low that searches run into
    the draws past the kept ones (under the default chunks, of which none
    is kept, and under 16/32 chunks, of which two are kept)."""
    pairs = [pair[:2] for pair in COOP_GOLDEN] + _incomparable_pairs("coop-scan", 3)
    cases = [(a, b, seed, fallback) for a, b in pairs for seed in range(4) for fallback in (0, 37, 300, 10**5)]
    # a1 < b1 goes straight to the fallback
    wants = [_coop_one_by_one(*case, candidates=None if case[0][0] > case[1][0] else iter(())) for case in cases]
    assert {w.branch for w in wants if w is not None} == {"recipe", "fallback"}
    assert max(w.candidates for w in wants if w is not None) > locc._STREAM_DRAWS

    def check(state, prepare=lambda seed: None):
        for case, want in zip(cases, wants):
            prepare(case[2])
            got = _coop_or_none(*case)
            assert _same_plan(got, want) and _same_diagnostics(got, want), (state, case)

    check("empty", lambda seed: locc._coop_stream.cache_clear())
    check("kept")

    def evict(seed):
        stream = locc._coop_stream(seed)
        _coop_or_none(*cases[0][:2], seed, 10**5)
        for other in range(100, 100 + locc._STREAM_SEEDS):
            locc._coop_stream(other)
        assert locc._coop_stream(seed) is not stream

    check("evicted", evict)
    monkeypatch.setattr(locc, "_STREAM_DRAWS", 64)
    locc._coop_stream.cache_clear()
    check("capped")
    assert locc._coop_stream(0).kept == ()
    monkeypatch.setattr(locc, "_FIRST_CHUNK", 16)
    monkeypatch.setattr(locc, "_MAX_CHUNK", 32)
    locc._coop_stream.cache_clear()
    check("capped 16/32")
    assert locc._coop_stream(0).end == 48


def test_coop_stream_is_built_whole_by_a_search_that_stops_early(fresh_streams):
    """A search that ends in the first chunk of its fallback still leaves
    the seed's stream with all four kept chunks, drawn when it was built."""
    plan = coop_construct((0.5, 0.3, 0.2), (0.55, 0.24, 0.21), seed=1)
    assert (plan.branch, plan.candidates) == ("fallback", 197)
    kept = locc._coop_stream(1).kept
    assert type(kept) is tuple
    assert [(c.start, c.size) for c in kept] == [(0, 256), (256, 512), (768, 1024), (1792, 2048)]


def test_coop_stream_keeps_the_incomparable_rows_of_one_draw(fresh_streams):
    """A seed's kept chunks hold, in stream order, exactly the rows whose chi
    and eta compare_rows finds incomparable in one Generator.dirichlet draw
    of the whole stream, and the draws past them continue that draw:
    dirichlet output does not depend on how the draw is chunked, which the
    kept stream relies on.  A kept chunk holds nothing for its dropped rows:
    only its kept rows' stream indices and column sums."""
    n, more = locc._STREAM_DRAWS, 3000
    for seed in range(4):
        stream = locc._coop_stream(seed)
        chunks = list(stream.chunks(n + more))
        assert [c.size for c in stream.kept] == [256, 512, 1024, 2048]
        assert [(c.start, c.size) for c in chunks[4:]] == [(n, 2048), (n + 2048, more - 2048)]
        draws = np.random.default_rng((seed, 99)).dirichlet(np.ones(3), size=(n + more, 2))
        keep = compare_rows(draws[:, 0], draws[:, 1]).incomparable
        assert 0.2 < keep.mean() < 0.3
        assert np.array_equal(np.concatenate([c.index for c in chunks]), np.flatnonzero(keep))
        for side, rows in enumerate((np.concatenate([c.chi for c in chunks]), np.concatenate([c.eta for c in chunks]))):
            assert np.array_equal(np.sort(rows)[:, ::-1], np.sort(draws[keep, side])[:, ::-1])
        assert all(c.sums.shape == (5, 2, c.index.size) for c in stream.kept)
    assert locc._CoopChunk._fields == ("start", "size", "index", "sums")


def _coop_totals_free(a, b, seed, fallback_samples, candidates=None):
    """The search's contract at any totals: the one-by-one scan with every
    totals check off (TRACE_TOL infinite), so that it ranks candidates on
    partial sums alone, then its winner re-certified by coop_validate; a
    plan, None, or the winner's TraceMismatch message.  Where every total
    agrees within TRACE_TOL it is the one-by-one scan."""
    if candidates is None and locc._strip(a)[0] <= locc._strip(b)[0]:
        candidates = iter(())  # a1 < b1 goes straight to the fallback
    with pytest.MonkeyPatch.context() as patch:
        for module in (majorization, pairs):
            patch.setattr(module, "TRACE_TOL", math.inf)
        winner = _coop_one_by_one(a, b, seed, fallback_samples, candidates)
    if winner is None:
        return None
    try:
        plan = coop_validate(a, b, winner.chi, winner.eta)
    except TraceMismatch as exc:
        return str(exc)
    return replace(plan, branch=winner.branch, candidates=winner.candidates)


def _edge_total_pairs():
    """Pairs whose totals sit within a few ulps of 1 +- TRACE_TOL: a's and
    b's last entries moved alike (or b's by half as much), kept where
    coop_construct accepts the pair.  The joint totals then agree, and
    rows whose eta or chi total lies an ulp or two on the far side of 1
    fail the psi/eta or chi/phi total check."""
    pairs = []
    for a, b, *_ in COOP_GOLDEN[:4]:
        for d in (TRACE_TOL, TRACE_TOL - 2**-51, -TRACE_TOL, 2**-51 - TRACE_TOL):
            for scale in (1.0, 0.5):
                a2, b2 = [a[0], a[1], a[2] + d], [b[0], b[1], b[2] + scale * d]
                try:
                    locc._require_incomparable_3x3(a2, b2)
                except TraceMismatch:
                    continue
                pairs.append((a2, b2))
    return pairs


def _joint_edge_pair():
    """COOP_GOLDEN[6] with a - b a few ulps inside TRACE_TOL: the joint
    totals of some rows fail while every cross pair passes."""
    a, b = (np.array(v) for v in COOP_GOLDEN[6][:2])
    return a * (1 + 5e-10), b * (1 - 5e-10 + 4 * 2**-53)


def _edge_corpus():
    """_edge_total_pairs, the golden pairs scaled to totals 1 +- 5e-10 and 1
    -+ 4.995e-10, and the joint-edge pair."""
    scaled = [
        (np.array(a) * (1 + s * 5e-10), np.array(b) * (1 - s * 4.995e-10)) for a, b, *_ in COOP_GOLDEN for s in (1, -1)
    ]
    return _edge_total_pairs() + scaled + [_joint_edge_pair()]


def _edge_outcome(a, b, seed, fallback_samples):
    """coop_construct's outcome, held to its contract at any totals: a plan
    that coop_validate re-certifies as valid with the same flags and
    margin, NoPlanFound, or the TraceMismatch that coop_validate raised for
    the search's winner."""
    raised, validate = [], locc.coop_validate

    def spy(*args):
        try:
            return validate(*args)
        except TraceMismatch as exc:
            raised.append(str(exc))
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locc, "coop_validate", spy)
        got = _coop_outcome(coop_construct, a, b, seed, fallback_samples)
    if isinstance(got, CoopPlan):
        assert got.valid and _same_validation(coop_validate(a, b, got.chi, got.eta), got)
    elif got[0] == "TraceMismatch":
        assert raised == [got[1]]
    else:
        assert got == NO_PLAN
    return got


def test_coop_edge_totals_give_a_certified_plan_or_the_winners_error(fresh_streams):
    """A pair whose totals sit at the edge of TRACE_TOL: the search ranks
    its candidates on partial sums alone and re-certifies the winner, so it
    returns a plan coop_validate certifies, raises NoPlanFound, or raises
    coop_validate's TraceMismatch for the winner; bit for bit the outcome
    of the totals-free scan."""
    outcomes = set()
    for a, b in _edge_corpus():
        for seed in (0, 1):
            for fallback in (37, 300, 5000):
                got = _edge_outcome(a, b, seed, fallback)
                want = _coop_outcome(_coop_totals_free, a, b, seed, fallback)
                assert _same_outcome(got, want), (a, b, seed, fallback)
                outcomes.add(type(got).__name__ if isinstance(got, CoopPlan) else got[0])
    assert outcomes == {"CoopPlan", "TraceMismatch", "NoPlanFound"}


def test_coop_edge_totals_of_a_cut_chunk(fresh_streams):
    """A kept chunk cut short by fallback_samples ranks its first rows only.
    With these edge totals some row of seed 0's first chunk fails a total
    check and its first 21 rows do not: the search returns the plan of the
    one-by-one scan of the drawn rows, which checks every row's totals."""
    a, b = [0.41, 0.38, 0.21 - TRACE_TOL], [0.4, 0.4, 0.2 - 0.5 * TRACE_TOL]
    sa, sb = locc._strip(a), locc._strip(b)
    draws = np.random.default_rng((0, 99)).dirichlet(np.ones(3), size=(locc._FIRST_CHUNK, 2))
    with pytest.raises(TraceMismatch):
        for x, y in ((sa, draws[:, 1]), (draws[:, 0], sb)):
            compare_rows(x, y)
    for fallback in (1, 8, 21):
        for x, y in ((sa, draws[:fallback, 1]), (draws[:fallback, 0], sb)):
            compare_rows(x, y)
        want = _coop_one_by_one(a, b, 0, fallback)
        got = _edge_outcome(a, b, 0, fallback)
        assert isinstance(got, CoopPlan) and _same_plan(got, want) and _same_diagnostics(got, want)
    assert locc._coop_stream(0).kept[0].size == locc._FIRST_CHUNK


NO_PLAN = ("NoPlanFound", "no auxiliary pair found by recipe or randomized search")


def _coop_outcome(search, *args):
    """What a search or a reference scan returns: a plan, else the type and
    message of its error (a reference's None is NoPlanFound, its message
    string a TraceMismatch)."""
    try:
        got = search(*args)
    except (NoPlanFound, TraceMismatch) as exc:
        return type(exc).__name__, str(exc)
    if got is None:
        return NO_PLAN
    return ("TraceMismatch", got) if isinstance(got, str) else got


def _same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return isinstance(got, CoopPlan) and _same_validation(got, want) and _same_diagnostics(got, want)


def _recipe_eta_incomparable(a, b):
    """Whether a is incomparable with the eta of some a1 > b1 recipe row."""
    sa, sb = locc._strip(a), locc._strip(b)
    return any(compare(sa, eta) is MajVerdict.Incomparable for _, eta in locc._coop_case1_candidates(sa, sb))


# (a, b, seed, fallback_samples) whose first full row, fallback row 6891, lies
# in the second chunk past the kept draws; its first valid row is row 270
PAST_KEPT = (
    (0.47970400372939864, 0.42380589464668905, 0.0964901016239124),
    (0.5445177942340744, 0.259691617001975, 0.19579058876395064),
    0,
    10**5,
)


def _waiting_corpus():
    """a1 > b1 pairs with and without a recipe eta incomparable with a (about
    3 in 100 have one), and a1 < b1 pairs."""
    rng = rng_for("coop-waiting")
    groups = {True: [], False: [], None: []}
    while min(len(g) for g in groups.values()) < 3:
        a, b = random_prob(3, rng), random_prob(3, rng)
        if compare(a, b) is not MajVerdict.Incomparable or min(a[0] - a[1], a[1] - a[2]) <= 1e-9:
            continue
        key = _recipe_eta_incomparable(a, b) if a[0] > b[0] else None
        if len(groups[key]) < 3:
            groups[key].append((a, b))
    return groups


def test_coop_waiting_checks_give_the_one_by_one_outcome(fresh_streams):
    """Every path of the search gives the outcome of the one-by-one scan,
    bit for bit: plan, diagnostics, or error type and message.  The recipe
    is certified first where one of its etas is incomparable with a, and in
    the second pass otherwise; a chunk's rows that are valid but not full
    are checked as it is scanned from late on (late falls inside a chunk at
    fallback 37, 300, 1000, 5000), and in the second pass before late; the
    pair with no valid plan in 5000 samples checks them all, and PAST_KEPT's
    search ends at its full row past the kept draws without checking them.
    The seed-1 searches of the paper's pairs and the perfbench anchors find
    a full row after chunks whose other rows went unchecked (in kept chunk
    2 for the first two).  Where the totals sit at the edges of TRACE_TOL
    the passes run alike, and the outcome is the totals-free scan's."""
    groups = _waiting_corpus()
    cases = [(a, b, seed, fallback) for g in groups.values() for a, b in g for seed in (0, 1) for fallback in (0, 37, 300, 1000, 5000)]
    cases += [(a, b, 1, 10**5) for a, b, _, _ in COOP_GOLDEN]
    cases += [((0.4641, 0.4309, 0.105), (0.4643, 0.39, 0.1457), 0, 5000), PAST_KEPT]
    outcomes = set()
    for a, b, seed, fallback in cases:
        one_by_one = _coop_one_by_one if a[0] > b[0] else partial(_coop_one_by_one, candidates=iter(()))
        want = _coop_outcome(one_by_one, a, b, seed, fallback)
        got = _coop_outcome(coop_construct, a, b, seed, fallback)
        assert _same_outcome(got, want), (a, b, seed, fallback)
        outcomes.add(want[0] if isinstance(want, tuple) else (want.branch, all(want.cross_incomparable.values())))
    plans = {("recipe", False), ("fallback", False), ("fallback", True)}
    assert plans <= outcomes and "NoPlanFound" in outcomes
    edge = [(a * (1 + 5e-10), b * (1 - 4.995e-10)) for a, b in groups[True] + groups[None]]
    edge += [(a * (1 - 5e-10), b * (1 + 4.995e-10)) for a, b in groups[False]]
    edge += _edge_total_pairs()[::3]
    outcomes = set()
    for a, b in edge:
        for seed, fallback in ((0, 0), (0, 1000), (1, 5000)):
            want = _coop_outcome(_coop_totals_free, a, b, seed, fallback)
            got = _edge_outcome(a, b, seed, fallback)
            assert _same_outcome(got, want), (a, b, seed, fallback)
            outcomes.add(want[0] if isinstance(want, tuple) else want.branch)
    assert outcomes == {"recipe", "fallback", "NoPlanFound"}
    # some kept rows of the joint-edge pair's first chunk fail their joint
    # totals; its valid but not full rows are left to the second pass as
    # they are elsewhere, so with seed 1 the search returns the full row at
    # 483
    a, b = _joint_edge_pair()
    for seed in range(3):
        for fallback in (5000, 10**5):
            want = _coop_outcome(_coop_totals_free, a, b, seed, fallback)
            assert _same_outcome(_edge_outcome(a, b, seed, fallback), want), (seed, fallback)
    assert coop_construct(a, b, seed=1).candidates == 483


def _joint_checks(monkeypatch):
    """Every _joint_ok call from here on, as (chunk, rows checked)."""
    calls = []
    joint_ok = locc._joint_ok

    def spy(pair, chunk, rows):
        calls.append((chunk, rows.copy()))
        return joint_ok(pair, chunk, rows)

    monkeypatch.setattr(locc, "_joint_ok", spy)
    return calls


def test_coop_checks_that_cannot_change_the_answer_wait(monkeypatch, fresh_streams):
    """The mechanism, two passes: the first joint-checks each scanned
    chunk's cross rows, and its other kept rows only from late on; the
    second, which runs only when no full row ends the search, re-checks the
    rows before late.  With seed 1, the four a1 > b1 pairs of the paper and
    perfbench check only the cross rows of kept chunks and no recipe row;
    the anchor (.602, .357, .041) -> (.696, .171, .133) checks only those
    of chunks 0-1 and returns its full row there, edge totals or not.
    With late = 200 the anchor also checks chunk 0's other rows from 200
    on, stops at a valid one, and re-checks the kept rows of [0, 200).
    PAST_KEPT's full row, 6891, ends its search with no other row
    checked."""
    kept = locc._coop_stream(1).kept
    calls = _joint_checks(monkeypatch)

    def checks(a, b, seed=1, **kw):
        calls.clear()
        plan = coop_construct(a, b, seed=seed, **kw)
        return plan, list(calls)

    def cross(a, b, chunk):
        return ~locc._coop_flags(locc._coop_pair(*locc._require_incomparable_3x3(a, b)), chunk)[1]

    for k in (0, 1, 3, 4):
        a, b = COOP_GOLDEN[k][:2]
        plan, seen = checks(a, b)
        assert plan.branch == "fallback" and all(plan.cross_incomparable.values())
        assert seen and all(any(chunk is c for c in kept) for chunk, _ in seen), k
        assert all(np.array_equal(rows, cross(a, b, chunk)) for chunk, rows in seen), k
    a, b = COOP_GOLDEN[6][:2]
    for pair in ((a, b), (np.array(a) * (1 + 5e-10), np.array(b) * (1 - 4.995e-10)), _joint_edge_pair()):
        plan, seen = checks(*pair)
        assert plan.candidates == 483 and all(plan.cross_incomparable.values())
        assert len(seen) == 2 and all(chunk is c for (chunk, _), c in zip(seen, kept))
        assert all(np.array_equal(rows, cross(*pair, chunk)) for chunk, rows in seen)
    plan, seen = checks(a, b, fallback_samples=1000)
    assert plan.candidates == 215 and not all(plan.cross_incomparable.values())
    first = cross(a, b, kept[0])
    (c0, r0), (c1, r1), (c2, r2) = seen
    assert c0 is kept[0] and np.array_equal(r0, first)
    assert c1 is kept[0] and np.array_equal(r1, ~first & (kept[0].index >= 200))
    # pass 2 re-checks the 52 kept rows of [0, 200), and finds a valid one
    assert (c2.start, c2.size, r2.size) == (0, 200, 52) and r2.all()
    assert np.array_equal(c2.index, kept[0].index[:52])
    # a recipe eta incomparable with a: the recipe is checked first
    a, b = _waiting_corpus()[True][0]
    plan, seen = checks(a, b)
    assert seen[0][0].start == 0 and not any(seen[0][0] is c for c in kept)
    a, b, seed, fallback = PAST_KEPT
    plan, seen = checks(a, b, seed=seed, fallback_samples=fallback)
    assert (plan.branch, plan.candidates) == ("fallback", 6892)
    assert all(np.array_equal(rows, cross(a, b, chunk)) for chunk, rows in seen)


def test_coop_second_pass_redraws_rows_past_the_kept_draws(monkeypatch, fresh_streams):
    """On a 16/32 schedule with 64 draws kept, a stream keeps rows [0, 48);
    with 300 fallback samples late = 60, so a search that ends without a
    full row draws rows [48, 60) again in its second pass, as one chunk cut
    at late.  The pair with no valid plan raises NoPlanFound, and a pair
    whose first valid row, 54, lies in those rows returns it after its
    first pass stops at row 226, as the one-by-one scan does."""
    monkeypatch.setattr(locc, "_FIRST_CHUNK", 16)
    monkeypatch.setattr(locc, "_MAX_CHUNK", 32)
    monkeypatch.setattr(locc, "_STREAM_DRAWS", 64)
    calls = _joint_checks(monkeypatch)
    redraw = _incomparable_pairs("coop-redraw", 36, a1_below_b1=True)[35]
    outcomes = []
    for a, b, seed in (((0.4641, 0.4309, 0.105), (0.4643, 0.39, 0.1457), 0), (*redraw, 35)):
        calls.clear()
        want = _coop_outcome(_coop_one_by_one, a, b, seed, 300, iter(()))
        got = _coop_outcome(coop_construct, a, b, seed, 300)
        assert _same_outcome(got, want), seed
        assert locc._coop_stream(seed).end == 48
        assert sum((chunk.start, chunk.size) == (48, 12) for chunk, _ in calls) == 1, seed
        outcomes.append(got)
    assert outcomes[0] == NO_PLAN
    got = outcomes[1]
    assert (got.branch, got.candidates) == ("fallback", 227) and not all(got.cross_incomparable.values())
    row = np.random.default_rng((35, 99)).dirichlet(np.ones(3), size=(55, 2))[54]
    assert np.array_equal(np.stack((got.chi, got.eta)), np.sort(row)[:, ::-1])


def test_coop_stream_memory_is_bounded(monkeypatch, fresh_streams):
    """With no valid plan in 5000 samples, a search draws past the cap;
    whatever fallback_samples is and however many seeds are searched, each
    kept stream holds at most _STREAM_DRAWS rows, and at most
    _STREAM_SEEDS streams are kept."""
    monkeypatch.setattr(locc, "_FIRST_CHUNK", 16)
    monkeypatch.setattr(locc, "_MAX_CHUNK", 32)
    monkeypatch.setattr(locc, "_STREAM_DRAWS", 200)
    a, b = (0.4641, 0.4309, 0.105), (0.4643, 0.39, 0.1457)
    with pytest.raises(NoPlanFound):
        coop_construct(a, b, seed=0, fallback_samples=5000)
    seeds = range(locc._STREAM_SEEDS + 2)
    for fallback in (5000, 10**4):
        for seed in seeds:
            _coop_or_none(a, b, seed, fallback)
            assert locc._coop_stream.cache_info().currsize <= locc._STREAM_SEEDS
    for seed in seeds[-locc._STREAM_SEEDS :]:
        stream = locc._coop_stream(seed)
        assert stream.end == 176  # 16 + 5 * 32 rows, the most chunks within 200
        assert sum(c.index.size for c in stream.kept) <= stream.end <= locc._STREAM_DRAWS
        # 80 bytes of column sums and 8 of index a kept row, nothing a dropped one
        held = sum((x if x.base is None else x.base).nbytes for c in stream.kept for x in (c.index, c.sums))
        assert held == 88 * sum(c.index.size for c in stream.kept) <= 88 * locc._STREAM_DRAWS
    assert locc._coop_stream.cache_info().currsize == locc._STREAM_SEEDS


def test_coop_streams_shared_by_threads_give_the_one_thread_plans(fresh_streams):
    """Four threads search the same seeds from an empty stream cache, ten
    times over, with a short switch interval: each search returns the plan
    one thread returns, and each kept stream holds its four chunks once, in
    stream order."""
    pairs = [pair[:2] for pair in COOP_GOLDEN[:3]] + _incomparable_pairs("coop-scan", 2)
    cases = [(a, b, seed, fallback) for seed in range(2) for a, b in pairs for fallback in (300, 10**4)]
    wants = [_coop_or_none(*case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(10):
                locc._coop_stream.cache_clear()
                futures = [pool.submit(_coop_or_none, *case) for case in cases for _ in range(4)]
                for future, want in zip(futures, [w for w in wants for _ in range(4)]):
                    got = future.result(timeout=120)
                    assert _same_plan(got, want) and _same_diagnostics(got, want)
                for seed in range(2):
                    kept = locc._coop_stream(seed).kept
                    assert [(c.start, c.size) for c in kept] == [(0, 256), (256, 512), (768, 1024), (1792, 2048)]
    finally:
        sys.setswitchinterval(interval)


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
# compare_rows, and it closes at rate 1/2 in c, so the first 400 points of
# a 1e-12 grid fail before one passes
BAND_A = [0.4, 0.3, 0.2, 0.1]
BAND_B = [0.45, 0.25 - 1.2e-9, 0.25 - 1.2e-9, 0.05 + 2.4e-9]


def test_catalyst_grid_across_chunks(monkeypatch):
    # a 16-point cap splits a long certification into many chunks; the
    # incomparable pairs that pass the necessary condition include misses.
    # Each window interval's first grid point is certified alone, on the
    # pair core; the chunks start at the point after it
    monkeypatch.setattr(locc, "_MAX_CHUNK", 16)
    chunks = []

    def counting(x, y):
        chunks.append(x)
        return compare_rows(x, y)

    monkeypatch.setattr(locc, "compare_rows", counting)
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
    chunks.clear()
    want = _catalyst_one_by_one(BAND_A, BAND_B, 1e-12)
    assert find_catalyst_2x2(BAND_A, BAND_B, grid_step=1e-12) == want == 0.5 + 400 * 1e-12
    # BAND's window starts below the grid, so its first point is c_0 = 1/2,
    # which fails; the chunks certify c_1, c_2, ... and the last holds c_400
    sizes = [len(x) for x in chunks]
    c1 = 0.5 + 1e-12
    assert np.array_equal(chunks[0][0], vec_kron(np.sort(BAND_A)[::-1], [c1, 1.0 - c1]))
    assert sizes[:4] == [4, 8, 16, 16] and 1 + sum(sizes[:-1]) <= 400 < 1 + sum(sizes)
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
    # a miss off the grid reports that midpoint
    nonempty = 0
    for a, b in _catalyst_corpus("catalyst-window-midpoints", 15) + [(CAT_A, CAT_B)]:
        window = locc.catalyst_window_2x2(a, b)
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
    size = int(min(_MAX_CHUNK, 0.5 / step + 2))
    for start in itertools.count(0, size):
        c = 0.5 + np.arange(start, start + size) * step
        c = c[c < 1.0 - INTERVAL_MARGIN]
        if c.size:
            chi = np.stack((c, 1.0 - c), axis=-1)
            hit = compare_rows(vec_kron(sa, chi), vec_kron(sb, chi)).fwd
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
    """compare_rows' flags for one pair, through its stack path."""
    return tuple(bool(f[0]) for f in compare_rows(np.asarray(x, float)[None], np.asarray(y, float)[None]))


def _stripped_stack(v):
    s = _schmidt_sorted(v)
    return s[: max(int(np.count_nonzero(s > ZERO_TOL)), 1)]


def _require_3x3_stacks(a, b):
    """_require_incomparable_3x3 on arrays and compare_rows' stack path."""
    sa, sb = _stripped_stack(a), _stripped_stack(b)
    if sa.size != 3 or sb.size != 3:
        raise NotIncomparable3x3(f"need rank-3 vectors, got ranks {sa.size}, {sb.size}")
    if pairs.verdict(*_row_flags(sa, sb)) is not MajVerdict.Incomparable:
        raise NotIncomparable3x3("pair is comparable")
    return sa, sb


def _coop_validate_stacks(a, b, chi, eta):
    """coop_validate with each check a one-row compare_rows stack, in its
    order: the joint check, then the cross pairs."""
    sa, sb, sc, se = map(_schmidt_sorted, (a, b, chi, eta))
    src, tgt = vec_kron(sa, sc), vec_kron(sb, se)
    joint_ok = _row_flags(src, tgt)[0]
    names = ("psi_phi", "chi_eta", "psi_eta", "chi_phi")
    inc = {k: pairs.verdict(*_row_flags(p, q)) is MajVerdict.Incomparable
           for k, (p, q) in zip(names, ((sa, sb), (sc, se), (sa, se), (sc, sb)))}
    return CoopPlan(sc, se, joint_ok, inc, _min_slack_reference(src, tgt))


def _split_stacks(a, b):
    """split_two_copies on arrays: the window by majorization.window_affine,
    the midpoint's checks by compare_rows' stack path."""
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
    window = majorization.window_affine(source, np.zeros(9), vec_kron(sb, e0), vec_kron(sb, eta_of(1.0) - e0), lo, hi)
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
    messages of compare_rows and window_affine on numpy stacks."""
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
    3-vectors go straight to the pair core: no compare_rows, no majorizes
    or compare (majorization._pair_flags) and no array round trip
    (locc._pair_flags), but for the catalyst filter's one classification.
    A rank-3 vector longer than _SHORT takes the round trip."""
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(locc, "compare_rows", counted("compare_rows", compare_rows))
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
