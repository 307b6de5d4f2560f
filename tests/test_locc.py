import time

import numpy as np
import pytest

from entanglia.errors import (
    BadParam,
    Degenerate,
    EmptyRange,
    NonFinite,
    NotIncomparable3x3,
    RankMismatch,
    TooLarge,
)
from entanglia.locc import (
    assist_max_entangled,
    assist_max_entangled_direct,
    classify,
    coop_construct,
    coop_validate,
    find_catalyst_2x2,
    min_assist_3x3,
    multicopy,
    nielsen,
    split_two_copies,
    tensor_power,
    vec_kron,
)
from entanglia.majorization import MajVerdict, compare
from entanglia.measures import binary_entropy, shannon

from conftest import brute_majorized, random_prob, ref_compare_rows, rng_for

CAT_A = [0.4, 0.4, 0.1, 0.1]
CAT_B = [0.5, 0.25, 0.25, 0.0]


def test_nielsen_maxent_and_product():
    assert nielsen([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2])
    assert nielsen([0.7, 0.2, 0.1], [1, 0, 0])
    assert not nielsen(CAT_A, CAT_B)
    # 2x2 products that reach the rank-3 and rank-4 maximally entangled states
    assert nielsen(vec_kron([2 / 3, 1 / 3], [0.5, 0.5]), [1 / 3, 1 / 3, 1 / 3, 0])
    ladder = vec_kron(vec_kron([3 / 4, 1 / 4], [2 / 3, 1 / 3]), [0.5, 0.5])
    assert nielsen(ladder, [0.25] * 4 + [0.0] * 4)


def test_nielsen_entropy_consequence():
    rng = rng_for("nielsen-ent")
    for k in range(100):
        d = int(rng.integers(2, 6))
        a, b = random_prob(d, rng), random_prob(d, rng)
        if nielsen(a, b):
            assert shannon(a) >= shannon(b) - 1e-9


def test_classify_known_incomparable_triple():
    pc = classify([0.4, 0.4, 0.2], [0.48, 0.26, 0.26])
    assert pc.verdict is MajVerdict.Incomparable
    assert pc.pattern_3x3 == "B"
    assert pc.strong
    assert not pc.catalysis_possible


def test_classify_catalysis_pair():
    pc = classify(CAT_A, CAT_B)
    assert pc.verdict is MajVerdict.Incomparable
    assert pc.catalysis_possible
    assert not pc.strong


def test_classify_strong_3x3():
    pc = classify([0.5, 0.4, 0.1], [0.6, 0.2, 0.2])
    assert pc.verdict is MajVerdict.Incomparable
    assert pc.strong


def test_no_2x2_incomparable():
    rng = rng_for("no-2x2")
    for k in range(300):
        a, b = random_prob(2, rng), random_prob(2, rng)
        assert compare(a, b) is not MajVerdict.Incomparable


def test_3x3_incomparable_always_strong_with_pattern():
    rng = rng_for("3x3-strong")
    found = 0
    for k in range(500):
        a, b = random_prob(3, rng), random_prob(3, rng)
        pc = classify(a, b)
        if pc.verdict is MajVerdict.Incomparable:
            found += 1
            assert pc.strong
            assert pc.pattern_3x3 in ("A", "B")
            assert not pc.catalysis_possible
    assert found > 50


def test_strong_defeats_catalysis_and_multicopy():
    rng = rng_for("strong-defeat")
    checked = 0
    for k in range(200):
        a, b = random_prob(3, rng), random_prob(3, rng)
        pc = classify(a, b)
        if pc.verdict is MajVerdict.Incomparable and checked < 12:
            checked += 1
            assert find_catalyst_2x2(a, b, grid_step=5e-3) is None
            for kk in (1, 2, 3, 4):
                assert not multicopy(a, b, kk)
    assert checked == 12


def test_multicopy_eq418():
    assert not multicopy(CAT_A, CAT_B, 1)
    assert not multicopy(CAT_A, CAT_B, 2)
    assert multicopy(CAT_A, CAT_B, 3)


def test_multicopy_k1_is_nielsen():
    rng = rng_for("mc-k1")
    for k in range(50):
        d = int(rng.integers(2, 5))
        a, b = random_prob(d, rng), random_prob(d, rng)
        assert multicopy(a, b, 1) == nielsen(a, b)


def test_multicopy_needs_a_copy():
    for k in (0, -3):
        with pytest.raises(BadParam):
            multicopy(CAT_A, CAT_B, k)
        with pytest.raises(BadParam):
            tensor_power(CAT_A, k)
    assert np.array_equal(tensor_power(CAT_A, 1), CAT_A)


def test_nonfinite_input_rejected():
    nan4 = [np.nan, 0.5, 0.25, 0.25]
    inf3 = [np.inf, 0.0, 0.0]
    calls = (
        lambda v, w: compare(v, w),
        lambda v, w: nielsen(v, w),
        lambda v, w: classify(v, w),
        lambda v, w: multicopy(v, w, 2),
        lambda v, w: assist_max_entangled(v, w),
    )
    for call in calls:
        for bad, good in ((nan4, CAT_B), (inf3, [0.5, 0.3, 0.2])):
            with pytest.raises(NonFinite):
                call(bad, good)
            with pytest.raises(NonFinite):
                call(good, bad)


def test_multicopy_size_guard():
    with pytest.raises(TooLarge):
        multicopy(random_prob(6, rng_for("g")), random_prob(6, rng_for("g2")), 8)


def test_multicopy_size_guard_never_forms_the_power():
    for k in (10**5, 10**12):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"12\\^{k} exceeds"):
            multicopy(CAT_A, CAT_B, k)
        assert time.perf_counter() - start < 1.0
    tenth = np.full(10, 0.1)
    assert multicopy(tenth, tenth, 3)  # (10 * 10)^3 = 10^6 exactly is allowed
    with pytest.raises(TooLarge):
        multicopy(tenth, tenth, 4)
    # two product states: every power is the state itself
    assert multicopy([1.0], [1.0, 0.0], 10**12)


def test_catalyst_known_4x4_pair():
    c = find_catalyst_2x2(CAT_A, CAT_B, grid_step=1e-3)
    assert c is not None
    assert abs(c - 0.6) < 1e-9  # first working grid point
    chi = np.array([c, 1 - c])
    assert nielsen(vec_kron(CAT_A, chi), vec_kron(CAT_B, chi))
    # 0.6 itself certifies, from the known product Schmidt vectors
    assert brute_majorized(
        [0.24, 0.24, 0.16, 0.16, 0.06, 0.06, 0.04, 0.04],
        [0.3, 0.2, 0.15, 0.15, 0.1, 0.1, 0, 0],
    )


def test_catalyst_grid_step_bounds():
    for step in (0.0, -1e-3, 0.6, np.nan, np.inf):
        with pytest.raises(BadParam):
            find_catalyst_2x2(CAT_A, CAT_B, grid_step=step)
    # the coarsest step allowed leaves the one-point grid c = 1/2
    assert find_catalyst_2x2(CAT_A, CAT_B, grid_step=0.5) is None
    assert find_catalyst_2x2(CAT_A, CAT_B, grid_step=0.1) == 0.6


def test_catalyst_none_without_necessary_condition():
    assert find_catalyst_2x2([0.4, 0.4, 0.2], [0.48, 0.26, 0.26]) is None


def test_catalysis_entropy_consequence():
    rng = rng_for("cat-ent")
    for k in range(60):
        a, b = random_prob(4, rng), random_prob(4, rng)
        if compare(a, b) is MajVerdict.Incomparable:
            c = find_catalyst_2x2(a, b, grid_step=2e-2)
            if c is not None:
                assert shannon(a) >= shannon(b) - 1e-9


def test_assist_max_entangled_examples():
    assert assist_max_entangled([2 / 3, 1 / 6, 1 / 6], [1 / 3, 1 / 3, 1 / 3])
    assert not assist_max_entangled([0.9, 0.05, 0.05], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(RankMismatch):
        assist_max_entangled([0.5, 0.5], [0.5, 0.5])


def test_assist_simplified_equals_direct():
    rng = rng_for("assist-agree")
    for k in range(200):
        d = int(rng.integers(3, 7))
        a, b = random_prob(d, rng), random_prob(d, rng)
        assert assist_max_entangled(a, b) == assist_max_entangled_direct(a, b)


def test_assist_always_possible_for_incomparable():
    rng = rng_for("assist-inc")
    hits = 0
    for k in range(400):
        d = int(rng.integers(3, 7))
        a, b = random_prob(d, rng), random_prob(d, rng)
        if compare(a, b) is MajVerdict.Incomparable:
            hits += 1
            assert assist_max_entangled(a, b)
    assert hits > 50


def test_incomparability_first_last_theorem():
    rng = rng_for("inc-theorem")
    hits = 0
    while hits < 1000:
        d = int(rng.integers(3, 7))
        a, b = random_prob(d, rng), random_prob(d, rng)
        if compare(a, b) is MajVerdict.Incomparable:
            hits += 1
            assert a[0] + b[-1] < 1 - 1e-12
            assert b[0] + a[-1] < 1 - 1e-12


def test_min_assist_type1():
    plan = min_assist_3x3([0.4, 0.4, 0.2], [0.48, 0.26, 0.26])
    assert abs(plan.c0 - 0.925) < 1e-12
    assert abs(plan.e0 - binary_entropy(0.925)) < 1e-12
    # certification: works at c0, fails just above
    src = vec_kron([0.4, 0.4, 0.2], plan.resource)
    tgt = vec_kron([0.48, 0.26, 0.26], [1.0, 0.0])
    assert nielsen(src, tgt)
    c_up = plan.c0 + 1e-3
    assert not nielsen(vec_kron([0.4, 0.4, 0.2], [c_up, 1 - c_up]), tgt)


def test_min_assist_type2():
    plan = min_assist_3x3([0.51, 0.30, 0.19], [0.49, 0.36, 0.15])
    assert abs(plan.c0 - 0.49 / 0.51) < 1e-12
    src = vec_kron([0.51, 0.30, 0.19], plan.resource)
    tgt = vec_kron([0.49, 0.36, 0.15], [1.0, 0.0])
    assert nielsen(src, tgt)
    c_up = plan.c0 + 1e-3
    assert not nielsen(vec_kron([0.51, 0.30, 0.19], [c_up, 1 - c_up]), tgt)


def test_min_assist_rejects_comparable():
    with pytest.raises(NotIncomparable3x3):
        min_assist_3x3([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])


def test_coop_validate_example1():
    plan = coop_validate([0.4, 0.4, 0.2], [0.48, 0.26, 0.26], [0.49, 0.255, 0.255], [0.41, 0.41, 0.18])
    assert plan.joint_ok
    assert plan.cross_incomparable["psi_phi"]
    assert plan.cross_incomparable["chi_eta"]
    # example-1 pairs to the comparable cross class: psi -> eta, phi -> chi
    assert nielsen([0.4, 0.4, 0.2], [0.41, 0.41, 0.18])
    assert nielsen([0.48, 0.26, 0.26], [0.49, 0.255, 0.255])


def test_coop_validate_example2():
    a, b = [0.41, 0.38, 0.21], [0.4, 0.4, 0.2]
    plan = coop_validate(a, b, [0.45, 0.34, 0.21], [0.48, 0.309, 0.211])
    assert plan.joint_ok
    assert all(plan.cross_incomparable.values())
    assert nielsen(a, [0.45, 0.34, 0.21])  # psi -> chi preparable


def test_coop_construct_returns_certified_plan():
    for a, b in (
        ([0.41, 0.38, 0.21], [0.4, 0.4, 0.2]),
        ([0.51, 0.30, 0.19], [0.49, 0.36, 0.15]),
        ([0.5, 0.3, 0.2], [0.55, 0.24, 0.21]),
    ):
        plan = coop_construct(a, b, seed=1)
        assert plan.joint_ok
        assert plan.cross_incomparable["chi_eta"]
        assert nielsen(vec_kron(a, plan.chi), vec_kron(b, plan.eta))


def test_coop_construct_rejects_ties_and_comparable():
    with pytest.raises(Degenerate):
        coop_construct([0.4, 0.4, 0.2], [0.48, 0.26, 0.26])
    with pytest.raises(NotIncomparable3x3):
        coop_construct([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])


def test_coop_construct_checks_seed_and_samples():
    a, b = [0.5, 0.3, 0.2], [0.55, 0.24, 0.21]
    bad = (
        ({"seed": -1}, "seed = -1 must be at least 0"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    )
    for kwargs, message in bad:
        with pytest.raises(BadParam) as caught:
            coop_construct(a, b, **kwargs)
        assert str(caught.value) == message
    # numpy integers count as integers; the search draws no samples, so the
    # seed does not change the plan, and there is no sample count to set
    want = coop_construct(a, b)
    for seed in (np.int64(1), 7):
        got = coop_construct(a, b, seed=seed)
        assert (got.chi.tolist(), got.eta.tolist(), got.cell) == (want.chi.tolist(), want.eta.tolist(), want.cell)
    with pytest.raises(TypeError):
        coop_construct(a, b, fallback_samples=300)


def test_coop_examples_4x4():
    # 4x4 validation path: known strongly incomparable quadruples
    a = [0.4, 0.3, 0.2, 0.1]
    b = [0.45, 0.29, 0.14, 0.12]
    plan3 = coop_validate(a, b, [0.5, 0.25, 0.2, 0.05], [0.48, 0.36, 0.12, 0.04])
    assert plan3.joint_ok and plan3.cross_incomparable["psi_phi"] and plan3.cross_incomparable["chi_eta"]
    plan4 = coop_validate(a, b, [0.5, 0.23, 0.22, 0.05], [0.48, 0.36, 0.12, 0.04])
    assert plan4.joint_ok and plan4.cross_incomparable["chi_eta"]
    assert nielsen(a, [0.5, 0.23, 0.22, 0.05])  # psi -> chi


def test_split_two_copies_case1():
    a, b = [0.5, 0.3, 0.2], [0.55, 0.24, 0.21]
    r = split_two_copies(a, b)
    assert r.case == 1
    lo, hi = r.param_interval
    assert lo < hi <= 0.5
    # direct 9-entry brute-force oracle on the midpoint
    assert brute_majorized(vec_kron(a, a), vec_kron(b, r.eta))
    assert compare(a, r.eta) is MajVerdict.Incomparable


def test_split_two_copies_degenerate():
    with pytest.raises(Degenerate):
        split_two_copies([0.4, 0.4, 0.2], [0.48, 0.26, 0.26])


def test_split_two_copies_entropy_guard():
    # target pair far out of entropy reach comes back empty
    rng = rng_for("split-empty")
    raised = 0
    for k in range(400):
        a = random_prob(3, rng)
        b = random_prob(3, rng)
        if compare(a, b) is not MajVerdict.Incomparable:
            continue
        if a[0] - a[1] <= 1e-9 or a[1] - a[2] <= 1e-9:
            continue
        try:
            r = split_two_copies(a, b)
            assert brute_majorized(vec_kron(a, a), vec_kron(b, r.eta))
            assert compare(a, r.eta) is MajVerdict.Incomparable
        except EmptyRange:
            raised += 1
    assert raised >= 0  # EmptyRange is a legitimate outcome ("not always successful")


def test_split_window_matches_direct_scan():
    # on a grid of x in (0, 1/2), eta(x) = (x, x, 1-2x) passes the direct
    # checks (a (x) a majorized by b (x) eta, eta incomparable with a)
    # exactly inside the window; points within 1e-9 of a piece's end, where
    # the tolerances decide, are skipped
    rng = rng_for("split-scan")
    grid = np.linspace(0.0, 0.5, 2003)[1:-1]
    eta = np.stack((grid, grid, 1.0 - 2.0 * grid), axis=-1)
    found = {1: 0, 2: 0}
    pairs = 0
    while pairs < 200:
        a, b = random_prob(3, rng), random_prob(3, rng)
        if compare(a, b) is not MajVerdict.Incomparable or min(a[0] - a[1], a[1] - a[2]) <= 1e-9:
            continue
        pairs += 1
        passes = ref_compare_rows(vec_kron(a, a), vec_kron(b, eta)).fwd & ref_compare_rows(a, eta).incomparable
        try:
            r = split_two_copies(a, b)
        except EmptyRange:
            assert not passes.any(), (a, b)
            continue
        found[r.case] += 1
        assert passes.any(), (a, b, r.window)
        inside = np.zeros(grid.size, dtype=bool)
        near_end = np.zeros(grid.size, dtype=bool)
        for start, end in r.window:
            inside |= (start <= grid) & (grid <= end)
            near_end |= (abs(grid - start) <= 1e-9) | (abs(grid - end) <= 1e-9)
        assert np.array_equal(passes[~near_end], inside[~near_end]), (a, b, r.window)
        lo, hi = r.param_interval
        assert r.param_interval in r.window and lo < hi
        assert brute_majorized(vec_kron(a, a), vec_kron(b, r.eta))
        assert compare(a, r.eta) is MajVerdict.Incomparable
    assert min(found.values()) >= 10, found


def test_plans_self_certifying_property():
    rng = rng_for("plan-cert")
    built = 0
    for k in range(300):
        a, b = random_prob(3, rng), random_prob(3, rng)
        pc = classify(a, b)
        if pc.verdict is not MajVerdict.Incomparable:
            continue
        if a[0] - a[1] <= 1e-9 or a[1] - a[2] <= 1e-9:
            continue
        built += 1
        plan = coop_construct(a, b, seed=k)
        assert nielsen(vec_kron(a, plan.chi), vec_kron(b, plan.eta))
        for x, y in ((a, b), (plan.chi, plan.eta), (a, plan.eta), (plan.chi, b)):
            assert compare(x, y) is MajVerdict.Incomparable
    assert built >= 50
