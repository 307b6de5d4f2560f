"""The family as Hamming-weight class values (entanglia.family_classes),
against the stacks it replaced in `verify_family`, the loop oracle of
tests/test_ghz_oracle.py, and exact arithmetic where float64 rounds."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import rng_for
from entanglia import bound_entangled
from entanglia.bound_entangled import LABELS, BEFamily, be_family, be_family_direct, verify_family
from entanglia.family_classes import PAIRING, _coupling_table, direct_classes, recursive_classes, verify_classes
from test_ghz_oracle import CHECKS, assert_same_report, loop_verify_family, random_symmetric_family


@pytest.mark.parametrize("n", range(4, 22, 2))
def test_recursion_reads_one_split_of_a_symmetric_sum(n):
    """Every split w = u + t of the class recursion gives the same sum, so
    reading one split per class loses nothing; and both constructions
    build the same classes."""
    level = recursive_classes(n - 2) if n > 4 else None
    assert recursive_classes(n) == direct_classes(n)
    if level is None:
        return
    bells = {"phi+": ((1, 0, 1), (1, 0, 1)), "phi-": ((1, 0, 1), (-1, 0, -1))}
    bells |= {"psi+": ((0, 1, 0), (0, 1, 0)), "psi-": ((0, 1, 0), (0, -1, 0))}
    for j, lab in enumerate(LABELS):
        for i in (0, 1):
            for w in range(n + 1):
                sums = {
                    2 * sum(level[i][k][u] * bells[PAIRING[lab][out]][i][w - u] for k, out in enumerate(LABELS))
                    for u in range(max(0, w - 2), min(w, n - 2) + 1)
                }
                assert sums == {recursive_classes(n)[i][j][w]}


def test_both_outcomes_of_a_parity_need_the_same_sums():
    """The unlock check reads one set of class sums per outcome parity:
    per state, the "-" outcome negates its projector's anti-diagonal and
    PAIRING gives it the Bell state of the opposite anti-diagonal sign, so
    its conditional needs what the "+" outcome's needs."""
    sign = {"+": 1, "-": -1}
    diagonal = {"phi": (1, 0, 1), "psi": (0, 1, 0)}  # at pair weight 0, 1, 2
    for lab in LABELS:
        for outcomes in (("rho+", "rho-"), ("sigma+", "sigma-")):
            needs = set()
            for out in outcomes:
                bell = PAIRING[lab][out]
                d = diagonal[bell[:3]]
                needs.add((d, tuple(sign[out[-1]] * sign[bell[-1]] * x for x in d)))
            assert len(needs) == 1, (lab, outcomes)


def test_pt_flags_are_exact_where_the_float_root_rounds():
    """The block (x, y, c) = (k - 1, k + 1, k) at k = 2^27 has x y = c^2 - 1:
    not PSD.  In float64 the root's argument ((x - y)/2)^2 + c^2 = 1 + 2^54
    rounds to 2^54, so the float minimum reads 0 and would pass it as PSD.
    Every block of this family is that one, its mirror or (k, k, k), so
    only the exact test sees an NPT cut."""
    k = 2**27
    n = 4
    unit = 4.0**-n
    x, y, c = (k - 1) * unit, (k + 1) * unit, k * unit
    assert (x + y) / 2 - math.sqrt(((x - y) / 2) ** 2 + c * c) == 0.0
    d = [(k - 1, k - 1, k, k + 1, k + 1)] * 4
    o = [(k,) * (n + 1)] * 4
    rep = verify_classes(n, d, o)
    assert not rep.even_cut_ppt and rep.single_vs_rest_npt
    assert {m for *_, m in rep.cut_evidence} == {0.0}  # what the float test would have read


def test_a_block_with_a_negative_trace_is_not_psd():
    """x y >= |c|^2 holds for x = y = -1, c = 0, but the block is not PSD:
    the x + y >= 0 clause decides it, as the stacks do."""
    n = 4
    fam = from_classes(n, [(-(1 << (n + 1)),) * (n + 1)] * 4, [(0,) * (n + 1)] * 4)
    rep = verify_family(fam)
    assert fam._classes is not None and not rep.even_cut_ppt and rep.single_vs_rest_npt
    assert_same_report(rep, verify_family(on_the_stacks(fam)))


@pytest.mark.parametrize("n", range(4, 22, 2))
def test_coupling_table_reads_the_largest_coupling_of_each_block(n):
    """Per cut size and weight w, the picked |c|^2 is the largest over the
    coupling weights s - a + b of the indices with a ones inside the cut
    and b outside, a + b = w."""
    rng = random.Random(n)
    sizes, wide, pick = _coupling_table(n)
    assert sizes == (1, *range(2, n - 1, 2))
    for _ in range(20):
        c2 = tuple(rng.randrange(100) for _ in range(n + 1))
        full = pick(c2 + tuple(max(c2[sl]) for sl in wide))
        want = [
            max(c2[s - a + (w - a)] for a in range(s + 1) if 0 <= w - a <= n - s)
            for s in sizes
            for w in range(n + 1)
        ]
        assert list(full) == want


def sparse_classes(n, rng):
    """Signed class values: each D row nonzero at its own class, each O row
    at no more than two, so orthogonality holds or fails with the pairing
    of w and n - w."""
    d = [[0] * (n + 1) for _ in LABELS]
    for row, w in zip(d, rng.sample(range(n + 1), 4)):
        row[w] = rng.randrange(-4, 5) << n
    o = [[0] * (n + 1) for _ in LABELS]
    for row in o:
        for w in rng.sample(range(n + 1), 2):
            row[w] = rng.randrange(-4, 5) << n
    return d, o


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sparse_signed_classes_match_the_stacks(n):
    rng = random.Random(n)
    seen = set()
    for _ in range(40):
        fam = from_classes(n, *sparse_classes(n, rng))
        got = verify_family(fam)
        assert fam._classes is not None
        assert_same_report(got, verify_family(on_the_stacks(fam)))
        seen.add(got.orthogonal)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [12, 16, 20])
@pytest.mark.parametrize("classes", [recursive_classes, direct_classes])
def test_class_checks_pass_beyond_the_stack_cap(n, classes):
    """The class checks run at any n: all seven pass on both constructions,
    and a call allocates no 2^n stack (a single row would take 8 2^n
    bytes) once the tables of n are cached."""
    verify_classes(n, *classes(n), quick=True)
    tracemalloc.start()
    try:
        rep = verify_classes(n, *classes(n), quick=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.all_pass and all(getattr(rep, check) for check in CHECKS)
    assert rep.n_qubits == n and rep.cut_evidence == []
    assert peak < (8 << n) // 4


@pytest.mark.parametrize("build", [be_family, be_family_direct])
def test_a_construction_is_verified_without_its_stacks(build):
    for n in (4, 10):
        fam = build(n)
        assert verify_family(fam).all_pass and verify_family(fam, quick=True).all_pass
        assert not {"d", "o", "_stacks", "parts", "states", "_unlock"} & vars(fam).keys()
        assert fam.d.shape == (4, 1 << n) and not fam.d.flags.writeable


def test_given_stacks_are_gathered_into_classes_once(monkeypatch):
    calls = []
    gather = bound_entangled._stack_classes

    def counted(n, d, o):
        calls.append(n)
        return gather(n, d, o)

    monkeypatch.setattr(bound_entangled, "_stack_classes", counted)
    for n in (4, 6, 8, 10):
        fam = BEFamily(n, be_family(n).parts)
        for quick in (False, True, False):
            verify_family(fam, quick=quick)
        assert fam._classes == recursive_classes(n)
    assert calls == [4, 6, 8, 10]


@pytest.mark.parametrize("build", [be_family, be_family_direct])
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_a_complex_dtype_anti_diagonal_with_no_imaginary_part_is_decided_on_classes(build, n):
    """`o.astype(complex)` of a construction gets the real copy's report
    from the same class values: every flag, and each evidence value to the
    last bit."""
    fam = build(n)
    real = BEFamily(n, fam.parts)
    cplx = BEFamily(n, {lab: (d, o.astype(complex)) for lab, (d, o) in fam.parts.items()})
    assert cplx.o.dtype == np.complex128
    assert cplx._classes == real._classes == fam._classes
    for quick in (False, True):
        got, want = verify_family(cplx, quick=quick), verify_family(real, quick=quick)
        assert_same_report(got, want)
        assert [m.hex() for *_, m in got.cut_evidence] == [m.hex() for *_, m in want.cut_evidence]


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_a_genuinely_complex_symmetric_anti_diagonal_stays_on_the_stacks(monkeypatch, n):
    """rho+ with o times i below weight n/2 and times -i above it (still
    hermitian and permutation symmetric) has no real class values: the
    stacks decide it, as the loop oracle does."""

    def refused(*args, **kwargs):
        raise AssertionError("decided on class values")

    monkeypatch.setattr(bound_entangled, "verify_classes", refused)
    weight = np.bitwise_count(np.arange(1 << n))
    parts = dict(be_family(n).parts)
    d, o = parts["rho+"]
    parts["rho+"] = (d, o * np.where(weight < n // 2, 1j, np.where(weight > n // 2, -1j, 1)))
    fam = BEFamily(n, parts)
    assert fam._classes is None and fam.o[0].imag.any()
    assert_same_report(verify_family(fam), loop_verify_family(fam))


def on_the_stacks(fam):
    """A hand-built copy of the family that verify_family decides on its
    stacks: its class values are None, as an asymmetric family's are."""
    copy = BEFamily(fam.n_qubits, fam.parts)
    object.__setattr__(copy, "_classes", None)
    return copy


def negated(j):
    def change(d, o):
        o[j] = [-c for c in o[j]]

    return change


def swapped(i, j):
    def change(d, o):
        d[i], d[j], o[i], o[j] = d[j], d[i], o[j], o[i]

    return change


def tilted(j):
    """Weight moved from the string 1...1 to 0...0 in one state: the
    diagonal keeps its trace but not its marginals."""

    def change(d, o):
        n = len(d[j]) - 1
        d[j] = [x + (max(d[j]) // 4) * ((w == 0) - (w == n)) for w, x in enumerate(d[j])]

    return change


def halved(j):
    """One state's anti-diagonal halved: its diagonal is its sibling's,
    its couplings are not."""

    def change(d, o):
        o[j] = [c // 2 for c in o[j]]

    return change


def mixed(j):
    """The maximally mixed state in place of one member: PPT on every cut."""

    def change(d, o):
        n = len(d[j]) - 1
        d[j], o[j] = [1 << n] * (n + 1), [0] * (n + 1)

    return change


CLASS_TAMPERS = {
    **{f"negated_{lab}": negated(j) for j, lab in enumerate(LABELS)},
    "swapped_rho": swapped(0, 1),
    "swapped_families": swapped(0, 2),
    **{f"tilted_{lab}": tilted(j) for j, lab in enumerate(LABELS)},
    "mixed_sigma-": mixed(3),
    "halved_rho-": halved(1),
    "halved_sigma+": halved(2),
}


def from_classes(n, d, o):
    """The hand-built family whose stacks hold class values d and o."""
    weight = np.bitwise_count(np.arange(1 << n))
    rows = (tuple(np.array(row, dtype=float)[weight] * 4.0**-n for row in pair) for pair in zip(d, o))
    return BEFamily(n, dict(zip(LABELS, rows)))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_class_tampers_fail_where_the_loop_oracle_does(n):
    failed = set()
    for name, change in CLASS_TAMPERS.items():
        d, o = ([list(row) for row in part] for part in recursive_classes(n))
        change(d, o)
        fam = from_classes(n, d, o)
        want = loop_verify_family(fam)
        assert fam._classes is not None, name  # the class path decides it
        assert_same_report(verify_family(fam), want)
        assert_same_report(verify_family(on_the_stacks(fam)), want)
        failed |= {check for check in CHECKS if not getattr(want, check)}
    assert failed == set(CHECKS) - {"permutation_symmetric"}


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_class_path_equals_the_stacks(n):
    """verify_family on class values against the same families decided on
    their stacks: every flag, evidence value and sign bit."""
    rng = rng_for("class-path", n)
    families = [be_family(n), be_family_direct(n)] + [random_symmetric_family(n, rng) for _ in range(3)]
    for fam in families:
        for quick in (False, True):
            assert_same_report(verify_family(fam, quick=quick), verify_family(on_the_stacks(fam), quick=quick))
