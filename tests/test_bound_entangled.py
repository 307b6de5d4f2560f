import numpy as np
import pytest

from entanglia.bound_entangled import (
    LABELS,
    BEFamily,
    FamilyReport,
    MAX_UPB_TRIALS,
    PAIRING,
    be_family,
    be_family_direct,
    even_cuts,
    ghz_dense,
    horodecki_insep,
    horodecki_state,
    support_strings,
    tiles_upb,
    unlock,
    upb_complement,
    upb_unextendibility_score,
    verify_family,
)
from entanglia.errors import BadDims, BadLabel, BadParam, OddN, TooLarge
from entanglia.linalg import (
    eigvals_hermitian,
    kron,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    projector,
    write_matrix,
)
from entanglia.states import bell
from test_ghz_oracle import support_vectors


def test_rejects_bad_n():
    with pytest.raises(OddN):
        be_family(5)
    with pytest.raises(TooLarge):
        be_family(2)
    with pytest.raises(TooLarge):
        be_family_direct(12)


@pytest.mark.parametrize("build", [be_family, be_family_direct])
def test_rejects_a_bool_qubit_number(build):
    for n in (True, False, np.True_):
        with pytest.raises(BadParam, match="qubit number must be an integer"):
            build(n)
    with pytest.raises(BadParam, match="qubit number must be an integer"):
        BEFamily(True, be_family(4).parts)


@pytest.mark.parametrize("build", [be_family, be_family_direct])
def test_constructions_hold_their_own_stacks(build):
    """A construction's family holds the stacks it built, read-only, with
    `parts` as views of them; the checked constructor, given the same rows,
    stores the same family byte for byte."""
    for n in (4, 6, 8, 10):
        fam = build(n)
        checked = BEFamily(n, fam.parts)
        assert fam.n_qubits == n and fam.d.shape == fam.o.shape == (4, 1 << n)
        for got, want in ((fam.d, checked.d), (fam.o, checked.o)):
            assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        for lab in LABELS:
            d, o = fam.parts[lab]
            assert np.shares_memory(d, fam.d) and np.shares_memory(o, fam.o)
            assert not d.flags.writeable and not o.flags.writeable


@pytest.mark.parametrize(
    "n, parts, error",
    [
        (4, lambda: be_family(6).parts, BadDims),  # parts of a larger family
        (6, lambda: be_family(4).parts, BadDims),
        (2, lambda: be_family(4).parts, TooLarge),
        (5, lambda: be_family(4).parts, OddN),
        (4, lambda: {lab: v for lab, v in be_family(4).parts.items() if lab != "sigma-"}, BadLabel),
        (4, lambda: {("tau" if lab == "sigma-" else lab): v for lab, v in be_family(4).parts.items()}, BadLabel),
        (4, lambda: {**be_family(4).parts, "tau": be_family(4).parts["rho+"]}, BadLabel),
        (4, lambda: {**be_family(4).parts, "rho+": (np.zeros((4, 4)), np.zeros((4, 4)))}, BadDims),
        (4, lambda: {**be_family(4).parts, "rho-": (np.zeros(16), np.zeros(8))}, BadDims),
    ],
)
def test_family_rejects_parts_that_do_not_fit(n, parts, error):
    with pytest.raises(error):
        BEFamily(n, parts())


@pytest.mark.parametrize("n", [4, 6])
def test_family_rejects_a_complex_diagonal(n):
    parts = dict(be_family(n).parts)
    d, o = parts["rho+"]
    parts["rho+"] = (d.astype(complex), o)
    with pytest.raises(BadParam, match="rho\\+: d is"):
        BEFamily(n, parts)
    parts["rho+"] = (d, o.astype(complex))  # a complex anti-diagonal is allowed
    assert verify_family(BEFamily(n, parts)).all_pass


def test_verify_family_reports_on_a_family_that_is_not_psd():
    """sigma+ with Hamming-weight class values D = [0, 1, -1, 0, 0, 1, 0]
    and O = [0, 1, 0, 2, 0, 1, 0] (times 2^(1-n)) at n = 6: one unlock
    outcome has probability 0 but nonzero entries, so its conditional is
    infinite.  Under tier-1's error::RuntimeWarning filter a numpy warning
    from the fidelity product would raise; the checks report instead."""
    n = 6
    weight = np.array([bin(i).count("1") for i in range(1 << n)])
    d = np.array([0, 1, -1, 0, 0, 1, 0])[weight] * 2.0 ** (1 - n)
    o = np.array([0, 1, 0, 2, 0, 1, 0])[weight] * 2.0 ** (1 - n)
    rep = verify_family(BEFamily(n, {**be_family(n).parts, "sigma+": (d, o)}))
    assert isinstance(rep, FamilyReport)
    assert not rep.unlock_ok and not rep.all_pass


def test_family_takes_number_lists_and_rejects_a_non_integer_n():
    fam = be_family(4)
    lists = {lab: tuple(v.tolist() for v in pair) for lab, pair in fam.parts.items()}
    built = BEFamily(4, lists)
    assert all(np.array_equal(a, b) for lab in LABELS for a, b in zip(built.parts[lab], fam.parts[lab]))
    assert verify_family(built).all_pass
    with pytest.raises(BadDims):
        BEFamily(4, {**lists, "rho+": ([0.0] * 16, [[0.0] * 4] * 4)})
    for n in (4.0, "4", None):
        with pytest.raises(BadParam):
            BEFamily(n, fam.parts)
    with pytest.raises(BadParam):
        be_family(4.0)
    with pytest.raises(BadParam):
        be_family_direct(6.0)


def test_n4_rho_plus_is_bell_mixture():
    fam = be_family(4)
    expect = sum(kron(projector(bell(k)), projector(bell(k))) for k in ("phi+", "phi-", "psi+", "psi-")) / 4
    assert np.max(np.abs(fam.states["rho+"] - expect)) < 1e-12


def test_n4_sigma_minus_pauli_relation():
    # sigma4- equals rho4+ conjugated by i sigma_y on the third qubit
    fam = be_family(4)
    isy = np.array([[0, 1], [-1, 0]], dtype=complex)
    u = kron(kron(np.eye(4), isy), np.eye(2))
    got = u @ fam.states["rho+"] @ u.conj().T
    assert np.max(np.abs(got - fam.states["sigma-"])) < 1e-12


def test_n4_supports():
    sup = support_vectors(4)
    assert all(len(sup[lab]) == 4 for lab in LABELS)
    v = sup["rho+"][0]
    idx = np.nonzero(v)[0]
    assert list(idx) == [0, 15]  # |0000> + |1111>
    # four supports are orthonormal and together span the space
    allv = [v for lab in LABELS for v in sup[lab]]
    gram = np.array([[np.vdot(x, y) for y in allv] for x in allv])
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


def test_recursive_equals_direct():
    for n in (4, 6, 8):
        fam = be_family(n)
        direct = be_family_direct(n)
        for lab in LABELS:
            assert np.max(np.abs(fam.states[lab] - direct.states[lab])) < 1e-12


def test_n6_rho_plus_matches_bell_correlated_form():
    fam4 = be_family(4)
    bells = {k: projector(bell(k)) for k in ("phi+", "phi-", "psi+", "psi-")}
    expect = (
        kron(fam4.states["rho+"], bells["phi+"])
        + kron(fam4.states["rho-"], bells["phi-"])
        + kron(fam4.states["sigma+"], bells["psi+"])
        + kron(fam4.states["sigma-"], bells["psi-"])
    ) / 4
    assert np.max(np.abs(be_family(6).states["rho+"] - expect)) < 1e-12


def test_n6_bell_product_expansion():
    # property 5: rho6+ is a uniform mixture of triple Bell products
    fam = be_family(6)
    kinds = ("phi+", "phi-", "psi+", "psi-")
    bells = {k: projector(bell(k)) for k in kinds}
    label_of = {"phi+": "rho+", "phi-": "rho-", "psi+": "sigma+", "psi-": "sigma-"}
    acc = np.zeros((64, 64), dtype=complex)
    for out_label in LABELS:  # outcome of the middle recursion level
        for inner in kinds:
            acc += kron(
                kron(bells[inner], bells[PAIRING[out_label][label_of[inner]]]),
                bells[PAIRING["rho+"][out_label]],
            )
    acc /= 16
    assert np.max(np.abs(fam.states["rho+"] - acc)) < 1e-12


def test_n4_separable_decomposition_all_pairings():
    # the Bell (x) Bell mixture reproduces rho4+ across AB:CD, AC:BD, AD:BC
    fam = be_family(4)
    kinds = ("phi+", "phi-", "psi+", "psi-")
    mix = sum(kron(projector(bell(k)), projector(bell(k))) for k in kinds) / 4
    for perm in ([0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]):
        rearranged, _ = permute_subsystems(mix, (2, 2, 2, 2), perm)
        assert np.max(np.abs(rearranged - fam.states["rho+"])) < 1e-12


def test_even_cut_enumeration():
    assert len(even_cuts(4)) == 3
    assert len(even_cuts(6)) == 15
    assert len(even_cuts(8)) == 63


def test_verify_family_n4_n6():
    for n in (4, 6):
        rep = verify_family(be_family(n))
        assert rep.all_pass
        singles = [m for _, cut, m in rep.cut_evidence if len(cut) == 1]
        evens = [m for _, cut, m in rep.cut_evidence if len(cut) > 1]
        assert max(singles) < -1e-6
        assert min(evens) >= -1e-9


def test_all_pass_needs_every_check():
    checks = dict.fromkeys(
        [
            "orthogonal",
            "permutation_symmetric",
            "even_cut_ppt",
            "single_vs_rest_npt",
            "pauli_connected",
            "reduced_max_mixed",
            "unlock_ok",
        ],
        True,
    )
    assert FamilyReport(4, **checks).all_pass
    for check in checks:
        assert not FamilyReport(4, **{**checks, check: False}).all_pass, check


def test_verify_family_deterministic():
    fam = be_family(6)
    a = verify_family(fam)
    b = verify_family(fam)
    assert a.cut_evidence and a.cut_evidence == b.cut_evidence


def test_n10_construction_with_reduced_checks():
    fam = be_family(10)
    assert fam.states["rho+"].shape == (1024, 1024)
    rep = verify_family(fam, quick=True)
    assert rep.orthogonal and rep.permutation_symmetric
    assert rep.pauli_connected and rep.reduced_max_mixed and rep.unlock_ok
    assert rep.even_cut_ppt and rep.single_vs_rest_npt  # from one cut per size
    assert rep.cut_evidence == []  # the per-cut list is left out


def test_family_work_builds_no_dense_matrix():
    fam, direct = be_family(10), be_family_direct(10)
    assert verify_family(fam, quick=True).all_pass
    for lab in LABELS:
        unlock(fam, lab)
    assert "states" not in vars(fam) and "states" not in vars(direct)


def test_family_copies_its_inputs_once_into_read_only_stacks():
    """The rows of `parts` are read-only views of the family's stacks; the
    caller's arrays stay writable, and writing to them changes neither the
    family's rows, nor its checks, nor its unlock."""
    given = {lab: tuple(v.copy() for v in pair) for lab, pair in be_family(6).parts.items()}
    fam = BEFamily(6, given)
    assert fam.d.shape == fam.o.shape == (4, 64)
    assert not fam.d.flags.writeable and not fam.o.flags.writeable
    for i, lab in enumerate(LABELS):
        d, o = fam.parts[lab]
        assert np.shares_memory(d, fam.d) and np.shares_memory(o, fam.o)
        assert np.array_equal(d, fam.d[i]) and np.array_equal(o, fam.o[i])
        assert not d.flags.writeable and not o.flags.writeable
        assert not np.shares_memory(d, given[lab][0]) and given[lab][0].flags.writeable
    for d, o in given.values():
        d[:] = 0.5
        o[:] = -1.0
    ref = be_family(6)
    assert all(np.array_equal(a, b) for lab in LABELS for a, b in zip(fam.parts[lab], ref.parts[lab]))
    assert "_unlock" not in vars(fam)  # the table is built after the write
    assert verify_family(fam).all_pass
    for lab in LABELS:
        for got, want in zip(unlock(fam, lab), unlock(ref, lab)):
            assert got["probability"] == want["probability"] and got["fidelity"] == want["fidelity"]
            assert np.array_equal(got["conditional"], want["conditional"])


def test_families_compare_and_hash_by_identity():
    fam, other = be_family(4), be_family(4)
    assert fam == fam and hash(fam) == hash(fam)
    assert fam != other and not fam == other
    assert {fam, fam, other} == {fam, other} and len({fam, other}) == 2
    assert fam in {fam: 1}


def test_dense_view_is_read_only_and_built_once():
    fam = be_family(4)
    for d, o in fam.parts.values():
        assert not d.flags.writeable and not o.flags.writeable
    view = fam.states
    assert tuple(view) == LABELS and fam.states is view
    for lab in LABELS:
        assert view[lab] is fam.states[lab] and not view[lab].flags.writeable


@pytest.mark.parametrize("build", [be_family, be_family_direct])
def test_dense_view_is_real(build, tmp_path):
    fam = build(6)
    for lab in LABELS:
        view = fam.states[lab]
        assert view.dtype == np.float64
        assert np.array_equal(view, ghz_dense(*fam.parts[lab]))
        write_matrix(tmp_path / "real.json", view, dims=fam.dims)
        write_matrix(tmp_path / "complex.json", view.astype(complex), dims=fam.dims)
        assert (tmp_path / "real.json").read_bytes() == (tmp_path / "complex.json").read_bytes()


def loop_support_strings(n):
    """Reference: the per-string loop the table was first written as."""
    pairs = {"rho": [], "sigma": []}
    mask = (1 << n) - 1
    for p in range(1 << (n - 1)):
        zeros = n - bin(p).count("1")
        pairs["rho" if zeros % 2 == 0 else "sigma"].append((p, p ^ mask))
    return pairs


@pytest.mark.parametrize("n", range(2, 13))
def test_support_strings_match_loop(n):
    got, want = support_strings(n), loop_support_strings(n)
    assert list(got) == list(want)
    for fam in want:
        assert got[fam].tolist() == [list(pair) for pair in want[fam]]
        assert not got[fam].flags.writeable
    assert support_strings(n) is got


def test_single_party_trace_out_maximally_mixed():
    fam = be_family(6)
    for lab in LABELS:
        red = partial_trace(fam.states[lab], fam.dims, keep=list(range(1, 6)))
        assert np.max(np.abs(red - np.eye(32) / 32)) < 1e-12


def test_last_pair_marginal_unentangled():
    # tracing all but the final two qubits leaves I/4: no entanglement is
    # pre-shared across the pair an unlock round would create it on
    fam = be_family(6)
    red = partial_trace(fam.states["rho+"], fam.dims, keep=[4, 5])
    assert np.max(np.abs(red - np.eye(4) / 4)) < 1e-12


def test_unlock_n4():
    fam = be_family(4)
    outs = unlock(fam, "rho+")
    for o in outs:
        assert abs(o["probability"] - 0.25) < 1e-9
        assert o["fidelity"] > 1 - 1e-9
    table = {o["outcome"]: o["predicted_bell"] for o in outs}
    assert table == PAIRING["rho+"]


def test_unlock_n6_sigma_outcome():
    fam = be_family(6)
    outs = unlock(fam, "rho+")
    psi_plus = [o for o in outs if o["outcome"] == "sigma+"][0]
    assert psi_plus["predicted_bell"] == "psi+"
    assert psi_plus["fidelity"] > 1 - 1e-9


def test_unlock_bad_label():
    with pytest.raises(BadLabel):
        unlock(be_family(4), "tau")


def test_unlock_pairing_is_latin_square():
    for out in LABELS:
        bells = {PAIRING[lab][out] for lab in LABELS}
        assert len(bells) == 4


def test_horodecki_insep_npt():
    rho = horodecki_insep()
    assert abs(np.trace(rho).real - 1) < 1e-12
    assert eigvals_hermitian(rho)[-1] > -1e-12
    assert eigvals_hermitian(partial_transpose(rho, (3, 3), [1]))[-1] < -1e-4


def test_horodecki_state_ppt_grid():
    for a in np.linspace(0.1, 0.9, 9):
        rho = horodecki_state(a)
        assert abs(np.trace(rho).real - 1) < 1e-12
        assert eigvals_hermitian(rho)[-1] > -1e-12
        assert eigvals_hermitian(partial_transpose(rho, (3, 3), [1]))[-1] > -1e-9


def test_horodecki_a_zero_trivial():
    rho = horodecki_state(0.0)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1
    assert eigvals_hermitian(partial_transpose(rho, (3, 3), [1]))[-1] > -1e-12


def test_tiles_orthonormal():
    states = tiles_upb()
    gram = np.array([[np.vdot(x, y) for y in states] for x in states])
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_upb_complement_state():
    rho = upb_complement()
    assert abs(np.trace(rho).real - 1) < 1e-12
    vals = eigvals_hermitian(rho)
    assert int(np.sum(vals > 1e-12)) == 4
    assert eigvals_hermitian(partial_transpose(rho, (3, 3), [1]))[-1] > -1e-9


def test_upb_unextendibility_score():
    score = upb_unextendibility_score(trials=64, seed=1)
    assert score < 1 - 1e-3
    # dropping the all-plus tile leaves an extendible set: |11> completes it
    trunc = upb_unextendibility_score(trials=16, seed=1, states=tiles_upb()[:4])
    assert trunc > 1 - 1e-9


def test_upb_score_monotone_in_restarts():
    vals = [upb_unextendibility_score(trials=r, seed=5) for r in (1, 8, 32)]
    assert vals[0] <= vals[1] + 1e-15 <= vals[2] + 2e-15


def test_upb_restarts_bounded():
    for trials in (0, -3):
        with pytest.raises(BadParam):
            upb_unextendibility_score(trials=trials)
    for trials in (MAX_UPB_TRIALS + 1, 10**9):
        with pytest.raises(TooLarge):
            upb_unextendibility_score(trials=trials)


def test_upb_trials_must_be_an_integer():
    # 2.5 passed `trials < 1` and failed in range() with a raw TypeError;
    # True ran one trial
    for trials in (2.5, True):
        with pytest.raises(BadParam, match="trials must be an integer"):
            upb_unextendibility_score(trials=trials)
    assert upb_unextendibility_score(trials=np.int64(2), seed=3) == upb_unextendibility_score(trials=2, seed=3)
