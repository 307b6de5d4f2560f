"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math

import numpy as np

from entanglia.bound_entangled import (
    LABELS,
    PAIRING,
    be_family,
    be_family_direct,
    tiles_upb,
    unlock,
    upb_complement,
    upb_unextendibility_score,
    verify_family,
)
from entanglia.gadgets import angle_preserving_gadget, antiunitary_gadget, flip_gadget
from entanglia.hiding import hide, run_demo, string_distribution, trace_security
from entanglia.linalg import eigvals_hermitian, partial_transpose
from entanglia.locc import multicopy, nielsen, vec_kron
from entanglia.majorization import (
    MajVerdict,
    compare,
    majorizes,
    spectra_majorized,
)
from entanglia.measures import concurrence_2q, shannon, von_neumann_entropy
from entanglia.states import werner
from entanglia.tolerances import MAJ_TOL
from entanglia.witness import chsh_M, is_ppt

from conftest import random_density, random_doubly_stochastic, random_prob, random_unitary, rng_for

S2 = 1 / math.sqrt(2)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_catalysis_golden():
    a, b = [0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0]
    assert not nielsen(a, b)
    chi = [0.6, 0.4]
    src = np.sort(vec_kron(a, chi))[::-1]
    tgt = np.sort(vec_kron(b, chi))[::-1]
    assert np.allclose(src, [0.24, 0.24, 0.16, 0.16, 0.06, 0.06, 0.04, 0.04], atol=1e-15)
    assert np.allclose(tgt, [0.3, 0.2, 0.15, 0.15, 0.1, 0.1, 0.0, 0.0], atol=1e-15)
    assert MAJ_TOL == 1e-9
    assert majorizes(src, tgt)  # boundary .80 = .80 passes under slack
    _report(1, "catalyst (.6,.4) converts the blocked 4x4 pair, boundary included")


def test_criterion_02_multicopy():
    a, b = [0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0]
    assert not multicopy(a, b, 1)
    assert not multicopy(a, b, 2)
    assert multicopy(a, b, 3)
    _report(2, "pair converts at k=3 copies and at no smaller k")


def _entropy_close(v, stated):
    assert abs(shannon(v) - stated) < 5e-4, (v, shannon(v), stated)


def test_criterion_03_cooperation_examples():
    inc = lambda x, y: compare(x, y) is MajVerdict.Incomparable

    # example 1
    psi, phi = [0.4, 0.4, 0.2], [0.48, 0.26, 0.26]
    chi, eta = [0.49, 0.255, 0.255], [0.41, 0.41, 0.18]
    for v, stated in ((psi, 1.5219), (phi, 1.5188), (chi, 1.5097), (eta, 1.5001)):
        _entropy_close(v, stated)
    assert inc(psi, phi) and inc(chi, eta)
    assert nielsen(psi, eta) and nielsen(phi, chi)  # the comparable cross pairs
    assert nielsen(vec_kron(psi, chi), vec_kron(phi, eta))

    # example 2
    psi, phi = [0.41, 0.38, 0.21], [0.4, 0.4, 0.2]
    chi, eta = [0.45, 0.34, 0.21], [0.48, 0.309, 0.211]
    for v, stated in ((psi, 1.5307), (phi, 1.5219), (chi, 1.5204), (eta, 1.50544)):
        _entropy_close(v, stated)
    assert inc(psi, phi) and inc(chi, eta) and inc(psi, eta) and inc(chi, phi)
    assert nielsen(psi, chi)
    assert nielsen(vec_kron(psi, chi), vec_kron(phi, eta))

    # examples 3 and 4 share the 4x4 source pair
    psi, phi = [0.4, 0.3, 0.2, 0.1], [0.45, 0.29, 0.14, 0.12]
    chi3, eta = [0.5, 0.25, 0.2, 0.05], [0.48, 0.36, 0.12, 0.04]
    for v, stated in ((psi, 1.846), (phi, 1.800), (chi3, 1.680), (eta, 1.592)):
        _entropy_close(v, stated)
    assert inc(psi, phi) and inc(chi3, eta)
    assert nielsen(psi, eta)  # psi -> eta
    assert not nielsen(chi3, phi) and nielsen(phi, chi3)  # chi -/-> phi yet phi -> chi
    assert nielsen(vec_kron(psi, chi3), vec_kron(phi, eta))

    chi4 = [0.5, 0.23, 0.22, 0.05]
    _entropy_close(chi4, 1.684)
    assert inc(chi4, eta) and inc(chi4, phi)
    assert nielsen(psi, chi4)  # psi -> chi: the cooperation state is preparable
    assert nielsen(vec_kron(psi, chi4), vec_kron(phi, eta))
    _report(3, "cooperation examples 1-4: entropies, verdicts and joint conversions")


def test_criterion_04_flip_axes():
    res = flip_gadget(S2, S2, S2, S2, math.pi / 2)
    s = 1 / (2 * math.sqrt(3))
    assert np.max(np.abs(res.initial_schmidt - [2 / 3, 1 / 6, 1 / 6])) < 1e-9
    assert np.max(np.abs(res.final_schmidt - [1 / 3 + s, 1 / 3, 1 / 3 - s])) < 1e-9
    assert res.verdict == "Incomparable"
    assert np.max(np.abs(res.cardan_initial - res.initial_schmidt)) < 1e-8
    assert np.max(np.abs(res.cardan_final - res.final_schmidt)) < 1e-8
    _report(4, "flip gadget at the coordinate axes, closed form against numeric")


def test_criterion_05_great_circle_dichotomy():
    rng = rng_for("accept-circle")
    for k in range(200):
        mode = k % 3
        a = math.sqrt(rng.uniform(0.05, 0.95))
        c = math.sqrt(rng.uniform(0.05, 0.95))
        theta = rng.uniform(0.1, math.pi - 0.1)
        if mode == 0:
            theta = 0.0 if k % 2 else math.pi
        elif mode == 1:
            a = 1.0
        else:
            c = 0.0
        res = flip_gadget(a, math.sqrt(1 - a * a), c, math.sqrt(1 - c * c), theta)
        assert res.verdict == "NoViolation", (a, c, theta)
    for k in range(200):
        a = math.sqrt(rng.uniform(0.15, 0.85))
        c = math.sqrt(rng.uniform(0.15, 0.85))
        theta = rng.uniform(0.3, math.pi - 0.3)
        res = flip_gadget(a, math.sqrt(1 - a * a), c, math.sqrt(1 - c * c), theta)
        assert res.verdict == "Incomparable", (a, c, theta)
    _report(5, "200 coplanar probes all pass, 200 non-coplanar all incomparable")


def test_criterion_06_antiunitary_parameter_independent():
    rng = rng_for("accept-anti")
    reference = antiunitary_gadget(0.0, 0.0, 0.0).final_schmidt
    for k in range(50):
        theta, alpha, beta = rng.uniform(0, 2 * math.pi, 3)
        res = antiunitary_gadget(theta, alpha, beta)
        assert np.max(np.abs(res.final_schmidt - reference)) < 1e-9
        assert res.diagnostics["plain_u_delta"] < 1e-9
    _report(6, "50 random anti-unitary probes share one final spectrum; plain U signals nothing")


def test_criterion_07_angle_anchors():
    assert angle_preserving_gadget(0.0, 1.0).verdict == "Incomparable"
    assert angle_preserving_gadget(S2, S2).verdict == "Incomparable"
    res = angle_preserving_gadget(1.0, 0.0)
    assert res.verdict == "NoViolation"
    assert np.max(np.abs(res.final_schmidt - res.initial_schmidt)) < 1e-9
    _report(7, "angle-preserving anchors: flip and Hadamard incomparable, identity silent")


def _bisect(fn, lo, hi, iters=60):
    flo = fn(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_08_werner_thresholds():
    ppt_flip = _bisect(lambda p: min(eigvals_hermitian(partial_transpose(werner(p), (2, 2), [1]))), 0.0, 1.0)
    assert abs(ppt_flip - 1 / 3) < 1e-6
    chsh_flip = _bisect(lambda p: 1.0 - chsh_M(werner(p)), 0.0, 1.0)
    assert abs(chsh_flip - S2) < 1e-6
    for p in np.linspace(0, 1, 100):
        assert abs(concurrence_2q(werner(p)) - max(0.0, (3 * p - 1) / 2)) < 1e-8
    _report(8, "werner PPT flips at 1/3, CHSH at 1/sqrt(2), concurrence matches the line")


def test_criterion_09_be_family():
    for n in (4, 6, 8):
        fam = be_family(n)
        direct = be_family_direct(n)
        for lab in LABELS:
            assert np.max(np.abs(fam.states[lab] - direct.states[lab])) < 1e-12
        rep = verify_family(fam)
        assert rep.orthogonal and rep.permutation_symmetric
        assert rep.pauli_connected and rep.reduced_max_mixed
        evens = [m for _, cut, m in rep.cut_evidence if len(cut) > 1]
        singles = [m for _, cut, m in rep.cut_evidence if len(cut) == 1]
        assert min(evens) >= -1e-9
        assert max(singles) < -1e-6
        for lab in LABELS:
            for o in unlock(fam, lab):
                assert abs(o["probability"] - 0.25) <= 1e-9
                assert o["fidelity"] >= 1 - 1e-9
                assert o["predicted_bell"] == PAIRING[lab][o["outcome"]]
    _report(9, "family checks at n=4,6,8: construction, cuts, reductions, unlocking")


def test_criterion_10_horodecki_and_tiles():
    from entanglia.bound_entangled import horodecki_insep, horodecki_state

    for a in np.linspace(0.1, 0.9, 9):
        assert eigvals_hermitian(partial_transpose(horodecki_state(a), (3, 3), [1]))[-1] >= -1e-9
    assert eigvals_hermitian(partial_transpose(horodecki_insep(), (3, 3), [1]))[-1] < -1e-9
    comp = upb_complement()
    assert eigvals_hermitian(partial_transpose(comp, (3, 3), [1]))[-1] >= -1e-9
    assert int(np.sum(eigvals_hermitian(comp) > 1e-12)) == 4
    assert upb_unextendibility_score(trials=64, seed=0) < 1 - 1e-3
    assert upb_unextendibility_score(trials=64, seed=0, states=tiles_upb()[:4]) > 1 - 1e-9
    _report(10, "3x3 bound entangled state PPT on the grid; tiles complement behaves")


def test_criterion_11_hiding_demo():
    for n in (4, 6):
        rep = run_demo(n, trials=100, seed=2026, shots=500)
        assert rep["unlock_rate"] == 1.0
        assert rep["family_leak_rate"] == 1.0
        assert abs(rep["pm_bit_rate"] - 0.5) <= 0.05
        fam = be_family(n)
        assert np.array_equal(
            string_distribution(fam.states["rho+"]), string_distribution(fam.states["rho-"])
        )
        for s in range(4):
            h = hide(s, n, family=fam)
            assert max(trace_security(h, p) for p in range(n)) <= 1e-9
    _report(11, "hiding demo at n=4,6: perfect decode, deterministic leak, blind +/- bit")


def test_criterion_12_property_suites():
    rng = rng_for("accept-props")

    # majorization axioms
    for k in range(50):
        d = int(rng.integers(2, 7))
        x = random_prob(d, rng)
        assert majorizes(x, x)
        assert majorizes(np.full(d, 1 / d), x)
        assert majorizes(x, np.eye(1, d, 0).reshape(-1))
        z = random_prob(d, rng)
        y = random_doubly_stochastic(d, rng) @ z
        w = random_doubly_stochastic(d, rng) @ y
        assert majorizes(y, z) and majorizes(w, y) and majorizes(w, z)
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2
        assert majorizes(np.diagonal(h).real, np.linalg.eigvalsh(h))  # Schur
        sigma = random_density(d, rng)
        u = random_unitary(d, rng)
        mix = 0.5 * sigma + 0.5 * u @ sigma @ u.conj().T
        assert spectra_majorized(mix, sigma)  # Uhlmann direction

    # entropy inequalities on random two-qubit and qubit-qutrit states
    from entanglia.linalg import partial_trace

    for dims in ((2, 2), (2, 3)):
        d = dims[0] * dims[1]
        for k in range(25):
            rho = random_density(d, rng)
            s_ab = von_neumann_entropy(rho)
            s_a = von_neumann_entropy(partial_trace(rho, dims, [0]))
            s_b = von_neumann_entropy(partial_trace(rho, dims, [1]))
            assert s_ab <= s_a + s_b + 1e-9
            assert s_ab >= abs(s_a - s_b) - 1e-9
    for k in range(15):
        w = rng.dirichlet(np.ones(3))
        rhos = [random_density(4, rng) for _ in range(3)]
        mix = sum(wi * ri for wi, ri in zip(w, rhos))
        assert von_neumann_entropy(mix) >= sum(
            wi * von_neumann_entropy(ri) for wi, ri in zip(w, rhos)
        ) - 1e-9
    for k in range(15):
        rho = random_density(4, rng)
        u = random_unitary(4, rng)
        probs = np.array([float((u[:, j].conj() @ rho @ u[:, j]).real) for j in range(4)])
        assert shannon(probs / probs.sum()) >= von_neumann_entropy(rho) - 1e-9

    # Peres-Horodecki iff concurrence-zero on 500 random two-qubit densities
    for k in range(500):
        rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
        assert is_ppt(rho, (2, 2), [1])[0] == (concurrence_2q(rho) <= 1e-8)

    # first/last coefficient theorem on 1000 random incomparable pairs
    hits = 0
    while hits < 1000:
        d = int(rng.integers(3, 7))
        a, b = random_prob(d, rng), random_prob(d, rng)
        if compare(a, b) is MajVerdict.Incomparable:
            hits += 1
            assert a[0] + b[-1] < 1 and b[0] + a[-1] < 1
    _report(12, "axiom, entropy, Peres-Horodecki and incomparability suites: zero failures")
