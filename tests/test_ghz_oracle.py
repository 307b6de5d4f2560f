"""The GHZ-diagonal core of the bound entangled family against dense oracles.

Each oracle below computes on the dense 2^n x 2^n matrices what the library
reads off the two vectors (d, o): the kron recursion, the support projector
sums, per-cut partial_transpose + eigvalsh, and the matrix products of
unlock, the Pauli connection, orthogonality and the hiding marginals.  They
run at n <= 8 only.  The kron-sum recursion on (d, o) itself, which the
stacked one in `be_family` replaced, is kept as a bit-exact oracle up to
n = 10.
"""

import dataclasses
import math
import warnings
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import rng_for
from entanglia import hiding
from entanglia.bound_entangled import (
    LABELS,
    PAIRING,
    PAULI_CONNECTION,
    BEFamily,
    FamilyReport,
    _pauli_conjugate,
    _support_parts,
    be_family,
    be_family_direct,
    even_cuts,
    ghz_dense,
    ghz_overlap,
    ghz_parts,
    pt_min_eigenvalues,
    reduced_diagonal,
    support_strings,
    unlock,
    verify_family,
)
from entanglia.errors import NotDyadic, NotGHZDiagonal
from entanglia.family_classes import verify_classes
from entanglia.hiding import CODEBOOK, decode_by_unlock, decode_global, hide, trace_security
from entanglia.linalg import (
    eigvals_hermitian,
    kron,
    partial_trace,
    partial_transpose,
    projector,
    trace_norm,
)
from entanglia.states import ID2, bell

BELLS = ("phi+", "phi-", "psi+", "psi-")
# Two float64 routes to an O(1) number: a few hundred ulps apart at most.
TOL = 1e-14


def support_vectors(n):
    """The four orthonormal support sets (|p> +/- |pbar>)/sqrt(2)."""
    out = {}
    for fam, pairs in support_strings(n).items():
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            vecs = []
            for p, pbar in pairs:
                v = np.zeros(1 << n, dtype=complex)
                v[p] = 1.0 / np.sqrt(2.0)
                v[pbar] = sign / np.sqrt(2.0)
                vecs.append(v)
            out[fam + tag] = vecs
    return out


# Exact (d, o) of the four Bell projectors: d[q] = P[q, q], o[q] = P[q, qbar].
EXACT_BELL_PARTS = {
    "phi+": (np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.5, 0.0, 0.0, 0.5])),
    "phi-": (np.array([0.5, 0.0, 0.0, 0.5]), np.array([-0.5, 0.0, 0.0, -0.5])),
    "psi+": (np.array([0.0, 0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5, 0.0])),
    "psi-": (np.array([0.0, 0.5, 0.5, 0.0]), np.array([0.0, -0.5, -0.5, 0.0])),
}


def kron_recursive_parts(n):
    """(d, o) per label by the kron sum over outcomes, one label and one
    vector at a time, from the exact Bell parts."""
    bells = EXACT_BELL_PARTS
    parts = {lab: bells[PAIRING["rho+"][lab]] for lab in LABELS}
    for _ in range(n // 2 - 1):
        parts = {
            lab: tuple(
                sum(np.kron(parts[out][i], bells[PAIRING[lab][out]][i]) for out in LABELS) / 4.0
                for i in (0, 1)
            )
            for lab in LABELS
        }
    return parts


def dense_recursive(n):
    bells = {k: projector(bell(k)) for k in BELLS}

    def mix(pairs):
        return sum(kron(bells[x], bells[y]) for x, y in pairs) / 4.0

    states = {
        "rho+": mix([("phi+", "phi+"), ("phi-", "phi-"), ("psi+", "psi+"), ("psi-", "psi-")]),
        "rho-": mix([("phi+", "phi-"), ("phi-", "phi+"), ("psi+", "psi-"), ("psi-", "psi+")]),
        "sigma+": mix([("phi+", "psi+"), ("phi-", "psi-"), ("psi+", "phi+"), ("psi-", "phi-")]),
        "sigma-": mix([("phi+", "psi-"), ("phi-", "psi+"), ("psi+", "phi-"), ("psi-", "phi+")]),
    }
    for _ in range((n - 4) // 2):
        states = {
            lab: sum(kron(states[out], bells[PAIRING[lab][out]]) for out in LABELS) / 4.0
            for lab in LABELS
        }
    return states


def dense_direct(n):
    sup = support_vectors(n)
    return {lab: sum(projector(v) for v in sup[lab]) / len(sup[lab]) for lab in LABELS}


def dense_pt_min(rho, cut):
    n = rho.shape[0].bit_length() - 1
    return float(eigvals_hermitian(partial_transpose(rho, (2,) * n, cut))[-1])


def dense_unlock(rho, label):
    n = rho.shape[0].bit_length() - 1
    outcomes = []
    for out_label in LABELS:
        proj = sum(projector(v) for v in support_vectors(n - 2)[out_label])
        op = kron(proj, np.eye(4))
        prob = float(np.trace(op @ rho).real)
        cond = partial_trace(op @ rho @ op, (2,) * n, keep=[n - 2, n - 1])
        outcomes.append((prob, cond / np.trace(cond).real))
    return outcomes


def kron_all(mats):
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_pauli(rho, u, k):
    n = rho.shape[0].bit_length() - 1
    full = kron_all([u if j == k else ID2 for j in range(n)])
    return full @ rho @ full.conj().T


def dense_trace_security(rho, party):
    n = rho.shape[0].bit_length() - 1
    keep = [i for i in range(n) if i != party]
    flat = np.eye(1 << (n - 1)) / (1 << (n - 1))
    return trace_norm(partial_trace(rho, (2,) * n, keep) - flat)


def random_ghz(n, rng):
    """A random GHZ-diagonal density matrix with complex anti-diagonal."""
    dim = 1 << n
    d = rng.random(dim)
    o = (rng.random(dim) - 0.5 + 1j * (rng.random(dim) - 0.5)) * np.minimum(d, d[::-1])
    o[dim // 2:] = o[: dim // 2][::-1].conj()  # hermitian: o[qbar] = conj(o[q])
    rho = ghz_dense(d, o)
    return rho / np.trace(rho).real


def all_cuts(n):
    """Every bipartition, named by the side holding qubit 0."""
    return [tuple(j for j in range(n) if mask >> j & 1) for mask in range(1, (1 << n) - 1, 2)]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_builders_match_dense_oracles(n):
    rec, direct = be_family(n), be_family_direct(n)
    ref_rec, ref_direct = dense_recursive(n), dense_direct(n)
    assert tuple(rec.states) == LABELS and tuple(direct.states) == LABELS
    for lab in LABELS:
        assert rec.states[lab].shape == (1 << n, 1 << n)
        assert np.max(np.abs(rec.states[lab] - ref_rec[lab])) <= TOL
        assert np.max(np.abs(direct.states[lab] - ref_direct[lab])) <= TOL


def test_exact_bell_parts_are_the_bell_projectors():
    for k, (d, o) in EXACT_BELL_PARTS.items():
        dense_d, dense_o = ghz_parts(projector(bell(k)))
        assert np.max(np.abs(d - dense_d)) <= TOL and np.max(np.abs(o - dense_o)) <= TOL


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_stacked_recursion_is_bit_exact(n):
    fam, want = be_family(n), kron_recursive_parts(n)
    for lab in LABELS:
        for got, ref in zip(fam.parts[lab], want[lab]):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            for a, b in ((got.real, ref.real), (got.imag, ref.imag)):
                assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_both_constructions_are_exact_and_the_same(n):
    rec, direct = be_family(n), be_family_direct(n)
    unit = 2.0 ** (1 - n)
    for lab in LABELS:
        for got, want in zip(rec.parts[lab], direct.parts[lab]):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert set(np.unique(got).tolist()) <= {0.0, unit, -unit}
    # so the evidence is exact: each 1:(n-1) cut's PT minimum is -2^(1-n),
    # each even:even cut's 0, and every marginal is flat
    rep = verify_family(rec)
    assert {m for _, cut, m in rep.cut_evidence if len(cut) == 1} == {-unit}
    assert {m for _, cut, m in rep.cut_evidence if len(cut) > 1} == {0.0}
    assert {trace_security(hide(s, n, family=rec), p) for s in range(4) for p in range(n)} == {0.0}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_pt_minimum_equals_eigvalsh(n):
    fam = be_family(n)
    cuts = all_cuts(n) if n < 8 else even_cuts(n) + [(j,) for j in range(n)]
    for lab in LABELS:
        got = pt_min_eigenvalues(ghz_parts(fam.states[lab]), cuts)
        want = [dense_pt_min(fam.states[lab], cut) for cut in cuts]
        assert np.max(np.abs(got - want)) <= TOL
    evidence = verify_family(fam).cut_evidence
    assert all(abs(m - dense_pt_min(fam.states[lab], cut)) <= TOL for lab, cut, m in evidence[::7])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ghz_formulas_on_random_states(n):
    rng = rng_for("ghz-random", n)
    rho, sigma = random_ghz(n, rng), random_ghz(n, rng)
    parts = ghz_parts(rho)
    assert np.array_equal(ghz_dense(*parts), rho)
    got = pt_min_eigenvalues(parts, all_cuts(n))
    assert np.max(np.abs(got - [dense_pt_min(rho, cut) for cut in all_cuts(n)])) <= TOL
    assert abs(ghz_overlap(parts, ghz_parts(sigma)) - np.trace(rho @ sigma).real) <= TOL
    for j in range(n):
        red = partial_trace(rho, (2,) * n, [i for i in range(n) if i != j])
        assert np.max(np.abs(red - np.diag(reduced_diagonal(parts[0], j)))) <= TOL
        for u in PAULI_CONNECTION.values():
            want = ghz_parts(dense_pauli(rho, u, j))
            got = _pauli_conjugate(parts, u, j)
            assert all(np.max(np.abs(g - w)) <= TOL for g, w in zip(got, want))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_unlock_matches_dense(n):
    fam = be_family(n)
    for lab in LABELS:
        outs = unlock(fam, lab)
        assert [o["outcome"] for o in outs] == list(LABELS)
        for o, (prob, cond) in zip(outs, dense_unlock(fam.states[lab], lab)):
            assert abs(o["probability"] - prob) <= TOL
            assert np.max(np.abs(o["conditional"] - cond)) <= TOL


@pytest.mark.parametrize("n", [4, 6, 8])
def test_family_checks_match_dense(n):
    fam = be_family(n)
    parts = {lab: ghz_parts(fam.states[lab]) for lab in LABELS}
    for x in LABELS:
        for y in LABELS:
            want = np.trace(fam.states[x] @ fam.states[y]).real
            assert abs(ghz_overlap(parts[x], parts[y]) - want) <= TOL
    for lab in LABELS:
        for k in (0, n - 1):
            conj = dense_pauli(fam.states["rho+"], PAULI_CONNECTION[lab], k)
            assert np.max(np.abs(conj - fam.states[lab])) <= TOL


@pytest.mark.parametrize("n", [4, 6, 8])
def test_hiding_matches_dense(n):
    fam = be_family(n)
    for s, lab in CODEBOOK.items():
        h = hide(s, n, family=fam)
        for p in range(n):
            assert abs(trace_security(h, p) - dense_trace_security(h.state, p)) <= TOL
        # a noisy, partly mixed-in state still decodes by the dense argmax
        other = fam.states[CODEBOOK[(s + 1) % 4]]
        h.state = 0.6 * fam.states[lab] + 0.3 * other + 0.1 * np.eye(1 << n) / (1 << n)
        dense = {t: np.trace(fam.states[m] @ h.state).real for t, m in CODEBOOK.items()}
        assert decode_global(h) == max(dense, key=dense.get) == s
        for p in range(n):
            assert abs(trace_security(h, p) - dense_trace_security(h.state, p)) <= TOL


def test_full_verify_n10():
    rep = verify_family(be_family(10))
    assert len(rep.cut_evidence) == 4 * (255 + 10) == 4 * (len(even_cuts(10)) + 10)
    assert rep.all_pass
    assert min(m for _, cut, m in rep.cut_evidence if len(cut) > 1) >= -1e-9
    assert max(m for _, cut, m in rep.cut_evidence if len(cut) == 1) < -1e-6


def test_off_structure_entry_rejected():
    fam = be_family(6)
    with pytest.raises(TypeError):
        fam.states["sigma+"] = fam.states["sigma+"].copy()
    with pytest.raises(ValueError):
        fam.states["sigma+"][3, 5] = 1e-3
    h = hide(2, 6, family=fam)
    h.state = fam.states["sigma+"].copy()
    h.state[3, 5] = 1e-3
    with pytest.raises(NotGHZDiagonal, match="1 nonzero"):
        trace_security(h, 0)
    with pytest.raises(NotGHZDiagonal, match="1 nonzero"):
        decode_global(h)
    for bad in (np.eye(6), np.ones(4), np.zeros((1, 1)), np.zeros((4, 8))):
        with pytest.raises(NotGHZDiagonal):
            ghz_parts(bad)


# ---------------------------------------------------------------------------
# The loop-based family checks and unlock that the stacked ones replaced,
# kept as bit-exact oracles; like verify_family, they compare exact values.


def loop_pt_min_eigenvalues(parts, cuts):
    d, o = parts
    n = d.size.bit_length() - 1
    masks = np.array([sum(1 << (n - 1 - k) for k in cut) for cut in cuts])
    c2 = (o * o.conj()).real[np.arange(d.size) ^ masks[:, None]]
    mean = (d + d[::-1]) / 2  # d[::-1][r] = d[rbar]
    half = (d - d[::-1]) / 2
    return (mean - np.sqrt(half * half + c2)).min(axis=1)


def loop_verify_family(fam):
    n = fam.n_qubits
    parts = fam.parts

    orthogonal = all(ghz_overlap(parts[x], parts[y]) == 0 for i, x in enumerate(LABELS) for y in LABELS[i + 1:])

    def swap(v, k):  # exchange qubits k and k + 1
        return np.swapaxes(v.reshape((2,) * n), k, k + 1).reshape(-1)

    permutation_symmetric = all(
        np.array_equal(swap(v, k), v)
        for k in range(n - 1)
        for pair in parts.values()
        for v in pair
    )

    cuts = even_cuts(n) + [(j,) for j in range(n)]
    mins = {lab: loop_pt_min_eigenvalues(parts[lab], cuts) for lab in LABELS}
    evidence = [(lab, cut, float(mins[lab][i])) for i, cut in enumerate(cuts) for lab in LABELS]
    even_cut_ppt = all(m >= 0 for _, cut, m in evidence if len(cut) > 1)
    single_vs_rest_npt = all(m < 0 for _, cut, m in evidence if len(cut) == 1)

    pauli_connected = all(
        np.array_equal(got, want)
        for k in (0, n - 1)
        for lab in LABELS
        for got, want in zip(_pauli_conjugate(parts["rho+"], PAULI_CONNECTION[lab], k), parts[lab])
    )

    flat = 1.0 / (1 << (n - 1))
    reduced_max_mixed = all(
        (reduced_diagonal(d, j) == flat).all()
        for j in range(n)
        for d, _ in parts.values()
    )

    unlock_ok = all(
        out["probability"] == 0.25
        and np.array_equal(out["conditional"], ghz_dense(*EXACT_BELL_PARTS[out["predicted_bell"]]))
        for lab in LABELS
        for out in loop_unlock(fam, lab)
    )

    return FamilyReport(
        n_qubits=n,
        orthogonal=orthogonal,
        permutation_symmetric=permutation_symmetric,
        even_cut_ppt=even_cut_ppt,
        single_vs_rest_npt=single_vs_rest_npt,
        pauli_connected=pauli_connected,
        reduced_max_mixed=reduced_max_mixed,
        unlock_ok=unlock_ok,
        cut_evidence=evidence,
    )


def loop_unlock(fam, label):
    n = fam.n_qubits
    d, o = (v.reshape(-1, 4) for v in fam.parts[label])
    outcomes = []
    for out_label in LABELS:
        pd, po = _support_parts(n - 2, out_label)
        prob = float(np.sum(pd @ d))
        cond = ghz_dense(pd @ d, po[::-1] @ o) / prob  # po[::-1][x] = P[xbar, x]
        predicted = PAIRING[label][out_label]
        b = bell(predicted)
        outcomes.append(
            {
                "outcome": out_label,
                "probability": prob,
                "predicted_bell": predicted,
                "fidelity": float((b.conj() @ cond @ b).real),
                "conditional": cond,
            }
        )
    return outcomes


def loop_decode_by_unlock(h, seed):
    """The unlock decode as it ran before the family memo: the held state's
    unlock by loop_unlock, the outcome by Generator.choice, and the Bell
    state of highest fidelity among all four."""
    held = SimpleNamespace(n_qubits=h.n_qubits, parts={h.label: h.parts})
    outs = loop_unlock(held, h.label)
    probs = np.array([o["probability"] for o in outs])
    picked = np.random.default_rng(seed).choice(len(LABELS), p=probs / probs.sum())
    cond = outs[picked]["conditional"]
    observed = BELLS[int(np.argmax([(bell(k).conj() @ cond @ bell(k)).real for k in BELLS]))]
    for secret, lab in CODEBOOK.items():
        if PAIRING[lab][LABELS[picked]] == observed:
            return secret


CHECKS = (
    "orthogonal",
    "permutation_symmetric",
    "even_cut_ppt",
    "single_vs_rest_npt",
    "pauli_connected",
    "reduced_max_mixed",
    "unlock_ok",
)
BUILDERS = {"recursive": be_family, "direct": be_family_direct}


def assert_same_report(got, want):
    assert repr(got) == repr(want)
    assert [(lab, cut) for lab, cut, _ in got.cut_evidence] == [(lab, cut) for lab, cut, _ in want.cut_evidence]
    got_m = np.array([m for *_, m in got.cut_evidence])
    want_m = np.array([m for *_, m in want.cut_evidence])
    assert np.array_equal(got_m, want_m) and np.array_equal(np.signbit(got_m), np.signbit(want_m))


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_stacked_verify_matches_loop_oracle(build, n):
    fam = BUILDERS[build](n)
    full = loop_verify_family(fam)
    assert full.all_pass
    assert_same_report(verify_family(fam), full)
    # quick omits the per-cut list only: its PPT flags are the full ones
    quick = verify_family(fam, quick=True)
    assert quick.cut_evidence == []
    assert all(getattr(quick, c) == getattr(full, c) for c in CHECKS)


def assert_same_unlock(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert list(g) == list(w)
        assert {k: g[k] for k in ("outcome", "predicted_bell")} == {k: w[k] for k in ("outcome", "predicted_bell")}
        for key in ("probability", "fidelity"):
            assert type(g[key]) is float and repr(g[key]) == repr(w[key])
        assert g["conditional"].dtype == w["conditional"].dtype
        assert g["conditional"].shape == w["conditional"].shape == (4, 4)
        assert g["conditional"].tobytes() == w["conditional"].tobytes()


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_stacked_unlock_matches_loop_oracle(build, n):
    fam = BUILDERS[build](n)
    for lab in LABELS:
        assert_same_unlock(unlock(fam, lab), loop_unlock(fam, lab))


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_unlock_memo_serves_every_reader_bit_for_bit(build, n):
    """unlock, both verifies and decode_by_unlock read one memo, whichever
    of them builds it."""
    fam = BUILDERS[build](n)
    want = loop_verify_family(fam)
    assert "_unlock" not in fam.__dict__
    assert_same_unlock(unlock(fam, "sigma-"), loop_unlock(fam, "sigma-"))
    memo = fam.__dict__["_unlock"]
    assert_same_report(verify_family(fam), want)
    assert all(getattr(verify_family(fam, quick=True), c) == getattr(want, c) for c in CHECKS)
    for s, lab in CODEBOOK.items():
        assert_same_unlock(unlock(fam, lab), loop_unlock(fam, lab))
        h = hide(s, n, family=fam)
        for seed in (0, 1, 2**40 + 3, (5, 2), (17, 0, 2)):
            assert decode_by_unlock(h, seed) == loop_decode_by_unlock(h, seed) == s
    assert fam.__dict__["_unlock"] is memo


def phi_plus_after_each_outcome(n, rng):
    """A GHZ-diagonal state that leaves phi+ on the last pair after every
    unlock outcome, with a little random GHZ-diagonal noise: the rho
    outcomes decode to secret 0 and the sigma ones to 2, at uneven
    probabilities, so every draw shows in the decoded secret."""
    phi = ghz_parts(projector(bell("phi+")))
    weights = rng.dirichlet(np.ones(2))
    d, o = (
        sum(w * np.kron(_support_parts(n - 2, out)[i], phi[i]) for w, out in zip(weights, ("rho+", "sigma+")))
        for i in (0, 1)
    )
    rho = ghz_dense(d, o)
    return 0.9 * rho / np.trace(rho).real + 0.1 * random_ghz(n, rng)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_decode_of_an_assigned_matrix_matches_loop_oracle(n):
    fam = be_family(n)
    rng = rng_for("decode-assigned", n)
    for s in range(4):
        h = hide(s, n, family=fam)
        h.state = phi_plus_after_each_outcome(n, rng)
        got = [decode_by_unlock(h, seed) for seed in range(200)]
        assert got == [loop_decode_by_unlock(h, seed) for seed in range(200)]
        assert set(got) == {0, 2}
    assert "_unlock" not in fam.__dict__  # an assigned matrix never reads the memo


def test_family_memo_cannot_go_stale():
    fam = be_family(6)
    with pytest.raises(TypeError):
        fam.parts["rho+"] = fam.parts["rho-"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.parts = {}
    for d, o in fam.parts.values():
        assert not d.flags.writeable and not o.flags.writeable
    want = loop_unlock(fam, "rho+")
    got = unlock(fam, "rho+")
    for out in got:
        with pytest.raises(ValueError):
            out["conditional"][0, 0] = 1.0
    with pytest.raises(ValueError):
        fam._unlock.probability[0, 0] = 1.0
    assert_same_unlock(unlock(fam, "rho+"), want)


def _flip_o(d, o):  # rho- turns into rho+
    return d, -o


def _off_orbit(d, o):  # weight moved from 0011 to 0010, another weight class
    d[2], d[3] = d[2] + d[3], 0.0
    return d, o


def _ghz(d, o):  # the pure GHZ state, one support vector of rho+
    d, o = np.zeros_like(d), np.zeros_like(o)
    d[[0, -1]] = o[[0, -1]] = 0.5
    return d, o


def _non_flat(d, o):  # symmetric, but the marginals tilt toward 0...0
    e = d[0] / 4
    d[0], d[-1] = d[0] + e, d[-1] - e
    return d, o


def _mixed(d, o):  # maximally mixed: PPT on every cut
    return np.full_like(d, 1.0 / d.size), np.zeros_like(o)


def _twist(d, o):  # complex anti-diagonal, still hermitian
    o = o.astype(complex)
    o[: o.size // 2] *= 1j
    o[o.size // 2:] *= -1j
    return d, o


def _last_pair(d, o):  # a weight on 0...01 that only the swap of the last two qubits moves
    d[1] += d.max() / 4
    return d, o


def _last_marginal(d, o):
    """A tilt that only tracing out the last qubit shows: on the strings
    ending in 0, +/- by the parity of the other bits."""
    q = np.arange(0, d.size, 2)
    d[q] += d.max() / 4 * (-1.0) ** np.bitwise_count(q)
    return d, o


def _one_cut_npt(d, o):
    """A coupling on 0...0 that only the cut {0, 2} leaves unbalanced:
    every cut of size 2 but that one pairs it with raised diagonals."""
    n = d.size.bit_length() - 1
    e = d[0] / 8
    o[[0, -1]] += e
    for cut in even_cuts(n):
        if cut != (0, 2):
            mask = sum(1 << (n - 1 - k) for k in cut)
            d[[mask, mask ^ (d.size - 1)]] += e
    return d, o


TAMPERS = {
    "flip_o": ("rho-", _flip_o),
    "off_orbit": ("rho+", _off_orbit),
    "ghz": ("rho+", _ghz),
    "non_flat": ("rho+", _non_flat),
    "mixed": ("rho+", _mixed),
    "twist": ("sigma+", _twist),
    "last_pair": ("rho-", _last_pair),
    "last_marginal": ("sigma-", _last_marginal),
    "one_cut_npt": ("rho+", _one_cut_npt),
}


def tampered(n, name):
    fam = be_family(n)
    label, change = TAMPERS[name]
    parts = dict(fam.parts)
    parts[label] = change(*(v.copy() for v in parts[label]))
    return BEFamily(n, parts)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("label", LABELS)
def test_unlock_table_keeps_each_rows_dtype(n, label):
    """A complex anti-diagonal in one row makes the family's o stack, every
    row's o and every unlock conditional complex128, and every row stays
    equal to the loop oracle's."""
    parts = dict(be_family(n).parts)
    parts[label] = _twist(*(v.copy() for v in parts[label]))
    fam = BEFamily(n, parts)
    assert fam.o.dtype == fam._unlock.conditional.dtype == np.complex128
    assert all(fam.parts[lab][1].dtype == np.complex128 for lab in LABELS)
    for lab in LABELS:
        assert_same_unlock(unlock(fam, lab), loop_unlock(fam, lab))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_tampered_families_fail_where_the_oracle_does(n):
    failed = set()
    for name in TAMPERS:
        fam = tampered(n, name)
        with np.errstate(divide="ignore", invalid="ignore"):  # the oracle divides by an outcome of probability 0
            want = loop_verify_family(fam)
        got, quick = verify_family(fam), verify_family(fam, quick=True)
        assert_same_report(got, want)
        assert quick.cut_evidence == []
        assert all(getattr(quick, c) == getattr(want, c) for c in CHECKS), name
        failed |= {c for c in CHECKS if not getattr(want, c)}
        for s, lab in CODEBOOK.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                want_unlock = loop_unlock(fam, lab)
                want_secrets = [loop_decode_by_unlock(hide(s, n, family=fam), seed) for seed in range(5)]
            assert_same_unlock(unlock(fam, lab), want_unlock)
            h = hide(s, n, family=fam)
            assert [decode_by_unlock(h, seed) for seed in range(5)] == want_secrets, (name, s)
    assert failed == set(CHECKS)


@pytest.mark.parametrize("n", [4, 6])
def test_pauli_connection_is_checked_on_both_end_qubits(n):
    """Rows made from an asymmetric rho+ by the Pauli connection on one end
    qubit connect there but not on the other, and the check fails as the
    oracle's does."""
    rho = tampered(n, "one_cut_npt").parts["rho+"]
    for k in (0, n - 1):
        fam = BEFamily(n, {lab: _pauli_conjugate(rho, PAULI_CONNECTION[lab], k) for lab in LABELS})
        with np.errstate(divide="ignore", invalid="ignore"):  # the oracle divides by an outcome of probability 0
            want = loop_verify_family(fam)
        assert not want.pauli_connected
        assert_same_report(verify_family(fam), want)


def test_zero_probability_outcome_is_nan_and_never_drawn():
    """The GHZ state in place of rho+ leaves two unlock outcomes at
    probability 0: they condition to NaN without a numpy warning, and no
    decode draws them."""
    fam = tampered(4, "ghz")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = unlock(fam, "rho+")
        h = hide(0, 4, family=fam)
        cdf, secrets = hiding._decode_table(*h._unlock_row())
        drawn = {int(hiding._draw(cdf, seed)) for seed in range(1000)}
        decoded = {decode_by_unlock(h, seed) for seed in range(1000)}
    zero = {i for i, out in enumerate(outs) if out["probability"] == 0.0}
    assert zero and drawn and not zero & drawn
    assert all(np.isnan(outs[i]["conditional"]).all() and np.isnan(outs[i]["fidelity"]) for i in zero)
    assert decoded == {secrets[i] for i in drawn}


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("part", ["d", "o"])
def test_nan_at_an_end_fails_the_symmetry(n, part):
    """No adjacent swap moves the entries at 0...0 and 1...1; a NaN there
    still fails permutation symmetry, as in the loop oracle, so the gate
    reads every entry and rejects the family before any check runs."""
    for q in (0, (1 << n) - 1):
        parts = dict(be_family(n).parts)
        d, o = (v.copy() for v in parts["rho+"])
        (d if part == "d" else o)[q] = np.nan
        parts["rho+"] = (d, o)
        fam = BEFamily(n, parts)
        with np.errstate(invalid="ignore"):
            assert not loop_verify_family(fam).permutation_symmetric
        for quick in (False, True):
            with pytest.raises(NotDyadic, match="nan"):
                verify_family(fam, quick=quick)
        assert "_unlock" not in fam.__dict__


def random_symmetric_classes(n, rng):
    """Class values (D, O) of four random states, four rows of n + 1 ints
    each in units of 4^-n, with cd[w] != cd[n - w], so that PT blocks have
    unequal diagonals.  The couplings are drawn up to a bound per family,
    about half the time below every diagonal entry, so some families are
    PPT on every cut and others are not."""
    quarter = 1 << (2 * n - 2)  # 1/4 in units of 4^-n
    bound = int(rng.integers(1, 2 * quarter))
    d, o = [], []
    for _ in LABELS:
        cd, co = rng.integers(quarter, 2 * quarter, n + 1), rng.integers(-bound, bound + 1, n + 1)
        assert (cd != cd[::-1]).any()
        d.append(cd.tolist())
        o.append(co.tolist())
    return d, o


def from_classes(n, d, o):
    """The hand-built family whose stacks hold class values d and o."""
    weight = np.bitwise_count(np.arange(1 << n))
    rows = (tuple(np.array(row, dtype=float)[weight] * 4.0**-n for row in pair) for pair in zip(d, o))
    return BEFamily(n, dict(zip(LABELS, rows)))


def random_symmetric_family(n, rng):
    """The hand-built family of random_symmetric_classes, on the 4^-n grid."""
    return from_classes(n, *random_symmetric_classes(n, rng))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_random_symmetric_families_match_the_loop_oracle(n):
    """The class checks on the class values and the stack checks on the
    hand-built family, each against the loop oracle, on states that no
    family member resembles: every flag, evidence value and sign bit."""
    rng = rng_for("symmetric-classes", n)
    for _ in range(3):
        d, o = random_symmetric_classes(n, rng)
        fam = from_classes(n, d, o)
        want = loop_verify_family(fam)
        got = verify_classes(n, d, o)
        assert got.permutation_symmetric
        assert_same_report(got, want)
        assert_same_report(verify_family(fam), want)
        quick = verify_family(fam, quick=True)
        assert quick.cut_evidence == []
        assert all(getattr(quick, c) == getattr(want, c) for c in CHECKS)


def test_quick_checks_every_cut_when_the_symmetry_fails():
    fam = tampered(4, "one_cut_npt")
    rep = verify_family(fam)
    assert not rep.permutation_symmetric and not rep.even_cut_ppt
    npt = {cut for lab, cut, m in rep.cut_evidence if len(cut) > 1 and m < 0}
    assert npt == {(0, 2)}  # the representative cut (0, 1) alone would miss it
    assert not verify_family(fam, quick=True).even_cut_ppt


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_representative_cut_is_exact(build, n):
    """Every cut of one size has the same PT minimum, bit for bit, so
    quick's one cut per size gives exactly the minima of all cuts."""
    rep = verify_family(BUILDERS[build](n))
    assert rep.permutation_symmetric
    minima = {}
    for _, cut, m in rep.cut_evidence:
        minima.setdefault(len(cut), set()).add(m.hex())  # hex tells -0.0 from 0.0
    assert sorted(minima) == [1] + list(range(2, n - 1, 2))
    assert all(len(found) == 1 for found in minima.values()), minima


# ---------------------------------------------------------------------------
# Changes of one or two ulps of the entries 2^(1-n), which the removed
# tolerances of the symmetry (1e-12), Pauli (1e-9), marginal (1e-12) and
# unlock (1e-9) checks accepted: each leaves the 4^-n grid, so the dyadic
# gate rejects it before any check runs.


def _asymmetric(parts, n, eps):
    """rho+ with its anti-diagonal raised by eps at 0...0 and lowered at
    110...0, each with the strings that complementing and flipping the end
    qubits pair it with; the siblings are its Pauli conjugates.  Each unlock
    sum gains eps and loses it, but strings of one weight now differ."""
    d, o = (v.copy() for v in parts["rho+"])
    top, ends = (1 << n) - 1, (1 << (n - 1)) | 1
    for q, step in ((0, eps), (3 << (n - 2), -eps)):
        o[[q, q ^ ends, q ^ top, q ^ top ^ ends]] += step
    return {lab: tuple(np.real(v) for v in _pauli_conjugate((d, o), PAULI_CONNECTION[lab], 0)) for lab in LABELS}


def _white_noise(parts, n, eps, labels=LABELS):
    """Each member mixed with eps 2^n of I / 2^n."""
    parts = dict(parts)
    for lab in labels:
        d, o = parts[lab]
        parts[lab] = (np.where(d > 0, d - eps, eps), o - 2 * eps * np.sign(o))
    return parts


def _one_noisy_member(parts, n, eps):
    return _white_noise(parts, n, eps, labels=("sigma-",))


def _off_support(parts, n, eps):
    """eps on every diagonal entry off each member's support."""
    return {lab: (np.where(d > 0, d, eps), o) for lab, (d, o) in parts.items()}


FEW_ULP = {
    "asymmetric": _asymmetric,
    "one_noisy_member": _one_noisy_member,
    "off_support": _off_support,
    "white_noise": _white_noise,
}


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("name", sorted(FEW_ULP))
def test_few_ulp_changes_fail_the_exact_checks(n, name):
    eps = np.spacing(2.0 ** (1 - n))  # one ulp of the nonzero entries
    before = be_family(n).parts
    fam = BEFamily(n, FEW_ULP[name](before, n, eps))
    moved = max(np.abs(a - b).max() for lab in LABELS for a, b in zip(fam.parts[lab], before[lab]))
    assert 0 < moved <= 2 * eps
    for quick in (False, True):
        with pytest.raises(NotDyadic):
            verify_family(fam, quick=quick)


# ---------------------------------------------------------------------------
# The dyadic gate, and the three flags it makes exact against an oracle in
# rational arithmetic.

# name -> (part, index, value per n) of rho+; indices 0 and -1 are classes
# of one string each, so a change there keeps the family symmetric, while
# index 1 breaks the symmetry.  The gate reads every entry either way.
NOT_DYADIC = {
    "nan": ("d", 0, lambda n: np.nan),
    "inf": ("o", 0, lambda n: np.inf),
    "minus_inf": ("d", -1, lambda n: -np.inf),
    "one_ulp": ("d", 0, lambda n: np.nextafter(2.0 ** (1 - n), 1.0)),
    "one_ulp_asymmetric": ("o", 1, lambda n: np.spacing(0.0)),
    "modulus_above_1": ("d", 0, lambda n: 1.25),
    "modulus_above_1_asymmetric": ("o", 1, lambda n: -2.0),
    "off_grid_imaginary": ("o", 0, lambda n: 2.0 ** (1 - n) + 1j * 4.0 ** -(n + 1)),
}
# the grid's edges pass: modulus 1 and one unit 4^-n, real or imaginary
ON_GRID = {
    "one": ("d", 0, lambda n: 1.0),
    "minus_one": ("o", -1, lambda n: -1.0),
    "one_unit": ("d", 1, lambda n: 4.0**-n),
    "imaginary_unit": ("o", 0, lambda n: 2.0 ** (1 - n) - 1j * 4.0**-n),
}


def with_entry(n, part, q, value):
    parts = dict(be_family(n).parts)
    d, o = parts["rho+"]
    v = (d if part == "d" else o).astype(np.result_type(d, value))
    v[q] = value
    parts["rho+"] = (v, o) if part == "d" else (d, v)
    return BEFamily(n, parts)


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("name", sorted(NOT_DYADIC))
def test_gate_rejects_what_is_off_the_grid(n, name):
    part, q, value = NOT_DYADIC[name]
    fam = with_entry(n, part, q, value(n))
    for quick in (False, True):
        with pytest.raises(NotDyadic, match=f"4\\^-{n}"):
            verify_family(fam, quick=quick)
    assert "_unlock" not in fam.__dict__  # no check ran


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("name", sorted(ON_GRID))
def test_gate_accepts_the_grid_edges(n, name):
    part, q, value = ON_GRID[name]
    rep = verify_family(with_entry(n, part, q, value(n)))
    assert not rep.all_pass


def fraction_flags(fam):
    """(orthogonal, even_cut_ppt, single_vs_rest_npt) in exact rational
    arithmetic, from the entries alone.  A PT block [[a, c], [c*, b]] is
    PSD iff a + b >= 0 and a b >= |c|^2; each state's a b and |c|^2 are
    compared as integer numerators over one common denominator."""
    n = fam.n_qubits
    top = (1 << n) - 1
    d, o = {}, {}
    for lab in LABELS:
        dv, ov = (v.tolist() for v in fam.parts[lab])
        d[lab] = [Fraction(x) for x in dv]
        o[lab] = [(Fraction(complex(z).real), Fraction(complex(z).imag)) for z in ov]

    def overlap(x, y):  # tr(rho_x rho_y)
        diag = sum(a * b for a, b in zip(d[x], d[y]))
        anti = sum(a[0] * b[0] - a[1] * b[1] for a, b in zip(o[x], reversed(o[y])))
        return diag + anti

    orthogonal = all(overlap(x, y) == 0 for i, x in enumerate(LABELS) for y in LABELS[i + 1:])

    def mask(cut):
        return sum(1 << (n - 1 - k) for k in cut)

    even = [mask((0,) + rest) for size in range(2, n - 1, 2) for rest in combinations(range(1, n), size - 1)]
    single = [mask((k,)) for k in range(n)]
    even_cut_ppt = single_vs_rest_npt = True
    for lab in LABELS:
        dd = d[lab]
        trace_ok = [dd[r] + dd[r ^ top] >= 0 for r in range(top + 1)]
        det = [dd[r] * dd[r ^ top] for r in range(top + 1)]
        c2 = [re * re + im * im for re, im in o[lab]]
        den = math.lcm(*(x.denominator for x in det + c2))
        det, c2 = ([x.numerator * (den // x.denominator) for x in v] for v in (det, c2))

        def psd(r, s):
            return trace_ok[r] and det[r] >= c2[r ^ s]

        even_cut_ppt &= all(psd(r, s) for s in even for r in range(top + 1))
        single_vs_rest_npt &= all(not all(psd(r, s) for r in range(top + 1)) for s in single)
    return orthogonal, even_cut_ppt, single_vs_rest_npt


def exact_flags(rep):
    return rep.orthogonal, rep.even_cut_ppt, rep.single_vs_rest_npt


@pytest.mark.parametrize("n", [4, 6, 8])
def test_fraction_oracle_on_the_family_and_tampered_ones(n):
    seen = set()
    for fam in [be_family(n), be_family_direct(n)] + [tampered(n, name) for name in TAMPERS]:
        want = fraction_flags(fam)
        assert exact_flags(verify_family(fam)) == want
        seen.add(want)
    assert {flag for flags in seen for flag in flags} == {True, False}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_fraction_oracle_on_random_dyadic_families(n):
    rng = rng_for("fraction-oracle", n)
    seen = set()
    for _ in range(50):
        fam = random_symmetric_family(n, rng)
        want = fraction_flags(fam)
        assert exact_flags(verify_family(fam, quick=True)) == want
        seen.add(want[1:])
    assert seen >= {(True, False), (False, True)}


def boundary_family(n, d_hi, d_mid, d_lo, c, bump=0):
    """Every state with diagonal d_hi on weights below n/2, d_mid at n/2 and
    d_lo above, and coupling c on every weight but c + bump on weight 1,
    all in units of 4^-n: with d_hi d_lo = d_mid^2 = c^2 every PT block
    has determinant exactly 0."""
    weight = np.bitwise_count(np.arange(1 << n))
    cd = np.where(weight < n // 2, d_hi, np.where(weight == n // 2, d_mid, d_lo)) * 4.0**-n
    co = np.where(weight == 1, c + bump, c) * 4.0**-n
    return BEFamily(n, {lab: (cd, co) for lab in LABELS})


BOUNDARY = {
    # name -> (d_hi, d_mid, d_lo, c, bump), exact flags (orthogonal, even_cut_ppt, single_vs_rest_npt)
    "3-4-5": ((128, 64, 32, 64, 0), (False, True, False)),  # (128 - 32)/2 = 48, 48^2 + 64^2 = 80^2
    "3-4-5_bumped": ((128, 64, 32, 64, 1), (False, False, True)),
    "3-4-5_lowered": ((128, 64, 32, 64, -1), (False, True, False)),
    "equal_diagonals": ((64, 64, 64, 64, 0), (False, True, False)),
    "equal_diagonals_bumped": ((64, 64, 64, 64, 1), (False, False, True)),
}


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_fraction_oracle_on_zero_determinant_blocks(n, name):
    args, want = BOUNDARY[name]
    fam = boundary_family(n, *args)
    rep = verify_family(fam)
    assert exact_flags(rep) == fraction_flags(fam) == want
    if args[-1] == 0:  # the mean equals the exact root: every minimum is +0.0
        assert {m.hex() for *_, m in rep.cut_evidence} == {(0.0).hex()}
