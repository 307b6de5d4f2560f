"""Activable bound entangled states on 2N qubits, the 3x3 bound entangled
state of the mixed-plus-product form, and the Tiles unextendible product
basis with its complement state.

Qubit index 0 is the leftmost tensor factor (the most significant bit of a
basis index) throughout.

Every member of the 2N-qubit family is a uniform mixture of
(|p> +/- |pbar>)/sqrt(2), where pbar flips every bit of p.  Its matrix is
nonzero only on the diagonal and the anti-diagonal: it is GHZ-diagonal
(Dür & Cirac, PRA 61, 042314 (2000)); at n = 4, rho+ is Smolin's state.
A family is stored as those two length-2^n vectors per state, (d, o), which
the family checks, unlock and the hiding protocol read directly; the dense
matrices are a read-only view built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .errors import BadLabel, BadParam, NotGHZDiagonal, OddN, TooLarge
from .linalg import projector
from .states import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell, ket
from .tolerances import (
    MARGINAL_TOL,
    NPT_TOL,
    ORTHO_TOL,
    PAULI_TOL,
    PERM_TOL,
    PPT_TOL,
    UNLOCK_TOL,
    UPB_SEESAW_TOL,
)

LABELS = ("rho+", "rho-", "sigma+", "sigma-")

# Bell state paired with each measurement outcome, per family label.
PAIRING = {
    "rho+": {"rho+": "phi+", "rho-": "phi-", "sigma+": "psi+", "sigma-": "psi-"},
    "rho-": {"rho+": "phi-", "rho-": "phi+", "sigma+": "psi-", "sigma-": "psi+"},
    "sigma+": {"rho+": "psi+", "rho-": "psi-", "sigma+": "phi+", "sigma-": "phi-"},
    "sigma-": {"rho+": "psi-", "rho-": "psi+", "sigma+": "phi-", "sigma-": "phi+"},
}

# Conjugating rho+ by this Pauli on any single qubit yields the sibling.
PAULI_CONNECTION = {"rho+": ID2, "rho-": SIGMA_Z, "sigma+": SIGMA_X, "sigma-": 1j * SIGMA_Y}


@dataclass
class BEFamily:
    n_qubits: int
    parts: dict  # label -> (d, o), see ghz_parts

    def __post_init__(self):  # the dense view is cached, so (d, o) stay fixed
        for d, o in self.parts.values():
            d.flags.writeable = o.flags.writeable = False

    @property
    def dims(self):
        return (2,) * self.n_qubits

    @cached_property
    def states(self):
        """Read-only label -> 2^n x 2^n density matrix, built on first use
        as views into one block (one allocation, freed whole).  The block is
        float64 when every stored o is real, as both constructions make it."""
        d, o = (np.array([self.parts[lab][i] for lab in LABELS]) for i in (0, 1))
        block = ghz_dense(d, o if o.imag.any() else o.real)
        block.flags.writeable = False
        return MappingProxyType(dict(zip(LABELS, block)))


def _check_n(n):
    if n % 2 != 0:
        raise OddN(f"family exists only for even qubit numbers, got {n}")
    if not 4 <= n <= 10:
        raise TooLarge(f"n = {n} outside supported range 4..10")


@cache
def support_strings(n):
    """Basis-string pairs (p, complement of p) per family label, as
    read-only arrays of shape (pairs, 2).

    p runs in increasing order over strings with first bit 0; even
    zero-count strings feed the rho family, odd the sigma family.
    """
    p = np.arange(1 << (n - 1))  # first (leftmost) qubit is 0
    pairs = np.stack([p, p ^ ((1 << n) - 1)], axis=1)
    even = (n - np.bitwise_count(p)) % 2 == 0
    rho, sigma = pairs[even], pairs[~even]
    rho.flags.writeable = sigma.flags.writeable = False
    return MappingProxyType({"rho": rho, "sigma": sigma})


# ---------------------------------------------------------------------------
# GHZ-diagonal form: (d, o) with d[q] = rho[q, q] and o[q] = rho[q, qbar]


def ghz_parts(rho):
    """Diagonal d[q] = rho[q, q] (real part) and anti-diagonal
    o[q] = rho[q, qbar] of a 2^n x 2^n matrix.

    Raises NotGHZDiagonal unless every other entry is exactly zero.
    """
    rho = np.asarray(rho)
    dim = rho.shape[0] if rho.ndim == 2 else 0
    if rho.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise NotGHZDiagonal(f"want a 2^n x 2^n matrix with n >= 1, got shape {rho.shape}")
    q = np.arange(dim)
    diag = rho[q, q]
    o = rho[q, q ^ (dim - 1)]
    off = np.count_nonzero(rho) - np.count_nonzero(diag) - np.count_nonzero(o)
    if off:
        raise NotGHZDiagonal(f"{off} nonzero entries off the diagonal and anti-diagonal")
    return diag.real, o


def ghz_dense(d, o):
    """The 2^n x 2^n matrix (a stack for stacked d, o) with diagonal d and
    anti-diagonal o; real when both are real."""
    dim = d.shape[-1]
    q = np.arange(dim)
    rho = np.zeros(d.shape + (dim,), dtype=np.result_type(d, o))
    rho[..., q, q] = d
    rho[..., q, q ^ (dim - 1)] = o
    return rho


def ghz_overlap(a, b):
    """tr(A B) for GHZ-diagonal A, B given as (d, o) pairs."""
    (da, oa), (db, ob) = a, b
    return float(np.real(da @ db + oa @ ob[::-1]))  # ob[::-1][q] = ob[qbar]


def reduced_diagonal(d, party):
    """Diagonal of the state with qubit `party` traced out.

    For a GHZ-diagonal state on n >= 2 qubits this is the whole reduced
    matrix: no anti-diagonal entry survives the trace.
    """
    n = d.size.bit_length() - 1
    return d.reshape((2,) * n).sum(axis=party).reshape(-1)


def pt_min_eigenvalues(parts, cuts):
    """Smallest partial-transpose eigenvalue of a GHZ-diagonal state per cut.

    Transposing the qubits in a cut with bit mask S moves the entry at
    (q, qbar) to (q ^ S, qbar ^ S), so the PT splits into 2x2 blocks
    {r, rbar} with off-diagonal o[r ^ S] and eigenvalues
    (d_r + d_rbar)/2 +/- sqrt(((d_r - d_rbar)/2)^2 + |o[r ^ S]|^2).
    """
    d, o = parts
    n = d.size.bit_length() - 1
    masks = np.array([sum(1 << (n - 1 - k) for k in cut) for cut in cuts])
    coupling = np.abs(o[np.arange(d.size) ^ masks[:, None]])
    mean = (d + d[::-1]) / 2  # d[::-1][r] = d[rbar]
    half = (d - d[::-1]) / 2
    return (mean - np.hypot(half, coupling)).min(axis=1)


def _pauli_conjugate(parts, u, k):
    """(d, o) of u rho u^dagger for a single-qubit u with one nonzero per
    column (a Pauli up to phase) acting on qubit k."""
    d, o = parts
    n = d.size.bit_length() - 1
    flip = 0 if u[0, 0] != 0 else 1  # u|b> = c_b |b ^ flip>
    c = np.array([u[flip, 0], u[1 - flip, 1]])
    src = np.arange(d.size) ^ (flip << (n - 1 - k))
    b = (src >> (n - 1 - k)) & 1
    return d[src], c[b] * c[1 - b].conj() * o[src]


def _support_parts(n, label):
    """(d, o) of the projector onto a label's n-qubit support set."""
    d = np.zeros(1 << n)
    o = np.zeros(1 << n)
    strings = support_strings(n)[label[:-1]].reshape(-1)
    d[strings] = 0.5
    o[strings] = 0.5 if label.endswith("+") else -0.5
    return d, o


# ---------------------------------------------------------------------------
# the family


def be_family_direct(n):
    """Support-set construction: each state is the uniform mixture of its
    2^(n-2) support vectors."""
    _check_n(n)
    size = 1 << (n - 2)
    return BEFamily(n, {lab: tuple(v / size for v in _support_parts(n, lab)) for lab in LABELS})


def be_family(n):
    """Recursive construction: Bell-correlate the four (n-2)-qubit states
    with the four Bell projectors on two appended qubits.

    The two-qubit members are the Bell states themselves (rho+ -> phi+,
    rho- -> phi-, sigma+ -> psi+, sigma- -> psi-, the rho+ row of PAIRING).
    The recursion runs on (d, o): kron(A, B) has diagonal kron(d_A, d_B)
    and anti-diagonal kron(o_A, o_B), and the entries of each kron off
    both diagonals cancel in the sum over outcomes.  Each level is one
    broadcast product of the four states, stacked in label order, with the
    (label, outcome, 4) table of Bell parts, summed over outcomes in label
    order as the per-label kron sum was, so every entry is the same bit for
    bit.
    """
    _check_n(n)
    bells = {k: ghz_parts(projector(bell(k))) for k in PAIRING["rho+"].values()}
    stacks = []
    for i in (0, 1):
        table = np.array([[bells[PAIRING[lab][out]][i] for out in LABELS] for lab in LABELS])
        level = table[0]  # the two-qubit members: the rho+ row of PAIRING
        for _ in range(n // 2 - 1):
            # p[lab, out] = kron(level[out], table[lab, out])
            p = level[None, :, :, None] * table[:, :, None, :]
            level = ((p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]) / 4.0).reshape(4, -1)
        stacks.append(level)
    return BEFamily(n, {lab: (stacks[0][j], stacks[1][j]) for j, lab in enumerate(LABELS)})


def even_cuts(n):
    """Canonical even:even bipartitions (side containing qubit 0)."""
    cuts = []
    for size in range(2, n - 1, 2):
        for rest in combinations(range(1, n), size - 1):
            cuts.append((0,) + rest)
    return cuts


@dataclass
class FamilyReport:
    n_qubits: int
    orthogonal: bool
    permutation_symmetric: bool
    even_cut_ppt: bool
    single_vs_rest_npt: bool
    pauli_connected: bool
    reduced_max_mixed: bool
    unlock_ok: bool
    cut_evidence: list = field(default_factory=list)  # (label, cut, min PT eig)

    @property
    def all_pass(self):
        return all(
            [
                self.orthogonal,
                self.permutation_symmetric,
                self.even_cut_ppt,
                self.single_vs_rest_npt,
                self.pauli_connected,
                self.reduced_max_mixed,
                self.unlock_ok,
            ]
        )


def verify_family(fam, quick=False):
    """Run the seven family checks and collect per-cut PT evidence.

    Every check reads the stored (d, o) of each state; none builds the
    dense matrices.  quick=True skips the per-cut PT minima and leaves
    `cut_evidence` empty.
    """
    n = fam.n_qubits
    parts = fam.parts

    orthogonal = all(
        abs(ghz_overlap(parts[x], parts[y])) < ORTHO_TOL
        for i, x in enumerate(LABELS)
        for y in LABELS[i + 1:]
    )

    def swap(v, k):  # exchange qubits k and k + 1
        return np.swapaxes(v.reshape((2,) * n), k, k + 1).reshape(-1)

    permutation_symmetric = all(
        np.max(np.abs(swap(v, k) - v)) <= PERM_TOL
        for k in range(n - 1)
        for pair in parts.values()
        for v in pair
    )

    evidence = []
    if not quick:
        cuts = even_cuts(n) + [(j,) for j in range(n)]
        mins = {lab: pt_min_eigenvalues(parts[lab], cuts) for lab in LABELS}
        evidence = [(lab, cut, float(mins[lab][i])) for i, cut in enumerate(cuts) for lab in LABELS]
    even_cut_ppt = all(m >= -PPT_TOL for _, cut, m in evidence if len(cut) > 1)
    single_vs_rest_npt = all(m < -NPT_TOL for _, cut, m in evidence if len(cut) == 1)

    def max_diff(a, b):
        return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))

    pauli_connected = all(
        max_diff(_pauli_conjugate(parts["rho+"], PAULI_CONNECTION[lab], k), parts[lab]) <= PAULI_TOL
        for k in (0, n - 1)
        for lab in LABELS
    )

    flat = 1.0 / (1 << (n - 1))
    reduced_max_mixed = all(
        np.max(np.abs(reduced_diagonal(d, j) - flat)) <= MARGINAL_TOL
        for j in range(n)
        for d, _ in parts.values()
    )

    unlock_ok = all(
        abs(out["probability"] - 0.25) <= UNLOCK_TOL and out["fidelity"] >= 1.0 - UNLOCK_TOL
        for lab in LABELS
        for out in unlock(fam, lab)
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


def unlock(fam, label):
    """Group the first n-2 qubits and measure the four family supports.

    Every outcome has probability 1/4 and leaves the last two qubits in the
    Bell state dictated by the recursion pairing.  With x the first n-2 bits
    and j the last pair, the support projector P (GHZ-diagonal itself; at
    n = 4 a Bell projector) leaves cond[j, j] = sum_x P[x, x] d[(x, j)] and
    cond[j, jbar] = sum_x P[xbar, x] o[(x, j)] before normalization.
    """
    if label not in LABELS:
        raise BadLabel(f"unknown state label {label!r}; want one of {LABELS}")
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


# ---------------------------------------------------------------------------
# 3x3 bound entangled states


def horodecki_insep():
    """The NPT 3x3 mixed part: (1/8)(I + |v><v| - P00 - P11 - P22 - P20)
    with v = |00> + |11> + |22> (unnormalized)."""
    v = ket(0, 9) + ket(4, 9) + ket(8, 9)
    m = np.eye(9, dtype=complex) + projector(v)
    for idx in (0, 4, 8, 6):  # |00>, |11>, |22>, |20>
        m -= projector(ket(idx, 9))
    return m / 8.0


def horodecki_state(a):
    """(8a rho_ins + |phi_a><phi_a|) / (8a + 1): PPT yet entangled for
    0 < a < 1."""
    if not 0.0 <= a <= 1.0:
        raise BadParam(f"parameter a = {a} outside [0, 1]")
    phi = np.kron(
        ket(2, 3),
        math.sqrt((1.0 + a) / 2.0) * ket(0, 3) + math.sqrt((1.0 - a) / 2.0) * ket(2, 3),
    )
    return (8.0 * a * horodecki_insep() + projector(phi)) / (8.0 * a + 1.0)


def tiles_upb():
    """The five-tile unextendible product basis of the 3x3 system."""
    k0, k1, k2 = (ket(i, 3) for i in range(3))
    s2 = math.sqrt(2.0)
    states = [
        np.kron(k0, (k0 - k1) / s2),
        np.kron((k0 - k1) / s2, k2),
        np.kron(k2, (k1 - k2) / s2),
        np.kron((k1 - k2) / s2, k0),
        np.kron(k0 + k1 + k2, k0 + k1 + k2) / 3.0,
    ]
    return states


def _complement(states):
    """I - sum |psi_j><psi_j| over the given 3x3 product states."""
    comp = np.eye(9, dtype=complex)
    for v in states:
        comp -= projector(v)
    return comp


def upb_complement(states=None):
    """Normalized projector onto the subspace complementary to the product
    basis: (I - sum |psi_j><psi_j|) / (9 - #states)."""
    if states is None:
        states = tiles_upb()
    return _complement(states) / (9 - len(states))


# Seesaw restarts of one unextendibility score (about 1 ms each).
MAX_UPB_TRIALS = 10**4


def upb_unextendibility_score(trials=64, seed=0, states=None, iters=200):
    """Seesaw-maximized overlap of a product state with the complement
    subspace; a value bounded away from 1 evidences unextendibility."""
    if trials < 1:
        raise BadParam("trials must be >= 1")
    if trials > MAX_UPB_TRIALS:
        raise TooLarge(f"trials = {trials} exceeds {MAX_UPB_TRIALS}")
    if states is None:
        states = tiles_upb()
    t = _complement(states).reshape(3, 3, 3, 3)
    best = 0.0
    for r in range(trials):
        rng = np.random.default_rng((seed, r))
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        prev = -1.0
        for _ in range(iters):
            mu = np.einsum("b,abcd,d->ac", v.conj(), t, v)
            w, vecs = np.linalg.eigh(mu)
            u = vecs[:, -1]
            mv = np.einsum("a,abcd,c->bd", u.conj(), t, u)
            w, vecs = np.linalg.eigh(mv)
            v = vecs[:, -1]
            val = float(w[-1].real)
            if abs(val - prev) < UPB_SEESAW_TOL:
                break
            prev = val
        best = max(best, prev)
    return best
