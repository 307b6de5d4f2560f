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
matrices are a read-only view built on first use.  Both constructions store
exact float64 parts: every entry is k 2^(1-n) with k in {0, +/-1}, so the
recursive and the support-set family are the same bit for bit, and every
sum the checks and unlock take over them is exact.  The family checks and
unlock run on the four states stacked as (4, 2^n) arrays, with the index
tables they read cached per n.  Each family's unlock table is likewise
built once, on first use, and read-only: the family check, `unlock` and
the hiding decodes read its rows.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import BadLabel, BadParam, NotGHZDiagonal, OddN, TooLarge
from .linalg import projector
from .states import BELL_KINDS, ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell, ket
from .tolerances import NPT_TOL, ORTHO_TOL, PPT_TOL, UPB_SEESAW_TOL

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

_BELLS = np.array([bell(k) for k in BELL_KINDS])
# Index into BELL_KINDS of the Bell state PAIRING predicts, per (label, outcome).
_PREDICTED = np.array([[BELL_KINDS.index(PAIRING[lab][out]) for out in LABELS] for lab in LABELS])
# The six pairs of distinct states, as the upper triangle of a 4 x 4 Gram matrix.
_TRIU = np.triu_indices(4, 1)


@dataclass(frozen=True)
class BEFamily:
    n_qubits: int
    parts: Mapping  # label -> (d, o), see ghz_parts

    def __post_init__(self):  # the dense view and unlock table are cached: (d, o) stay fixed
        object.__setattr__(self, "parts", MappingProxyType(dict(self.parts)))
        for d, o in self.parts.values():
            d.flags.writeable = o.flags.writeable = False

    @property
    def dims(self):
        return (2,) * self.n_qubits

    def _stacked(self):
        """The four states' (d, o) stacked in label order: two (4, 2^n)
        arrays, freshly copied."""
        return tuple(np.array([self.parts[lab][i] for lab in LABELS]) for i in (0, 1))

    @cached_property
    def states(self):
        """Read-only label -> 2^n x 2^n density matrix, built on first use
        as views into one block (one allocation, freed whole).  The block is
        float64 when every stored o is real, as both constructions make it."""
        d, o = self._stacked()
        block = ghz_dense(d, o if o.imag.any() else o.real)
        block.flags.writeable = False
        return MappingProxyType(dict(zip(LABELS, block)))

    @cached_property
    def _unlock(self):
        """`_unlock_table` of the four states in label order, read-only,
        built on first use: verify_family, unlock and the hiding decodes
        read its rows."""
        table = _unlock_table([self.parts[lab] for lab in LABELS])
        _read_only(table.probability, table.fidelity, *table.conditional)
        return table


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


def _cut_masks(n, cuts):
    return np.array([sum(1 << (n - 1 - k) for k in cut) for cut in cuts])


def _pt_minima(d, o, index):
    """pt_min_eigenvalues of (..., 2^n) stacked parts, shape (..., cuts),
    for the (cuts, 2^n) table index[c, r] = r ^ mask of cut c."""
    coupling = np.take(np.abs(o), index, axis=-1)  # |o[r ^ S]|, C-ordered
    mean = (d + d[..., ::-1]) / 2  # d[::-1][r] = d[rbar]
    half = (d - d[..., ::-1]) / 2
    # hypot(0, c) = c exactly, so the costly hypot is skipped when every
    # d[r] = d[rbar], as in every family member
    if half.any():
        np.hypot(half[..., None, :], coupling, out=coupling)
    return np.subtract(mean[..., None, :], coupling, out=coupling).min(axis=-1)


def pt_min_eigenvalues(parts, cuts):
    """Smallest partial-transpose eigenvalue of a GHZ-diagonal state per cut.

    Transposing the qubits in a cut with bit mask S moves the entry at
    (q, qbar) to (q ^ S, qbar ^ S), so the PT splits into 2x2 blocks
    {r, rbar} with off-diagonal o[r ^ S] and eigenvalues
    (d_r + d_rbar)/2 +/- sqrt(((d_r - d_rbar)/2)^2 + |o[r ^ S]|^2).
    """
    d, o = parts
    dim = d.shape[-1]
    masks = _cut_masks(dim.bit_length() - 1, cuts)
    return _pt_minima(d, o, np.arange(dim) ^ masks[:, None])


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


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def _cut_table(n, representative):
    """verify_family's cuts, read-only: the cuts, the (cuts, 2^n) table
    r ^ mask and which cuts hold one qubit.  All cuts are every even:even
    cut, then every single qubit; representative ones are one cut of each
    size 1, 2, 4, ..., n - 2."""
    if representative:
        cuts = [(0,)] + [tuple(range(size)) for size in range(2, n - 1, 2)]
    else:
        cuts = even_cuts(n) + [(j,) for j in range(n)]
    index, single = _read_only(
        np.arange(1 << n) ^ _cut_masks(n, cuts)[:, None],
        np.array([len(cut) == 1 for cut in cuts]),
    )
    return tuple(cuts), index, single


@cache
def _pauli_table(n):
    """Read-only source indices and phases, both (2, 4, 2^n): conjugating
    rho+ by PAULI_CONNECTION[LABELS[j]] on qubit (0, n - 1)[i] gives
    d[src[i, j]] and phase[i, j] * o[src[i, j]].  Every phase is +/-1, so
    the table holds them as float64."""
    unit = (np.arange(1 << n), np.ones(1 << n))  # _pauli_conjugate of these is (src, phase)
    table = [_pauli_conjugate(unit, PAULI_CONNECTION[lab], k) for k in (0, n - 1) for lab in LABELS]
    src, phase = (np.array(col).reshape(2, 4, -1) for col in zip(*table))
    return _read_only(src, phase.real.copy())


@cache
def _swap_table(n):
    """Read-only index pair (a, b), each (n - 1) 2^(n-2) long: for each
    adjacent qubit pair (k, k + 1) in turn, the basis indices whose bits
    there read 01, and their partners reading 10.  Exchanging the two
    qubits swaps each such pair and fixes every other entry."""
    q = np.arange(1 << n)
    shifts = range(n - 2, -1, -1)  # qubits k, k + 1 are bits n-1-k, n-2-k
    a = [q[(q >> s) & 3 == 1] for s in shifts]
    return _read_only(np.concatenate(a), np.concatenate([x ^ (3 << s) for x, s in zip(a, shifts)]))


@cache
def _marginal_table(n):
    """Read-only index pair (m0, m1), each n 2^(n-1) long: for each qubit j
    in turn, the basis indices with its bit 0 in increasing order, and the
    same indices with it set.  d[m0] + d[m1] is the diagonal of each
    state with one qubit traced out, one qubit after another."""
    q = np.arange(1 << n)
    bits = [1 << (n - 1 - j) for j in range(n)]
    m0 = [q[q & bit == 0] for bit in bits]
    return _read_only(np.concatenate(m0), np.concatenate([x | bit for x, bit in zip(m0, bits)]))


@cache
def _bell_table():
    """Read-only (label, outcome, 4) diagonals and anti-diagonals of the
    Bell projector PAIRING pairs with each (label, outcome), as exact real
    parts (d, o in {0, +/-1/2}): the two-qubit support projectors, which
    are the Bell projectors of the rho+ row of PAIRING."""
    bells = {PAIRING["rho+"][lab]: _support_parts(2, lab) for lab in LABELS}
    tables = (np.array([[bells[PAIRING[lab][out]][i] for out in LABELS] for lab in LABELS]) for i in (0, 1))
    return _read_only(*tables)


@cache
def _bell_projectors():
    """The (label, outcome, 4, 4) Bell projectors of _bell_table as one
    read-only block: exactly the conditionals unlock leaves on a family."""
    return _read_only(ghz_dense(*_bell_table()))[0]


@cache
def _outcome_parts(n):
    """The four (n-2)-qubit support projectors of unlock, read-only rows in
    label order: diagonals pd[i] and reversed anti-diagonals po[i]."""
    pd, po = (np.array(col) for col in zip(*(_support_parts(n - 2, lab) for lab in LABELS)))
    return _read_only(pd, po[:, ::-1])  # po[::-1][x] = P[xbar, x]


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
    (label, outcome, 4) table of exact Bell parts (built once per process),
    summed over outcomes in label order.  Every product and sum is exact,
    so the parts are float64 and equal be_family_direct's bit for bit.
    """
    _check_n(n)
    stacks = []
    for table in _bell_table():
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

    The four states are stacked as (4, 2^n) arrays d, o and each check is a
    few array operations on them; none builds the dense matrices.
    Orthogonality is the Gram matrix d d^T + Re(o o_rev^T); the n - 1
    adjacent swaps, the n one-qubit-traced marginals, the Pauli connection
    on qubits 0 and n - 1 and the per-cut PT minima are each one gather
    through a per-n index table; unlocking reads the family's unlock table,
    which it builds on first use.

    Symmetry, the Pauli connection, the marginals and unlock are exact
    comparisons (a swap is a gather, a Pauli conjugation a gather times
    +/-1, and a family's sums are exact); orthogonality and the two PT
    flags keep their tolerances.

    quick=True leaves `cut_evidence` empty.  Its two PT flags still come
    from computed minima: when the exact symmetry check passes, from one
    cut of each size, whose minimum every cut of that size shares (adjacent
    swaps generate every qubit permutation, and a cut and its complement
    share the PT spectrum); else from every cut.
    """
    n = fam.n_qubits
    d, o = fam._stacked()

    gram = d @ d.T + (o @ o[:, ::-1].T).real  # o[:, ::-1][q] = o[qbar]
    orthogonal = bool((np.abs(gram[_TRIU]) < ORTHO_TOL).all())

    # exchanging qubits k and k + 1 moves only the entries where their bits
    # differ: the stack is symmetric iff each such entry equals its partner
    stack = np.concatenate((d, o))
    a, b = _swap_table(n)
    permutation_symmetric = np.array_equal(np.take(stack, a, axis=1), np.take(stack, b, axis=1))

    cuts, index, single = _cut_table(n, quick and permutation_symmetric)
    mins = _pt_minima(d, o, index)
    even_cut_ppt = bool((mins[:, ~single] >= -PPT_TOL).all())
    single_vs_rest_npt = bool((mins[:, single] < -NPT_TOL).all())
    evidence = []
    if not quick:
        evidence = [(lab, cut, m) for cut, row in zip(cuts, mins.T.tolist()) for lab, m in zip(LABELS, row)]

    src, phase = _pauli_table(n)
    pauli_connected = bool((d[0][src] == d).all() and (phase * o[0][src] == o).all())

    m0, m1 = _marginal_table(n)
    reduced_max_mixed = bool((np.take(d, m0, axis=1) + np.take(d, m1, axis=1) == 1.0 / (1 << (n - 1))).all())

    table = fam._unlock
    unlock_ok = bool((table.probability == 0.25).all()) and np.array_equal(table.conditional, _bell_projectors())

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


class _UnlockTable(NamedTuple):
    probability: np.ndarray  # (rows, outcome)
    conditional: tuple  # per row, (outcome, 4, 4) normalized, in the row's dtype
    fidelity: np.ndarray  # (rows, outcome, Bell state in BELL_KINDS order)


def _unlock_table(rows):
    """Every unlock outcome of each state in `rows`, a sequence of (d, o)
    pairs on one number of qubits.

    With x the first n-2 bits and j the last pair, the support projector P
    (GHZ-diagonal itself; at n = 4 a Bell projector) leaves cond[j, j] =
    sum_x P[x, x] d[(x, j)] and cond[j, jbar] = sum_x P[xbar, x] o[(x, j)]
    before normalization.  Those sums are one stacked product pd @ d and one
    po @ o per dtype of o, so that each conditional keeps its row's dtype.
    On dyadic rows, as in every family, each partial sum is exact, so any
    summation order gives the bits of one product per row and outcome; on
    other rows, such as a matrix assigned in `hiding`, the last bits may
    differ from that.  The conditionals are one stacked ghz_dense and their
    fidelities with the four Bell states one batched matmul per dtype.
    """
    pd, po = _outcome_parts(rows[0][0].size.bit_length() - 1)
    probability = np.empty((len(rows), 4))
    fidelity = np.empty((len(rows), 4, 4))
    conditional = [None] * len(rows)
    for dtype in dict.fromkeys(o.dtype for _, o in rows):
        idx = [i for i, (_, o) in enumerate(rows) if o.dtype == dtype]
        d, o = (np.array([rows[i][k] for i in idx]).reshape(len(idx), -1, 4) for k in (0, 1))
        diag = pd @ d  # (row, outcome, j)
        probability[idx] = prob = diag.sum(axis=-1)
        cond = ghz_dense(diag, po @ o) / prob[..., None, None]
        fidelity[idx] = (_BELLS.conj()[:, None, :] @ cond[:, :, None] @ _BELLS[:, :, None])[..., 0, 0].real
        for i, c in zip(idx, cond):
            conditional[i] = c
    return _UnlockTable(probability, tuple(conditional), fidelity)


def unlock(fam, label):
    """Group the first n-2 qubits and measure the four family supports.

    Every outcome has probability 1/4 and leaves the last two qubits in the
    Bell state dictated by the recursion pairing; each outcome reports its
    fidelity with that state.  One row of the family's read-only unlock
    table, so each conditional is a read-only view.
    """
    if label not in LABELS:
        raise BadLabel(f"unknown state label {label!r}; want one of {LABELS}")
    row = LABELS.index(label)
    table = fam._unlock
    predicted = _PREDICTED[row]
    return [
        {
            "outcome": out_label,
            "probability": float(table.probability[row, i]),
            "predicted_bell": PAIRING[label][out_label],
            "fidelity": float(table.fidelity[row, i, predicted[i]]),
            "conditional": table.conditional[row][i],
        }
        for i, out_label in enumerate(LABELS)
    ]


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
