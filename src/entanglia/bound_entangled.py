"""Activable bound entangled states on 2N qubits, the 3x3 bound entangled
state of the mixed-plus-product form, and the Tiles unextendible product
basis with its complement state.

Qubit index 0 is the leftmost tensor factor (the most significant bit of a
basis index) throughout.

Every member of the 2N-qubit family is a uniform mixture of
(|p> +/- |pbar>)/sqrt(2), where pbar flips every bit of p.  Its matrix is
nonzero only on the diagonal and the anti-diagonal: it is GHZ-diagonal
(Dür & Cirac, PRA 61, 042314 (2000)); at n = 4, rho+ is Smolin's state.
A family holds its four states as two read-only (4, 2^n) stacks in label
order, the diagonals d and anti-diagonals o, which the family checks,
unlock and the hiding protocol read directly; the constructions hand over
the stacks they build, and `BEFamily(n, parts)` copies the given rows in
once.  `parts` holds the stacks' row views and the dense matrices are a
read-only view built on first use.
Both constructions store exact float64 parts, every entry k 2^(1-n) with k
in {0, +/-1}, so they are the same bit for bit.  The family checks certify
only dyadic parts (else NotDyadic) and decide all seven checks exactly, on
the stacks and, for a symmetric family, on one value per Hamming-weight
class.  Each family's unlock table is built once, on first use, and
read-only: the family check, `unlock` and the hiding decodes read its rows.
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

from .errors import BadDims, BadLabel, BadParam, NotDyadic, NotGHZDiagonal, OddN, TooLarge
from .linalg import projector
from .states import BELL_KINDS, ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell, ket
from .tolerances import UPB_SEESAW_TOL

LABELS = ("rho+", "rho-", "sigma+", "sigma-")

# The seven family checks, in report order: the flags of a FamilyReport.
CHECKS = (
    "orthogonal",
    "permutation_symmetric",
    "even_cut_ppt",
    "single_vs_rest_npt",
    "pauli_connected",
    "reduced_max_mixed",
    "unlock_ok",
)

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


@dataclass(frozen=True, eq=False)
class BEFamily:
    n_qubits: int
    parts: Mapping  # label -> (d, o), see ghz_parts; read-only rows of d and o
    d: np.ndarray = field(init=False, repr=False)  # (4, 2^n) diagonals in LABELS order
    o: np.ndarray = field(init=False, repr=False)  # (4, 2^n) anti-diagonals, one dtype

    def __post_init__(self):
        # parts must fit n_qubits, with a real d (shape and dtype tests only,
        # no scan of the entries); they are copied once into the read-only
        # stacks d and o, so the cached dense view and unlock table stay fixed
        _check_n(self.n_qubits)
        if self.parts.keys() != set(LABELS):
            raise BadLabel(f"family labels {sorted(map(str, self.parts))}, want {LABELS}")
        dim = 1 << self.n_qubits
        rows = [tuple(map(np.asarray, self.parts[lab])) for lab in LABELS]
        for lab, (d, o) in zip(LABELS, rows):
            if d.shape != (dim,) or o.shape != (dim,):
                raise BadDims(f"{lab}: d and o need shape ({dim},), got {d.shape} and {o.shape}")
            if np.iscomplexobj(d):
                raise BadParam(f"{lab}: d is a density matrix's diagonal and must be real, got dtype {d.dtype}")
        self._hold(*(np.array(col) for col in zip(*rows)))

    @classmethod
    def _of_stacks(cls, n, d, o):
        """The family of the constructions' own fresh (4, 2^n) float64
        stacks in LABELS order, held as they are: no check and no copy."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "n_qubits", n)
        fam._hold(d, o)
        return fam

    def _hold(self, d, o):
        d, o = _read_only(d, o)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "parts", MappingProxyType(dict(zip(LABELS, zip(d, o)))))

    @property
    def dims(self):
        return (2,) * self.n_qubits

    @cached_property
    def states(self):
        """Read-only label -> 2^n x 2^n density matrix, built on first use
        as views into one block (one allocation, freed whole).  The block is
        float64 when o has no imaginary part, as both constructions make it."""
        block = ghz_dense(self.d, self.o if self.o.imag.any() else self.o.real)
        block.flags.writeable = False
        return MappingProxyType(dict(zip(LABELS, block)))

    @cached_property
    def _unlock(self):
        """`_unlock_table` of the stacks, built on first use: verify_family,
        unlock and the hiding decodes read its rows."""
        return _unlock_table(self.d, self.o)


def _check_n(n):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise BadParam(f"qubit number must be an integer, got {n!r}")
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


@cache
def _halves(n):
    """Read-only (n, 2, 2^(n-1)) basis indices: [p, b, r] is the index
    whose qubit p reads b and whose other qubits spell r."""
    r = np.arange(1 << (n - 1))
    k = n - 1 - np.arange(n)[:, None]  # qubit p's place value is 2^k
    low = ((r >> k) << (k + 1)) | (r & ((1 << k) - 1))
    halves = np.stack([low, low | (1 << k)], axis=1)
    halves.flags.writeable = False
    return halves


def reduced_diagonal(d, party):
    """Diagonal of the state with qubit `party` traced out, for diagonals
    d of shape (..., 2^n).  A slice or an array of parties gives one
    reduced diagonal per party, on an axis before the last.

    For a GHZ-diagonal state on n >= 2 qubits this is the whole reduced
    matrix: no anti-diagonal entry survives the trace.  Each entry is the
    sum of the two entries of d that differ only at the traced qubit.
    """
    n = d.shape[-1].bit_length() - 1
    pair = d.take(_halves(n)[party], axis=-1)
    return pair[..., 0, :] + pair[..., 1, :]


def _cut_masks(n, cuts):
    return np.array([sum(1 << (n - 1 - k) for k in cut) for cut in cuts])


def _pt_minima(d, dbar, c2):
    """Smallest eigenvalue (d + dbar)/2 - sqrt(((d - dbar)/2)^2 + c2) of the
    2x2 blocks [[d, c], [c*, dbar]], c2 = |c|^2 (a fresh array, overwritten),
    minimized over the last axis.  On verify_family's gated parts the root's
    argument is exact and IEEE sqrt correctly rounded: each sign is exact."""
    half = (d - dbar) / 2
    np.sqrt(np.add(half * half, c2, out=c2), out=c2)
    return np.subtract((d + dbar) / 2, c2, out=c2).min(axis=-1)


def pt_min_eigenvalues(parts, cuts):
    """Smallest partial-transpose eigenvalue of a GHZ-diagonal state per cut.

    Transposing the qubits in a cut with bit mask S moves the entry at
    (q, qbar) to (q ^ S, qbar ^ S), so the PT splits into 2x2 blocks
    {r, rbar} with off-diagonal o[r ^ S], whose minima _pt_minima takes.
    """
    d, o = parts
    dim = d.shape[-1]
    index = np.arange(dim) ^ _cut_masks(dim.bit_length() - 1, cuts)[:, None]
    return _pt_minima(d[..., None, :], d[..., None, ::-1], np.take((o * o.conj()).real, index, axis=-1))


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
def _cut_table(n):
    """verify_family's cuts, read-only: every even:even cut, then every
    single qubit; and each cut's size."""
    cuts = even_cuts(n) + [(j,) for j in range(n)]
    return tuple(cuts), *_read_only(np.array([len(cut) for cut in cuts]))


@cache
def _class_table(n):
    """Read-only rep[w] = 2^w - 1, the least index of weight w; cls[q] =
    rep[weight of q]; and per cut size s, the (a, b) rows of verify_family's
    weights a + b, n - a - b, s - a + b, padded by repeating the first."""
    rep = (1 << np.arange(n + 1)) - 1
    cls = rep[np.bitwise_count(np.arange(1 << n))]
    rows = [[(a + b, n - a - b, s - a + b) for a in range(s + 1) for b in range(n - s + 1)] for s in range(n + 1)]
    width = max(map(len, rows))
    weights = np.array([row + row[:1] * (width - len(row)) for row in rows]).transpose(2, 0, 1).copy()
    return _read_only(rep, cls, *weights)


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
    d, o = (np.array(col) / (1 << (n - 2)) for col in zip(*(_support_parts(n, lab) for lab in LABELS)))
    return BEFamily._of_stacks(n, d, o)


def be_family(n):
    """Recursive construction: Bell-correlate the four (n-2)-qubit states
    with the four Bell projectors on two appended qubits.

    The two-qubit members are the Bell states themselves (rho+ -> phi+,
    rho- -> phi-, sigma+ -> psi+, sigma- -> psi-, the rho+ row of PAIRING).
    The recursion runs on (d, o): kron(A, B) has diagonal kron(d_A, d_B)
    and anti-diagonal kron(o_A, o_B), and the entries of each kron off
    both diagonals cancel in the sum over outcomes.  Each level is one
    matrix product of the four states, stacked in label order, with the
    (label, outcome, 4) table of exact Bell parts (built once per process):
    new[lab, (x, j)] = sum over outcomes of level[out, x] table[lab, out, j],
    over 4.  Every product and sum is exact, so the parts are float64 and
    equal be_family_direct's bit for bit.
    """
    _check_n(n)
    stacks = []
    for table in _bell_table():
        level = table[0]  # the two-qubit members: the rho+ row of PAIRING
        for _ in range(n // 2 - 1):
            # new[lab, (x, j)] = sum_out level[out, x] table[lab, out, j] / 4
            level = (level.T @ table / 4.0).reshape(4, -1)
        stacks.append(level)
    return BEFamily._of_stacks(n, *stacks)


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
        return all(getattr(self, check) for check in CHECKS)


def verify_family(fam, quick=False):
    """Run the seven family checks and collect per-cut PT evidence on the
    family's stacks fam.d and fam.o, in place; none builds a dense matrix.

    A stack invariant under every qubit permutation is constant on each
    Hamming-weight class, so symmetry is one gather: each entry against its
    class representative.  Then _check_dyadic gates the n + 1 class values
    of a symmetric stack, or every entry of another.  On gated parts at
    n <= 10 every product and sum below is an integer under 2^51 in units
    of 16^-n, so all seven checks are exact comparisons.

    Orthogonality is the Gram matrix d d^T + Re(o o_rev^T) against 0.  On a
    symmetric stack the marginals and PT minima read the class values: an
    index with a ones inside a cut of size s and b outside has diagonal
    weights a + b and n - a - b and coupling weight s - a + b, so all cuts
    of one size share the minimum over (a, b); else pt_min_eigenvalues
    gives each cut's minimum and reduced_diagonal every marginal, in one
    gather.  The PT flags read each minimum's sign, the Pauli connection on
    qubits 0 and n - 1 is a gather times +/-1, and unlock reads the
    family's unlock table.  quick=True only leaves `cut_evidence` empty.
    """
    n = fam.n_qubits
    d, o = fam.d, fam.o

    rep, cls, w, wbar, wcut = _class_table(n)
    permutation_symmetric = all(np.array_equal(x, x[:, cls]) for x in (d, o))
    for x in (d, o):
        _check_dyadic(x[:, rep] if permutation_symmetric else x, n)

    gram = d @ d.T + (o @ o[:, ::-1].T).real  # o[:, ::-1][q] = o[qbar]
    orthogonal = bool((gram[_TRIU] == 0).all())

    cuts, size = _cut_table(n)
    flat = 1.0 / (1 << (n - 1))
    if permutation_symmetric:
        cd, co = d[:, rep], o[:, rep]
        mins = _pt_minima(cd[:, w], cd[:, wbar], (co * co.conj()).real[:, wcut])[:, size]
        reduced_max_mixed = bool((cd[:, :-1] + cd[:, 1:] == flat).all())
    else:
        mins = pt_min_eigenvalues((d, o), cuts)
        reduced_max_mixed = bool((reduced_diagonal(d, slice(None)) == flat).all())
    single = size == 1
    even_cut_ppt = bool((mins[:, ~single] >= 0).all())
    single_vs_rest_npt = bool((mins[:, single] < 0).all())
    evidence = []
    if not quick:
        evidence = [(lab, cut, m) for cut, row in zip(cuts, mins.T.tolist()) for lab, m in zip(LABELS, row)]

    src, phase = _pauli_table(n)
    pauli_connected = bool((d[0][src] == d).all() and (phase * o[0][src] == o).all())

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


def _check_dyadic(x, n):
    """Raise NotDyadic unless each real and imaginary part of x is k 4^-n, k an integer, |k| <= 4^n."""
    for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
        k = np.where(np.abs(part) <= 1, part, np.nan) * 4.0**n  # NaN fails k == rint(k)
        if not (k == np.rint(k)).all():
            bad = float(part[k != np.rint(k)][0])
            raise NotDyadic(f"family entry {bad!r} is not an integer multiple of 4^-{n} with modulus <= 1")


class _UnlockTable(NamedTuple):
    probability: np.ndarray  # (rows, outcome)
    conditional: np.ndarray  # (rows, outcome, 4, 4) normalized, in the dtype of o
    fidelity: np.ndarray  # (rows, outcome, Bell state in BELL_KINDS order)


def _unlock_table(d, o):
    """Every unlock outcome of each state in the stacks d, o of shape
    (rows, 2^n), as BEFamily stores them, in read-only arrays.

    With x the first n-2 bits and j the last pair, the support projector P
    (GHZ-diagonal itself; at n = 4 a Bell projector) leaves cond[j, j] =
    sum_x P[x, x] d[(x, j)] and cond[j, jbar] = sum_x P[xbar, x] o[(x, j)]
    before normalization.  Those sums are one stacked product pd @ d and one
    po @ o, so the conditionals take the dtype of o.  On dyadic rows, as in
    every family, each sum is exact in any order; on other rows, such as a
    matrix assigned in `hiding`, its last bits may depend on the order.  The
    conditionals are one stacked ghz_dense and their fidelities with the four
    Bell states one batched matmul; an outcome of probability 0 gets a NaN
    conditional and fidelity.
    """
    pd, po = _outcome_parts(d.shape[-1].bit_length() - 1)
    diag = pd @ d.reshape(len(d), -1, 4)  # (row, outcome, j)
    probability = diag.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = ghz_dense(diag, po @ o.reshape(len(o), -1, 4)) / probability[..., None, None]
    fidelity = (_BELLS.conj()[:, None, :] @ conditional[:, :, None] @ _BELLS[:, :, None])[..., 0, 0].real
    return _UnlockTable(*_read_only(probability, conditional, fidelity))


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
            "conditional": table.conditional[row, i],
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


def upb_complement():
    """Normalized projector onto the subspace complementary to the Tiles
    UPB: (I - sum |psi_j><psi_j|) / 4."""
    return _complement(tiles_upb()) / 4.0


# Seesaw restarts of one unextendibility score (about 1 ms each), and the
# most updates per restart (a restart stops earlier once its value moves by
# less than UPB_SEESAW_TOL).
MAX_UPB_TRIALS = 10**4
UPB_SEESAW_ITERS = 200


def upb_unextendibility_score(trials=64, seed=0, states=None):
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
        for _ in range(UPB_SEESAW_ITERS):
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
