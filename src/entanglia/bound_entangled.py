"""Activable bound entangled states on 2N qubits, the 3x3 bound entangled
state of the mixed-plus-product form, and the Tiles unextendible product
basis with its complement state.

Qubit index 0 is the leftmost tensor factor (the most significant bit of a
basis index) throughout.

Every member of the 2N-qubit family is a uniform mixture of
(|p> +/- |pbar>)/sqrt(2), where pbar flips every bit of p.  Its matrix is
nonzero only on the diagonal and the anti-diagonal: it is GHZ-diagonal
(Dür & Cirac, PRA 61, 042314 (2000)); at n = 4, rho+ is Smolin's state.
Each entry depends only on the Hamming weight of its index, so both
constructions build the four states as (4, n + 1) class values in Python
ints (`family_classes`), and `verify_family` decides all seven checks on
them exactly, without an array.  A family's two read-only (4, 2^n) stacks
in label order, the diagonals d and anti-diagonals o, which unlock and the
hiding protocol read, are gathered from the class values on first use;
`parts` holds the stacks' row views, and the dense matrices are a
read-only view built on first use.  `BEFamily(n, parts)` copies the given
rows in once and has no class values: `verify_family` decides such a
family on its stacks, exactly, once the dyadic gate passes them (it raises
NotDyadic off the grid).  Each family's unlock table is built once, on
first use, and read-only: `unlock`, the hiding decodes and the stack
checks read its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import BadDims, BadLabel, BadParam, NotDyadic, NotGHZDiagonal, TooLarge
from .family_classes import FamilyReport, even_cuts  # re-exported
from .family_classes import _check_n, direct_classes, recursive_classes, verify_classes, verify_cuts
from .family_labels import LABELS, PAIRING
from .linalg import projector
from .pairs import require_integer
from .states import BELL_KINDS, ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell, ket
from .tolerances import UPB_SEESAW_TOL

# Conjugating rho+ by this Pauli on any single qubit yields the sibling.
PAULI_CONNECTION = {"rho+": ID2, "rho-": SIGMA_Z, "sigma+": SIGMA_X, "sigma-": 1j * SIGMA_Y}

_BELLS = np.array([bell(k) for k in BELL_KINDS])
# Index into BELL_KINDS of the Bell state PAIRING predicts, per (label, outcome).
_PREDICTED = np.array([[BELL_KINDS.index(PAIRING[lab][out]) for out in LABELS] for lab in LABELS])
# The six pairs of distinct states, as the upper triangle of a 4 x 4 Gram matrix.
_TRIU = np.triu_indices(4, 1)


@dataclass(frozen=True, eq=False, init=False)
class BEFamily:
    """The four states of an n-qubit family, as class values (a
    construction's) or as stacks (`BEFamily(n, parts)`, whose `_classes` is
    None); `d`, `o`, `parts`, `states` and the unlock table are read-only,
    each built on first use."""

    n_qubits: int

    def __init__(self, n_qubits, parts):
        # parts must fit n_qubits, with a real d (shape and dtype tests only,
        # no scan of the entries); they are copied once into the read-only
        # stacks d and o, so the cached dense view and unlock table stay fixed
        _check_n(n_qubits)
        if parts.keys() != set(LABELS):
            raise BadLabel(f"family labels {sorted(map(str, parts))}, want {LABELS}")
        dim = 1 << n_qubits
        rows = [tuple(map(np.asarray, parts[lab])) for lab in LABELS]
        for lab, (d, o) in zip(LABELS, rows):
            if d.shape != (dim,) or o.shape != (dim,):
                raise BadDims(f"{lab}: d and o need shape ({dim},), got {d.shape} and {o.shape}")
            if np.iscomplexobj(d):
                raise BadParam(f"{lab}: d is a density matrix's diagonal and must be real, got dtype {d.dtype}")
        d, o = _read_only(*(np.array(col) for col in zip(*rows)))
        for name, value in (("n_qubits", n_qubits), ("_classes", None), ("d", d), ("o", o)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_classes(cls, n, classes):
        """The family of a construction's class values (D, O), as
        `family_classes` builds them: no check and no copy."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "n_qubits", n)
        object.__setattr__(fam, "_classes", classes)
        return fam

    @cached_property
    def _stacks(self):
        """d and o gathered from the class values, as read-only views of one
        (2, 4, 2^n) float64 block: entry q of a row is its class value at
        the weight of q."""
        block = np.take(_class_floats(self._classes), _class_table(self.n_qubits)[0], axis=-1)
        block.flags.writeable = False
        return tuple(block)

    @cached_property
    def d(self):
        """(4, 2^n) diagonals in LABELS order."""
        return self._stacks[0]

    @cached_property
    def o(self):
        """(4, 2^n) anti-diagonals in LABELS order, one dtype."""
        return self._stacks[1]

    @cached_property
    def parts(self):
        """label -> (d, o), see ghz_parts: read-only row views of d and o."""
        return MappingProxyType(dict(zip(LABELS, zip(self.d, self.o))))

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
        """`_unlock_table` of the stacks, built on first use: unlock, the
        hiding decodes and verify_family on the stacks read its rows."""
        return _unlock_table(self.d, self.o)


@cache
def _class_table(n):
    """Read-only weight[q], the Hamming weight of q, and rep[w] = 2^w - 1,
    the least index of weight w."""
    return _read_only(np.bitwise_count(np.arange(1 << n)), (1 << np.arange(n + 1)) - 1)


@cache
def _class_floats(classes):
    """Class values (D, O) in units of 4^-n as one read-only (2, 4, n + 1)
    float64 block, exactly: one per construction and n."""
    n = len(classes[0][0]) - 1
    return _read_only(np.array(classes, dtype=float) * 4.0**-n)[0]


def _symmetric(n, d, o):
    """Whether stacks d and o are invariant under every qubit permutation,
    so constant on each Hamming-weight class: one gather, each entry
    against its class representative."""
    weight, rep = _class_table(n)
    return all(np.array_equal(x, x[:, rep][:, weight]) for x in (d, o))


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


def pt_min_eigenvalues(parts, cuts):
    """Smallest partial-transpose eigenvalue of a GHZ-diagonal state per cut.

    Transposing the qubits in a cut with bit mask S moves the entry at
    (q, qbar) to (q ^ S, qbar ^ S), so the PT splits into 2x2 blocks
    {r, rbar} with off-diagonal o[r ^ S].  Each block's smallest eigenvalue
    is (d + dbar)/2 - sqrt(((d - dbar)/2)^2 + |c|^2).  On verify_family's
    gated parts at n <= 10 the root's argument is exact and IEEE sqrt
    correctly rounded: each sign is exact.
    """
    d, o = parts
    dim = d.shape[-1]
    index = np.arange(dim) ^ _cut_masks(dim.bit_length() - 1, cuts)[:, None]
    d, dbar = d[..., None, :], d[..., None, ::-1]
    root = np.take((o * o.conj()).real, index, axis=-1)
    half = (d - dbar) / 2
    np.sqrt(np.add(half * half, root, out=root), out=root)
    return np.subtract((d + dbar) / 2, root, out=root).min(axis=-1)


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
def _bell_projectors():
    """The (label, outcome, 4, 4) Bell projectors PAIRING pairs with each
    (label, outcome), as one read-only block of exact entries (0, +/-1/2):
    exactly the conditionals unlock leaves on a family.  The two-qubit
    support projectors are the Bell projectors of the rho+ row of PAIRING."""
    bells = {PAIRING["rho+"][lab]: ghz_dense(*_support_parts(2, lab)) for lab in LABELS}
    return _read_only(np.array([[bells[PAIRING[lab][out]] for out in LABELS] for lab in LABELS]))[0]


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
    2^(n-2) support vectors, as class values (`direct_classes`)."""
    _check_n(n)
    return BEFamily._of_classes(n, direct_classes(int(n)))


def be_family(n):
    """Recursive construction: Bell-correlate the four (n-2)-qubit states
    with the four Bell projectors on two appended qubits, as class values
    (`recursive_classes`).

    The two-qubit members are the Bell states themselves (rho+ -> phi+,
    rho- -> phi-, sigma+ -> psi+, sigma- -> psi-, the rho+ row of PAIRING).
    kron(A, B) has diagonal kron(d_A, d_B) and anti-diagonal kron(o_A, o_B),
    and the entries of each kron off both diagonals cancel in the sum over
    outcomes.  Every value is an exact integer in units of 4^-n, so the
    stacks gathered from them equal be_family_direct's bit for bit.
    """
    _check_n(n)
    return BEFamily._of_classes(n, recursive_classes(int(n)))


def verify_family(fam, quick=False):
    """Run the seven family checks, collecting per-cut PT evidence; none
    builds a dense matrix.

    A construction carries class values (`BEFamily._classes`) and is
    decided on them by `verify_classes`, in Python ints.  A family built by
    hand is decided on its stacks fam.d and fam.o, symmetric or not:
    _check_dyadic gates every entry before any check runs, and symmetry is
    one gather, each entry against its class representative.  At n <= 10
    every product and sum below is an integer under 2^51 in units of
    16^-n, so all seven checks are exact comparisons.  Orthogonality is the
    Gram matrix d d^T + Re(o o_rev^T) against 0, pt_min_eigenvalues gives
    each cut's minimum and reduced_diagonal every marginal, in one gather.
    The PT flags read each minimum's sign, the Pauli connection on qubits 0
    and n - 1 is a gather times +/-1, and unlock reads the family's unlock
    table.  quick=True only leaves `cut_evidence` empty.
    """
    n = fam.n_qubits
    if fam._classes is not None:
        return verify_classes(n, *fam._classes, quick=quick)
    d, o = fam.d, fam.o
    for x in (d, o):
        _check_dyadic(x, n)
    permutation_symmetric = _symmetric(n, d, o)

    gram = d @ d.T + (o @ o[:, ::-1].T).real  # o[:, ::-1][q] = o[qbar]
    orthogonal = bool((gram[_TRIU] == 0).all())

    cuts = verify_cuts(n)
    mins = pt_min_eigenvalues((d, o), cuts)
    single = np.array([len(cut) == 1 for cut in cuts])
    even_cut_ppt = bool((mins[:, ~single] >= 0).all())
    single_vs_rest_npt = bool((mins[:, single] < 0).all())
    evidence = []
    if not quick:
        evidence = [(lab, cut, m) for cut, row in zip(cuts, mins.T.tolist()) for lab, m in zip(LABELS, row)]

    reduced_max_mixed = bool((reduced_diagonal(d, slice(None)) == 1.0 / (1 << (n - 1))).all())

    pauli_connected = all(
        np.array_equal(x, y)
        for k in (0, n - 1)
        for j, lab in enumerate(LABELS)
        for x, y in zip(_pauli_conjugate((d[0], o[0]), PAULI_CONNECTION[lab], k), (d[j], o[j]))
    )

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
    conditional and fidelity, or an infinite one with nonzero entries,
    without a numpy warning.
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
    subspace; a value bounded away from 1 evidences unextendibility.
    BadParam unless trials is an integer (pairs.require_integer) of at
    least 1."""
    trials = require_integer("trials", trials)
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
