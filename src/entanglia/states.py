"""State construction and decomposition: Bell/Werner states, Bloch-sphere
conversions, Schmidt decomposition of pure states."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBloch, BadParam, BadSplit, MissingDims, NotDensity
from .linalg import doc_dims, doc_numbers, eig_hermitian, load_doc, projector
from .tolerances import BLOCH_TOL, RANK_TOL, TRACE_TOL

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def fix_phase(psi):
    """Make the largest-magnitude amplitude real-positive (global phase fix)."""
    psi = np.asarray(psi, dtype=complex)
    i = int(np.argmax(np.abs(psi)))
    lead = psi[i]
    if abs(lead) == 0:
        return psi.copy()
    return psi * (lead.conjugate() / abs(lead))


def check_pure(psi, dims=None):
    psi = np.asarray(psi, dtype=complex)
    with np.errstate(over="ignore"):  # a norm past the float range reads inf and is refused
        norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > TRACE_TOL:
        raise NotDensity(f"amplitude vector has norm {norm}")
    if dims is not None and math.prod(dims) != psi.size:
        raise MissingDims(f"product of dims {tuple(dims)} != length {psi.size}")
    return psi


def bell(kind):
    """One of the four Bell states, kind in {'phi+','phi-','psi+','psi-'}."""
    if kind not in BELL_KINDS:
        raise BadParam(f"unknown Bell state {kind!r}; want one of {BELL_KINDS}")
    s = 1.0 if kind.endswith("+") else -1.0
    v = np.zeros(4, dtype=complex)
    if kind.startswith("phi"):
        v[0], v[3] = 1.0, s
    else:
        v[1], v[2] = 1.0, s
    return v / math.sqrt(2.0)


def werner(p):
    """p * singlet + (1-p)/4 * I on two qubits; PPT iff p <= 1/3."""
    if not 0.0 <= p <= 1.0:
        raise BadParam(f"werner parameter p = {p} outside [0, 1]")
    return p * projector(bell("psi-")) + (1.0 - p) / 4.0 * np.eye(4, dtype=complex)


def bloch_to_qubit(n):
    """rho = (I + n . sigma) / 2 for a Bloch vector with |n| <= 1."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise BadBloch("Bloch vector must have 3 real components")
    if np.linalg.norm(n) > 1.0 + BLOCH_TOL:
        raise BadBloch(f"|n| = {np.linalg.norm(n)} exceeds 1")
    return 0.5 * (ID2 + n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)


def qubit_to_bloch(rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise NotDensity("expected a 2x2 density matrix")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise NotDensity(f"trace {np.trace(rho)} != 1")
    return np.array([float(np.trace(rho @ s).real) for s in PAULI])


def random_pure(dim, seed):
    """Unit-norm complex vector, deterministic per seed."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return fix_phase(v / np.linalg.norm(v))


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Squared Schmidt coefficients (descending) with aligned bases.

    `coefficients` are probabilities (they sum to 1 and feed majorization
    directly); amplitude coefficients are their square roots.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray  # columns over the split side
    right_basis: np.ndarray  # columns over the complement
    rank: int

    def reconstruct(self):
        """Amplitudes in (split, complement) ordering."""
        k = self.coefficients.size
        psi = np.zeros(self.left_basis.shape[0] * self.right_basis.shape[0], dtype=complex)
        for i in range(k):
            if self.coefficients[i] <= 0:
                continue
            psi += math.sqrt(self.coefficients[i]) * np.kron(
                self.left_basis[:, i], self.right_basis[:, i]
            )
        return psi


def _split_matrix(psi, dims, split):
    """Reshape amplitudes into a (split side) x (complement) matrix."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    split = sorted({int(s) for s in split})
    if not split or len(split) >= n or split[0] < 0 or split[-1] >= n:
        raise BadSplit(f"split {split} is not a proper nonempty subset of 0..{n - 1}")
    rest = [i for i in range(n) if i not in split]
    t = np.transpose(np.asarray(psi, dtype=complex).reshape(dims), split + rest)
    da = math.prod(dims[i] for i in split)
    return t.reshape(da, -1), split, rest


def schmidt(psi, dims, split):
    """Schmidt decomposition of a pure state across the given split.

    Uses the eigendecomposition of the reduced density matrix on the
    smaller side; the other side's vectors follow by applying the state.
    """
    psi = check_pure(psi, dims)
    m, split, rest = _split_matrix(psi, dims, split)
    da, db = m.shape
    if da <= db:
        rho = m @ m.conj().T
        eig = eig_hermitian(rho)
        lam = np.clip(eig.values, 0.0, None)
        left = eig.vectors
        right = np.zeros((db, da), dtype=complex)
        for i in range(da):
            if lam[i] > RANK_TOL:
                right[:, i] = (m.T @ left[:, i].conj()) / math.sqrt(lam[i])
    else:
        rho = (m.conj().T @ m).conj()  # reduced state on the complement
        eig = eig_hermitian(rho)
        lam = np.clip(eig.values, 0.0, None)
        right = eig.vectors
        left = np.zeros((da, db), dtype=complex)
        for i in range(db):
            if lam[i] > RANK_TOL:
                left[:, i] = (m @ right[:, i].conj()) / math.sqrt(lam[i])
    lam = lam / lam.sum()
    rank = int(np.sum(lam > RANK_TOL))
    return SchmidtDecomposition(coefficients=lam, left_basis=left, right_basis=right, rank=rank)


def schmidt_vector(psi, dims, split):
    """Just the descending squared Schmidt coefficients."""
    m, _, _ = _split_matrix(check_pure(psi, dims), dims, split)
    if m.shape[0] <= m.shape[1]:
        rho = m @ m.conj().T
    else:
        rho = m.conj().T @ m
    lam = np.clip(np.linalg.eigvalsh(rho)[::-1], 0.0, None)
    return lam / lam.sum()


# ---------------------------------------------------------------------------
# state file format mirrors the matrix format with an "amp" array

def write_state(path, psi, dims=None):
    psi = np.asarray(psi, dtype=complex)
    doc = {
        "dims": None if dims is None else [int(d) for d in dims],
        "amp": [[float(f"{x.real:.17g}"), float(f"{x.imag:.17g}")] for x in psi],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def state_from_doc(doc, path):
    """(amplitudes, dims) from a state file's JSON object: `amp` is a list
    of [re, im] number pairs, read bit for bit."""
    dims = doc_dims(doc, path)
    amp = doc_numbers(doc.get("amp"))
    if amp is None or amp.ndim != 2 or amp.shape[1] != 2:
        raise BadParam(f"amp in {path!r} must be a list of [re, im] pairs of numbers")
    return amp.view(complex)[:, 0], dims


def read_state(path):
    """Returns (amplitudes, dims); dims may be None."""
    return state_from_doc(load_doc(path), path)
