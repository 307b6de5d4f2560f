"""State construction and decomposition: Bell/Werner states, random pure
states and unitaries, Schmidt vectors of pure states, state file I/O."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import BadParam, BadSplit, MissingDims, NotDensity
from .linalg import doc_dims, doc_numbers, load_doc, projector
from .tolerances import TRACE_TOL

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
    if not abs(norm - 1.0) <= TRACE_TOL:  # a NaN norm fails this test too
        bad = ~np.isfinite(psi)
        if bad.any():
            i = int(bad.argmax())
            raise NotDensity(f"amplitude {i} = {psi[i]} is not finite")
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
