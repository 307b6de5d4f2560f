"""Dense complex linear algebra sized for <= 2^10 dimensional matrices.

Matrices are plain numpy arrays; composite systems carry an explicit
tuple of subsystem dimensions whose product equals the matrix size.  Real
input (such as the float64 view of the bound entangled family) is
accepted: every function that computes with a matrix casts it to complex
on entry, directly or through the function it calls; `dag` and
`is_hermitian` read real input as it is.
Everything here is a pure function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, BadSubset, ComplexRoots, MissingDims, NotHermitian, NotPSD
from .tolerances import CARDAN_TOL, HERM_TOL, PHASE_TOL, PSD_CLAMP


def projector(v):
    """|v><v| for an amplitude vector v (not normalized here)."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def dag(a):
    return np.asarray(a).conj().T


def is_hermitian(a):
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.max(np.abs(a - dag(a))) <= HERM_TOL


def kron(a, b):
    """Tensor product with block structure a_ij * b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _check_dims(rho, dims):
    if dims is None:
        raise MissingDims("matrix carries no subsystem dimensions")
    dims = tuple(int(d) for d in dims)
    n = rho.shape[0]
    if rho.shape[0] != rho.shape[1] or math.prod(dims) != n:
        raise MissingDims(f"product of dims {dims} != matrix size {n}")
    return dims


def _check_subset(part, nsub):
    part = sorted({int(k) for k in part})
    if not part or part[0] < 0 or part[-1] >= nsub:
        raise BadSubset(f"subsystem subset {part} out of range for {nsub} parts")
    return part


def partial_trace(rho, dims, keep):
    """Reduced density matrix over the kept subsystems.

    `keep` is an iterable of subsystem indices; the result's subsystem
    order follows ascending index order.  Trace is preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _check_dims(rho, dims)
    n = len(dims)
    keep = _check_subset(keep, n)
    traced = [i for i in range(n) if i not in keep]
    t = rho.reshape(dims + dims)
    # move kept row/col axes to the front, traced pairs to the back
    order = keep + [n + k for k in keep] + traced + [n + k for k in traced]
    t = np.transpose(t, order)
    dk = math.prod(dims[k] for k in keep)
    dt = math.prod(dims[k] for k in traced) if traced else 1
    t = t.reshape(dk, dk, dt, dt)
    return np.einsum("abcc->ab", t)


def partial_transpose(rho, dims, part):
    """Transpose the subsystems listed in `part`; hermiticity and trace preserved."""
    rho = np.asarray(rho, dtype=complex)
    dims = _check_dims(rho, dims)
    n = len(dims)
    part = _check_subset(part, n)
    t = rho.reshape(dims + dims)
    order = list(range(2 * n))
    for k in part:
        order[k], order[n + k] = order[n + k], order[k]
    return np.transpose(t, order).reshape(rho.shape)


def permute_subsystems(rho, dims, perm):
    """Reorder tensor factors: new subsystem i is old subsystem perm[i]."""
    rho = np.asarray(rho, dtype=complex)
    dims = _check_dims(rho, dims)
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise BadSubset(f"{perm} is not a permutation of 0..{n - 1}")
    t = rho.reshape(dims + dims)
    order = perm + [n + p for p in perm]
    new_dims = tuple(dims[p] for p in perm)
    return np.transpose(t, order).reshape(rho.shape), new_dims


def permute_ket(psi, dims, perm):
    """Same reordering for an amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != psi.size:
        raise MissingDims(f"product of dims {dims} != vector size {psi.size}")
    perm = list(perm)
    if sorted(perm) != list(range(len(dims))):
        raise BadSubset(f"{perm} is not a permutation")
    t = psi.reshape(dims)
    return np.transpose(t, perm).reshape(-1), tuple(dims[p] for p in perm)


@dataclass(frozen=True)
class EigResult:
    """Spectrum sorted descending with column-aligned orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(h):
    """Full eigendecomposition of a hermitian matrix.

    Values come out descending; ties keep the backend order and each
    eigenvector's first nonzero component is made real-positive so the
    output is deterministic for golden tests.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NotHermitian(f"matrix not hermitian within {HERM_TOL}")
    vals, vecs = np.linalg.eigh(h)
    vals = vals[::-1].real.copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > PHASE_TOL)[0]
        if nz.size:
            lead = col[nz[0]]
            vecs[:, j] = col * (lead.conjugate() / abs(lead))
    return EigResult(values=vals, vectors=vecs)


def eigvals_hermitian(h):
    """Descending eigenvalues only (cheaper than eig_hermitian)."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NotHermitian(f"matrix not hermitian within {HERM_TOL}")
    return np.linalg.eigvalsh(h)[::-1].copy()


def min_eigenvalue(h):
    """Smallest eigenvalue of a hermitian matrix."""
    return float(eigvals_hermitian(h)[-1])


def trace_norm(a):
    """Sum of singular values, tr sqrt(X^dagger X)."""
    a = np.asarray(a, dtype=complex)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def psd_sqrt(a):
    """Positive square root of a PSD hermitian matrix.

    Eigenvalues in [-PSD_CLAMP, 0) are treated as numerical noise and
    clamped to zero; anything below -PSD_CLAMP raises NotPSD.
    """
    eig = eig_hermitian(a)
    vals = eig.values
    if vals[-1] < -PSD_CLAMP:
        raise NotPSD(f"matrix has eigenvalue {vals[-1]:.3e} < -{PSD_CLAMP}")
    vals = np.sqrt(np.clip(vals, 0.0, None))
    return (eig.vectors * vals) @ dag(eig.vectors)


def cardan_roots(G, H):
    """Real roots of x^3 - 3 G x + H = 0 (trigonometric form).

    Requires G >= 0 and H^2 <= 4 G^3 so that all three roots are real.
    Returned in the order 2*sqrt(G)*cos(2pi/3 + alpha), 2*sqrt(G)*cos(alpha),
    2*sqrt(G)*cos(2pi/3 - alpha) with cos(3 alpha) = -H / (2 sqrt(G^3)).
    """
    G = float(G)
    H = float(H)
    if G < -CARDAN_TOL:
        raise ComplexRoots(f"G = {G} must be nonnegative")
    G = max(G, 0.0)
    if H * H > 4.0 * G**3 + CARDAN_TOL:
        raise ComplexRoots(f"H^2 = {H * H:.3e} exceeds 4 G^3 = {4 * G**3:.3e}")
    if G == 0.0:
        return np.zeros(3)
    c3a = np.clip(-H / (2.0 * math.sqrt(G**3)), -1.0, 1.0)
    alpha = math.acos(c3a) / 3.0
    r = 2.0 * math.sqrt(G)
    return np.array(
        [
            r * math.cos(2.0 * math.pi / 3.0 + alpha),
            r * math.cos(alpha),
            r * math.cos(2.0 * math.pi / 3.0 - alpha),
        ]
    )


# ---------------------------------------------------------------------------
# matrix file format: {"dims": [...], "re": [[...]], "im": [[...]]}

def write_matrix(path, a, dims=None):
    a = np.asarray(a, dtype=complex)
    doc = {
        "dims": None if dims is None else [int(d) for d in dims],
        "re": [[float(f"{x:.17g}") for x in row] for row in a.real],
        "im": [[float(f"{x:.17g}") for x in row] for row in a.imag],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_doc(path):
    """The JSON object of a matrix or state file; anything else is a
    BadParam naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadParam(f"cannot load state/matrix file {path!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise BadParam(f"state/matrix file {path!r} must hold a JSON object")
    return doc


def doc_numbers(value):
    """A JSON array of numbers (no strings, bools or nulls, anywhere) as a
    float array, or None."""
    try:
        arr = np.asarray(value, dtype=object)
        if all(type(x) in (int, float) for x in arr.flat):
            return arr.astype(float)
    except (ValueError, OverflowError):  # a nesting numpy refuses, an int beyond float
        pass
    return None


def doc_dims(doc, path):
    """The file's dims: null, or a non-empty list of positive ints."""
    dims = doc.get("dims")
    if dims is None:
        return None
    if not (isinstance(dims, list) and dims and all(type(d) is int and d > 0 for d in dims)):
        raise BadParam(f"dims in {path!r} must be null or a list of positive integers, got {dims!r}")
    return tuple(dims)


def matrix_from_doc(doc, path):
    """(matrix, dims) from a matrix file's JSON object: `re` and `im` are
    square arrays of numbers of one shape."""
    dims = doc_dims(doc, path)
    re_, im = doc_numbers(doc.get("re")), doc_numbers(doc.get("im"))
    if re_ is None or im is None or re_.ndim != 2 or re_.shape[0] != re_.shape[1] or im.shape != re_.shape:
        raise BadParam(f"re and im in {path!r} must be square matrices of numbers, of one shape")
    return re_ + 1j * im, dims


def read_matrix(path):
    """Returns (matrix, dims); dims may be None."""
    return matrix_from_doc(load_doc(path), path)
