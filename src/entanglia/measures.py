"""Classical and quantum entropy/entanglement measures.

All logarithms are base 2 (ebit/cbit units).  Eigenvalues in [-PSD_CLAMP, 0)
are clamped to zero before any entropy is taken.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadDims, BadParam, MissingDims, NotDensity
from .linalg import (
    eigvals_hermitian,
    is_hermitian,
    kron,
    partial_transpose,
    psd_sqrt,
    trace_norm,
)
from .majorization import as_prob_vector
from .states import SIGMA_Y, schmidt_vector
from .tolerances import PSD_CLAMP, TRACE_TOL


def _xlog2x(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log2(p[nz])
    return out


def shannon(p):
    """H(p) = -sum p_i log2 p_i, with 0 log 0 = 0 (and +0.0, not -0.0, for
    a pure p)."""
    return float(0.0 - np.sum(_xlog2x(as_prob_vector(p))))


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x) on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise BadParam(f"binary entropy argument {x} outside [0, 1]")
    return shannon(np.array([x, 1.0 - x]))


def check_density(rho):
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho):
        raise NotDensity("density matrix must be hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise NotDensity(f"trace {np.trace(rho).real} != 1")
    # |rho_ij| <= tr rho for a PSD rho: larger entries are no density matrix
    # and would overflow the eigensolvers downstream
    largest = np.abs(rho).max()
    if largest > 1.0 + TRACE_TOL:
        raise NotDensity(f"an entry has modulus {float(largest)!r} > 1")
    return rho


def von_neumann_entropy(rho):
    """S(rho) = -tr(rho log2 rho)."""
    vals = eigvals_hermitian(check_density(rho))
    if vals[-1] < -PSD_CLAMP:
        raise NotDensity(f"negative eigenvalue {vals[-1]:.3e}")
    vals = np.clip(vals, 0.0, None)
    return float(0.0 - np.sum(_xlog2x(vals / vals.sum())))


def entanglement_entropy(psi, dims, split):
    """Entropy of entanglement of a pure state across a bipartite split (ebits)."""
    return shannon(schmidt_vector(psi, dims, split))


def concurrence_pure(psi, dims, split):
    """sqrt(2 (1 - tr rho_S^2)) for a pure state across the split."""
    lam = schmidt_vector(psi, dims, split)
    return float(math.sqrt(max(0.0, 2.0 * (1.0 - np.sum(lam**2)))))


def _spin_flipped(rho):
    yy = kron(SIGMA_Y, SIGMA_Y)
    return yy @ rho.conj() @ yy


def concurrence_2q(rho):
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} from the R-matrix."""
    rho = check_density(rho)
    if rho.shape != (4, 4):
        raise BadDims("concurrence_2q expects a 4x4 density matrix")
    root = psd_sqrt(rho)
    r = psd_sqrt(root @ _spin_flipped(rho) @ root)
    lam = eigvals_hermitian(r)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def eof_2q(rho):
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) for two qubits."""
    c = concurrence_2q(rho)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def negativity(rho, dims, cut):
    """N = (||rho^{T_cut}|| - 1) / 2; zero for PPT states."""
    if dims is None:
        raise MissingDims("negativity needs subsystem dimensions")
    pt = partial_transpose(check_density(rho), dims, cut)
    return float(max(0.0, (trace_norm(pt) - 1.0) / 2.0))


def log_negativity(rho, dims, cut):
    """E_N = log2 ||rho^{T_cut}||; additive across tensor products."""
    if dims is None:
        raise MissingDims("log_negativity needs subsystem dimensions")
    pt = partial_transpose(check_density(rho), dims, cut)
    return float(max(0.0, math.log2(trace_norm(pt))))
