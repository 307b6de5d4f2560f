"""Entanglement detection: PPT, CHSH, reduction criterion, maximally
entangled fraction, and the rank-2 distillability test.

The two optimizers here (fraction seesaw, rank-2 seesaw) are heuristic
lower bounds / finders: their randomness is seeded and every reported
value is directly evaluable against the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDims, BadParam, MissingDims, TooLarge
from .linalg import (
    kron,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    permute_ket,
    permute_subsystems,
)
from .measures import check_density
from .pairs import require_integer
from .states import PAULI, random_unitary
from .tolerances import FMAX_TOL, FRACTION_SEESAW_TOL, PPT_TOL, PSD_CLAMP, RANK2_SEESAW_TOL

# Most updates per restart of each seesaw; a restart stops earlier once its
# value moves by at most FRACTION_SEESAW_TOL or RANK2_SEESAW_TOL.
FRACTION_SEESAW_ITERS = 50
RANK2_SEESAW_ITERS = 40


def min_pt_eigenvalue(rho, dims, cut):
    """Smallest eigenvalue of the partial transpose across `cut`."""
    return min_eigenvalue(partial_transpose(rho, dims, cut))


def is_ppt(rho, dims, cut):
    """(ppt, min PT eigenvalue); ppt iff the minimum stays at or above -PPT_TOL."""
    if dims is None:
        raise MissingDims("is_ppt needs subsystem dimensions")
    m = min_pt_eigenvalue(check_density(rho), dims, cut)
    return m >= -PPT_TOL, m


def chsh_M(rho):
    """Horodecki M criterion for a 2-qubit state: sum of the two largest
    eigenvalues of Gamma^T Gamma; M > 1 signals a Bell-CHSH violation."""
    rho = check_density(rho)
    if rho.shape != (4, 4):
        raise BadDims("chsh_M expects a 4x4 density matrix")
    gamma = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            gamma[i, j] = np.trace(rho @ kron(PAULI[i], PAULI[j])).real
    w = np.linalg.eigvalsh(gamma.T @ gamma)
    return float(w[-1] + w[-2])


def reduction_check(rho, dims, cut):
    """True iff the reduction criterion is violated across `cut`.

    Checks min eigenvalues of I (x) rho_B - rho and rho_A (x) I - rho,
    with the `cut` subsystems playing the role of side A.
    """
    if dims is None:
        raise MissingDims("reduction_check needs subsystem dimensions")
    rho = check_density(rho)
    cut = sorted({int(c) for c in cut})
    rest = [i for i in range(len(dims)) if i not in cut]
    rho_a = partial_trace(rho, dims, cut)
    rho_b = partial_trace(rho, dims, rest)
    rho_ab, _ = permute_subsystems(rho, dims, cut + rest)
    da, db = rho_a.shape[0], rho_b.shape[0]
    m1 = min_eigenvalue(kron(np.eye(da), rho_b) - rho_ab)
    m2 = min_eigenvalue(kron(rho_a, np.eye(db)) - rho_ab)
    return min(m1, m2) < -PSD_CLAMP


def _restarts(restarts):
    """restarts as a Python int; BadParam unless it is an integer
    (pairs.require_integer) of at least 1."""
    n = require_integer("restarts", restarts)
    if n < 1:
        raise BadParam(f"restarts = {restarts}: at least one restart is required")
    return n


def _polar_unitary(m):
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def max_entangled_fraction(rho, dims, restarts=16, seed=0):
    """Lower bound on max <Psi| rho |Psi> over maximally entangled |Psi>.

    Parametrizes |Psi> = (U (x) I)|Phi+_d> and runs alternating
    polar-decomposition updates from `restarts` seeded starts (the first
    start is U = I).  Monotone in restarts by construction.
    """
    restarts = _restarts(restarts)
    if dims is None:
        raise MissingDims("max_entangled_fraction needs subsystem dimensions")
    rho = check_density(rho)
    if len(dims) != 2 or dims[0] != dims[1]:
        raise BadDims(f"need a d x d bipartite state, got dims {tuple(dims)}")
    d = dims[0]
    best = -math.inf
    for r in range(restarts):
        u = np.eye(d, dtype=complex) if r == 0 else random_unitary(d, (seed, r))
        prev = -math.inf
        for _ in range(FRACTION_SEESAW_ITERS):
            vec = u.reshape(-1) / math.sqrt(d)
            grad = (rho @ vec).reshape(d, d)
            val = float((vec.conj() @ rho @ vec).real)
            if abs(val - prev) <= FRACTION_SEESAW_TOL * max(1.0, abs(val)):
                break
            prev = val
            u = _polar_unitary(grad)
        vec = u.reshape(-1) / math.sqrt(d)
        val = float((vec.conj() @ rho @ vec).real)
        best = max(best, val)
    return best


@dataclass
class Rank2Result:
    found: bool
    value: float
    witness: np.ndarray  # amplitudes over the k-copy system
    witness_dims: tuple


def distillable_rank2(rho, dims, cut, copies=1, restarts=8, seed=0):
    """Seesaw search for a Schmidt-rank-2 state with negative overlap
    against (rho^{T_cut})^(x copies).

    A negative best value certifies distillability; a nonnegative one is
    inconclusive (never "undistillable").
    """
    copies = require_integer("copies", copies)
    if copies < 1:
        raise BadParam(f"copies = {copies}: at least one copy is required")
    restarts = _restarts(restarts)
    if dims is None:
        raise MissingDims("distillable_rank2 needs subsystem dimensions")
    rho = check_density(rho)
    dim = rho.shape[0]
    # copies > 12 already exceeds 2^12 for dim >= 2, so no larger power is
    # formed; it also bounds the copy loop of a 1x1 state
    if copies > 12 or dim**copies > 2**12:
        raise TooLarge(f"{copies} copies of dimension {dim} exceed the 2^12 size guard")
    cut = sorted({int(c) for c in cut})
    n = len(dims)
    rest = [i for i in range(n) if i not in cut]

    pt = partial_transpose(rho, dims, cut)
    w = pt
    for _ in range(copies - 1):
        w = kron(w, pt)
    dims_k = tuple(dims) * copies
    a_idx = [c * n + j for c in range(copies) for j in cut]
    b_idx = [c * n + j for c in range(copies) for j in rest]
    w, _ = permute_subsystems(w, dims_k, a_idx + b_idx)
    da = math.prod(dims_k[i] for i in a_idx)
    db = math.prod(dims_k[i] for i in b_idx)
    if min(da, db) < 2:
        # no Schmidt-rank-2 state exists across a 1-dimensional side; the
        # partial transpose of such a state is PSD anyway
        val = min_eigenvalue(w)
        vec = np.zeros(da * db, dtype=complex)
        vec[0] = 1.0
        return Rank2Result(found=False, value=max(val, 0.0), witness=vec, witness_dims=dims_k)
    wt = w.reshape(da, db, da, db)

    def orthonormal_pair(rng, dim_side):
        g = rng.standard_normal((dim_side, 2)) + 1j * rng.standard_normal((dim_side, 2))
        q, _ = np.linalg.qr(g)
        return q[:, :2]

    best_val = math.inf
    best_vec = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        v = orthonormal_pair(rng, db)
        psi_mat = None
        prev = math.inf
        for _ in range(RANK2_SEESAW_ITERS):
            hv = np.einsum("bs,abcd,dt->asct", v.conj(), wt, v).reshape(2 * da, 2 * da)
            vals, vecs = np.linalg.eigh(hv)
            psi_mat = vecs[:, 0].reshape(da, 2) @ v.T
            uu, _, _ = np.linalg.svd(psi_mat, full_matrices=False)
            u = uu[:, :2]
            hu = np.einsum("as,abcd,ct->sbtd", u.conj(), wt, u).reshape(2 * db, 2 * db)
            vals, vecs = np.linalg.eigh(hu)
            val = float(vals[0])
            psi_mat = u @ vecs[:, 0].reshape(2, db)
            _, _, vh = np.linalg.svd(psi_mat, full_matrices=False)
            v = vh[:2].conj().T
            if abs(val - prev) <= RANK2_SEESAW_TOL:
                break
            prev = val
        if prev < best_val:
            best_val = prev
            best_vec = psi_mat.reshape(-1)
    # undo the A-group/B-group ordering so the witness lives on the natural
    # copy-by-copy tensor ordering
    grouped_dims = tuple(dims_k[i] for i in a_idx + b_idx)
    inverse = np.argsort(a_idx + b_idx)
    witness, wdims = permute_ket(best_vec, grouped_dims, inverse)
    return Rank2Result(
        found=bool(best_val < -PPT_TOL),
        value=best_val,
        witness=witness,
        witness_dims=wdims,
    )


@dataclass
class WitnessReport:
    ppt: bool
    min_pt_eigenvalue: float
    reduction_violated: bool
    chsh_m: float | None = None
    fmax: float | None = None
    fmax_is_lower_bound: bool = True
    fmax_flags_entangled: bool | None = None
    distillable: dict | None = None
    seed: int = 0
    cut: tuple = field(default_factory=tuple)


def witness_report(rho, dims, cut=(0,), seed=0, copies=1):
    """Bundle of the detection criteria applicable to the given state."""
    ppt, m = is_ppt(rho, dims, cut)
    rep = WitnessReport(
        ppt=ppt,
        min_pt_eigenvalue=m,
        reduction_violated=reduction_check(rho, dims, cut),
        seed=seed,
        cut=tuple(sorted(cut)),
    )
    if tuple(dims) == (2, 2):
        rep.chsh_m = chsh_M(rho)
    if len(dims) == 2 and dims[0] == dims[1]:
        rep.fmax = max_entangled_fraction(rho, dims, seed=seed)
        rep.fmax_flags_entangled = bool(rep.fmax > 1.0 / dims[0] + FMAX_TOL)
    r2 = distillable_rank2(rho, dims, cut, copies=copies, seed=seed)
    rep.distillable = {"found": r2.found, "value": r2.value}
    return rep
