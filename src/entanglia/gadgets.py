"""Tripartite probe constructions that turn candidate single-qubit
operations (exact flip, anti-unitary, angle-preserving) into LOCC verdicts.

The probe is a 3 x (2 x 2) pure state; the candidate operation acts on the
last qubit and the qutrit's reduced spectra before/after are compared.  The
qutrit's state is built from the probe's 3 x 4 amplitude matrix; the cubic
closed forms act as a cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParam, NonFinite
from .linalg import cardan_roots, eigvals_hermitian
from .majorization import MajVerdict, compare
from .measures import shannon
from .tolerances import CASE_TOL, MAJ_TOL, TRACE_TOL

KET_0X = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_0Y = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
KET_0Z = np.array([1.0, 0.0], dtype=complex)
KET_1X = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
KET_1Y = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)
KET_1Z = np.array([0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class GadgetResult:
    initial_schmidt: np.ndarray
    final_schmidt: np.ndarray
    verdict: str  # Incomparable | EntanglementIncreased | NoViolation
    a_initial: float
    b_initial: float
    a_final: float
    b_final: float
    entropy_initial: float
    entropy_final: float
    cardan_initial: np.ndarray
    cardan_final: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _probe(states_b1, states_b2):
    """Qutrit state of the probe (1/sqrt 3) sum_i |i> (x) |b1_i> (x) |b2_i>:
    (1/3) W W^dag for the 3 x 4 amplitude matrix W.  The complex broadcast
    product summed by einsum keeps the partial trace's bits; W @ W^dag, or a
    real W, does not."""
    w = np.array([np.kron(b1, b2) for b1, b2 in zip(states_b1, states_b2)], dtype=complex)
    w /= math.sqrt(3.0)
    return np.einsum("abc->ab", w[:, None, :] * w.conj()[None, :, :])


def _offdiag_pqr(rho):
    """Off-diagonal parameters of a qutrit state written as (I + K)/3."""
    k = 3.0 * np.asarray(rho)
    return k[0, 1], k[0, 2], k[1, 2]


def _cubic_coeffs(rho):
    """(A, B) of the eigenvalue cubic x^3 - 3 A x + B with x = 1 - 3 lambda."""
    p, q, r = _offdiag_pqr(rho)
    a = (abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2) / 3.0
    b = 2.0 * (p * r * q.conjugate()).real
    return float(a), float(b)


def _cardan_spectrum(a, b):
    """Descending spectrum from the cubic closed form."""
    return np.sort((1.0 - cardan_roots(a, b)) / 3.0)[::-1]


def _verdict(spec_i, spec_f):
    cmp = compare(spec_i, spec_f)
    if cmp is MajVerdict.Incomparable:
        return "Incomparable"
    if shannon(spec_f) > shannon(spec_i) + MAJ_TOL:
        return "EntanglementIncreased"
    return "NoViolation"


def _result(rho_i, rho_f, diagnostics=None, verdict=None):
    spec_i = np.clip(eigvals_hermitian(rho_i), 0.0, None)
    spec_f = np.clip(eigvals_hermitian(rho_f), 0.0, None)
    a_i, b_i = _cubic_coeffs(rho_i)
    a_f, b_f = _cubic_coeffs(rho_f)
    return GadgetResult(
        initial_schmidt=spec_i,
        final_schmidt=spec_f,
        verdict=verdict or _verdict(spec_i, spec_f),
        a_initial=a_i,
        b_initial=b_i,
        a_final=a_f,
        b_final=b_f,
        entropy_initial=shannon(spec_i),
        entropy_final=shannon(spec_f),
        cardan_initial=_cardan_spectrum(a_i, b_i),
        cardan_final=_cardan_spectrum(a_f, b_f),
        diagnostics=diagnostics or {},
    )


def _require_finite(**params):
    """Name the first NaN or infinite parameter before it reaches a
    normalization gate (a `>` test, False for NaN) or a math call."""
    for name, value in params.items():
        if not cmath.isfinite(value):
            raise NonFinite(f"gadget parameter {name} = {value} is not finite")


def _flip_states(a, b, c, d, theta):
    _require_finite(a=a, b=b, c=c, d=d, theta=theta)
    if abs(a * a + b * b - 1.0) > TRACE_TOL or abs(c * c + d * d - 1.0) > TRACE_TOL:
        raise BadParam("flip gadget needs a^2 + b^2 = 1 = c^2 + d^2")
    if not 0.0 <= theta <= math.pi:
        raise BadParam(f"theta = {theta} outside [0, pi]")
    psi = np.array([a, b], dtype=complex)
    phi = np.array([c, d * cmath.exp(1j * theta)], dtype=complex)
    return psi, phi


def flip_gadget(a, b, c, d, theta, mu=0.0, nu=0.0):
    """Probe the exact flipper defined on |0>, a|0>+b|1>, c|0>+d e^{i theta}|1>.

    The three states sit on one great circle exactly when a b c d sin(theta)
    vanishes; anywhere else the initial/final spectra are incomparable.  The
    verdict is decided on that rule, not on the spectra: the flip keeps A
    (the purity) and moves B by the coplanarity gap, so off the circle the
    spectra differ with equal sum(lambda^2), which is strictly Schur-convex.
    Near the circle they differ by less than MAJ_TOL (theta = 1e-4 at
    a = c = 1/sqrt 2), and the float gap at theta = pi is 3.7e-33, not 0.
    """
    psi, phi = _flip_states(a, b, c, d, theta)
    _require_finite(mu=mu, nu=nu)
    fpsi = cmath.exp(1j * mu) * np.array([b, -a], dtype=complex)
    fphi = cmath.exp(1j * nu) * np.array([d * cmath.exp(-1j * theta), -c], dtype=complex)
    initial = _probe([KET_0Z, psi, phi], [KET_0Z, phi, psi])
    final = _probe([KET_0Z, psi, phi], [KET_1Z, fphi, fpsi])
    ip = a * c + b * d * cmath.exp(1j * theta)  # <psi|phi>
    diag = {
        "closed_form_A": (2.0 * a * a * c * c + abs(ip) ** 4) / 3.0,
        "closed_form_B": 2.0 * a * a * c * c * abs(ip) ** 2,
        "closed_form_B_final": 2.0 * a * a * c * c * (ip * ip).real,
        "coplanarity_gap": coplanarity_gap(a, b, c, d, theta),
    }
    coplanar = 0.0 in (a, b, c, d) or theta in (0.0, math.pi)
    return _result(initial, final, diag, "NoViolation" if coplanar else "Incomparable")


def coplanarity_gap(a, b, c, d, theta):
    """B - B' = 4 a^2 b^2 c^2 d^2 sin^2(theta); zero iff the three probe
    states share a great circle."""
    return 4.0 * (a * b * c * d) ** 2 * math.sin(theta) ** 2


def antiunitary_gadget(theta, alpha, beta):
    """Probe Gamma = C.U (conjugation after a general unitary) on the three
    axis states.  The final spectrum carries no (theta, alpha, beta)
    dependence; a plain-U leg confirms nothing signals without the
    conjugation."""
    _require_finite(theta=theta, alpha=alpha, beta=beta)
    _require_finite(**{"alpha + beta": alpha + beta})  # 1e308 + 1e308 overflows
    u = np.array(
        [
            [math.cos(theta), cmath.exp(1j * alpha) * math.sin(theta)],
            [-cmath.exp(1j * beta) * math.sin(theta), cmath.exp(1j * (alpha + beta)) * math.cos(theta)],
        ]
    )
    gamma = lambda v: (u @ v).conj()
    initial = _probe([KET_0Z, KET_0X, KET_0Y], [KET_0Z, KET_0Y, KET_0X])
    final = _probe([KET_0Z, KET_0X, KET_0Y], [gamma(KET_0Z), gamma(KET_0Y), gamma(KET_0X)])
    plain = _probe([KET_0Z, KET_0X, KET_0Y], [u @ KET_0Z, u @ KET_0Y, u @ KET_0X])
    diag = {"plain_u_delta": float(np.max(np.abs(plain - initial)))}
    return _result(initial, final, diag)


def angle_preserving_gadget(alpha, beta):
    """Probe the inner-product preserving map |0_k> -> alpha|0_k> + beta|1_k>
    defined on the three axis states."""
    _require_finite(alpha=alpha, beta=beta)
    alpha = complex(alpha)
    beta = complex(beta)
    if abs(abs(alpha) * abs(alpha) + abs(beta) * abs(beta) - 1.0) > TRACE_TOL:
        raise BadParam("|alpha|^2 + |beta|^2 must be 1")
    out_z = alpha * KET_0Z + beta * KET_1Z
    out_x = alpha * KET_0X + beta * KET_1X
    out_y = alpha * KET_0Y + beta * KET_1Y
    initial = _probe([KET_0Z, KET_0X, KET_0Y], [KET_0Z, KET_0X, KET_0Y])
    final = _probe([KET_0Z, KET_0X, KET_0Y], [out_z, out_x, out_y])
    res = _result(initial, final)
    a_f, b_f = res.a_final, res.b_final
    if abs(b_f) <= CASE_TOL:
        case = "B=0"
    else:
        case = "B<0" if b_f < 0 else "B>0"
    if abs(a_f - 0.25) <= CASE_TOL:
        case += ",A=1/4"
    elif a_f < 0.25:
        case += ",A<1/4"
    else:
        case += ",A>1/4"
    res.diagnostics["case"] = case
    return res
