import json
import math
import warnings

import numpy as np
import pytest

from entanglia.errors import ComplexRoots, MissingDims, NotHermitian, NotPSD, TooLarge
from entanglia.linalg import (
    MAX_DIM,
    cardan_roots,
    eig_hermitian,
    is_hermitian,
    kron,
    partial_trace,
    partial_transpose,
    projector,
    psd_sqrt,
    read_matrix,
    trace_norm,
    write_matrix,
)
from entanglia.states import SIGMA_X, SIGMA_Z, bell

from conftest import random_density, rng_for


def test_a_non_finite_hermitian_difference_is_not_hermitian_and_warns_nothing():
    skew = np.diag([0.25] * 4).astype(complex)
    skew[0, 1], skew[1, 0] = 1e308, -1e308  # the difference overflows to inf
    nan = np.diag([0.25] * 4).astype(complex)
    nan[0, 1] = nan[1, 0] = np.inf  # inf - inf is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_hermitian(skew) and not is_hermitian(skew.real) and not is_hermitian(nan)
        assert is_hermitian(np.diag([1e308, -1e308, 0.0]))
        with pytest.raises(NotHermitian):
            eig_hermitian(skew)


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_bit_flip_both_qubits():
    xx = kron(SIGMA_X, SIGMA_X)
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(xx @ ket00, ket11)


def test_kron_catalysis_diagonal():
    a = np.diag([0.6, 0.4])
    b = np.diag([0.4, 0.4, 0.1, 0.1])
    d = np.sort(np.diagonal(kron(a, b)).real)[::-1]
    assert np.allclose(d, [0.24, 0.24, 0.16, 0.16, 0.06, 0.06, 0.04, 0.04])


def test_kron_associative():
    # exact on dyadic entries; random entries only differ by multiplication
    # rounding order, so compare at the ulp scale there
    a = np.array([[0.5, -0.25], [1.0, 0.75]], dtype=complex)
    b = np.array([[2.0, 0.5], [-0.5, 0.125]], dtype=complex)
    c = np.array([[1.0, -2.0], [0.25, 4.0]], dtype=complex)
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    rng = rng_for("kron-assoc")
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    y = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(kron(kron(x, y), z), kron(x, kron(y, z)), rtol=1e-14, atol=0)


def test_partial_trace_bell():
    rho = projector(bell("phi+"))
    assert np.allclose(partial_trace(rho, (2, 2), [0]), np.eye(2) / 2)


def test_partial_trace_product():
    rng = rng_for("pt-prod")
    chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    chi /= np.linalg.norm(chi)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi /= np.linalg.norm(phi)
    rho = projector(np.kron(chi, phi))
    assert np.allclose(partial_trace(rho, (3, 4), [1]), projector(phi))


def test_partial_trace_of_product_operators():
    rng = rng_for("pt-ops")
    ra = random_density(3, rng)
    rb = 2.5 * random_density(2, rng)  # non-unit trace picks up the factor
    got = partial_trace(kron(ra, rb), (3, 2), [0])
    assert np.max(np.abs(got - ra * np.trace(rb))) < 1e-12


def test_partial_trace_requires_dims():
    with pytest.raises(MissingDims):
        partial_trace(np.eye(4), None, [0])


def test_partial_transpose_involution_and_trace():
    rng = rng_for("pt-invol")
    rho = random_density(12, rng)
    pt = partial_transpose(rho, (3, 2, 2), [1])
    assert abs(np.trace(pt) - 1) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
    assert np.array_equal(partial_transpose(pt, (3, 2, 2), [1]), rho)


def test_partial_transpose_product_state_stays_psd():
    rng = rng_for("pt-sep")
    rho = kron(random_density(2, rng), random_density(2, rng))
    pt = partial_transpose(rho, (2, 2), [1])
    assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_partial_transpose_singlet_min_eigenvalue():
    # direct 4x4 oracle: swap the B indices by hand
    rho = projector(bell("psi-"))
    ptm = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    ptm[2 * i + l, 2 * j + k] = rho[2 * i + k, 2 * j + l]
    expected = np.linalg.eigvalsh(ptm).min()
    got = np.linalg.eigvalsh(partial_transpose(rho, (2, 2), [1])).min()
    assert abs(expected - (-0.5)) < 1e-12
    assert abs(got - expected) < 1e-12


def test_eig_hermitian_diagonal_sorted():
    res = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(res.values, [3, 2, 1])


def test_eig_hermitian_pauli_x():
    res = eig_hermitian(SIGMA_X)
    assert np.allclose(res.values, [1, -1])


def test_eig_hermitian_reconstruction():
    rng = rng_for("eig-recon")
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (h + h.conj().T) / 2
    res = eig_hermitian(h)
    recon = (res.vectors * res.values) @ res.vectors.conj().T
    assert np.max(np.abs(recon - h)) < 1e-9
    assert np.max(np.abs(res.vectors.conj().T @ res.vectors - np.eye(8))) < 1e-9


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_density_spectrum_bounds():
    rng = rng_for("eig-dens")
    for k in range(5):
        vals = eig_hermitian(random_density(6, rng)).values
        assert vals.min() > -1e-9
        assert vals.max() < 1 + 1e-9
        assert abs(vals.sum() - 1) < 1e-9


def test_trace_norm_pauli_and_density():
    assert abs(trace_norm(SIGMA_Z) - 2) < 1e-12
    rng = rng_for("tn")
    rho = random_density(5, rng)
    assert abs(trace_norm(rho) - 1) < 1e-9
    assert trace_norm(rho) >= abs(np.trace(rho)) - 1e-12


def test_trace_norm_singlet_pt():
    pt = partial_transpose(projector(bell("psi-")), (2, 2), [1])
    assert abs(trace_norm(pt) - 2) < 1e-9


def test_trace_norm_matches_abs_eigenvalues():
    rng = rng_for("tn-herm")
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (h + h.conj().T) / 2
    assert abs(trace_norm(h) - np.sum(np.abs(np.linalg.eigvalsh(h)))) < 1e-9


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_reconstruction():
    rng = rng_for("sqrt")
    a = random_density(7, rng) * 3.0
    r = psd_sqrt(a)
    assert np.max(np.abs(r @ r - a)) < 1e-8


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.1]))


def test_cardan_odd_cubic():
    roots = np.sort(cardan_roots(1.0, 0.0))
    assert np.allclose(roots, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-12)


def test_cardan_flip_initial_spectrum():
    # x^3 - (3/4) x + 1/4 factors as (x+1)(x-1/2)^2; lambda = (1-x)/3
    roots = cardan_roots(0.25, 0.25)
    assert np.allclose(np.sort(roots), [-1.0, 0.5, 0.5], atol=1e-9)
    lam = np.sort((1 - roots) / 3)[::-1]
    assert np.allclose(lam, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)


def test_cardan_flip_final_spectrum():
    roots = cardan_roots(0.25, 0.0)
    lam = np.sort((1 - roots) / 3)[::-1]
    s = 1 / (2 * math.sqrt(3))
    assert np.allclose(lam, [1 / 3 + s, 1 / 3, 1 / 3 - s], atol=1e-12)


def test_cardan_roots_satisfy_cubic():
    rng = rng_for("cardan")
    for k in range(20):
        g = rng.uniform(0.01, 2.0)
        h = rng.uniform(-1, 1) * 2 * g**1.5  # keeps H^2 <= 4 G^3
        for x in cardan_roots(g, h):
            assert abs(x**3 - 3 * g * x + h) < 1e-9


def test_cardan_rejects_complex():
    with pytest.raises(ComplexRoots):
        cardan_roots(0.01, 1.0)


def test_matrix_file_roundtrip(tmp_path):
    rng = rng_for("mat-io")
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    write_matrix(path, m, dims=(2, 2))
    back, dims = read_matrix(path)
    assert dims == (2, 2)
    assert np.max(np.abs(back - m)) < 1e-15


def test_matrix_file_side_is_capped(tmp_path):
    # a side of MAX_DIM + 1 is refused from the row count, before any array
    path = tmp_path / "big.json"
    rows = [[0.0]] * (MAX_DIM + 1)
    path.write_text(json.dumps({"dims": None, "re": rows, "im": rows}))
    with pytest.raises(TooLarge, match=f"{MAX_DIM + 1} rows"):
        read_matrix(path)
