import math

import numpy as np
import pytest

from entanglia.errors import BadParam, BadSplit
from entanglia.linalg import kron, projector
from entanglia.states import (
    bell,
    ket,
    random_pure,
    read_state,
    schmidt_vector,
    werner,
    write_state,
)
from entanglia.measures import entanglement_entropy
from entanglia.witness import is_ppt

from conftest import rng_for


def test_bell_orthogonality():
    kinds = ("phi+", "phi-", "psi+", "psi-")
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            assert abs(np.vdot(bell(a), bell(b)) - (i == j)) < 1e-12


def test_bell_entanglement_one():
    for k in ("phi+", "phi-", "psi+", "psi-"):
        assert abs(entanglement_entropy(bell(k), (2, 2), [0]) - 1.0) < 1e-12


def test_bell_sigma_x_relation():
    got = kron(np.eye(2), np.array([[0, 1], [1, 0]])) @ bell("phi+")
    assert np.allclose(got, bell("psi+"))


def test_bell_bad_kind():
    with pytest.raises(BadParam):
        bell("phi")


def test_werner_extremes():
    assert np.allclose(werner(0.0), np.eye(4) / 4)
    assert np.allclose(werner(1.0), projector(bell("psi-")))
    with pytest.raises(BadParam):
        werner(1.5)


def test_werner_ppt_threshold_examples():
    assert is_ppt(werner(0.2), (2, 2), [1])[0]
    assert not is_ppt(werner(0.4), (2, 2), [1])[0]


def test_werner_spectrum_analytic():
    for p in (0.0, 0.3, 0.7, 1.0):
        vals = np.sort(np.linalg.eigvalsh(werner(p)))[::-1]
        expect = np.sort([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])[::-1]
        assert np.max(np.abs(vals - expect)) < 1e-12


def test_random_pure_deterministic_unit():
    v1 = random_pure(9, 42)
    v2 = random_pure(9, 42)
    assert np.array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1) < 1e-12
    assert not np.allclose(v1, random_pure(9, 43))


def test_random_pure_generic_rank():
    for seed in range(100):
        lam = schmidt_vector(random_pure(9, seed), (3, 3), [0])
        assert np.count_nonzero(lam > 1e-10) == 3


def test_schmidt_bell():
    lam = schmidt_vector(bell("phi+"), (2, 2), [0])
    assert np.allclose(lam, [0.5, 0.5])
    assert np.count_nonzero(lam > 1e-10) == 2


def test_schmidt_product_state():
    rng = rng_for("schmidt-prod")
    chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi /= np.linalg.norm(chi)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi /= np.linalg.norm(phi)
    lam = schmidt_vector(np.kron(chi, phi), (2, 2), [0])
    assert np.allclose(lam, [1, 0], atol=1e-12)
    assert np.count_nonzero(lam > 1e-10) == 1


def test_schmidt_flip_probe_state():
    # axes probe: |0>|00> + |1>|psi phi> + |2>|phi psi> over sqrt(3)
    s = 1 / math.sqrt(2)
    psi = np.array([s, s], dtype=complex)
    phi = np.array([s, s * 1j], dtype=complex)
    omega = (
        np.kron(ket(0, 3), np.kron(ket(0, 2), ket(0, 2)))
        + np.kron(ket(1, 3), np.kron(psi, phi))
        + np.kron(ket(2, 3), np.kron(phi, psi))
    ) / math.sqrt(3)
    lam = schmidt_vector(omega, (3, 2, 2), [0])
    assert np.allclose(lam, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)


def test_schmidt_vector_side_symmetry():
    for seed in range(10):
        psi = random_pure(12, seed)
        lam = schmidt_vector(psi, (3, 4), [0])
        assert lam.size == 3
        assert np.max(np.abs(lam - schmidt_vector(psi, (3, 4), [1]))) < 1e-9


def test_schmidt_rank_bounded_and_sum():
    psi = random_pure(8, 5)
    lam = schmidt_vector(psi, (2, 4), [0])
    assert np.count_nonzero(lam > 1e-10) <= 2
    assert abs(lam.sum() - 1) < 1e-9


def test_schmidt_bad_split():
    with pytest.raises(BadSplit):
        schmidt_vector(bell("phi+"), (2, 2), [])
    with pytest.raises(BadSplit):
        schmidt_vector(bell("phi+"), (2, 2), [0, 1])


def test_state_file_roundtrip(tmp_path):
    psi = random_pure(6, 11)
    path = tmp_path / "s.json"
    write_state(path, psi, dims=(2, 3))
    back, dims = read_state(path)
    assert dims == (2, 3)
    assert np.max(np.abs(back - psi)) < 1e-15
