import math

import numpy as np
import pytest

from entanglia.errors import BadParam, NotDensity
from entanglia.linalg import kron, partial_trace, projector
from entanglia.majorization import spectra_majorized
from entanglia.measures import (
    binary_entropy,
    concurrence_2q,
    concurrence_pure,
    entanglement_entropy,
    eof_2q,
    log_negativity,
    negativity,
    shannon,
    von_neumann_entropy,
)
from entanglia.states import bell, random_pure, schmidt_vector, werner

from conftest import random_density, random_unitary, rng_for


def test_shannon_basics():
    assert shannon([1, 0]) == 0
    for k in (2, 3, 8):
        assert abs(shannon(np.full(k, 1 / k)) - math.log2(k)) < 1e-12
    assert abs(shannon([0.4, 0.4, 0.2]) - 1.5219280948873621) < 1e-12


def test_binary_entropy():
    assert binary_entropy(0.0) == 0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    assert abs(binary_entropy(0.925) - 0.3843115441264974) < 1e-9
    assert abs(binary_entropy(0.3) - binary_entropy(0.7)) < 1e-12
    with pytest.raises(BadParam):
        binary_entropy(1.2)


def test_von_neumann_entropy():
    psi = random_pure(5, 3)
    assert abs(von_neumann_entropy(projector(psi))) < 1e-9
    assert abs(von_neumann_entropy(np.eye(8) / 8) - 3.0) < 1e-12
    rng = rng_for("vn-unitary")
    rho = random_density(4, rng)
    u = random_unitary(4, rng)
    assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho)) < 1e-9
    with pytest.raises(NotDensity):
        von_neumann_entropy(np.eye(3))


def test_entanglement_entropy_examples():
    assert abs(entanglement_entropy(bell("phi+"), (2, 2), [0]) - 1.0) < 1e-12
    assert abs(shannon([0.49, 0.255, 0.255]) - 1.5097) < 5e-4
    assert abs(shannon([0.41, 0.41, 0.18]) - 1.5001) < 5e-4


def test_entanglement_entropy_split_symmetry():
    for seed in range(5):
        psi = random_pure(12, seed)
        e0 = entanglement_entropy(psi, (3, 4), [0])
        e1 = entanglement_entropy(psi, (3, 4), [1])
        assert abs(e0 - e1) < 1e-9


def test_concurrence_pure():
    rng = rng_for("conc-pure")
    chi = random_pure(2, 0)
    phi = random_pure(2, 1)
    assert concurrence_pure(np.kron(chi, phi), (2, 2), [0]) < 1e-9
    assert abs(concurrence_pure(bell("phi+"), (2, 2), [0]) - 1.0) < 1e-12
    # algebraic oracle on random 2-qubit pure states
    for seed in range(20):
        psi = random_pure(4, seed)
        lam = schmidt_vector(psi, (2, 2), [0])
        oracle = 2 * math.sqrt(max(lam[0] * lam[1], 0.0))
        assert abs(concurrence_pure(psi, (2, 2), [0]) - oracle) < 1e-9
        # R-matrix path carries sqrt(macheps) noise on its null eigenvalues
        assert abs(concurrence_2q(projector(psi)) - oracle) < 1e-7


def test_concurrence_2q_bell_and_separable():
    assert abs(concurrence_2q(projector(bell("phi+"))) - 1.0) < 1e-9
    assert concurrence_2q(np.eye(4) / 4) < 1e-9


def test_concurrence_2q_werner_grid():
    for p in np.linspace(0, 1, 101):
        expect = max(0.0, (3 * p - 1) / 2)
        assert abs(concurrence_2q(werner(p)) - expect) < 1e-8


def test_eof_limits():
    assert abs(eof_2q(projector(bell("psi-"))) - 1.0) < 1e-9
    assert eof_2q(np.eye(4) / 4) < 1e-9


def test_eof_equals_entropy_for_pure():
    for seed in range(10):
        psi = random_pure(4, seed)
        assert abs(eof_2q(projector(psi)) - entanglement_entropy(psi, (2, 2), [0])) < 1e-7


def test_negativity():
    rng = rng_for("neg-sep")
    sep = kron(random_density(2, rng), random_density(2, rng))
    assert negativity(sep, (2, 2), [1]) < 1e-9
    assert log_negativity(sep, (2, 2), [1]) < 1e-9
    singlet = projector(bell("psi-"))
    assert abs(negativity(singlet, (2, 2), [1]) - 0.5) < 1e-9
    assert abs(log_negativity(singlet, (2, 2), [1]) - 1.0) < 1e-9


def test_log_negativity_additive():
    rng = rng_for("neg-add")
    for k in range(5):
        rho = random_density(4, rng)
        en = log_negativity(rho, (2, 2), [1])
        double = kron(rho, rho)
        en2 = log_negativity(double, (2, 2, 2, 2), [1, 3])
        assert abs(en2 - 2 * en) < 1e-8


# ---------------------------------------------------------------------------
# entropy inequality suites


def test_subadditivity_and_triangle():
    rng = rng_for("ent-subadd")
    for dims in ((2, 2), (2, 3)):
        d = dims[0] * dims[1]
        for k in range(20):
            rho = random_density(d, rng)
            s_ab = von_neumann_entropy(rho)
            s_a = von_neumann_entropy(partial_trace(rho, dims, [0]))
            s_b = von_neumann_entropy(partial_trace(rho, dims, [1]))
            assert s_ab <= s_a + s_b + 1e-9
            assert s_ab >= abs(s_a - s_b) - 1e-9


def test_strong_subadditivity():
    rng = rng_for("ent-ssa")
    dims = (2, 2, 2)
    for k in range(10):
        rho = random_density(8, rng)
        s_abc = von_neumann_entropy(rho)
        s_b = von_neumann_entropy(partial_trace(rho, dims, [1]))
        s_ab = von_neumann_entropy(partial_trace(rho, dims, [0, 1]))
        s_bc = von_neumann_entropy(partial_trace(rho, dims, [1, 2]))
        assert s_abc + s_b <= s_ab + s_bc + 1e-8


def test_concavity():
    rng = rng_for("ent-concave")
    for k in range(10):
        w = rng.dirichlet(np.ones(3))
        rhos = [random_density(4, rng) for _ in range(3)]
        mix = sum(wi * ri for wi, ri in zip(w, rhos))
        assert von_neumann_entropy(mix) >= sum(
            wi * von_neumann_entropy(ri) for wi, ri in zip(w, rhos)
        ) - 1e-9


def test_measurement_entropy_bound():
    rng = rng_for("ent-meas")
    for k in range(10):
        rho = random_density(4, rng)
        u = random_unitary(4, rng)
        probs = np.array([float((u[:, i].conj() @ rho @ u[:, i]).real) for i in range(4)])
        assert shannon(probs / probs.sum()) >= von_neumann_entropy(rho) - 1e-9


def test_majorization_entropy_monotone():
    rng = rng_for("ent-maj")
    for k in range(10):
        sigma = random_density(4, rng)
        w = rng.dirichlet(np.ones(3))
        rho = sum(
            w[i] * (u := random_unitary(4, rng)) @ sigma @ u.conj().T for i in range(3)
        )
        assert spectra_majorized(rho, sigma)
        assert von_neumann_entropy(rho) >= von_neumann_entropy(sigma) - 1e-9
