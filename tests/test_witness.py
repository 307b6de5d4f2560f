import numpy as np
import pytest

from entanglia.errors import BadParam, MissingDims, TooLarge
from entanglia.linalg import kron, projector
from entanglia.majorization import sorted_padded
from entanglia.measures import concurrence_2q
from entanglia.states import bell, random_pure, werner
from entanglia.witness import (
    chsh_M,
    distillable_rank2,
    is_ppt,
    max_entangled_fraction,
    reduction_check,
    witness_report,
)
from entanglia.bound_entangled import horodecki_state

from conftest import random_density, rng_for


def test_is_ppt_werner():
    ok, m = is_ppt(werner(0.2), (2, 2), [1])
    assert ok and m > 0
    ok, m = is_ppt(werner(0.5), (2, 2), [1])
    assert not ok and m < -1e-6


def test_is_ppt_horodecki():
    ok, m = is_ppt(horodecki_state(0.5), (3, 3), [1])
    assert ok


def test_is_ppt_needs_dims():
    with pytest.raises(MissingDims):
        is_ppt(np.eye(4) / 4, None, [1])


def test_chsh_singlet_maximal():
    assert abs(chsh_M(projector(bell("psi-"))) - 2.0) < 1e-9


def test_chsh_werner_quadratic():
    for p in (0.1, 0.5, 1 / np.sqrt(2), 0.9):
        assert abs(chsh_M(werner(p)) - 2 * p * p) < 1e-9


def test_chsh_product_bounded():
    rng = rng_for("chsh-prod")
    for k in range(10):
        u = random_pure(2, int(rng.integers(1 << 30)))
        v = random_pure(2, int(rng.integers(1 << 30)))
        assert chsh_M(projector(np.kron(u, v))) <= 1 + 1e-9


def test_chsh_violation_implies_entangled():
    rng = rng_for("chsh-npt")
    for k in range(200):
        rho = random_density(4, rng)
        if chsh_M(rho) > 1 + 1e-9:
            assert not is_ppt(rho, (2, 2), [1])[0]


def test_reduction_criterion():
    assert reduction_check(projector(bell("psi-")), (2, 2), [0])
    assert not reduction_check(werner(0.2), (2, 2), [0])
    rng = rng_for("red-sep")
    sep = kron(random_density(2, rng), random_density(2, rng))
    assert not reduction_check(sep, (2, 2), [0])


def test_fmax_maximally_entangled():
    assert abs(max_entangled_fraction(projector(bell("phi+")), (2, 2)) - 1.0) < 1e-9


def test_fmax_flat_state():
    assert abs(max_entangled_fraction(np.eye(4) / 4, (2, 2)) - 0.25) < 1e-9


def test_fmax_werner_matches_bell_oracle():
    for p in (0.0, 0.3, 0.6, 1.0):
        rho = werner(p)
        oracle = max(
            float((bell(k).conj() @ rho @ bell(k)).real)
            for k in ("phi+", "phi-", "psi+", "psi-")
        )
        got = max_entangled_fraction(rho, (2, 2))
        assert got >= oracle - 1e-9
        assert abs(got - (1 + 3 * p) / 4) < 1e-7


def test_fmax_monotone_in_restarts_and_bounded():
    rng = rng_for("fmax-mono")
    for k in range(5):
        rho = random_density(9, rng)
        vals = [max_entangled_fraction(rho, (3, 3), restarts=r, seed=7) for r in (1, 4, 8)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
        assert vals[2] <= np.linalg.eigvalsh(rho)[-1] + 1e-9


def test_distillable_singlet():
    res = distillable_rank2(projector(bell("psi-")), (2, 2), [0])
    assert res.found
    assert abs(res.value - (-0.5)) < 1e-9
    # the witness is Schmidt rank 2 and reproduces the value
    from entanglia.linalg import partial_transpose

    w = res.witness
    pt = partial_transpose(projector(bell("psi-")), (2, 2), [0])
    assert abs(float((w.conj() @ pt @ w).real) - res.value) < 1e-9
    m = w.reshape(2, 2)
    assert np.linalg.matrix_rank(m, tol=1e-10) == 2


def test_distillable_ppt_not_found():
    res = distillable_rank2(werner(0.25), (2, 2), [0])
    assert not res.found
    assert res.value >= -1e-9


def test_distillable_werner_npt():
    res = distillable_rank2(werner(0.5), (2, 2), [0])
    assert res.found
    assert res.value < -1e-3


def test_distillable_found_implies_npt():
    rng = rng_for("dist-npt")
    for k in range(30):
        rho = random_density(4, rng)
        res = distillable_rank2(rho, (2, 2), [0], restarts=4)
        if res.found:
            assert not is_ppt(rho, (2, 2), [0])[0]


def test_distillable_two_copies_small():
    res = distillable_rank2(werner(0.6), (2, 2), [0], copies=2, restarts=4)
    assert res.found
    assert res.witness_dims == (2, 2, 2, 2)


def test_distillable_size_guard():
    with pytest.raises(TooLarge):
        distillable_rank2(np.eye(64) / 64, (8, 8), [0], copies=3)


def test_distillable_copies_bounds():
    for copies in (0, -1):
        with pytest.raises(BadParam, match="copies"):
            distillable_rank2(werner(0.6), (2, 2), [0], copies=copies)
    # 4^7 = 2^14 exceeds the guard; 10^12 copies are refused without forming 4^(10^12)
    for copies in (7, 10**12):
        with pytest.raises(TooLarge):
            distillable_rank2(werner(0.6), (2, 2), [0], copies=copies)
    with pytest.raises(TooLarge):
        distillable_rank2(np.ones((1, 1)), (1, 1), [0], copies=13)


def test_seesaws_need_one_restart():
    """Without a restart neither seesaw has a value: both raise BadParam
    naming restarts, as they do for a count that is not an integer."""
    rho = werner(0.6)
    for restarts in (0, -3, 2.0, True):
        with pytest.raises(BadParam, match="restarts"):
            max_entangled_fraction(rho, (2, 2), restarts=restarts)
        with pytest.raises(BadParam, match="restarts"):
            distillable_rank2(rho, (2, 2), [0], restarts=restarts)
    assert 0.0 <= max_entangled_fraction(rho, (2, 2), restarts=1) <= 1.0
    assert distillable_rank2(rho, (2, 2), [0], restarts=np.int64(1)).found


def test_distillable_copies_must_be_an_integer():
    """A fraction once reached range() as a TypeError, and True ran one copy."""
    rho = werner(0.6)
    for copies in (1.5, 2.0, True):
        with pytest.raises(BadParam, match="copies must be an integer"):
            distillable_rank2(rho, (2, 2), [0], copies=copies)
    assert distillable_rank2(rho, (2, 2), [0], copies=np.int64(1), restarts=1).found


def test_reduction_equivalent_to_ppt_low_dims():
    # in 2x2 and 2x3 the reduction criterion detects exactly the NPT states
    rng = rng_for("red-iff")
    for dims in ((2, 2), (2, 3)):
        d = dims[0] * dims[1]
        for k in range(100):
            rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            assert is_ppt(rho, dims, [0])[0] == (not reduction_check(rho, dims, [0]))


def test_peres_horodecki_iff_concurrence_zero():
    rng = rng_for("peres")
    for k in range(500):
        rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
        ppt = is_ppt(rho, (2, 2), [1])[0]
        conc_zero = concurrence_2q(rho) <= 1e-8
        assert ppt == conc_zero


def test_witness_report_bundle():
    rep = witness_report(werner(0.8), (2, 2), cut=(1,), seed=3)
    assert not rep.ppt
    assert rep.reduction_violated
    assert rep.chsh_m is not None and rep.chsh_m > 1
    assert rep.fmax_flags_entangled
    assert rep.distillable["found"]


def test_sorted_padded_helper():
    x, y = sorted_padded([0.2, 0.8], [1.0, 0.0, 0.0])
    assert np.allclose(x, [0.8, 0.2, 0.0])
    assert np.allclose(y, [1.0, 0.0, 0.0])
