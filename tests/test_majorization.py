import itertools
import re
import warnings

import numpy as np
import pytest

from entanglia.errors import NonFinite, NotMajorized, TraceMismatch
from entanglia.linalg import eigvals_hermitian, projector
from entanglia.majorization import (
    MajVerdict,
    _window_affine,
    as_prob_vector,
    compare,
    ds_witness,
    ensemble_exists,
    is_doubly_stochastic,
    majorizes,
    sorted_padded,
    spectra_majorized,
)
from entanglia.locc import vec_kron
from entanglia.measures import von_neumann_entropy
from entanglia.states import bell
from entanglia.tolerances import MAJ_TOL

from conftest import (
    brute_majorized,
    random_density,
    random_doubly_stochastic,
    random_prob,
    random_unitary,
    ref_compare_rows,
    rng_for,
)


def test_uniform_majorized_by_anything():
    assert majorizes([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2])
    assert majorizes([0.5, 0.3, 0.2], [1, 0, 0])


def test_catalysis_pair_fails():
    assert not majorizes([0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0])


def test_trace_mismatch():
    with pytest.raises(TraceMismatch):
        majorizes([0.5, 0.5], [0.7, 0.2])


def test_zero_padding_automatic():
    assert majorizes([0.5, 0.25, 0.25], [0.5, 0.5])


def test_zero_padding_sorts_above_negative_entries():
    # the padded zero belongs between 1.2 and -0.2: x sums 1.2, 1.2, 1.0
    x, y = [1.2, -0.2], [0.6, 0.5, -0.1]
    assert compare(x, y) is compare([1.2, -0.2, 0.0], y) is MajVerdict.YPrecX
    assert compare(y, x) is MajVerdict.XPrecY
    xs, ys = sorted_padded(x, y)
    assert xs.tolist() == [1.2, 0.0, -0.2] and ys.tolist() == [0.6, 0.5, -0.1]


def test_compare_examples():
    assert compare([0.5, 0.5], [1, 0]) is MajVerdict.XPrecY
    assert compare([0.4, 0.4, 0.2], [0.48, 0.26, 0.26]) is MajVerdict.Incomparable
    v = [0.3, 0.3, 0.4]
    assert compare(v, v) is MajVerdict.Equal


def test_reflexivity_random():
    rng = rng_for("maj-reflex")
    for d in (2, 3, 5, 8):
        v = random_prob(d, rng)
        assert majorizes(v, v)


def test_transitivity_random():
    rng = rng_for("maj-trans")
    for k in range(50):
        d = int(rng.integers(3, 7))
        z = random_prob(d, rng)
        y = random_doubly_stochastic(d, rng) @ z
        x = random_doubly_stochastic(d, rng) @ y
        assert majorizes(y, z)
        assert majorizes(x, y)
        assert majorizes(x, z)


def test_extremes():
    rng = rng_for("maj-extreme")
    for k in range(20):
        d = int(rng.integers(2, 8))
        x = random_prob(d, rng)
        assert majorizes(np.full(d, 1 / d), x)
        assert majorizes(x, np.eye(1, d, 0).reshape(-1))


def test_matches_brute_force_oracle():
    rng = rng_for("maj-brute")
    for k in range(200):
        d = int(rng.integers(2, 7))
        x, y = random_prob(d, rng), random_prob(d, rng)
        assert majorizes(x, y) == brute_majorized(x, y)


def _brute_flags(x, y, tol=1e-9):
    """(fwd, bwd, equal) from the scalar partial-sum definition."""
    fwd, bwd = brute_majorized(x, y, tol), brute_majorized(y, x, tol)
    d = max(len(x), len(y))
    xs = sorted(x, reverse=True) + [0.0] * (d - len(x))
    ys = sorted(y, reverse=True) + [0.0] * (d - len(y))
    close = max(abs(p - q) for p, q in zip(xs, ys)) <= tol
    return fwd, bwd, close or (fwd and bwd)


def _related_rows(rng, n, dx, dy):
    """n pairs (x of length dx, y of length dy) cycling through the
    relations: short side above, below, equal to (zero-padded permutation)
    and independent of the long side."""
    short, long_ = min(dx, dy), max(dx, dy)
    xs, ys = [], []
    for k in range(n):
        t = rng.dirichlet(np.ones(short))
        padded = np.concatenate((t, np.zeros(long_ - short)))
        relation = k % 4
        if relation == 0:
            s, l = t, random_doubly_stochastic(long_, rng) @ padded
        elif relation == 1:
            s, l = random_doubly_stochastic(short, rng) @ t, padded
        elif relation == 2:
            s, l = t, rng.permutation(padded)
        else:
            s, l = t, rng.dirichlet(np.ones(long_))
        x, y = (s, l) if dx <= dy else (l, s)
        xs.append(x)
        ys.append(y)
    return xs, ys


def test_compare_rows_matches_partial_sum_definition():
    # compare and majorizes on each pair of the rows that the batched
    # kernel once took as stacks
    rng = rng_for("maj-rows")
    seen = set()
    for dx, dy in ((3, 3), (3, 5), (6, 4), (1, 7), (9, 9)):
        xs, ys = _related_rows(rng, 48, dx, dy)
        for x, y in zip(xs, ys):
            fwd, bwd, equal = _brute_flags(list(x), list(y))
            assert (majorizes(x, y), majorizes(y, x)) == (fwd, bwd)
            verdict = (
                MajVerdict.Equal if equal
                else MajVerdict.XPrecY if fwd
                else MajVerdict.YPrecX if bwd
                else MajVerdict.Incomparable
            )
            assert compare(x, y) is verdict
            seen.add(verdict)
    assert seen == set(MajVerdict)


def test_compare_rows_catalysis_boundary():
    # the .80 = .80 partial sum of the catalysed textbook pair passes under
    # MAJ_TOL
    chi = np.array([[0.6, 0.4], [0.5, 0.5], [0.6, 0.4]])
    a = vec_kron([0.4, 0.4, 0.1, 0.1], chi)
    b = vec_kron([0.5, 0.25, 0.25, 0.0], chi)
    passes = [majorizes(x, y) for x, y in zip(a, b)]
    assert passes == [True, False, True]
    assert passes == [brute_majorized(list(x), list(y)) for x, y in zip(a, b)]


def test_compare_rows_rejects_bad_rows():
    good = np.array([[0.5, 0.5], [0.7, 0.3]])
    with pytest.raises(TraceMismatch, match="0.9"):
        compare([0.5, 0.4], good[1])
    for bad in (np.nan, np.inf):
        rows = good.copy()
        rows[1, 0] = bad
        with pytest.raises(NonFinite):
            compare(rows[1], good[1])
        with pytest.raises(NonFinite):
            compare(good[0], rows[1])
        with pytest.raises(NonFinite):
            as_prob_vector(rows[1])


def test_compare_rows_nonfinite_pair_raises_without_warning():
    # inf + -inf in a cumsum, or -inf - -inf between totals, would warn; a
    # -inf behind zero padding meets a finite total
    inf = np.inf
    pairs = [
        ([inf, -inf, 1.0], [0.5, 0.3, 0.2]),
        ([-inf, 1.0, 1.0], [-inf, 1.0, 1.0]),
        ([1.0, -inf], [-inf, 1.0, 1.0]),
        ([1.0, -inf], [0.5, 0.3, 0.2]),
        ([inf, inf], [inf, inf]),
        ([np.nan, inf, -inf], [1.0, 0.0, 0.0]),
        # a -inf behind zero padding while the other side's ends are huge
        ([-inf, 1.0], [1e308, 1e308, 1.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in pairs:
            for args in ((x, y), (y, x)):
                with pytest.raises(NonFinite):
                    compare(*args)


def test_compare_rows_overflowing_totals_raise_without_warning():
    # finite entries whose sums leave the float range: the totals are
    # compared scaled down, so no numpy overflow warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceMismatch, match=r"a total is past the float range: inf vs 1\.0"):
            compare([1e308, 1e308, 0.0], [0.5, 0.3, 0.2])
        with pytest.raises(TraceMismatch, match=r"totals differ: 1e\+308 vs -1e\+308"):
            majorizes([1e308], [-1e308])
        # large ends whose totals agree go on to the partial sums
        assert compare([1e308, -1e308], [0.0, 0.0]) is MajVerdict.YPrecX


def test_ascending_formulation_equivalent():
    rng = rng_for("maj-asc")
    for k in range(100):
        d = int(rng.integers(2, 7))
        x, y = random_prob(d, rng), random_prob(d, rng)
        xa, ya = np.sort(x), np.sort(y)
        asc = all(
            np.sum(xa[: j + 1]) >= np.sum(ya[: j + 1]) - 1e-9 for j in range(d - 1)
        )
        assert majorizes(x, y) == asc


def test_subset_trace_condition_equivalent_small_d():
    # alternative definition: for every index subset I there is an equal-size
    # subset J with <x, e_I> <= <y, e_J>; exhaustive up to d = 6
    rng = rng_for("maj-subset")
    for k in range(40):
        d = int(rng.integers(2, 7))
        x, y = random_prob(d, rng), random_prob(d, rng)
        subset_ok = True
        for size in range(1, d + 1):
            best_y = max(sum(y[list(j)]) for j in itertools.combinations(range(d), size))
            worst_x = max(sum(x[list(i)]) for i in itertools.combinations(range(d), size))
            if worst_x > best_y + 1e-9:
                subset_ok = False
                break
        assert majorizes(x, y) == subset_ok


def test_schur_theorem():
    rng = rng_for("maj-schur")
    for k in range(25):
        d = int(rng.integers(2, 8))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2
        assert majorizes(np.diagonal(h).real, np.linalg.eigvalsh(h))


def test_is_doubly_stochastic():
    assert is_doubly_stochastic(np.eye(4)[[2, 0, 3, 1]])
    assert is_doubly_stochastic([[0.5, 0.5], [0.5, 0.5]])
    assert not is_doubly_stochastic([[1, 0], [0.5, 0.5]])


def test_ds_action_contracts():
    rng = rng_for("maj-ds")
    for k in range(30):
        d = int(rng.integers(2, 7))
        a = random_doubly_stochastic(d, rng)
        v = random_prob(d, rng)
        assert majorizes(a @ v, v)


def test_ds_witness_single_t_transform():
    a = ds_witness([0.5, 0.5], [1, 0])
    assert np.allclose(a, [[0.5, 0.5], [0.5, 0.5]])


def test_ds_witness_identity():
    v = [0.5, 0.3, 0.2]
    assert np.allclose(ds_witness(v, v), np.eye(3))


def test_ds_witness_uniform():
    x = np.full(3, 1 / 3)
    y = np.array([0.5, 0.3, 0.2])
    a = ds_witness(x, y)
    assert is_doubly_stochastic(a)
    assert np.max(np.abs(a @ y - x)) < 1e-9


def test_ds_witness_random():
    rng = rng_for("maj-dsw")
    for k in range(40):
        d = int(rng.integers(2, 8))
        y = random_prob(d, rng)
        x = np.sort(random_doubly_stochastic(d, rng) @ y)[::-1]
        a = ds_witness(x, y)
        assert is_doubly_stochastic(a)
        assert np.max(np.abs(a @ y - x)) < 1e-9


def test_ds_witness_rejects_nonmajorized():
    with pytest.raises(NotMajorized):
        ds_witness([1, 0], [0.5, 0.5])


def test_spectra_majorized():
    rng = rng_for("maj-spec")
    rho = random_density(4, rng)
    assert spectra_majorized(np.eye(4) / 4, rho)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    assert not spectra_majorized(projector(psi), np.eye(4) / 4)
    # pinching phi+ in the computational basis
    assert spectra_majorized(np.diag([0.5, 0, 0, 0.5]), projector(bell("phi+")))


def test_uhlmann_random_unitary_mixture():
    rng = rng_for("maj-uhlmann")
    for k in range(10):
        rho = random_density(4, rng)
        w = rng.dirichlet(np.ones(3))
        mix = sum(
            w[i] * (u := random_unitary(4, rng)) @ rho @ u.conj().T for i in range(3)
        )
        assert spectra_majorized(mix, rho)
        assert majorizes(eigvals_hermitian(mix), eigvals_hermitian(rho))
        assert von_neumann_entropy(mix) >= von_neumann_entropy(rho) - 1e-9


def test_ensemble_exists():
    assert ensemble_exists([0.5, 0.5], [1, 0])
    assert not ensemble_exists([1, 0], [0.5, 0.5])
    assert ensemble_exists([0.6, 0.4], [0.7, 0.3])


def _in_window(t, intervals):
    return any(lo <= t <= hi for lo, hi in intervals)


def _window(x0, x1, y0, y1, lo, hi, slack=MAJ_TOL):
    """_window_affine on the (2, d) stacks (x0, y0) and (x1, y1), each
    vector zero-padded to the longer length d."""
    d = max(len(x0), len(y0))
    x0, x1, y0, y1 = (np.concatenate((v, np.zeros(d - len(v)))) for v in (x0, x1, y0, y1))
    return _window_affine(np.stack((x0, y0)), np.stack((x1, y1)), lo, hi, slack)


def test_window_affine_matches_dense_scan():
    # x0 + t x1 against y0 + t y1 on [-1, 1], with zero tails and unequal
    # lengths; each entry v0_i (1 + t (u_i - m)) stays nonnegative and the
    # rises sum to 0, so the totals agree at every t
    rng = rng_for("window-affine-scan")
    ts = np.linspace(-1.0, 1.0, 801)

    def affine(d, alpha):
        v0 = np.concatenate((rng.dirichlet(np.full(d, alpha)), np.zeros(rng.integers(0, 3))))
        u = rng.uniform(-0.5, 0.5, v0.size)
        return v0, v0 * (u - v0 @ u)

    kinds = set()
    for _ in range(60):
        dx, dy = rng.integers(2, 6, size=2)
        (x0, x1), (y0, y1) = affine(dx, 1.0), affine(dy, 0.3)
        window = _window(x0, x1, y0, y1, -1.0, 1.0)
        assert all(lo <= hi for lo, hi in window)
        assert all(a[1] < b[0] for a, b in zip(window, window[1:]))  # sorted, disjoint
        x, y = x0 + ts[:, None] * x1, y0 + ts[:, None] * y1
        flags = ref_compare_rows(x, y).fwd
        xs, ys = sorted_padded(x, y)
        worst = (ys.cumsum(axis=-1) - xs.cumsum(axis=-1)).min(axis=-1) + MAJ_TOL
        for t, flag, slack in zip(ts, flags, worst):
            if abs(slack) > 1e-12:  # away from the window's ends
                assert _in_window(t, window) == flag
        kinds.add(flags.all() if flags.any() else None)
    assert kinds == {None, False, True}  # empty, partial and whole windows


def test_window_affine_tangent_and_zero_width_pieces():
    # x(t) = (1 + t, 1 - t) against y = (1, 1): the first partial sum's gap
    # is -|t|, which touches 0 at the node t = 0 only
    x0, x1, y0, y1 = [1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [0.0, 0.0]
    assert _window(x0, x1, y0, y1, -1.0, 1.0, 0.0) == [(0.0, 0.0)]
    ((lo, hi),) = _window(x0, x1, y0, y1, -1.0, 1.0)
    assert lo == pytest.approx(-MAJ_TOL, rel=1e-6) and hi == pytest.approx(MAJ_TOL, rel=1e-6)
    # lo == hi is one zero-width piece
    assert _window(x0, x1, y0, y1, 0.0, 0.0) == [(0.0, 0.0)]
    assert _window(x0, x1, y0, y1, 0.5, 0.5) == []
    # swapping the sides makes every t work: the two pieces meeting at the
    # node t = 0 join into one interval
    assert _window(y0, y1, x0, x1, -1.0, 1.0) == [(-1.0, 1.0)]
    # two tangents from zero-tail vectors: (t, -t, 0) against (0, 0, 0) at t = 0
    assert _window([0.0] * 3, [1.0, -1.0, 0.0], [0.0] * 3, [0.0] * 3, -2.0, 2.0, 0.0) == [(0.0, 0.0)]


def test_window_affine_piece_feasible_only_inside():
    # x(t) = (1/2 + t, 1/2 - t, 0) against y = (1/2, 1/4, 1/4): the first
    # partial sum needs |t| <= 0 at slack 0, the rest hold, so adding slack
    # s opens [-s, s]; against (0.6, 0.4, 0) every |t| <= 0.1 works
    x0, x1 = [0.5, 0.5, 0.0], [1.0, -1.0, 0.0]
    ((lo, hi),) = _window(x0, x1, [0.6, 0.4, 0.0], [0.0, 0.0, 0.0], -1.0, 1.0)
    assert lo == pytest.approx(-0.1 - MAJ_TOL) and hi == pytest.approx(0.1 + MAJ_TOL)
    # a gap negative at both ends of a piece but never inside drops it,
    # also when it is the only gap
    assert _window(x0, x1, [0.4, 0.4, 0.2], [0.0, 0.0, 0.0], -1.0, 1.0) == []
    assert _window([2.0], [0.0], [1.0], [0.0], 0.0, 1.0) == []


def test_window_affine_single_point_inside_a_piece():
    # x(t) = (1/2 + t, 3/10 - 2t, 1/5 + t) against (1/2, 3/10, 1/5): no
    # entries cross on [-1/100, 1/100], and the gaps -t (k = 1) and t (k = 2)
    # leave only t = 0, in the middle of the one piece
    x0, x1, y0, y1 = [0.5, 0.3, 0.2], [1.0, -2.0, 1.0], [0.5, 0.3, 0.2], [0.0, 0.0, 0.0]
    ((lo, hi),) = _window(x0, x1, y0, y1, -0.01, 0.01, 0.0)
    assert lo == hi == pytest.approx(0.0, abs=1e-15)
    ((lo, hi),) = _window(x0, x1, y0, y1, -0.01, 0.01)
    assert lo == pytest.approx(-MAJ_TOL, rel=1e-6) and hi == pytest.approx(MAJ_TOL, rel=1e-6)
