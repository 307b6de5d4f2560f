"""Differential tests of the one-shot verdicts against their earlier forms.

The reference functions below are the earlier as_prob_vector, nielsen,
classify and assist_max_entangled, copied verbatim with the helpers they
called (renamed with a ``ref_`` prefix).  They validate and sort each
vector several times and check assist's d-1 conditions one by one; the
library now validates and sorts each vector once and checks the conditions
in one comparison.  The earlier compare, majorizes and multicopy follow
them, also verbatim, over the earlier batched kernel (conftest's
ref_compare_rows): they sort and sum every pair on
numpy, where the library now sorts and sums a pair of at most _SHORT
entries as Python floats.  Verdicts, returned arrays, exception classes and
exception messages must all be identical, and so must the warnings, but
for numpy's overflow warning on a total past the float range, which the
library no longer raises.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from entanglia.errors import BadParam, NonFinite, RankMismatch, TooLarge, TraceMismatch
from entanglia.locc import (
    PairClass,
    assist_max_entangled,
    classify,
    multicopy,
    nielsen,
    tensor_power,
)
from entanglia.majorization import (
    _SHORT,
    _SUM_BOUND,
    MajVerdict,
    _pair_flags,
    as_prob_vector,
    compare,
    majorizes,
    sorted_padded,
)
from entanglia.pairs import verdict
from entanglia.tolerances import MAJ_TOL, NOISE_TOL, TIE_TOL, TRACE_TOL, ZERO_TOL

from conftest import ref_compare_rows, rng_for

# ---------------------------------------------------------------------------
# reference implementations (verbatim)


def ref_as_prob_vector(v):
    """Validate and clean a probability vector (clamps -NOISE_TOL noise to 0)."""
    v = np.asarray(v, dtype=float).copy()
    if v.ndim != 1 or v.size == 0:
        raise TraceMismatch("expected a nonempty 1-d probability vector")
    if not np.all(np.isfinite(v)):
        raise NonFinite("probability vector has a NaN or infinite component")
    if np.min(v) < -NOISE_TOL:
        raise TraceMismatch(f"negative component {np.min(v)} in probability vector")
    v[v < 0] = 0.0
    if abs(v.sum() - 1.0) > TRACE_TOL:
        raise TraceMismatch(f"probability vector sums to {v.sum()}, not 1")
    return v


def ref_schmidt_sorted(v):
    return np.sort(ref_as_prob_vector(v))[::-1]


def ref_strip(v):
    """Descending sort with trailing zeros removed."""
    v = ref_schmidt_sorted(v)
    nz = np.nonzero(v > ZERO_TOL)[0]
    return v[: nz[-1] + 1] if nz.size else v[:1]


def ref_nielsen(a, b):
    """True iff the state with Schmidt vector a converts to b under
    deterministic LOCC (a majorized by b)."""
    return majorizes(ref_schmidt_sorted(a), ref_schmidt_sorted(b))


def ref_chain_ge(seq):
    return all(seq[i] >= seq[i + 1] - TIE_TOL for i in range(len(seq) - 1))


def ref_classify(a, b):
    """Full pair classification: verdict, 3x3 interleaving pattern, strong
    incomparability, and the first/last-coefficient catalysis filter."""
    verdict = compare(a, b)
    ra, rb = ref_strip(a), ref_strip(b)
    sa, sb = sorted_padded(ra, rb)
    a1, ad = float(sa[0]), float(sa[-1])
    b1, bd = float(sb[0]), float(sb[-1])
    strong = (a1 < b1 - TIE_TOL and ad < bd - TIE_TOL) or (a1 > b1 + TIE_TOL and ad > bd + TIE_TOL)
    cat = (a1 <= b1 + TIE_TOL) and (ad >= bd - TIE_TOL)
    pattern = None
    if verdict is MajVerdict.Incomparable and ra.size == 3 and rb.size == 3:
        if ref_chain_ge([a1, b1, sb[1], sa[1], sa[2], sb[2]]):
            pattern = "A"
        elif ref_chain_ge([b1, a1, sa[1], sb[1], sb[2], sa[2]]):
            pattern = "B"
    return PairClass(verdict=verdict, pattern_3x3=pattern, strong=strong, catalysis_possible=cat)


def ref_assist_max_entangled(a, b):
    """Whether a (x) maxent(d-1) -> b (x) product passes, via the d-1
    simplified partial-sum conditions k a1/(d-1) <= sum_1^k b_i."""
    sa, sb = ref_strip(a), ref_strip(b)
    if sa.size != sb.size or sa.size < 3:
        raise RankMismatch(
            f"equal Schmidt rank >= 3 required, got ranks {sa.size} and {sb.size}"
        )
    d = sa.size
    sums = np.cumsum(sb)
    return bool(all(k * sa[0] / (d - 1) <= sums[k - 1] + MAJ_TOL for k in range(1, d)))


def ref_majorizes(x, y):
    """True iff x is majorized by y (x more mixed than y)."""
    return bool(ref_compare_rows(x, y).fwd)


def ref_compare(x, y):
    """Classify the pair: XPrecY, YPrecX, Equal or Incomparable."""
    flags = ref_compare_rows(x, y)
    if flags.equal:
        return MajVerdict.Equal
    if flags.fwd:
        return MajVerdict.XPrecY
    if flags.bwd:
        return MajVerdict.YPrecX
    return MajVerdict.Incomparable


def ref_require_copies(k):
    if k < 1:
        raise BadParam(f"k = {k} copies: at least one copy is required")


def ref_multicopy(a, b, k):
    """Whether k joint copies convert: nielsen on the k-fold tensor powers."""
    ref_require_copies(k)
    sa, sb = ref_strip(a), ref_strip(b)
    r = sa.size * sb.size
    if r ** min(k, 20) > 10**6:
        raise TooLarge(f"(rank_a * rank_b)^k = {r}^{k} exceeds 10^6")
    if r == 1:
        k = 1
    return ref_majorizes(tensor_power(sa, k), tensor_power(sb, k))


# ---------------------------------------------------------------------------
# helpers


def outcome(fn, *args):
    """(warnings, 'ok', result) or (warnings, 'raised', exception class,
    message); the warnings are the set of distinct (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", fn(*args))
        except Exception as exc:  # the class and message are what is compared
            result = ("raised", type(exc), str(exc))
    return ({(w.category, str(w.message)) for w in caught},) + result


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# The library reports an overflowing total without numpy's warning.
OVERFLOW = (RuntimeWarning, "overflow encountered in reduce")


def assert_same_outcome(got, want):
    assert (got[0], got[1]) == (want[0] - {OVERFLOW}, want[1]), (got, want)
    if got[1] == "raised":
        assert got[2:] == want[2:]
    elif isinstance(want[2], np.ndarray):
        assert_same_array(got[2], want[2])
    else:
        assert got[2] == want[2]
        assert type(got[2]) is type(want[2])


VERDICTS = (
    (nielsen, ref_nielsen),
    (classify, ref_classify),
    (assist_max_entangled, ref_assist_max_entangled),
)

# compare and majorizes on 1-d vectors, and multicopy with k = 1, 2, 3
PAIR_VERDICTS = (
    (compare, ref_compare),
    (majorizes, ref_majorizes),
    *(
        (lambda a, b, k=k: multicopy(a, b, k), lambda a, b, k=k: ref_multicopy(a, b, k))
        for k in (1, 2, 3)
    ),
)

# ---------------------------------------------------------------------------
# valid inputs: the sizes and the four relations of the decide benchmark,
# and the lengths on both sides of the short path's cutoff

SIZES = (1, 2, 3, 4, 16, _SHORT - 1, _SHORT, _SHORT + 1, 256, 4096)
RELATIONS = ("below", "above", "equal", "free")


def related_pair(rng, d, relation):
    """x majorized by y ("below"), the reverse ("above"), a permutation
    ("equal"), or independent ("free"); entries in random order."""
    y = rng.dirichlet(np.ones(d))
    if relation == "free":
        return rng.dirichlet(np.ones(d)), y
    if relation == "equal":
        return rng.permutation(y), y
    t = rng.uniform(0.1, 0.9)
    x = rng.permutation((1.0 - t) * y + t / d)
    return (x, y) if relation == "below" else (y, x)


@pytest.mark.parametrize("d", SIZES)
def test_valid_corpus_same_verdicts(d):
    rng = rng_for("decide-oracle", d)
    reps = 6 if d <= 256 else 2
    for relation in RELATIONS:
        for _ in range(reps):
            a, b = related_pair(rng, d, relation)
            assert_same_array(as_prob_vector(a), ref_as_prob_vector(a))
            for fn, ref in VERDICTS + PAIR_VERDICTS:
                assert_same_outcome(outcome(fn, a, b), outcome(ref, a, b))


HAND_PAIRS = (
    ([0.4, 0.4, 0.2], [0.48, 0.26, 0.26]),  # 3x3 incomparable, pattern A
    ([0.51, 0.30, 0.19], [0.49, 0.36, 0.15]),  # 3x3 incomparable, pattern B
    ([0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0]),  # trailing zero, ranks 4 and 3
    ([0.5, 0.3, 0.2, 0.0], [0.5, 0.3, 0.2]),  # equal after the zero is stripped
    ([0.5, 0.5], [1.0, 0.0]),  # rank 2: assist's RankMismatch
    ([2 / 3, 1 / 6, 1 / 6], [1 / 3, 1 / 3, 1 / 3]),
    ([0.9, 0.05, 0.05], [1 / 3, 1 / 3, 1 / 3]),
    ([0.2, 0.5, 0.3], [0.3, 0.2, 0.5]),  # a permutation, unsorted
    ([0.25] * 4, [0.25, 0.25, 0.25, 0.25 + 5e-10]),  # inside the trace tolerance
)


@pytest.mark.parametrize("a, b", HAND_PAIRS)
def test_hand_pairs_same_outcomes(a, b):
    for fn, ref in VERDICTS + PAIR_VERDICTS:
        assert_same_outcome(outcome(fn, a, b), outcome(ref, a, b))
        assert_same_outcome(outcome(fn, b, a), outcome(ref, b, a))


# ---------------------------------------------------------------------------
# malformed inputs: the same arrays, or the same exception class and message

MALFORMED = {
    "nan": [0.5, math.nan, 0.5],
    "+inf": [0.5, math.inf, 0.5],
    "-inf": [0.5, -math.inf, 0.5],
    "inf-inf": [math.inf, -math.inf, 1.0],
    "clamped": [0.5, 0.5 + 1e-13, -1e-13],
    "clamped-total": [0.5, 0.5, -1e-13],
    "-0.0": [0.5, 0.5, -0.0],
    "negative": [0.55, 0.5, -0.05],
    "negative-nan": [-0.05, math.nan, 1.05],
    # Python's sort leaves finite ends here, and numpy's sum meets inf - inf
    "nan-hides-inf": [0.1, 0.3, math.nan, 0.3, math.inf, -math.inf, math.nan, 0.2],
    "total": [0.55, 0.55, 0.0],
    "total-low": [0.3, 0.3, 0.3],
    "overflow": [1e308, 1e308, 0.0],
    "2-d": [[0.5, 0.5], [0.0, 0.0]],
    "empty": [],
    "scalar": 1.0,
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_as_prob_vector_malformed(defect):
    v = MALFORMED[defect]
    assert_same_outcome(outcome(as_prob_vector, v), outcome(ref_as_prob_vector, v))


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_verdicts_malformed(defect):
    bad = MALFORMED[defect]
    good = [0.45, 0.35, 0.2]
    for fn, ref in VERDICTS:
        assert_same_outcome(outcome(fn, bad, good), outcome(ref, bad, good))
        assert_same_outcome(outcome(fn, good, bad), outcome(ref, good, bad))


def test_as_prob_vector_keeps_negative_zero_and_copies():
    src = np.array([0.5, 0.5, -0.0])
    out = as_prob_vector(src)
    assert np.signbit(out[2])
    assert out is not src and not np.shares_memory(out, src)
    clamped = as_prob_vector([0.5, 0.5 + 1e-13, -1e-13])
    assert clamped[2] == 0.0 and not np.signbit(clamped[2])


def test_malformed_corpus_reaches_every_error():
    """The corpus reaches each error the validation raises, the clamp and a
    warning, so the comparisons above are not vacuous."""
    seen = [outcome(ref_as_prob_vector, v) for v in MALFORMED.values()]
    texts = " ".join(o[3] for o in seen if o[1] == "raised")
    for part in ("NaN or infinite", "negative component", "sums to", "nonempty 1-d"):
        assert part in texts
    assert sum(o[1] == "ok" for o in seen) == 3  # two clamps and -0.0
    assert any(o[0] for o in seen)


def malformed_corpus(d, rng):
    """Defective length-d vectors, by name: a NaN at every position, +-inf,
    entries at and just past +-_SUM_BOUND / d, -0.0, entries in
    [-NOISE_TOL, 0) and just below, totals 1 +- TRACE_TOL within a few ulps,
    and longer vectors holding a negative entry."""
    base = rng.dirichlet(np.ones(d))
    lim = _SUM_BOUND / d
    out = {}

    def put(name, i, value):
        v = base.copy()
        v[i] = value
        out[f"{name}@{i}"] = v

    for i in range(d):
        put("nan", i, math.nan)
    for i in (0, d - 1):
        for value in (math.inf, -math.inf, -0.0, -NOISE_TOL, -NOISE_TOL / 2):
            put(repr(value), i, value)
        put("below-noise", i, math.nextafter(-NOISE_TOL, -math.inf))
        for value in (lim, math.nextafter(lim, math.inf), -lim, math.nextafter(-lim, -math.inf)):
            put(f"bound{value:+.3g}", i, value)
    for target in (1.0 + TRACE_TOL, 1.0 - TRACE_TOL):
        v = base.copy()
        v[0] += target - v.sum()
        for step in range(-3, 4):
            w = v.copy()
            for _ in range(abs(step)):
                w[0] = math.nextafter(w[0], math.copysign(math.inf, step))
            out[f"total{target:.10f}{step:+d}ulp"] = w
    for shift in (-NOISE_TOL / 4, NOISE_TOL / 4):  # the clamp moves the total across
        for target in (1.0 + TRACE_TOL, 1.0 - TRACE_TOL):
            v = base.copy()
            v[-1] = -NOISE_TOL / 2
            v[0] += target + shift - v.sum()
            out[f"clamp-total{target:.10f}{shift:+.2g}"] = v
    # a NaN among both infinities: Python's sort can leave the infinities
    # inside and finite numbers at both ends
    for order in itertools.permutations((-math.inf, math.nan, math.inf)):
        v = base.copy()
        v[1:4] = order
        out[f"nan-inf-{order}"] = v
    for extra in (1, 3):
        v = np.concatenate((base * 0.9, np.full(extra, 0.1 / extra)))
        v[-1] = -0.01
        v[0] += 0.01
        out[f"longer{extra}-negative"] = v
    return out


@pytest.mark.parametrize("d", (5, _SHORT + 8))
def test_malformed_corpus_same_outcomes(d):
    rng = rng_for("decide-malformed", d)
    corpus = malformed_corpus(d, rng)
    good = rng.dirichlet(np.ones(d))
    raised = set()
    for name, bad in corpus.items():
        for fn, ref in VERDICTS + PAIR_VERDICTS:
            for a, b in ((bad, good), (good, bad), (bad, bad)):
                want = outcome(ref, a, b)
                assert_same_outcome(outcome(fn, a, b), want)
                if want[1] == "raised":
                    raised.add(want[2])
    # the corpus is not vacuous: each check's error is reached
    assert {NonFinite, TraceMismatch} <= raised
    totals = [outcome(ref_as_prob_vector, v)[1] for n, v in corpus.items() if n.startswith("total")]
    assert "ok" in totals and "raised" in totals


def tied_pairs(rng, d):
    """Pairs whose partial sums tie: dyadic entries (exact sums, many equal
    entries), permutations, and transfers of about MAJ_TOL."""
    y = rng.multinomial(64, np.ones(d) / d) / 64.0
    x = rng.multinomial(64, np.ones(d) / d) / 64.0
    yield x, y
    yield rng.permutation(y), y
    for scale in (0.5, 1.0, 2.0):
        z = y.copy()
        z[0] += scale * MAJ_TOL
        z[-1] -= scale * MAJ_TOL
        yield rng.permutation(z), y


@pytest.mark.parametrize("d", (1, 2, 3, 4, 16, _SHORT, _SHORT + 1, 256))
def test_short_and_long_paths_agree(d):
    """_pair_flags gives the flags of the (1, d) stack reference on lists
    (Python floats, as compare and majorizes run a pair of at most _SHORT
    entries) and on arrays, bit for bit, and compare and majorizes read
    them."""
    rng = rng_for("decide-paths", d)
    pairs = [related_pair(rng, d, relation) for relation in RELATIONS for _ in range(5)]
    pairs += list(tied_pairs(rng, d))
    for x, y in pairs:
        stack = ref_compare_rows(x[None], y[None])
        xs, ys = sorted_padded(x, y)
        arrays, lists = _pair_flags(xs, ys), _pair_flags(xs.tolist(), ys.tolist())
        for row, array_flag, list_flag in zip(stack, arrays, lists):
            assert type(array_flag) is np.bool_ and type(list_flag) is bool
            assert row[0] == array_flag == list_flag
        assert compare(x, y) is verdict(*lists)
        assert majorizes(x, y) is bool(stack.fwd[0])


@pytest.mark.parametrize("k", (2.5, 2.0, None, True, False, np.bool_(True), "2"))
def test_multicopy_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(BadParam, match=re.escape(f"k must be an integer, got {k!r}")):
        multicopy([0.5, 0.5], [0.75, 0.25], k)


def test_multicopy_takes_numpy_integers():
    a, b = [0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0]
    for k in (1, 2, 3):
        assert multicopy(a, b, np.int64(k)) == multicopy(a, b, k) == ref_multicopy(a, b, k)
    with pytest.raises(TooLarge, match=re.escape("exceeds 10^6")):
        multicopy(a, b, np.int64(2**40))  # 12^20 as a Python int, not a wrapped int64


@pytest.mark.parametrize(
    "x, y, shape",
    (
        (1.0, 1.0, ()),
        (np.float64(1.0), [1.0], ()),
        ([1.0], np.float64(1.0), ()),
        ([[0.5, 0.5], [0.6, 0.4]], [0.5, 0.5], (2, 2)),
        ([0.5, 0.5], [[0.5, 0.5]], (1, 2)),
    ),
)
def test_pair_views_name_the_shape_of_a_non_vector(x, y, shape):
    for fn in (compare, majorizes):
        with pytest.raises(TraceMismatch, match=re.escape(f"got an array of shape {shape}")):
            fn(x, y)
