"""Differential tests of the one-shot verdicts against their earlier forms.

The reference functions below are the earlier as_prob_vector, nielsen,
classify and assist_max_entangled, copied verbatim with the helpers they
called (renamed with a ``ref_`` prefix).  They validate and sort each
vector several times and check assist's d-1 conditions one by one; the
library now validates and sorts each vector once and checks the conditions
in one comparison.  Verdicts, returned arrays, exception classes and
exception messages must all be identical, and so must the warnings, but
for numpy's overflow warning on a total past the float range, which the
library no longer raises.
"""

import math
import warnings

import numpy as np
import pytest

from entanglia.errors import NonFinite, RankMismatch, TraceMismatch
from entanglia.locc import PairClass, assist_max_entangled, classify, nielsen
from entanglia.majorization import (
    MajVerdict,
    as_prob_vector,
    compare,
    majorizes,
    sorted_padded,
)
from entanglia.tolerances import MAJ_TOL, NOISE_TOL, TIE_TOL, TRACE_TOL, ZERO_TOL

from conftest import rng_for

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

# ---------------------------------------------------------------------------
# valid inputs: the sizes and the four relations of the decide benchmark

SIZES = (3, 4, 16, 256, 4096)
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
            for fn, ref in VERDICTS:
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
    for fn, ref in VERDICTS:
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
