"""The four workloads: inputs made from the seed, one public call per op, and
the check each answer must pass.

A workload is a sequence of rounds.  Every round of a workload has the same
composition (the same op kinds at the same sizes, in a seeded order), and
the benchmark only ever measures whole rounds, so throughput and
percentiles do not depend on where a run happens to stop.  Each round draws
its random inputs fresh from (seed, round index); only the paper's fixed
pairs and the qubit counts repeat from round to round.

Check outcomes: OK; FAILED (the op failed: an unexpected exception, a
verdict on malformed input, a named error on valid input); WRONG (a wrong
answer on valid input, which also makes the run incorrect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import entanglia.bound_entangled as bound_entangled
import entanglia.hiding as hiding
import entanglia.locc as locc
import entanglia.majorization as majorization
from entanglia.errors import EmptyRange, EntangliaError, NoPlanFound

import oracle
from oracle import Tie

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], str]


def _vec(v):
    return [float(x) for x in v]


def _answer(want, got):
    """Check for a valid input: the answer must equal the oracle's."""

    def check(result, exc):
        if exc is not None:
            return FAILED
        try:
            expected = want()
        except Tie:
            return OK
        return OK if got(result) == expected else WRONG

    return check


def _rejected(result, exc):
    """Check for a malformed input: only a named precondition error is right."""
    return OK if isinstance(exc, EntangliaError) else FAILED


def _cli_vec(v):
    return ",".join(repr(float(x)) for x in v)


# ---------------------------------------------------------------------------
# decide: one-shot verdicts on Schmidt vectors of every size


DECIDE_SIZES = (3, 4, 16, 256, 4096)
# k copies stay under multicopy's (rank_a * rank_b)^k <= 10^6 guard
MULTICOPY_K = {3: (1, 2, 3), 4: (1, 2, 3), 16: (1, 2), 256: (1,)}
RELATIONS = ("below", "above", "equal", "free")


def _related_pair(rng, d, relation):
    """Schmidt vectors in random order: x majorized by y ("below"), the
    reverse ("above"), a permutation ("equal"), or independent ("free")."""
    y = rng.dirichlet(np.ones(d))
    if relation == "free":
        return rng.dirichlet(np.ones(d)), y
    if relation == "equal":
        return rng.permutation(y), y
    t = rng.uniform(0.1, 0.9)
    x = rng.permutation((1.0 - t) * y + t / d)
    return (x, y) if relation == "below" else (y, x)


def _decide_call(kind, a, b, k):
    if kind == "compare":
        return lambda: majorization.compare(a, b)
    if kind == "nielsen":
        return lambda: locc.nielsen(a, b)
    if kind == "classify":
        return lambda: locc.classify(a, b)
    if kind == "multicopy":
        return lambda: locc.multicopy(a, b, k)
    return lambda: locc.assist_max_entangled(a, b)


def _decide_check(kind, a, b, k):
    a, b = _vec(a), _vec(b)
    if kind == "compare":
        return _answer(lambda: oracle.verdict(a, b), lambda r: r.value)
    if kind == "nielsen":
        return _answer(lambda: oracle.majorized(a, b), bool)
    if kind == "classify":
        return _answer(
            lambda: oracle.classify(a, b),
            lambda r: (r.verdict.value, r.pattern_3x3, r.strong, r.catalysis_possible),
        )
    if kind == "multicopy":
        return _answer(
            lambda: oracle.majorized(
                oracle.power(oracle.strip(a), k), oracle.power(oracle.strip(b), k)
            ),
            bool,
        )
    return _answer(lambda: oracle.assist(a, b), bool)


class Decide:
    """compare, nielsen, classify, multicopy and assist_max_entangled at
    d in {3, 4, 16, 256, 4096}, four relations each, plus four malformed
    inputs per round: a negative entry, a bad total, a NaN, and multicopy
    with k <= 0."""

    name = "decide"
    kinds = ("compare", "nielsen", "classify", "multicopy", "assist")
    tail_pct = 99.0
    min_rounds = 12  # >= 10 samples beyond p99
    trace_rounds = 10

    def __init__(self, seed):
        self.seed = seed

    def _ops(self, rng):
        ops = []
        for kind in self.kinds:
            sizes = MULTICOPY_K if kind == "multicopy" else DECIDE_SIZES
            for d in sizes:
                for relation in RELATIONS:
                    a, b = _related_pair(rng, d, relation)
                    k = int(rng.choice(MULTICOPY_K[d])) if kind == "multicopy" else 0
                    ops.append(
                        Op(f"{kind}/d{d}", _decide_call(kind, a, b, k), _decide_check(kind, a, b, k))
                    )
        return ops

    def _malformed(self, rng):
        ops = []
        schmidt_kinds = ("nielsen", "classify", "multicopy", "assist")
        for defect, kinds in (
            ("negative", schmidt_kinds),
            ("total", self.kinds),
            ("nan", self.kinds),
            ("k<=0", ("multicopy",)),
        ):
            kind = str(rng.choice(kinds))
            d = int(rng.choice((3, 4, 16)))
            a, b = _related_pair(rng, d, "free")
            k = int(rng.choice(MULTICOPY_K[d]))
            if defect == "negative":
                a[0] += 0.05
                a[1] -= a[1] + 0.05
                a[0] -= a.sum() - 1.0
            elif defect == "total":
                a = a * 1.1
            elif defect == "nan":
                a[int(rng.integers(d))] = math.nan
            else:
                k = -int(rng.integers(0, 4))
            ops.append(Op(f"{kind}/malformed-{defect}", _decide_call(kind, a, b, k), _rejected))
        return ops

    def round(self, r):
        rng = np.random.default_rng([self.seed, r, 1])
        ops = self._ops(rng) + self._malformed(rng)
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 30, 1])
        return [op for op in self.round(0) if op.kind.endswith("/d3")][:10] + self._malformed(rng)

    def cli_argv(self):
        rng = np.random.default_rng([self.seed, 1 << 30, 2])
        a, b = _related_pair(rng, 3, "free")
        self._cli_pair = (_vec(a), _vec(b))
        return ["classify", _cli_vec(a), _cli_vec(b)]

    def cli_check(self, doc):
        a, b = self._cli_pair
        try:
            want = oracle.classify(a, b)
        except Tie:
            return True
        return (doc["verdict"], doc["pattern_3x3"], doc["strong"], doc["catalysis_possible"]) == want

    def final_check(self):
        return True


# ---------------------------------------------------------------------------
# construct: certified searches


# The paper's cooperation pair and the tests' pairs, searched with seed 1 as
# the tests do.
COOP_PAIRS = (
    ((0.41, 0.38, 0.21), (0.4, 0.4, 0.2)),
    ((0.51, 0.30, 0.19), (0.49, 0.36, 0.15)),
    ((0.5, 0.3, 0.2), (0.55, 0.24, 0.21)),
)
# Anchors for the seeded random pairs, one per search branch.  Uniformly
# random 3x3 pairs cost 0.02 s to 12 s per search (about 40% run the whole
# randomized fallback), which no short run can average; jittering anchors
# keeps each branch's candidate count nearly fixed while the inputs change.
COOP_ANCHORS = (
    # a1 > b1: the recipe's 35 candidates, then the randomized fallback
    ((0.564, 0.309, 0.127), (0.557, 0.399, 0.044)),
    ((0.705, 0.227, 0.068), (0.685, 0.272, 0.043)),
    # a1 < b1: the tied structured guesses
    ((0.713, 0.236, 0.051), (0.841, 0.082, 0.077)),
    # a1 < b1: the loosened structured search
    ((0.602, 0.357, 0.041), (0.696, 0.171, 0.133)),
)
# Anchors searched twice per round: the p90 latency then falls inside one
# class of equal-cost searches instead of between two classes.
COOP_TWICE = (3,)
COOP_SEED = 1
JITTER = 2e-3
CATALYST_STEP = 1e-3  # find_catalyst_2x2's default grid


def _distinct(v, gap=1e-3):
    return all(v[i] - v[i + 1] > gap for i in range(len(v) - 1)) and v[-1] > gap


def _incomparable(a, b):
    try:
        return oracle.verdict(a, b) == "Incomparable"
    except Tie:
        return False


def _jittered(rng, anchor):
    a0, b0 = (np.asarray(v) for v in anchor)
    while True:
        e, f = rng.uniform(-JITTER, JITTER, 3), rng.uniform(-JITTER, JITTER, 3)
        a = np.sort(a0 + e - e.mean())[::-1]
        b = np.sort(b0 + f - f.mean())[::-1]
        a[-1], b[-1] = 1.0 - a[:-1].sum(), 1.0 - b[:-1].sum()
        if (
            _distinct(a)
            and _distinct(b)
            and (a[0] > b[0]) == (a0[0] > b0[0])
            and _incomparable(_vec(a), _vec(b))
        ):
            return a, b


def _random_incomparable_3x3(rng):
    while True:
        a = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        b = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        if _distinct(a) and _distinct(b) and _incomparable(_vec(a), _vec(b)):
            return a, b


def _catalyst_pair(rng, want):
    """A 4x4 pair whose oracle outcome is `want`: "filtered" (the necessary
    a1 <= b1, a4 >= b4 condition fails), "hit" or "miss" (a full scan)."""
    while True:
        a = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        b = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        try:
            verdict, _, _, possible = oracle.classify(_vec(a), _vec(b))
            if verdict != "Incomparable":
                continue
            index = oracle.catalyst_index(_vec(a), _vec(b), CATALYST_STEP) if possible else None
        except Tie:
            continue
        got = "filtered" if not possible else ("miss" if index is None else "hit")
        if got == want:
            expected = None if index is None else 0.5 + index * CATALYST_STEP
            return a, b, expected


def _check_coop(a, b):
    a, b = _vec(a), _vec(b)

    def check(plan, exc):
        if isinstance(exc, NoPlanFound):
            return OK
        if exc is not None:
            return FAILED
        chi, eta = _vec(plan.chi), _vec(plan.eta)
        try:
            certified = (
                oracle.is_prob(chi)
                and oracle.is_prob(eta)
                and oracle.majorized(oracle.kron(a, chi), oracle.kron(b, eta))
                and oracle.verdict(chi, eta) == "Incomparable"
            )
        except Tie:
            return OK
        return OK if certified and plan.valid else WRONG

    return check


def _check_catalyst(expected):
    def check(c, exc):
        if exc is not None:
            return FAILED
        return OK if c == expected else WRONG

    return check


def _check_split(a, b):
    a, b = _vec(a), _vec(b)

    def check(r, exc):
        if isinstance(exc, EmptyRange):
            return OK
        if exc is not None:
            return FAILED
        eta = _vec(r.eta)
        lo, hi = r.param_interval
        try:
            certified = (
                oracle.is_prob(eta)
                and lo < hi
                and oracle.majorized(oracle.kron(a, a), oracle.kron(b, eta))
                and oracle.verdict(a, eta) == "Incomparable"
            )
        except Tie:
            return OK
        return OK if certified else WRONG

    return check


def _coop_op(kind, a, b):
    return Op(kind, lambda: locc.coop_construct(a, b, seed=COOP_SEED), _check_coop(a, b))


def _catalyst_op(kind, a, b, expected):
    return Op(kind, lambda: locc.find_catalyst_2x2(a, b), _check_catalyst(expected))


def _split_op(a, b):
    return Op("split_two_copies", lambda: locc.split_two_copies(a, b), _check_split(a, b))


class Construct:
    """Per round: coop_construct on the 3 fixed pairs and on 5 jittered
    anchors (one of them twice); find_catalyst_2x2 on 1 filtered, 2 hit and
    12 full-scan-miss seeded 4x4 pairs; split_two_copies on 4 seeded 3x3
    pairs."""

    name = "construct"
    tail_pct = 90.0
    min_rounds = 4  # 27 ops a round: >= 10 samples beyond p90
    trace_rounds = 1

    def __init__(self, seed):
        self.seed = seed

    def round(self, r):
        rng = np.random.default_rng([self.seed, r, 3])
        ops = [_coop_op(f"coop/fixed{i}", a, b) for i, (a, b) in enumerate(COOP_PAIRS)]
        for i, anchor in enumerate(COOP_ANCHORS):
            for _ in range(2 if i in COOP_TWICE else 1):
                ops.append(_coop_op(f"coop/anchor{i}", *_jittered(rng, anchor)))
        for want, count in (("filtered", 1), ("hit", 2), ("miss", 12)):
            for _ in range(count):
                ops.append(_catalyst_op(f"catalyst/{want}", *_catalyst_pair(rng, want)))
        for _ in range(4):
            ops.append(_split_op(*_random_incomparable_3x3(rng)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 30, 3])
        return [
            _coop_op("coop/anchor2", *_jittered(rng, COOP_ANCHORS[2])),
            _catalyst_op("catalyst/hit", *_catalyst_pair(rng, "hit")),
            _split_op(*_random_incomparable_3x3(rng)),
        ]

    def cli_argv(self):
        a, b = COOP_PAIRS[0]
        self._cli_pair = (list(a), list(b))
        return ["coop", _cli_vec(a), _cli_vec(b), "--seed", str(COOP_SEED)]

    def cli_check(self, doc):
        a, b = self._cli_pair
        chi, eta = doc["chi"], doc["eta"]
        try:
            return bool(
                doc["joint_ok"]
                and oracle.majorized(oracle.kron(a, chi), oracle.kron(b, eta))
                and oracle.verdict(chi, eta) == "Incomparable"
            )
        except Tie:
            return True

    def final_check(self):
        return True


# ---------------------------------------------------------------------------
# family: build and verify the activable bound entangled family

LABELS = ("rho+", "rho-", "sigma+", "sigma-")
# Bell state left on the last pair for each (state, unlock outcome), from
# the recursion the paper gives.
PAIRING = {
    "rho+": {"rho+": "phi+", "rho-": "phi-", "sigma+": "psi+", "sigma-": "psi-"},
    "rho-": {"rho+": "phi-", "rho-": "phi+", "sigma+": "psi-", "sigma-": "psi+"},
    "sigma+": {"rho+": "psi+", "rho-": "psi-", "sigma+": "phi+", "sigma-": "phi-"},
    "sigma-": {"rho+": "psi-", "rho-": "psi+", "sigma+": "phi-", "sigma-": "phi+"},
}
CODEBOOK = {0: "rho+", 1: "rho-", 2: "sigma+", 3: "sigma-"}


def _even_cut_count(n):
    return sum(math.comb(n - 1, size - 1) for size in range(2, n - 1, 2))


def _check_family(n, ctx, key):
    def check(fam, exc):
        if exc is not None:
            return FAILED
        ok = fam.n_qubits == n and tuple(fam.states) == LABELS
        ok = ok and all(
            rho.shape == (1 << n, 1 << n) and abs(np.trace(rho).real - 1.0) <= 1e-9
            for rho in fam.states.values()
        )
        if ok:
            ctx[key] = fam
        return OK if ok else WRONG

    return check


def _check_direct(ctx, key):
    """The support-set construction must equal the recursive one."""

    def check(fam, exc):
        if exc is not None:
            return FAILED
        ref = ctx.get(key)
        if ref is None:
            return FAILED
        delta = max(float(np.max(np.abs(fam.states[x] - ref.states[x]))) for x in LABELS)
        return OK if delta <= 1e-12 else WRONG

    return check


def _check_verify(n, quick):
    def check(rep, exc):
        if exc is not None:
            return FAILED
        if not rep.all_pass:
            return WRONG
        if quick:
            return OK if not rep.cut_evidence else WRONG
        if len(rep.cut_evidence) != 4 * (_even_cut_count(n) + n):
            return WRONG
        for _, cut, m in rep.cut_evidence:
            ppt_side = len(cut) > 1
            if (ppt_side and m < -1e-9) or (not ppt_side and m >= -1e-6):
                return WRONG
        return OK

    return check


def _check_unlock(label):
    def check(outcomes, exc):
        if exc is not None:
            return FAILED
        ok = [o["outcome"] for o in outcomes] == list(LABELS) and all(
            abs(o["probability"] - 0.25) <= 1e-9
            and o["fidelity"] >= 1.0 - 1e-9
            and o["predicted_bell"] == PAIRING[label][o["outcome"]]
            for o in outcomes
        )
        return OK if ok else WRONG

    return check


class Family:
    """Per round: be_family, be_family_direct, verify_family (full) and
    unlock of all four states at n = 8 once and at n = 6 and n = 4 three
    times each, plus be_family(10) and verify_family(quick=True) at n = 10."""

    name = "family"
    tail_pct = 90.0
    min_rounds = 2  # 51 ops a round: >= 10 samples beyond p90
    trace_rounds = 1
    REPEATS = ((8, 1), (6, 3), (4, 3))

    def __init__(self, seed):
        self.seed = seed

    def _group(self, rng, ctx, n, rep, quick=False):
        key = (n, rep)
        ops = [
            Op(f"be_family/n{n}", lambda: bound_entangled.be_family(n), _check_family(n, ctx, key)),
            Op(
                f"verify_family/n{n}" + ("/quick" if quick else ""),
                lambda: bound_entangled.verify_family(ctx[key], quick=quick),
                _check_verify(n, quick),
            ),
        ]
        if quick:
            return ops
        ops.append(
            Op(f"be_family_direct/n{n}", lambda: bound_entangled.be_family_direct(n), _check_direct(ctx, key))
        )
        for label in rng.permutation(LABELS):
            label = str(label)
            ops.append(
                Op(
                    f"unlock/n{n}",
                    lambda label=label: bound_entangled.unlock(ctx[key], label),
                    _check_unlock(label),
                )
            )
        return ops

    def round(self, r):
        rng = np.random.default_rng([self.seed, r, 4])
        ctx = {}
        groups = [self._group(rng, ctx, 10, 0, quick=True)]
        groups += [self._group(rng, ctx, n, rep) for n, reps in self.REPEATS for rep in range(reps)]
        return [op for i in rng.permutation(len(groups)) for op in groups[i]]

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 30, 4])
        return self._group(rng, {}, 4, 0)

    def cli_argv(self):
        return ["bound", "verify", "--n", "6"]

    def cli_check(self, doc):
        return doc["all_pass"] is True and len(doc["cuts"]) == 4 * (_even_cut_count(6) + 6)

    def final_check(self):
        return True


# ---------------------------------------------------------------------------
# hiding: the two-bit data-hiding protocol on one family


def _check_demo(n, trials):
    def check(rep, exc):
        if exc is not None:
            return FAILED
        ok = (
            rep["n"] == n
            and rep["trials"] == trials
            and rep["unlock_rate"] == 1.0
            and rep["family_leak_rate"] == 1.0
            and abs(rep["pm_bit_rate"] - 0.5) <= 0.05
            and rep["trace_security_max"] <= 1e-9
        )
        return OK if ok else WRONG

    return check


class Hiding:
    """Per round: run_demo at n = 4, 6, 8 (20 trials each), then on one
    n = 8 family, for each secret: hide, decode_global, decode_by_unlock,
    parity_attack and trace_security for every excluded party."""

    name = "hiding"
    tail_pct = 95.0
    min_rounds = 4  # 52 ops a round: >= 10 samples beyond p95
    trace_rounds = 2
    N = 8
    TRIALS = 20
    SHOTS = 500

    def __init__(self, seed):
        self.seed = seed
        self.pm_rates = []

    def _demo_op(self, n, seed):
        return Op(
            f"run_demo/n{n}",
            lambda: hiding.run_demo(n, self.TRIALS, seed=seed, shots=self.SHOTS),
            _check_demo(n, self.TRIALS),
        )

    def _secret_ops(self, rng, ctx, n, secret):
        def store_hidden(h, exc):
            if exc is not None:
                return FAILED
            if h.label != CODEBOOK[secret] or h.state is not ctx["fam"].states[h.label]:
                return WRONG
            ctx[secret] = h
            return OK

        def equals_secret(got, exc):
            if exc is not None:
                return FAILED
            return OK if got == secret else WRONG

        def leaks_family_bit(rep, exc):
            if exc is not None:
                return FAILED
            self.pm_rates.append(rep["pm_match_rate"])
            return OK if rep["family_bit_correct"] else WRONG

        def secure(distance, exc):
            if exc is not None:
                return FAILED
            return OK if distance <= 1e-9 else WRONG

        seed = int(rng.integers(1 << 31))
        ops = [
            Op(f"hide/n{n}", lambda: hiding.hide(secret, n, family=ctx["fam"]), store_hidden),
            Op(f"decode_global/n{n}", lambda: hiding.decode_global(ctx[secret]), equals_secret),
            Op(
                f"decode_by_unlock/n{n}",
                lambda: hiding.decode_by_unlock(ctx[secret], seed=seed),
                equals_secret,
            ),
            Op(
                f"parity_attack/n{n}",
                lambda: hiding.parity_attack(ctx[secret], seed=seed, shots=self.SHOTS),
                leaks_family_bit,
            ),
        ]
        for party in rng.permutation(n):
            party = int(party)
            ops.append(
                Op(
                    f"trace_security/n{n}",
                    lambda party=party: hiding.trace_security(ctx[secret], party),
                    secure,
                )
            )
        return ops

    def _family_ops(self, rng, n):
        ctx = {}

        def store_family(fam, exc):
            if exc is not None:
                return FAILED
            ctx["fam"] = fam
            return OK if fam.n_qubits == n else WRONG

        ops = [Op(f"be_family/n{n}", lambda: bound_entangled.be_family(n), store_family)]
        for secret in rng.permutation(4):
            ops += self._secret_ops(rng, ctx, n, int(secret))
        return ops

    def round(self, r):
        rng = np.random.default_rng([self.seed, r, 5])
        demos = [self._demo_op(n, int(rng.integers(1 << 31))) for n in (4, 6, 8)]
        return [demos[i] for i in rng.permutation(3)] + self._family_ops(rng, self.N)

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 30, 5])
        return [self._demo_op(4, 0)] + self._family_ops(rng, 4)

    def cli_argv(self):
        self._cli_seed = self.seed % 1000
        return ["hide", "demo", "--n", "6", "--seed", str(self._cli_seed)]

    def cli_check(self, doc):
        return _check_demo(6, 100)(doc, None) == OK

    def final_check(self):
        """The +/- bit stays at chance over every parity attack of the run."""
        return not self.pm_rates or abs(sum(self.pm_rates) / len(self.pm_rates) - 0.5) <= 0.05


WORKLOADS = {w.name: w for w in (Decide, Construct, Family, Hiding)}
