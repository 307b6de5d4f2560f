import numpy as np
import pytest

import entanglia.bound_entangled as bound_entangled
import entanglia.hiding as hiding
from entanglia.bound_entangled import LABELS, BEFamily, be_family, be_family_direct, reduced_diagonal, support_strings
from entanglia.errors import BadDims, BadParam, BadParty, BadSecret, NotGHZDiagonal, OddN, TooLarge
from entanglia.family_classes import recursive_classes
from entanglia.hiding import (
    CODEBOOK,
    HiddenState,
    decode_by_unlock,
    decode_global,
    hide,
    parity_attack,
    run_demo,
    string_distribution,
    trace_security,
)


def test_hide_codebook():
    fam = be_family(4)
    h = hide(0, 4, family=fam)
    assert h.label == "rho+"
    assert np.array_equal(h.state, fam.states["rho+"])
    assert hide(3, 6).label == "sigma-"


def test_hide_validation():
    with pytest.raises(BadSecret):
        hide(4, 4)
    with pytest.raises(OddN):
        hide(0, 5)
    with pytest.raises(OddN):
        hide(0, 2)
    with pytest.raises(BadParam):
        hide(0, 6, family=be_family(4))


@pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, "1", None])
def test_hide_rejects_a_non_integer_secret(bad):
    with pytest.raises(BadSecret):
        hide(bad, 4)


def test_hide_takes_a_numpy_integer_secret():
    h = hide(np.int64(3), 4)
    assert h.label == "sigma-" and decode_global(h) == 3


@pytest.mark.parametrize("bad", [True, False, 4.0, "4", None])
def test_hide_rejects_a_non_integer_qubit_number(bad):
    with pytest.raises(BadParam, match="qubit number must be an integer"):
        hide(0, bad)
    with pytest.raises(BadParam, match="qubit number must be an integer"):
        run_demo(bad, 2, shots=10)


def test_decode_global_all_secrets():
    for n in (4, 6):
        fam = be_family(n)
        for s in range(4):
            assert decode_global(hide(s, n, family=fam)) == s


def test_protocol_builds_no_dense_view():
    fam = be_family(8)
    for s in range(4):
        h = hide(s, 8, family=fam)
        assert max(trace_security(h, p) for p in range(8)) < 1e-9
        assert decode_global(h) == decode_by_unlock(h, seed=s) == s
        assert parity_attack(h, seed=s, shots=50)["family_bit_correct"]
    assert "states" not in fam.__dict__


def test_run_demo_builds_no_dense_view(monkeypatch):
    """A demo, its table's build included, reads the class values alone: it
    builds no family, so no dense view, and never gathers a family's
    stacks, a marginal or an unlock table."""

    def refused(*args):
        raise AssertionError("run_demo built a family or read a stack")

    monkeypatch.setattr(hiding, "be_family", refused)
    for name in ("states", "_stacks"):
        monkeypatch.setattr(BEFamily, name, property(refused))
    for module in (hiding, bound_entangled):
        for name in ("reduced_diagonal", "_unlock_table"):
            monkeypatch.setattr(module, name, refused)
    hiding._demo_table.cache_clear()
    for n in (4, 6, 8, 10):
        for seed in range(3):
            rep = run_demo(n, 25, seed=seed, shots=40)
            assert rep["unlock_rate"] == rep["family_leak_rate"] == 1.0 and rep["trace_security_max"] == 0.0


def test_assigned_state_regated_on_every_call():
    fam = be_family(6)
    h = HiddenState(n_qubits=6, secret=2, label="sigma+", state=fam.states["sigma+"].copy(), family=fam)
    assert h.state is not fam.states["sigma+"]
    assert decode_global(h) == 2 and trace_security(h, 0) < 1e-9
    h.state[3, 5] = 1e-3  # tampered in place after a clean read
    with pytest.raises(NotGHZDiagonal):
        trace_security(h, 0)
    with pytest.raises(NotGHZDiagonal):
        decode_global(h)
    with pytest.raises(NotGHZDiagonal):
        decode_by_unlock(h)
    h = hide(2, 6, family=fam)
    assert h.state is fam.states["sigma+"] and h.parts is fam.parts["sigma+"]


def test_decode_by_unlock_reads_an_assigned_matrix():
    fam = be_family(4)
    h = hide(0, 4, family=fam)
    h.state = fam.states["sigma-"].copy()
    assert decode_global(h) == 3
    assert all(decode_by_unlock(h, seed=seed) == 3 for seed in range(100))
    h.state = be_family(6).states["sigma-"]  # a state on another number of qubits
    for read in (decode_global, decode_by_unlock, lambda h: trace_security(h, 0)):
        with pytest.raises(BadDims):
            read(h)


def test_hidden_state_needs_a_family_or_a_matrix():
    with pytest.raises(BadParam, match="family or an assigned matrix"):
        HiddenState(n_qubits=4, secret=0, label="rho+")
    fam = be_family(4)
    h = HiddenState(n_qubits=4, secret=1, label="rho-", state=fam.states["rho-"].copy())
    assert decode_global(h) == 1 and decode_by_unlock(h) == 1 and trace_security(h, 2) == 0.0
    with pytest.raises(BadParam, match="family or an assigned matrix"):
        h.state = None
    # the failed assignment leaves the held matrix in place
    assert decode_global(h) == 1 and decode_by_unlock(h) == 1 and trace_security(h, 2) == 0.0
    h = hide(1, 4, family=fam)
    h.state = fam.states["sigma+"].copy()
    h.state = None  # back to the family's own state
    assert h.state is fam.states["rho-"] and decode_global(h) == 1


def test_decode_global_survives_depolarizing():
    fam = be_family(4)
    for s in range(4):
        h = hide(s, 4, family=fam)
        h.state = 0.9 * h.state + 0.1 * np.eye(16) / 16
        assert decode_global(h) == s


def test_parity_attack_leaks_family_bit():
    fam4 = be_family(4)
    h = hide(0, 4, family=fam4)
    rep = parity_attack(h, seed=11, shots=1000)
    assert rep["family_bit"] == 0
    assert rep["family_bit_correct"]
    assert rep["even_parity_fraction"] == 1.0  # every rho-family string is even
    h = hide(3, 6)
    rep = parity_attack(h, seed=12, shots=500)
    assert rep["family_bit"] == 1
    assert rep["even_parity_fraction"] == 0.0


def test_parity_attack_pm_bit_blind():
    fam = be_family(4)
    for s in (0, 1, 2, 3):
        rep = parity_attack(hide(s, 4, family=fam), seed=101 + s, shots=1000)
        assert abs(rep["pm_match_rate"] - 0.5) <= 3 / np.sqrt(1000) + 0.05


def test_string_distributions_identical_within_family():
    for n in (4, 6):
        fam = be_family(n)
        assert np.array_equal(
            string_distribution(fam.states["rho+"]), string_distribution(fam.states["rho-"])
        )
        assert np.array_equal(
            string_distribution(fam.states["sigma+"]), string_distribution(fam.states["sigma-"])
        )


def test_trace_security_exact():
    fam = be_family(4)
    for s in range(4):
        h = hide(s, 4, family=fam)
        for p in range(4):
            assert trace_security(h, p) < 1e-9
    by_hand = BEFamily(4, fam.parts)  # on the stacks, where fam reads its class table
    for party in (4, 7, -1, True, 1.0, "1", None, np.int64(-1)):  # only an integer in range
        errors = []
        for family in (fam, by_hand):
            with pytest.raises(BadParty) as err:
                trace_security(hide(0, 4, family=family), party)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
    assert trace_security(hide(0, 4, family=fam), np.int64(3)) == trace_security(hide(0, 4, family=by_hand), 3) == 0.0


def test_marginals_secret_independent():
    fam = be_family(4)
    h0 = hide(0, 4, family=fam)
    h3 = hide(3, 4, family=fam)
    from entanglia.linalg import partial_trace

    m0 = partial_trace(h0.state, h0.dims, [1, 2, 3])
    m3 = partial_trace(h3.state, h3.dims, [1, 2, 3])
    assert np.max(np.abs(m0 - m3)) < 1e-12


def test_decode_by_unlock():
    fam = be_family(6)
    for s in range(4):
        h = hide(s, 6, family=fam)
        for trial in range(5):
            assert decode_by_unlock(h, seed=trial) == s


def test_run_demo_rates():
    rep = run_demo(4, trials=30, seed=5, shots=400)
    assert rep["unlock_rate"] == 1.0
    assert rep["family_leak_rate"] == 1.0
    assert abs(rep["pm_bit_rate"] - 0.5) < 0.05
    assert rep["trace_security_max"] < 1e-9


def test_run_demo_deterministic():
    a = run_demo(4, trials=10, seed=9, shots=100)
    b = run_demo(4, trials=10, seed=9, shots=100)
    assert a == b


def test_run_demo_rejects_no_trials():
    for trials in (0, -2):
        with pytest.raises(BadParam):
            run_demo(4, trials=trials)


def test_shot_counts_bounded():
    h = hide(0, 4)
    for shots in (0, -5):
        with pytest.raises(BadParam):
            parity_attack(h, shots=shots)
        with pytest.raises(BadParam):
            run_demo(4, trials=1, shots=shots)
    with pytest.raises(TooLarge):
        parity_attack(h, shots=10**6 + 1)
    with pytest.raises(TooLarge):
        run_demo(4, trials=2001, shots=500)  # 1000500 shots in all
    with pytest.raises(TooLarge):
        run_demo(4, trials=1, shots=10**9)


@pytest.mark.parametrize("bad", [2.0, True, "2", None, np.float64(2.0)])
def test_non_integer_counts_raise_bad_param(bad):
    h = hide(0, 4)
    with pytest.raises(BadParam, match="shots must be an integer"):
        parity_attack(h, shots=bad)
    with pytest.raises(BadParam, match="trials must be an integer"):
        run_demo(4, bad)
    with pytest.raises(BadParam, match="shots must be an integer"):
        run_demo(4, 3, shots=bad)
    with pytest.raises(BadParam, match="trials must be an integer"):
        run_demo(5, bad, shots=0)  # the types are tested before n and the values


@pytest.mark.parametrize("bad", [True, False, np.True_, -1, np.int64(-1), (5, 2), [5], 2.0, "3", None])
def test_run_demo_rejects_a_seed_that_is_not_a_non_negative_integer(bad):
    with pytest.raises(BadParam, match="seed must be a non-negative integer"):
        run_demo(4, 2, seed=bad, shots=10)


@pytest.mark.parametrize("bad", [True, np.False_, None, -1, 2.5, "7", [5, -2]])
@pytest.mark.parametrize("draw", [decode_by_unlock, parity_attack])
def test_seeded_draws_reject_a_seed_that_is_not_a_pcg64_seed(draw, bad):
    # None would read OS entropy and a bool passes as 0 or 1: neither is a
    # deterministic seed; the rest are numpy's errors, named as BadParam
    with pytest.raises(BadParam, match="seed"):
        draw(hide(1, 4), seed=bad)


@pytest.mark.parametrize("seed", [(5, 2), [17, 0, 1], np.uint64(9), 2**70])
def test_seeded_draws_take_every_pcg64_seed(seed):
    h = hide(2, 4)
    assert decode_by_unlock(h, seed=seed) == 2
    want = parity_attack(h, seed=np.random.SeedSequence(seed), shots=20)
    assert parity_attack(h, seed=seed, shots=20) == want


SEED_CORPUS = (0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**96 + 7)


def trial_stream(seed, t, shots, word=0):
    """PCG64(seed) seated at raw output `word` of trial t's row: advanced
    past the shots + 2 outputs of each trial before t, then `word` more."""
    return np.random.PCG64(seed).advance(t * (shots + 2) + word)


def test_demo_draws_are_the_generator_draws_of_each_trial_row():
    """The demo's draw contract: trial t's secret is `integers(4)` of its
    row's first output, its uniform `random()` of the second, and its words
    the uint32 shot draw of the rest, each read by a Generator seated on
    its own stream, so that no buffered 32-bit half carries over."""
    for seed in SEED_CORPUS:
        for trials, shots in ((1, 1), (3, 9), (5, 2)):
            secrets, uniforms, words = hiding._draws(seed, trials, shots)
            assert secrets.dtype == np.int64 and words.dtype == np.uint32
            assert words.shape == (trials, shots, 2)
            for t in range(trials):
                want = np.random.default_rng(trial_stream(seed, t, shots)).integers(4)
                assert secrets[t] == want
                want = np.random.default_rng(trial_stream(seed, t, shots, 1)).random()
                assert float(uniforms[t]).hex() == want.hex()
                rng = np.random.default_rng(trial_stream(seed, t, shots, 2))
                assert np.array_equal(words[t], rng.integers(0, 2**32, size=(shots, 2), dtype=np.uint32))


def test_the_first_trials_of_a_demo_draw_what_a_shorter_demo_draws():
    for seed in (0, 2**64 + 5):
        for shots in (1, 7, 500):
            longer = hiding._draws(seed, 9, shots)
            for k in (1, 4, 8):
                for got, want in zip(longer, hiding._draws(seed, k, shots)):
                    assert got[:k].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [np.uint64, np.int64, np.uint32, np.int32])
def test_run_demo_reports_a_numpy_integer_seed_as_its_python_value(kind):
    info = np.iinfo(kind)
    for seed in (0, 1, 2**31 - 1, 2**32 - 1, 2**40 + 3, 2**63 - 1, 2**64 - 1):
        if seed > info.max:
            continue
        got = run_demo(6, 7, seed=kind(seed), shots=30)
        assert type(got.pop("seed")) is kind
        want = run_demo(6, 7, seed=seed, shots=30)
        del want["seed"]
        _same(got, want)


def test_numpy_integer_counts_are_accepted():
    h = hide(2, 4)
    assert parity_attack(h, seed=3, shots=np.int64(40)) == parity_attack(h, seed=3, shots=40)
    assert run_demo(4, np.int32(5), seed=1, shots=np.int64(20)) == run_demo(4, 5, seed=1, shots=20)
    with pytest.raises(TooLarge):  # 2^16 * 2^16 wraps to 0 in int32
        run_demo(4, np.int32(1 << 16), shots=np.int32(1 << 16))


def per_shot_parity_attack(h, seed, shots):
    """Reference: the attack drawn one shot at a time, as it was first
    written; the batched draw must reproduce it for every seed."""
    rng = np.random.default_rng(seed)
    n = h.n_qubits
    pairs = support_strings(n)[h.label[:-1]]
    even_count = 0
    pm_matches = 0
    counts = {}
    for _ in range(shots):
        p = pairs[rng.integers(len(pairs))]
        s = int(p[rng.integers(2)])
        if (n - bin(s).count("1")) % 2 == 0:
            even_count += 1
        if (s >> (n - 1)) & 1 == h.secret & 1:
            pm_matches += 1
        key = format(s, f"0{n}b")
        counts[key] = counts.get(key, 0) + 1
    family_bit = 0 if even_count * 2 >= shots else 1
    return {
        "family_bit": family_bit,
        "family_bit_correct": family_bit == (h.secret >> 1),
        "even_parity_fraction": even_count / shots,
        "pm_match_rate": pm_matches / shots,
        "counts": counts,
    }


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_parity_attack_counts_equal_the_first_seen_unique_reference(n):
    """The counts dict, items in order, against np.unique's counts of the
    drawn strings ordered by first index."""
    names = hiding._bit_strings(n)
    for secret in range(4):
        h = hide(secret, n)
        for seed in (*range(20), 2**40 + 3, (5, 2)):
            for shots in (1, 2, 37, 500):
                words = hiding._shot_words(hiding._stream(seed), shots)
                s = hiding._shots(n, [secret >> 1], [secret & 1], words[None])[0][0]
                keys, first, freq = np.unique(s, return_index=True, return_counts=True)
                order = np.argsort(first)
                want = [(names[k], f) for k, f in zip(keys[order].tolist(), freq[order].tolist())]
                assert list(parity_attack(h, seed=seed, shots=shots)["counts"].items()) == want


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_parity_attack_matches_per_shot_draws(n):
    fam = be_family(n)
    for secret in range(4):
        h = hide(secret, n, family=fam)
        for seed in (0, 29, 2**40 + 3, (5, 2), (17, 0, 1)):
            for shots in (1, 2, 3, 500, 1001):
                got = parity_attack(h, seed=seed, shots=shots)
                want = per_shot_parity_attack(h, seed, shots)
                assert got == want, (n, secret, seed, shots)
                assert list(got["counts"]) == list(want["counts"])  # first-seen order
                assert all(type(v) is int for v in got["counts"].values())
                assert type(got["even_parity_fraction"]) is float
                assert type(got["pm_match_rate"]) is float


# captured from the one-stream, trial-major demo, whose layout
# test_run_demo_equals_the_per_trial_loop checks trial by trial
DEMO_GOLDEN = [
    ((4, 25, 3, 200), {"pm_bit_rate": 0.5, "trace_security_max": 0.0}),
    ((6, 20, 7, 300), {"pm_bit_rate": 0.5108333333333334, "trace_security_max": 0.0}),
    ((8, 12, 11, 500), {"pm_bit_rate": 0.49999999999999983, "trace_security_max": 0.0}),
    ((10, 8, 5, 500), {"pm_bit_rate": 0.5025000000000001, "trace_security_max": 0.0}),
]


@pytest.mark.parametrize("args,rates", DEMO_GOLDEN)
def test_run_demo_golden(args, rates):
    n, trials, seed, shots = args
    want = {"n": n, "trials": trials, "seed": seed, "shots": shots, "unlock_rate": 1.0, "family_leak_rate": 1.0}
    want.update(rates)
    got = run_demo(n, trials, seed=seed, shots=shots)
    assert got == want
    assert list(got) == list(want)


def _random_family(n, seed):
    """A family of random non-dyadic diagonals (o = 0): no marginal is flat."""
    rng = np.random.default_rng(seed)
    parts = {}
    for lab in LABELS:
        d = rng.random(1 << n)
        parts[lab] = (d / d.sum(), np.zeros(1 << n))
    return BEFamily(n, parts)


def tilted_classes(n, tilts):
    """The recursive construction's class values with D[0] of each label in
    `tilts` raised by its tilt (units of 4^-n): that label's marginals are
    no longer flat, at a distance of tilt 4^-n for every party."""
    d, o = recursive_classes(n)
    return tuple((row[0] + tilts.get(lab, 0), *row[1:]) for lab, row in zip(LABELS, d)), o


def test_run_demo_checks_each_label_once(monkeypatch):
    """trace_security_max is the largest trace_security over the labels the
    trials saw, not over all four: on tables of hand-made symmetric class
    values, an unseen label's non-flat marginal never shows."""
    demo_table = hiding._demo_table
    for n, trials, seed in ((4, 40, 2), (6, 3, 2), (8, 2, 5)):
        seen = {CODEBOOK[int(np.random.default_rng(trial_stream(seed, t, 50)).integers(4))] for t in range(trials)}
        unseen = sorted(set(LABELS) - seen)
        cases = [{lab: 2 + 2 * i for i, lab in enumerate(sorted(seen))}]  # each seen label tilted, no two alike
        if unseen:
            cases += [{unseen[0]: 6}, {unseen[0]: 99, min(seen): 3}]  # only the unseen label, or it the farthest
        for tilts in cases:
            classes = tilted_classes(n, tilts)
            by_hand = BEFamily(n, BEFamily._of_classes(n, classes).parts)  # the stack path
            table = demo_table(n, *classes)
            monkeypatch.setattr(hiding, "_demo_table", lambda *key, table=table: table)
            rep = run_demo(n, trials, seed=seed, shots=50)
            security = {lab: max(trace_security(hide(s, n, family=by_hand), p) for p in range(n)) for s, lab in CODEBOOK.items()}
            assert security == {lab: tilts.get(lab, 0) * 4.0**-n for lab in LABELS}
            assert table.security.tolist() == [security[lab] for lab in LABELS]
            assert rep["trace_security_max"] == max(security[lab] for lab in seen)
            assert rep["unlock_rate"] == 1.0


def test_run_demo_builds_the_unlock_table_once(monkeypatch):
    """No demo builds a family's unlock table, and each n turns its four
    labels into decode tables once, however many demos run."""
    decodes = []
    decode = hiding._decode_table

    def refused(d, o):
        raise AssertionError("run_demo built an unlock table")

    def counted_decode(probability, fidelity):
        decodes.append(len(probability))
        return decode(probability, fidelity)

    monkeypatch.setattr(bound_entangled, "_unlock_table", refused)
    monkeypatch.setattr(hiding, "_decode_table", counted_decode)
    hiding._demo_table.cache_clear()
    for n in (4, 6, 8, 10):
        decodes.clear()
        for seed in range(20):
            assert run_demo(n, 40, seed=seed, shots=50)["unlock_rate"] == 1.0
        assert decodes == [4] * 4  # one decode table per label, all outcomes at once


@pytest.mark.parametrize("build", [be_family, be_family_direct])
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_the_class_table_is_the_stack_built_one(build, n):
    """The demo table from class values against the one the stacks give:
    each label's decode table from its row of the family's unlock table,
    and its largest marginal distance from the marginal pass, bit for bit."""
    fam = build(n)
    table = hiding._demo_table(n, *fam._classes)
    distances = hiding._marginal_distances(fam.d, slice(None))
    for row, lab in enumerate(LABELS):
        cdf, secrets = hiding._decode_table(fam._unlock.probability[row], fam._unlock.fidelity[row])
        assert table.cdf[row].tobytes() == cdf.tobytes()
        assert table.decoded[row].tolist() == secrets
        assert float(table.security[row]).hex() == float(distances[row].max()).hex()
    assert all(not a.flags.writeable for a in table)
    assert hiding._demo_table(n, *recursive_classes(n)) is table  # both constructions share the demo's table


# Seeds of the decode corpus: plain, tuple and beyond 64 bits.
DECODE_SEEDS = [*range(150), *((seed, 3, 2) for seed in range(150)), 2**64 + 5, 2**70]


def _class_valued_families(n):
    """Both constructions, and the recursive one with tilted marginals."""
    yield be_family(n)
    yield be_family_direct(n)
    for tilts in ({"rho+": 2}, {"rho-": 4, "sigma+": 6}, {lab: 2 + 2 * i for i, lab in enumerate(LABELS)}):
        yield BEFamily._of_classes(n, tilted_classes(n, tilts))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_a_constructions_state_answers_as_its_stacks_do(n):
    """trace_security and decode_by_unlock of a class-valued family's own
    state (read from the demo table) against the same family built by
    hand from its stacks (the marginal pass and the unlock table), for
    every label, party and seed: equal float bits, answers and types."""
    for fam in _class_valued_families(n):
        by_hand = BEFamily(n, fam.parts)
        for s in CODEBOOK:
            h, oracle = hide(s, n, family=fam), hide(s, n, family=by_hand)
            for p in range(n):
                got, want = trace_security(h, p), trace_security(oracle, p)
                assert type(got) is float and got.hex() == want.hex(), (s, p)
            for seed in DECODE_SEEDS:
                got, want = decode_by_unlock(h, seed=seed), decode_by_unlock(oracle, seed=seed)
                assert type(got) is int and got == want, (s, seed)


class _StackRead(Exception):
    pass


@pytest.mark.parametrize("build", [be_family, be_family_direct])
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_a_constructions_state_reads_its_demo_table_alone(monkeypatch, build, n):
    """Once the demo table of n is built, the security check and the unlock
    decode of a construction's state build no decode table, unlock table,
    marginal or stack; an assigned matrix and a hand-built family's state
    go back to the stacks."""
    fam = build(n)
    rho = fam.states["sigma+"]
    by_hand = BEFamily(n, fam.parts)
    hiding._demo_table(n, *fam._classes)

    def refused(*args):
        raise _StackRead

    monkeypatch.setattr(hiding, "_decode_table", refused)
    monkeypatch.setattr(BEFamily, "_stacks", property(refused))
    for module in (hiding, bound_entangled):
        for name in ("reduced_diagonal", "_unlock_table"):
            monkeypatch.setattr(module, name, refused)
    for s in CODEBOOK:
        h = hide(s, n, family=fam)
        assert [trace_security(h, p) for p in range(n)] == [0.0] * n
        assert decode_by_unlock(h, seed=s) == s
        for read in (lambda h: trace_security(h, 0), decode_by_unlock):
            with pytest.raises(_StackRead):
                read(hide(s, n, family=by_hand))
        h.state = rho
        for read in (lambda h: trace_security(h, 0), decode_by_unlock):
            with pytest.raises(_StackRead):
                read(h)
        h.state = None  # the family's own state again
        assert decode_by_unlock(h, seed=s) == s


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_shot_strings_equal_the_support_string_gather(n):
    """The strings `_shots` computes by bit arithmetic are the entries of
    `support_strings(n)` the shots pick: pair r, at side b, of the
    trial's family."""
    strings = support_strings(n)
    for seed in range(200):
        trials, shots = 1 + seed % 5, 1 + (seed * 7) % 60
        secrets, _, words = hiding._draws(seed, trials, shots)
        got = hiding._shots(n, secrets >> 1, secrets & 1, words)[0]
        pair, side = words[..., 0] >> (34 - n), words[..., 1] >> 31
        for t, secret in enumerate(secrets.tolist()):
            want = strings[CODEBOOK[secret][:-1]][pair[t], side[t]]
            assert got[t].tolist() == want.tolist(), (seed, t)


# Outcome probabilities the unlock draw sees: the family's rows (each 1/4
# up to rounding in the recursive construction) and uneven ones.
DRAW_ROWS = [be_family(10)._unlock.probability[i] for i in range(4)] + [
    np.array([0.7, 0.2, 0.1, 0.0]),
    np.array([0.0, 0.5, 0.0, 0.5]),
    np.array([1e-300, 3.0, 1.0, 2.0]),
]


@pytest.mark.parametrize("row", range(len(DRAW_ROWS)))
def test_unlock_draw_equals_generator_choice_on_a_seed_corpus(row):
    probs = DRAW_ROWS[row]
    cdf, _ = hiding._decode_table(probs, np.eye(4))
    for seed in range(10**4):
        seed = (seed >> 1, 3, 2) if seed & 1 else seed  # tuple seeds and plain ones
        want = np.random.default_rng(seed).choice(len(LABELS), p=probs / probs.sum())
        assert hiding._draw(cdf, seed) == want, seed


@pytest.mark.parametrize(
    "probs",
    [
        [np.nan, 0.5, 0.5, 0.0],
        [np.inf, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],  # 0 / 0
        [0.5, 0.6, -0.1, 0.0],
        [1e308, 1e308, 0.0, 0.0],  # the total overflows: p is all zero
    ],
)
def test_unlock_draw_rejects_what_generator_choice_rejects(probs):
    probs = np.array(probs)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError) as want:
            np.random.default_rng(0).choice(len(LABELS), p=probs / probs.sum())
        with pytest.raises(ValueError) as got:
            hiding._decode_table(probs, np.eye(4))
    assert str(want.value).startswith(str(got.value))


# ---------------------------------------------------------------------------
# the batched demo against the per-trial protocol it replaced


def loop_attack(h, seed, shots):
    """The per-trial attack as it was before the shots were batched."""
    if shots < 1:
        raise BadParam(f"shots must be >= 1, got {shots}")
    if shots > hiding.MAX_SHOTS:
        raise TooLarge(f"shots = {shots} exceeds {hiding.MAX_SHOTS}")
    n = h.n_qubits
    pairs = support_strings(n)[h.label[:-1]]
    raw = np.random.default_rng(seed).integers(0, 1 << 32, size=(shots, 2), dtype=np.uint64)
    side = raw[:, 1] >> 31
    s = pairs[(raw[:, 0] * len(pairs)) >> 32, side]
    even_count = int(np.count_nonzero(np.bitwise_count(s) % 2 == n % 2))
    pm_matches = int(np.count_nonzero(side == (h.secret & 1)))
    family_bit = 0 if even_count * 2 >= shots else 1
    return s, family_bit, even_count, pm_matches


def loop_trace_security(h, excluded_party):
    """trace_security as it was before the stacked marginal pass."""
    n = h.n_qubits
    if not 0 <= excluded_party < n:
        raise BadParty(f"party index {excluded_party} outside 0..{n - 1}")
    d, _ = h.parts
    reduced = d.reshape((2,) * n).sum(axis=excluded_party).reshape(-1)
    return float(np.sum(np.abs(reduced - 1.0 / (1 << (n - 1)))))


def loop_run_demo(n, trials, seed=0, shots=500):
    """run_demo as it was before the trials were batched: every trial
    hides, attacks and decodes on its own, each draw from a Generator on
    PCG64(seed) advanced to its place in the trial's row (`trial_stream`)."""
    if trials < 1:
        raise BadParam(f"trials must be >= 1, got {trials}")
    if trials * shots > hiding.MAX_SHOTS:
        raise TooLarge(f"trials * shots = {trials} * {shots} exceeds {hiding.MAX_SHOTS}")
    fam = be_family(n)
    unlock_hits = 0
    family_hits = 0
    pm_rate_total = 0.0
    sec_max = 0.0
    per_label = {}
    for t in range(trials):
        secret = int(np.random.default_rng(trial_stream(seed, t, shots)).integers(4))
        h = hide(secret, n, family=fam)
        _, family_bit, _, pm_matches = loop_attack(h, trial_stream(seed, t, shots, 2), shots)
        family_hits += family_bit == (secret >> 1)
        pm_rate_total += pm_matches / shots
        if h.label not in per_label:
            security = max(loop_trace_security(h, p) for p in range(n))
            probability, fidelity = h._unlock_row()
            _, secrets = hiding._decode_table(probability, fidelity)
            per_label[h.label] = (security, probability / probability.sum(), secrets)
        security, p, secrets = per_label[h.label]
        sec_max = max(sec_max, security)
        outcome = np.random.default_rng(trial_stream(seed, t, shots, 1)).choice(len(LABELS), p=p)
        if secrets[outcome] == secret:
            unlock_hits += 1
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "shots": shots,
        "unlock_rate": unlock_hits / trials,
        "family_leak_rate": family_hits / trials,
        "pm_bit_rate": pm_rate_total / trials,
        "trace_security_max": sec_max,
    }


def _same(got, want):
    """Equal dicts: keys in order, value types, and float bits."""
    assert list(got) == list(want)
    for key in want:
        assert type(got[key]) is type(want[key]), key
        if isinstance(want[key], float):
            assert got[key].hex() == want[key].hex(), key
        else:
            assert got[key] == want[key], key


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_run_demo_equals_the_per_trial_loop(n):
    for trials in (1, 2, 7, 40):
        for shots in (1, 2, 3, 500, 1001):
            for seed in (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**96 + 7):
                _same(run_demo(n, trials, seed=seed, shots=shots), loop_run_demo(n, trials, seed=seed, shots=shots))


def test_run_demo_at_the_cap_of_one_shot_trials():
    """10^6 one-shot trials: the largest draw buffer a demo reads (24 MB)."""
    rep = run_demo(4, 10**6, seed=3, shots=1)
    assert rep["unlock_rate"] == 1.0
    assert rep["family_leak_rate"] == 1.0


@pytest.mark.parametrize("trials, shots", [(10**6, 1), (2000, 500), (40, 1001), (7, 3)])
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 3])
def test_pm_bit_rate_sums_the_trials_in_order(trials, shots, seed):
    """The +/- rate is the trials' rates summed in trial order: bit for bit
    the Python loop over them."""
    secrets, _, words = hiding._draws(seed, trials, shots)
    _, _, _, pm_matches = hiding._shots(4, secrets >> 1, secrets & 1, words)
    total = 0.0
    for matches in pm_matches.tolist():
        total += matches / shots
    got = run_demo(4, trials, seed=seed, shots=shots)["pm_bit_rate"]
    assert type(got) is float and got.hex() == (total / trials).hex()


@pytest.mark.parametrize(
    "args",
    [
        (4, 0, 0, 500),  # no trials
        (4, -3, 0, 500),
        (6, 2001, 1, 500),  # 1000500 shots in all
        (8, 1, 1, 10**6 + 1),
        (5, 4, 0, 0),  # odd n is named before the shots
        (5, 4, 0, -1),
        (12, 4, 0, 0),  # so is an n out of range
        (4, 4, 0, 0),
        (4, 4, 0, -7),
    ],
)
def test_run_demo_raises_what_the_per_trial_loop_raises(args):
    n, trials, seed, shots = args
    with pytest.raises(Exception) as want:
        loop_run_demo(n, trials, seed=seed, shots=shots)
    with pytest.raises(type(want.value)) as got:
        run_demo(n, trials, seed=seed, shots=shots)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_marginal_pass_equals_trace_security_bit_for_bit(n):
    families = [be_family(n), be_family_direct(n)] + [_random_family(n, seed) for seed in range(3)]
    for fam in families:
        d = np.array([fam.parts[lab][0] for lab in LABELS])
        distances = hiding._marginal_distances(d, slice(None))
        reduced = reduced_diagonal(d, slice(None))
        assert distances.shape == (4, n) and reduced.shape == (4, n, 1 << (n - 1))
        for s, lab in CODEBOOK.items():
            h = hide(s, n, family=fam)
            for p in range(n):
                want = d[s].reshape((2,) * n).sum(axis=p).reshape(-1)
                assert reduced[s, p].tobytes() == reduced_diagonal(d[s], p).tobytes() == want.tobytes()
                want = loop_trace_security(h, p)
                assert trace_security(h, p).hex() == float(distances[s, p]).hex() == want.hex(), (lab, p)
