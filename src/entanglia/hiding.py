"""Two-classical-bit hiding over the activable bound entangled family.

The codebook is fixed: 0 -> rho+, 1 -> rho-, 2 -> sigma+, 3 -> sigma-.
The parity attack (computational-basis sampling) leaks the family bit by
design; the +/- bit and every (n-1)-party marginal carry no information.
Every protocol step reads the GHZ-diagonal form (d, o) of the held state:
the family's stored parts, or `bound_entangled.ghz_parts` of a dense matrix
assigned to `HiddenState.state`.  Without such a matrix, hiding, the
attack, the security check and both decodes never build the family's
dense view, and the unlock decode reads a row of the family's unlock
table, built once per family.  A demo reads one PCG64 stream of its seed
in one block, trial-major: trial t's row of shots + 2 raw outputs holds
its secret, its decode uniform and its attack words, so a trial's draws
do not depend on how many trials the demo runs.  The attack statistics
of all trials are one batch of the shot kernel that `parity_attack` runs
on one trial, which computes each sampled support string by bit
arithmetic.  The decode and security figures of a demo are constants of
n: one table per n, built once from the recursive construction's
Hamming-weight class values (`family_classes`) in Python ints, holds each
label's decode cdf, the secret each unlock outcome decodes to and the
label's largest marginal distance, so a demo builds no family and no
array whose size depends on 2^n besides its draws.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import comb
from typing import NamedTuple

import numpy as np

from .bound_entangled import (
    LABELS,
    PAIRING,
    _unlock_table,
    be_family,
    ghz_overlap,
    ghz_parts,
    reduced_diagonal,
)
from .errors import BadDims, BadParam, BadParty, BadSecret, OddN, TooLarge
from .family_classes import _check_n, _outcome_classes, _outcome_sums, recursive_classes
from .pairs import require_integer
from .states import BELL_KINDS

CODEBOOK = dict(enumerate(LABELS))  # secret s -> LABELS[s], row s of a family's stacks

# The secret whose state leaves Bell state b on the last pair after unlock
# outcome o, keyed (o, b): per outcome, PAIRING matches the four states to
# the four Bell states one to one.
_DECODE = {(out, PAIRING[lab][out]): s for s, lab in CODEBOOK.items() for out in LABELS}

# Generator.choice's own bound on |sum(p) - 1|, kept so that a decode draw
# rejects the probabilities that choice rejected.
_CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)

# Caps the shots of an attack and of a whole demo, and so their draw
# buffers: one raw 8-byte output a shot, and a demo reads two more a trial,
# 8 * trials * (shots + 2) bytes, at most 24 MB (10^6 one-shot trials).
MAX_SHOTS = 10**6


class HiddenState:
    """A codebook state of a family, held as the family's label.

    `state` is the family's dense matrix until a matrix is assigned to it
    (a noisy or tampered copy); `parts` is the family's stored (d, o), or
    `ghz_parts` of the assigned matrix, gated again on every read (its
    size too).  One of the two must be given: a state with neither raises
    BadParam when it is built, and `state = None` raises it when the
    state has no family to fall back on.
    """

    def __init__(self, n_qubits, secret, label, state=None, family=None):
        self.n_qubits = n_qubits
        self.secret = secret
        self.label = label
        self.family = family
        self.state = state

    @property
    def state(self):
        return self.family.states[self.label] if self._held is None else self._held

    @state.setter
    def state(self, rho):
        if rho is None and self.family is None:
            raise BadParam("a hidden state needs a family or an assigned matrix")
        self._held = rho

    @property
    def parts(self):
        if self._held is None:
            return self.family.parts[self.label]
        d, o = ghz_parts(self._held)
        if d.size != 1 << self.n_qubits:
            raise BadDims(f"assigned matrix is {d.size} x {d.size}, the state is on {self.n_qubits} qubits")
        return d, o

    @property
    def dims(self):
        return (2,) * self.n_qubits

    def _unlock_row(self):
        """(probability, fidelity) of the held state's unlock outcomes: a
        row of the family's unlock table, or the table of `parts` when a
        matrix is assigned."""
        if self._held is None:
            table, row = self.family._unlock, LABELS.index(self.label)
        else:
            table, row = _unlock_table(*(np.array([v]) for v in self.parts)), 0
        return table.probability[row], table.fidelity[row]


def hide(secret, n, family=None):
    """Encode a 2-bit secret, a Python or numpy integer 0..3 (not a bool),
    as the codebook state on n qubits."""
    if not _is_integer(secret) or secret not in CODEBOOK:
        raise BadSecret(f"secret must be 0..3, got {secret}")
    if not _is_integer(n):
        raise BadParam(f"qubit number must be an integer, got {n!r}")
    if n % 2 != 0 or n < 4:
        raise OddN(f"need an even qubit count >= 4, got {n}")
    fam = family if family is not None else be_family(n)
    if fam.n_qubits != n:
        raise BadParam(f"family is on {fam.n_qubits} qubits, secret asked for {n}")
    return HiddenState(n_qubits=n, secret=secret, label=CODEBOOK[secret], family=fam)


def decode_global(h):
    """Authorized global decode: argmax overlap against the codebook, the
    held state's family (or be_family, for a matrix held without one)."""
    held = h.parts
    fam = h.family if h.family is not None else be_family(h.n_qubits)
    overlaps = {s: ghz_overlap(fam.parts[lab], held) for s, lab in CODEBOOK.items()}
    return max(overlaps, key=overlaps.get)


def string_distribution(state):
    """Exact computational-basis sampling distribution (the diagonal)."""
    return np.asarray(state).diagonal().real.copy()


def _is_integer(value):
    """True for a Python or numpy integer, False for a bool or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_shots(shots):
    require_integer("shots", shots)
    if shots < 1:
        raise BadParam(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise TooLarge(f"shots = {shots} exceeds {MAX_SHOTS}")


# Every draw reads raw 64-bit outputs of a PCG64 stream, and each read
# equals the Generator call that would draw the same outputs from a stream
# with no buffered 32-bit half.


def _secret(raw):
    """`integers(4)` of a stream whose next raw output is raw (an int or a
    uint64 array): Lemire's bounded draw on the output's low 32-bit half
    keeps its top two bits and never rejects."""
    return (raw & 0xFFFFFFFF) >> 30


def _uniform(raw):
    """`random()` of a stream whose next raw output is raw (an int or a
    uint64 array): its top 53 bits over 2^53."""
    return (raw >> 11) * 2.0**-53


def _shot_words(stream, shots):
    """The attack's draw from a fresh PCG64 stream: two 32-bit words a shot,
    (shots, 2) uint32, equal to `integers(0, 2**32, size=(shots, 2),
    dtype=np.uint32)`, which takes each raw output's low 32-bit half, then
    its high half (the halves of a little-endian view).

    The stream is pinned to the scalar draws
    `pairs[rng.integers(len(pairs))][rng.integers(2)]`, shot after shot:
    for a power-of-two range k (len(pairs) is 2^(n-2)), each draw is
    Lemire's bounded draw on one word, word >> (32 - log2(k)).
    """
    return stream.random_raw(shots).view(np.uint32).reshape(shots, 2)


def _stream(seed):
    """np.random.PCG64(seed), for any seed it takes (an int, a sequence of
    ints, a SeedSequence) but None, which reads OS entropy, and a bool.
    Those and every seed PCG64 rejects raise BadParam naming the seed."""
    if seed is None or isinstance(seed, (bool, np.bool_)):
        raise BadParam(f"seed must be an integer, a sequence of integers or a SeedSequence, got {seed!r}")
    try:
        return np.random.PCG64(seed)
    except (TypeError, ValueError) as exc:
        raise BadParam(f"seed {seed!r} is not a PCG64 seed: {exc}") from None


def _draws(seed, trials, shots):
    """The draws of a demo's trials, from one read of `np.random.PCG64(seed)`
    (seed a non-negative int) in trial-major order: row t of its
    (trials, shots + 2) raw outputs is trial t's secret, decode uniform and
    attack words, so the first k rows are a k-trial demo's.  Returns the
    secrets (int64), the uniforms and the (trials, shots, 2) uint32 words,
    each trial's laid out as `_shot_words` lays them out."""
    raw = np.random.PCG64(seed).random_raw(trials * (shots + 2)).reshape(trials, shots + 2)
    words = raw[:, 2:].view(np.uint32).reshape(trials, shots, 2)
    return _secret(raw[:, 0]).astype(np.int64), _uniform(raw[:, 1]), words


# The family bit of each label, the label without its sign: each support
# vector of "rho+" or "rho-" is (|p> +/- |pbar>)/sqrt(2) for a "rho" pair.
_KINDS = {"rho": 0, "sigma": 1}


@cache
def _bit_strings(n):
    """Every n-bit string, indexed by its value: the keys of the attack's counts."""
    return tuple(format(q, f"0{n}b") for q in range(1 << n))


def _shots(n, kind, pm_bit, words):
    """The parity attack on a batch of trials.  Trial t reads row t of
    `words` ((trials, shots, 2), see _shot_words) as shots on the support
    strings of family kind[t] (0 rho, 1 sigma).  Returns the sampled
    strings (trials, shots) and, per trial, the family-bit guess, the count
    of strings with an even number of zeros, and the count of first bits
    equal to pm_bit[t].

    Shot (r, side) reads pair r of `support_strings(n)[kind]` at side: its
    strings p with first bit 0 run in increasing order, and of 2r and
    2r + 1 exactly one has the kind's zero-count parity (n is even), so
    p = 2r + ((popcount(r) ^ kind) & 1), and side 1 is its complement.
    """
    side = words[..., 1] >> 31  # the pair's side is the string's first bit
    r = words[..., 0] >> (34 - n)  # the pair, of 2^(n-2)
    s = (r << 1) | ((np.bitwise_count(r) ^ np.asarray(kind, dtype=np.uint8)[:, None]) & 1)
    s ^= side * np.uint32((1 << n) - 1)
    shots = words.shape[1]
    even_count = shots - ((np.bitwise_count(s) & 1) ^ (n & 1)).sum(axis=-1, dtype=np.int64)
    ones = side.sum(axis=-1, dtype=np.int64)
    pm_matches = np.where(np.asarray(pm_bit) == 1, ones, shots - ones)
    family_bit = (even_count * 2 < shots).astype(np.int64)
    return s, family_bit, even_count, pm_matches


def parity_attack(h, seed=0, shots=1000):
    """Sample basis strings and read the zero-count parity.

    The returned family bit always equals the secret's high bit (the
    protocol's documented leak); the +/- guess (taken from each string's
    first bit) stays at chance.  The shots are `_shots` on a batch of one
    trial, and the counts keep the strings in first-seen order.  The seed is
    any seed `_stream` takes: every seed `default_rng` turns into a PCG64
    stream but None and a bool.
    """
    _check_shots(shots)
    n = h.n_qubits
    kind = _KINDS[h.label[:-1]]
    words = _shot_words(_stream(seed), shots)
    s, family_bit, even_count, pm_matches = _shots(n, [kind], [h.secret & 1], words[None])
    keys, first, freq = np.unique(s[0], return_index=True, return_counts=True)
    order = np.argsort(first)
    names = _bit_strings(n)
    family_bit = int(family_bit[0])
    return {
        "family_bit": family_bit,
        "family_bit_correct": family_bit == (h.secret >> 1),
        "even_parity_fraction": int(even_count[0]) / shots,
        "pm_match_rate": int(pm_matches[0]) / shots,
        "counts": {names[k]: f for k, f in zip(keys[order].tolist(), freq[order].tolist())},
    }


def _marginal_distances(d, parties):
    """Trace distance from maximal mixedness of each diagonal in d
    (..., 2^n) with each of `parties` (a party, a slice or an array)
    traced out, one distance per party.

    The marginal of a GHZ-diagonal state is diagonal, so its trace norm
    distance is a sum of absolute differences.
    """
    n = d.shape[-1].bit_length() - 1
    return np.abs(reduced_diagonal(d, parties) - 1.0 / (1 << (n - 1))).sum(axis=-1)


def trace_security(h, excluded_party):
    """Trace distance of the remaining parties' marginal from maximal
    mixedness; zero means the coalition learns nothing."""
    n = h.n_qubits
    if not _is_integer(excluded_party) or not 0 <= excluded_party < n:
        raise BadParty(f"party index {excluded_party} outside 0..{n - 1}")
    d, _ = h.parts
    return float(_marginal_distances(d, excluded_party))


def _decode_table(probability, fidelity):
    """One unlock row as a decode table: the cdf that
    `Generator.choice(4, p=probability / probability.sum())` draws an
    outcome from, with choice's checks on p, and the secret each outcome
    decodes to through its Bell state of highest fidelity."""
    p = probability / probability.sum()
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf, [_DECODE[out, BELL_KINDS[b]] for out, b in zip(LABELS, fidelity.argmax(axis=-1))]


def _draw(cdf, seed):
    """The outcome `default_rng(seed).choice(4, p=p)` draws, for the cdf
    `_decode_table` built from p and any seed `_stream` takes: choice
    makes one `random()` draw and searches the cdf from the right."""
    return cdf.searchsorted(_uniform(_stream(seed).random_raw()), side="right")


def decode_by_unlock(h, seed=0):
    """Authorized decode with the first n-2 parties grouped.

    They measure the four (n-2)-qubit supports; the conditional Bell state
    on the last pair pins the secret through the recursion pairing.  The
    outcome is drawn from the held state's row of the unlock table (the
    family's own, unless a matrix is assigned), and the Bell state is the
    one of highest fidelity in that row.  The seed is any seed `_stream`
    takes.
    """
    cdf, secrets = _decode_table(*h._unlock_row())
    return secrets[_draw(cdf, seed)]


class _DemoTable(NamedTuple):
    """The demo's per-label constants, read-only, rows in LABELS order."""

    cdf: np.ndarray  # (label, outcome): the decode draw's cdf
    decoded: np.ndarray  # (label, outcome): the secret the outcome decodes to
    security: np.ndarray  # (label,): the largest marginal distance over the parties


def _class_demo_table(n, d, o):
    """The demo table of an n-qubit permutation-symmetric family from its
    class values d and o (four rows of n + 1 ints, LABELS order, units of
    4^-n), in Python ints.

    Unlock outcome `out` of parity p leaves, in units of 4^-n / 2, the
    conditional entries cond[j, j] = S_D(t) and cond[j, jbar] = +/- S_O(t)
    (the sign of out) on the last pair j of weight t, with S_X(t) =
    sum_v C(n - 2, v) X[v + t] over v = p, p + 2, ..., n - 2, the class sums
    `_outcome_classes` lays out.  So its probability is P = S_D(0) +
    2 S_D(1) + S_D(2), and 2P times its fidelity with phi+/- is S_D(0) +
    S_D(2) +/- (S_O(0) + S_O(2)), with psi+/- 2 (S_D(1) +/- S_O(1)), the
    signs of the O sums those of out; the decode reads only which Bell
    state is largest.  `_decode_table` then makes the cdf, with choice's
    checks on p.

    Tracing out any one party leaves D[w] + D[w + 1] on the C(n - 1, w)
    strings of weight w, so each party's distance is sum_w C(n - 1, w)
    |D[w] + D[w + 1] - 2^(n + 1)| in units of 4^-n, exactly the float sum
    `_marginal_distances` makes of the stacks."""
    rows = list(chain(*d, *o))
    flat = 1 << (n + 1)  # 2^(1-n)
    binom = [comb(n - 1, w) for w in range(n)]
    cdfs, decoded, security = [], [], []
    for dl, (weights, slices, _) in zip(d, _outcome_classes(n)):
        sums = _outcome_sums(rows, weights, slices)
        probability, fidelity = [], []
        for out in LABELS:
            d0, d1, d2, o0, o1, o2 = sums[:6] if out.startswith("rho") else sums[6:]
            if out.endswith("-"):
                o0, o1, o2 = -o0, -o1, -o2
            probability.append(d0 + 2 * d1 + d2)
            fidelity.append([d0 + d2 + o0 + o2, d0 + d2 - o0 - o2, 2 * (d1 + o1), 2 * (d1 - o1)])  # BELL_KINDS
        cdf, secrets = _decode_table(np.array(probability), np.array(fidelity))
        cdfs.append(cdf)
        decoded.append(secrets)
        security.append(sum(b * abs(x + y - flat) for b, x, y in zip(binom, dl, dl[1:])) * 4.0**-n)
    arrays = np.array(cdfs), np.array(decoded), np.array(security)
    for a in arrays:
        a.flags.writeable = False
    return _DemoTable(*arrays)


@cache
def _demo_table(n):
    """The demo table of the recursive construction on n qubits (an int
    _check_n passed), built once per n."""
    return _class_demo_table(n, *recursive_classes(n))


def run_demo(n, trials, seed=0, shots=500):
    """Full protocol simulation: hide, attack, security check, unlock-decode.

    Deterministic per seed; returns aggregate rates.  The seed is a
    non-negative Python or numpy integer, and a report is the same for
    equal seeds of either type; a bool, a negative number, a tuple or any
    other seed raises BadParam naming it.  Every draw is one read of the
    stream `np.random.PCG64(seed)` (`_draws`): trial t reads its raw
    outputs t * (shots + 2) onward, its secret (`integers(4)` of the
    first), its decode uniform (`random()` of the second) and its attack
    words (the 32-bit halves of the next `shots`), so trial t draws the
    same whatever the number of trials.
    The attack statistics of all trials are one `_shots` batch.  The
    decodes and the security check read the per-n table of the family's
    class values (`_demo_table`): each trial's outcome is the count of its
    label's cdf entries at or below its uniform, the outcome
    `Generator.choice` draws, and the security figure is the largest
    marginal distance over the labels seen, each equal to `trace_security`
    of the family's stacks at any party.  No family is built.
    """
    trials = require_integer("trials", trials)
    shots = require_integer("shots", shots)
    if not _is_integer(seed) or seed < 0:
        raise BadParam(f"seed must be a non-negative integer, got {seed!r}")
    if trials < 1:
        raise BadParam(f"trials must be >= 1, got {trials}")
    if trials * shots > MAX_SHOTS:
        raise TooLarge(f"trials * shots = {trials} * {shots} exceeds {MAX_SHOTS}")
    _check_n(n)
    table = _demo_table(int(n))
    _check_shots(shots)
    secrets, uniforms, words = _draws(int(seed), trials, shots)

    # CODEBOOK holds the rho family at secrets 0, 1 and sigma at 2, 3
    _, family_bit, _, pm_matches = _shots(n, secrets >> 1, secrets & 1, words)
    pm_rate_total = float(np.cumsum(pm_matches / shots)[-1])  # summed in trial order, as a loop would

    # cdf.searchsorted(u, side="right") of each trial's label, one column
    # at a time: no (trials, 4) gather; the last entry, 1.0, is above every u
    drawn = sum((column[secrets] <= uniforms).view(np.int8) for column in table.cdf.T[:3])
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "shots": shots,
        "unlock_rate": int(np.count_nonzero(table.decoded[secrets, drawn] == secrets)) / trials,
        "family_leak_rate": int(np.count_nonzero(family_bit == secrets >> 1)) / trials,
        "pm_bit_rate": pm_rate_total / trials,
        "trace_security_max": float(table.security[secrets].max()),
    }
