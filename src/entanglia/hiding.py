"""Two-classical-bit hiding over the activable bound entangled family.

The codebook is fixed: 0 -> rho+, 1 -> rho-, 2 -> sigma+, 3 -> sigma-.
The parity attack (computational-basis sampling) leaks the family bit by
design; the +/- bit and every (n-1)-party marginal carry no information.
Every protocol step reads the GHZ-diagonal form (d, o) of the held state:
the family's stored parts, or `bound_entangled.ghz_parts` of a dense matrix
assigned to `HiddenState.state`.  Without such a matrix, hiding, the
attack, the security check and both decodes never build the family's
dense view, and the unlock decode reads a row of the family's unlock
table, built once per family.  A demo seeds the three PCG64 streams of
its trials in vectorized passes of `SeedSequence`'s hash, one for up to
`_SEED_BLOCK` trials, which give each stream's exact 128-bit state: a
trial's secret and decode uniform are one step of their streams' states,
on Python ints, and its attack words are raw outputs of one generator
set to its attack state.  The attack statistics of all trials are one
batch of the shot kernel that `parity_attack` runs on one trial, the
security check is one marginal pass over the family's diagonal stack,
and each label seen turns its unlock row into a decode table once.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .bound_entangled import (
    LABELS,
    PAIRING,
    _unlock_table,
    be_family,
    ghz_overlap,
    ghz_parts,
    reduced_diagonal,
    support_strings,
)
from .errors import BadDims, BadParam, BadParty, BadSecret, OddN, TooLarge
from .states import BELL_KINDS

CODEBOOK = dict(enumerate(LABELS))  # secret s -> LABELS[s], row s of a family's stacks

# The secret whose state leaves Bell state b on the last pair after unlock
# outcome o, keyed (o, b): per outcome, PAIRING matches the four states to
# the four Bell states one to one.
_DECODE = {(out, PAIRING[lab][out]): s for s, lab in CODEBOOK.items() for out in LABELS}

# Generator.choice's own bound on |sum(p) - 1|, kept so that a decode draw
# rejects the probabilities that choice rejected.
_CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)

# Shots are drawn in one batch of two 8-byte words each (16 bytes a shot),
# so this caps the draw buffer of an attack and the shots of a whole demo.
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


def _check_count(name, value):
    """Raise BadParam unless value is an integer: a Python or numpy int, not a bool."""
    if not _is_integer(value):
        raise BadParam(f"{name} must be an integer, got {value!r}")


def _check_shots(shots):
    _check_count("shots", shots)
    if shots < 1:
        raise BadParam(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise TooLarge(f"shots = {shots} exceeds {MAX_SHOTS}")


# Every draw reads raw 64-bit outputs of a fresh PCG64 stream, and each read
# equals the Generator call that would draw from the same stream.


def _secret(raw):
    """`integers(4)` of a stream whose first raw output is raw (an int or a
    uint64 array): Lemire's bounded draw on the output's low 32-bit half
    keeps its top two bits and never rejects."""
    return (raw & 0xFFFFFFFF) >> 30


def _uniform(raw):
    """`random()` of a stream whose first raw output is raw (an int or a
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


def _seed_words(seed):
    """The uint32 entropy words `SeedSequence` makes of a non-negative
    integer seed: its little-endian 32-bit words, one zero word for 0."""
    seed = int(seed)
    return [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]


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


# SeedSequence's hash and PCG64's seeding (numpy's bit_generator.pyx and
# pcg64.h, both kept stable by NEP 19).  SeedSequence hashes its entropy
# words into a pool of four uint32 words, the k-th hash of a call xor-ing
# with constant h_k and multiplying by h_(k+1) = h_k * mult (mod 2^32);
# every constant is independent of the data, so one sequence serves every
# stream.  The uint32 arithmetic stays on arrays, which wrap silently
# where numpy scalars warn.
_POOL = 4
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MIX_L, _MIX_R = np.array([0xCA01F9DD], dtype=np.uint32), np.array([0x4973F715], dtype=np.uint32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash_consts(h, mult, count):
    """h and the count constants after it, h_k = h * mult^k (mod 2^32), as
    a (count + 1, 1) uint32 column."""
    out = [h]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix on a uint32 array with its constants h_k, h_(k+1)."""
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    out = _MIX_L * x
    out -= _MIX_R * y
    out ^= out >> 16
    return out


def _cross_rounds(hashes):
    """The constants of the pool's pair hashes, one round per source word:
    round src hashes pool word src into each other word dst in turn, with
    hashes k, k + 1, k + 2 (k = _POOL + 3 src).  Each round is (xor, mult,
    others): (_POOL, 1) columns holding h_k, h_(k+1) at the rows dst (0 at
    row src), and the mask of those rows."""
    rounds = []
    for src in range(_POOL):
        xor, mult = np.zeros((2, _POOL, 1), dtype=np.uint32)
        k = _POOL + 3 * src
        dst = [i for i in range(_POOL) if i != src]
        xor[dst], mult[dst] = hashes[k : k + 3], hashes[k + 1 : k + 4]
        rounds.append((xor, mult, np.arange(_POOL)[:, None] != src))
    return rounds


# mix_entropy's constants: one hash per pool word, then one per ordered
# pair of pool words; generate_state(4, np.uint64) reads the pool twice
# over with a chain of its own.
_MULT_A = 0x931E8875
_HASH_A = _hash_consts(0x43B0D7E5, _MULT_A, _POOL * _POOL)
_CROSS = _cross_rounds(_HASH_A)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _pcg64_seeds(entropy, lengths):
    """(state, inc) of `np.random.PCG64(np.random.SeedSequence(e))` for
    each lane e: column j of the (L, lanes) uint32 block entropy, whose
    first lengths[j] >= 1 words are the lane's and the rest zeros.

    A lane shorter than the pool hashes its zeros, as SeedSequence pads it;
    word i >= _POOL is mixed into the lanes longer than i only.  PCG64
    takes initstate and initseq from the four 64-bit words of the pool's
    `generate_state(4, np.uint64)` and sets inc = initseq << 1 | 1 and
    state = (inc + initstate) * _PCG_MULT + inc (mod 2^128), on Python ints.
    """
    rows, lanes = entropy.shape
    pool = np.zeros((_POOL, lanes), dtype=np.uint32)
    pool[: min(rows, _POOL)] = entropy[:_POOL]
    pool = _hashmix(pool, _HASH_A[:_POOL], _HASH_A[1 : _POOL + 1])
    for src, (xor, mult, others) in enumerate(_CROSS):
        np.copyto(pool, _mix(pool, _hashmix(pool[src], xor, mult)), where=others)
    if rows > _POOL:
        hashes = _hash_consts(int(_HASH_A[-1, 0]), _MULT_A, _POOL * (rows - _POOL))
        lengths = np.asarray(lengths)
        for i in range(_POOL, rows):
            k = _POOL * (i - _POOL)
            word = _hashmix(entropy[i], hashes[k : k + _POOL], hashes[k + 1 : k + _POOL + 1])
            np.copyto(pool, _mix(pool, word), where=lengths > i)
    state = _hashmix(np.concatenate((pool, pool)), _HASH_B[:-1], _HASH_B[1:])
    # each lane's eight words as four 64-bit ones, the low word first
    seeds = []
    for s0, s1, q0, q1 in np.ascontiguousarray(state.T).astype("<u4", copy=False).view("<u8").tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        seeds.append((((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


def _trial_seeds(words, ts):
    """(state, inc) of trial t's three PCG64 streams, for each t in ts
    (< 2^32, one word) and the seed whose `_seed_words` are words: three
    lists, the streams of `default_rng((seed, t))`, `default_rng((seed, t,
    1))` and `default_rng((seed, t, 2))`, whose `SeedSequence` entropy is
    [*words, t], [*words, t, 1] and [*words, t, 2]."""
    ts = np.asarray(ts, dtype=np.uint32)
    n, trials = len(words), ts.size
    entropy = np.zeros((n + 2, 3, trials), dtype=np.uint32)
    entropy[:n] = np.array(words, dtype=np.uint32)[:, None, None]
    entropy[n] = ts
    entropy[n + 1] = np.arange(3, dtype=np.uint32)[:, None]  # the tail; a zero pads ()
    lengths = np.repeat([n + 1, n + 2, n + 2], trials)
    seeds = _pcg64_seeds(entropy.reshape(n + 2, 3 * trials), lengths)
    return seeds[:trials], seeds[trials : 2 * trials], seeds[2 * trials :]


# Trials seeded by one `_trial_seeds` pass of a demo.  A pass holds about
# 1.4 KB of Python ints a trial at its peak (0.5 KB in the (state, inc)
# pairs it returns), so a block bounds it at about 6 MB however many
# trials a demo runs.
_SEED_BLOCK = 4096


def _first_output(state, inc):
    """The first raw output of a PCG64 stream at (state, inc): one step of
    its 128-bit LCG, then the XSL-RR output, the xor of the new state's
    64-bit halves rotated right by the state's top 6 bits."""
    state = (state * _PCG_MULT + inc) & _MASK128
    x = (state >> 64 ^ state) & _MASK64
    r = state >> 122
    return (x >> r | x << (64 - r)) & _MASK64


def _seat(stream, state, inc):
    """Set a PCG64 stream to (state, inc), with no buffered 32-bit half."""
    stream.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


# Block of _pair_table per family, the label without its sign: each support
# vector of "rho+" or "rho-" is (|p> +/- |pbar>)/sqrt(2) for a "rho" pair.
_KINDS = {"rho": 0, "sigma": 1}


@cache
def _pair_table(n):
    """support_strings(n) of both families in one flat read-only table:
    side b of pair r of family block k is entry ((k * pairs + r) << 1) | b."""
    strings = support_strings(n)
    table = np.concatenate([strings[kind].reshape(-1) for kind in _KINDS])
    table.flags.writeable = False
    return table


@cache
def _bit_strings(n):
    """Every n-bit string, indexed by its value: the keys of the attack's counts."""
    return tuple(format(q, f"0{n}b") for q in range(1 << n))


def _shots(n, kind, pm_bit, words):
    """The parity attack on a batch of trials.  Trial t reads row t of
    `words` ((trials, shots, 2), see _shot_words) as shots on the support
    strings of family block kind[t].  Returns the sampled strings
    (trials, shots) and, per trial, the family-bit guess, the count of
    strings with an even number of zeros, and the count of first bits
    equal to pm_bit[t]."""
    side = words[..., 1] >> 31  # the pair's side is the string's first bit
    index = words[..., 0] >> (34 - n)  # the pair, of 2^(n-2)
    index += (np.asarray(kind, dtype=np.uint32) << (n - 2))[:, None]
    index <<= 1
    index |= side
    s = _pair_table(n)[index]
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


def run_demo(n, trials, seed=0, shots=500):
    """Full protocol simulation: hide, attack, security check, unlock-decode.

    Deterministic per seed; returns aggregate rates.  The seed is a
    non-negative Python or numpy integer, and a report is the same for
    equal seeds of either type; a bool, a negative number, a tuple or any
    other seed raises BadParam naming it.  Trial t draws its secret from
    the seed (seed, t), its attack words from (seed, t, 1) and its decode
    uniform from (seed, t, 2), the streams `default_rng` makes of those
    tuples: the seed becomes its entropy words once, `_trial_seeds` gives
    the states of the streams of up to `_SEED_BLOCK` trials in one array
    pass, and each draw reads raw PCG64 outputs (the secret and uniform
    computed from their streams' states, the attack words from one
    generator set to each trial's attack state).  Those attack draws are
    the only per-trial numpy calls.
    The attack statistics of all trials are one `_shots` batch, the
    security check is one marginal pass over the family's diagonal stack
    for every party, and each label seen gets its decode table once, from
    the family's unlock table.
    """
    _check_count("trials", trials)
    _check_count("shots", shots)
    if not _is_integer(seed) or seed < 0:
        raise BadParam(f"seed must be a non-negative integer, got {seed!r}")
    trials, shots = int(trials), int(shots)  # a numpy product could wrap below MAX_SHOTS
    if trials < 1:
        raise BadParam(f"trials must be >= 1, got {trials}")
    if trials * shots > MAX_SHOTS:
        raise TooLarge(f"trials * shots = {trials} * {shots} exceeds {MAX_SHOTS}")
    fam = be_family(n)
    _check_shots(shots)
    seed_words = _seed_words(seed)
    secrets = np.empty(trials, dtype=np.int64)
    uniforms = np.empty(trials)
    stream = np.random.PCG64(0)  # seated at each trial's attack stream in turn
    words = np.empty((trials, shots, 2), dtype=np.uint32)
    for start in range(0, trials, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, trials)
        first, attack, last = _trial_seeds(seed_words, np.arange(start, stop))
        secrets[start:stop] = [_secret(_first_output(*seeded)) for seeded in first]
        uniforms[start:stop] = [_uniform(_first_output(*seeded)) for seeded in last]
        for t, seeded in enumerate(attack, start):
            _seat(stream, *seeded)
            words[t] = _shot_words(stream, shots)

    # CODEBOOK holds the rho family at secrets 0, 1 and sigma at 2, 3
    _, family_bit, _, pm_matches = _shots(n, secrets >> 1, secrets & 1, words)
    pm_rate_total = 0.0
    for matches in pm_matches.tolist():  # summed in trial order
        pm_rate_total += matches / shots

    seen = np.flatnonzero(np.bincount(secrets, minlength=4))
    distances = _marginal_distances(fam.d, slice(None))
    unlock_hits = 0
    for secret in seen.tolist():
        cdf, decoded = _decode_table(fam._unlock.probability[secret], fam._unlock.fidelity[secret])
        drawn = cdf.searchsorted(uniforms[secrets == secret], side="right")
        unlock_hits += int(np.count_nonzero(np.array(decoded)[drawn] == secret))
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "shots": shots,
        "unlock_rate": unlock_hits / trials,
        "family_leak_rate": int(np.count_nonzero(family_bit == secrets >> 1)) / trials,
        "pm_bit_rate": pm_rate_total / trials,
        "trace_security_max": float(distances[seen].max()),
    }
