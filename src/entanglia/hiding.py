"""Two-classical-bit hiding over the activable bound entangled family.

The codebook is fixed: 0 -> rho+, 1 -> rho-, 2 -> sigma+, 3 -> sigma-.
The parity attack (computational-basis sampling) leaks the family bit by
design; the +/- bit and every (n-1)-party marginal carry no information.
Every protocol step reads the GHZ-diagonal form (d, o) of the held state:
the family's stored parts, or `bound_entangled.ghz_parts` of a dense matrix
assigned to `HiddenState.state`.  Without such a matrix, hiding, the
attack, the security check and both decodes never build the family's
dense view, and the unlock decode reads a row of the family's unlock
table, built once per family.  The demo turns each label's row into a
decode table once, so a trial's decode is one seeded draw.
"""

from __future__ import annotations

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

CODEBOOK = {0: "rho+", 1: "rho-", 2: "sigma+", 3: "sigma-"}

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
            table, row = _unlock_table([self.parts]), 0
        return table.probability[row], table.fidelity[row]


def hide(secret, n, family=None):
    """Encode a 2-bit secret as the codebook state on n qubits."""
    if secret not in CODEBOOK:
        raise BadSecret(f"secret must be 0..3, got {secret}")
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


def _attack(h, seed, shots):
    """The parity attack without its string counts: the sampled strings,
    the family-bit guess and the even zero-count and +/- match counts."""
    if shots < 1:
        raise BadParam(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise TooLarge(f"shots = {shots} exceeds {MAX_SHOTS}")
    n = h.n_qubits
    # each support vector is (|p> +/- |pbar>)/sqrt(2); "rho+" -> "rho" strings
    pairs = support_strings(n)[h.label[:-1]]
    # The seeded stream is pinned to the scalar draws
    # `pairs[rng.integers(len(pairs))][rng.integers(2)]`, shot after shot.
    # Each takes one 32-bit word: for a power-of-two range k (len(pairs) is
    # 2^(n-2)), Lemire's bounded draw keeps the word's top log2(k) bits and
    # never rejects, so (word * k) >> 32 is that draw.
    raw = np.random.default_rng(seed).integers(0, 1 << 32, size=(shots, 2), dtype=np.uint64)
    side = raw[:, 1] >> 31
    s = pairs[(raw[:, 0] * len(pairs)) >> 32, side]
    even_count = int(np.count_nonzero(np.bitwise_count(s) % 2 == n % 2))
    pm_matches = int(np.count_nonzero(side == (h.secret & 1)))  # side is the first bit
    family_bit = 0 if even_count * 2 >= shots else 1
    return s, family_bit, even_count, pm_matches


def parity_attack(h, seed=0, shots=1000):
    """Sample basis strings and read the zero-count parity.

    The returned family bit always equals the secret's high bit (the
    protocol's documented leak); the +/- guess (taken from each string's
    first bit) stays at chance.
    """
    s, family_bit, even_count, pm_matches = _attack(h, seed, shots)
    keys, first, freq = np.unique(s, return_index=True, return_counts=True)
    counts = {format(int(keys[i]), f"0{h.n_qubits}b"): int(freq[i]) for i in np.argsort(first)}
    return {
        "family_bit": family_bit,
        "family_bit_correct": family_bit == (h.secret >> 1),
        "even_parity_fraction": even_count / shots,
        "pm_match_rate": pm_matches / shots,
        "counts": counts,
    }


def trace_security(h, excluded_party):
    """Trace distance of the remaining parties' marginal from maximal
    mixedness; zero means the coalition learns nothing.

    The marginal of a GHZ-diagonal state is diagonal, so its trace norm
    distance is a sum of absolute differences.
    """
    n = h.n_qubits
    if not 0 <= excluded_party < n:
        raise BadParty(f"party index {excluded_party} outside 0..{n - 1}")
    d, _ = h.parts
    return float(np.sum(np.abs(reduced_diagonal(d, excluded_party) - 1.0 / (1 << (n - 1)))))


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
    `_decode_table` built from p: choice makes one `random()` draw and
    searches the cdf from the right."""
    return cdf.searchsorted(np.random.default_rng(seed).random(), side="right")


def decode_by_unlock(h, seed=0):
    """Authorized decode with the first n-2 parties grouped.

    They measure the four (n-2)-qubit supports; the conditional Bell state
    on the last pair pins the secret through the recursion pairing.  The
    outcome is drawn from the held state's row of the unlock table (the
    family's own, unless a matrix is assigned), and the Bell state is the
    one of highest fidelity in that row.
    """
    cdf, secrets = _decode_table(*h._unlock_row())
    return secrets[_draw(cdf, seed)]


def run_demo(n, trials, seed=0, shots=500):
    """Full protocol simulation: hide, attack, security check, unlock-decode.

    Deterministic per seed; returns aggregate rates.
    """
    if trials < 1:
        raise BadParam(f"trials must be >= 1, got {trials}")
    if trials * shots > MAX_SHOTS:
        raise TooLarge(f"trials * shots = {trials} * {shots} exceeds {MAX_SHOTS}")
    fam = be_family(n)
    unlock_hits = 0
    family_hits = 0
    pm_rate_total = 0.0
    sec_max = 0.0
    # Every trial of a label reads the same family state, so its worst
    # marginal distance and its decode table are computed once per label.
    per_label = {}
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        secret = int(rng.integers(4))
        h = hide(secret, n, family=fam)
        _, family_bit, _, pm_matches = _attack(h, (seed, t, 1), shots)
        family_hits += family_bit == (secret >> 1)
        pm_rate_total += pm_matches / shots
        if h.label not in per_label:
            security = max(trace_security(h, p) for p in range(n))
            per_label[h.label] = (security, *_decode_table(*h._unlock_row()))
        security, cdf, secrets = per_label[h.label]
        sec_max = max(sec_max, security)
        if secrets[_draw(cdf, (seed, t, 2))] == secret:
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
