"""The activable bound entangled family as Hamming-weight class values,
decided in Python ints, without numpy.

Every member of the 2N-qubit family is GHZ-diagonal (Dür & Cirac, PRA 61,
042314 (2000)) and invariant under every permutation of its qubits, so its
diagonal d[q] = rho[q, q] and anti-diagonal o[q] = rho[q, qbar] depend only
on the Hamming weight w of q.  The four states are then two (4, n + 1)
class vectors D and O, held here as tuples of Python ints in units of 4^-n
(the scale of the dyadic gate in `bound_entangled.verify_family`).  Both
constructions build them directly, and `verify_classes` decides the seven
family checks on them in integer arithmetic, exact at any n; C(n, w)
strings share weight w:

- orthogonality: sum_w C(n, w) (D_a[w] D_b[w] + O_a[w] O_b[n - w]) = 0;
- marginals: tracing out any qubit leaves D[w] + D[w + 1], which must be
  the flat 2^(1-n);
- PT: an index with a ones inside a cut of size s and b outside sits in
  the 2x2 block [[D[a + b], c], [c*, D[n - a - b]]], c = O[s - a + b],
  which is PSD iff x + y >= 0 and x y >= |c|^2;
- the Pauli connection: X or iY on one qubit moves class w to w +/- 1,
  and Z or iY gives O the phase -1;
- unlock: each outcome's conditional is a class sum with weights
  C(n - 2, v).

The float PT minimum (x + y)/2 - sqrt(((x - y)/2)^2 + |c|^2) is computed
only as evidence, bit for bit the value of the float64 stacks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, repeat
from operator import add, ge, itemgetter, mul, sub

from .errors import BadParam, OddN, TooLarge
from .family_labels import CHECKS, LABELS, PAIRING

# (d, o) class values of the four two-qubit Bell projectors in units of
# 1/2, at Hamming weight 0, 1, 2 of the pair.
_BELL_CLASSES = {
    "phi+": ((1, 0, 1), (1, 0, 1)),
    "phi-": ((1, 0, 1), (-1, 0, -1)),
    "psi+": ((0, 1, 0), (0, 1, 0)),
    "psi-": ((0, 1, 0), (0, -1, 0)),
}

# Conjugating rho+ by PAULI_CONNECTION[label] on one qubit, per label, as
# (moves the weight, phase of o): X and iY flip the qubit, so class w meets
# class w + 1 where the qubit reads 0 and w - 1 where it reads 1; Z and iY
# give the anti-diagonal the phase -1.
_PAULI_MOVES = ((False, 1), (False, -1), (True, 1), (True, -1))


def _check_n(n):
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise BadParam(f"qubit number must be an integer, got {n!r}")
    if n % 2 != 0:
        raise OddN(f"family exists only for even qubit numbers, got {n}")
    if not 4 <= n <= 10:
        raise TooLarge(f"n = {n} outside supported range 4..10")


@cache
def direct_classes(n):
    """(D, O) of the support-set construction on n qubits (an even int
    >= 4, unchecked): each state is the uniform mixture of its 2^(n-2)
    support vectors (|p> +/- |pbar>)/sqrt(2).  The rho (sigma) supports
    are the strings with an even (odd) number of zeros, so of even (odd)
    weight, and each carries 2^(1-n) on d and +/- 2^(1-n) on o."""
    unit = 1 << (n + 1)  # 2^(1-n) in units of 4^-n
    support = {kind: tuple(unit * (w % 2 == odd) for w in range(n + 1)) for kind, odd in (("rho", 0), ("sigma", 1))}
    d = tuple(support[lab[:-1]] for lab in LABELS)
    o = tuple(row if lab.endswith("+") else tuple(-x for x in row) for lab, row in zip(LABELS, d))
    return d, o


@cache
def recursive_classes(n):
    """(D, O) of the recursive construction on n qubits (an even int >= 4,
    unchecked): Bell-correlate the four m-qubit states with the four Bell
    projectors on two appended qubits, from the Bell states themselves at
    m = 2 (the rho+ row of PAIRING).

    A string of weight u on the m qubits followed by a pair of weight t
    gets sum over outcomes of level[out][u] bell[lab, out][t] / 4, in units
    of 4^-(m+2) twice the sum of the class values' products.  That sum
    depends on u + t alone, as the family is symmetric, so each new class
    w is read at u = min(w, m).
    """
    # level[k][i]: part i (d, o) of state LABELS[k] on m qubits, units 4^-m
    level = [[tuple(8 * x for x in part) for part in _BELL_CLASSES[PAIRING["rho+"][lab]]] for lab in LABELS]
    for m in range(2, n, 2):
        split = [(min(w, m), w - min(w, m)) for w in range(m + 3)]
        level = [
            [
                tuple(2 * sum(level[k][i][u] * bells[k][i][t] for k in range(4)) for u, t in split)
                for i in (0, 1)
            ]
            for bells in ([_BELL_CLASSES[PAIRING[lab][out]] for out in LABELS] for lab in LABELS)
        ]
    return tuple(state[0] for state in level), tuple(state[1] for state in level)


@dataclass
class FamilyReport:
    n_qubits: int
    orthogonal: bool
    permutation_symmetric: bool
    even_cut_ppt: bool
    single_vs_rest_npt: bool
    pauli_connected: bool
    reduced_max_mixed: bool
    unlock_ok: bool
    cut_evidence: list = field(default_factory=list)  # (label, cut, min PT eig)

    @property
    def all_pass(self):
        return all(getattr(self, check) for check in CHECKS)


def even_cuts(n):
    """Canonical even:even bipartitions (side containing qubit 0)."""
    cuts = []
    for size in range(2, n - 1, 2):
        for rest in combinations(range(1, n), size - 1):
            cuts.append((0,) + rest)
    return cuts


@cache
def verify_cuts(n):
    """verify_family's cuts: every even:even cut, then every single qubit."""
    return tuple(even_cuts(n) + [(j,) for j in range(n)])


@cache
def _binomials(n):
    """C(n, w) per weight w: the number of strings in class w."""
    return tuple(math.comb(n, w) for w in range(n + 1))


@cache
def _coupling_table(n, quick):
    """Where verify_classes reads each PT block's largest |c|^2.

    An index of weight w with a of its ones inside a cut of size s has
    coupling weight s + w - 2a over the a it can take: the stride-2 range
    lo = |s - w| to hi = min(s + w, 2n - s - w) of the classes.  Returns
    the cut sizes (1, then each even size), the distinct ranges of more
    than one class as slices, and a getter that picks, per size and then
    per w, the range's largest |c|^2 from the n + 1 values |c|^2 followed
    by the maxima over those slices.  With quick, one range per w stands
    for every even size, the union of theirs (each range moves either end
    of the last by at most 2, so the union is one stride-2 range): the
    flags need only each weight's largest coupling over all even cuts.
    """
    sizes = (1, *range(2, n - 1, 2))
    ranges = {s: [(abs(s - w), min(s + w, 2 * n - s - w)) for w in range(n + 1)] for s in sizes}
    if quick:
        evens = zip(*(ranges[s] for s in sizes[1:]))
        ranges = {1: ranges[1], 2: [(min(lo for lo, _ in col), max(hi for _, hi in col)) for col in evens]}
    wide = list(dict.fromkeys((lo, hi) for row in ranges.values() for lo, hi in row if lo < hi))
    at = {pair: n + 1 + i for i, pair in enumerate(wide)}
    pick = itemgetter(*(lo if lo == hi else at[lo, hi] for row in ranges.values() for lo, hi in row))
    return tuple(ranges), [slice(lo, hi + 1, 2) for lo, hi in wide], pick


@cache
def _evidence_layout(n):
    """The (state, cut) pairs of `cut_evidence` in order, as labels, cuts
    and the cuts' sizes."""
    cuts = verify_cuts(n)
    return LABELS * len(cuts), tuple(cut for cut in cuts for _ in LABELS), tuple(map(len, cuts))


@cache
def _outcome_classes(n):
    """unlock on classes, per state: the twelve class sums
    sum_v C(n - 2, v) X[v + t] its conditionals read, over the outcome
    projector's support classes v = p, p + 2, ..., n - 2 of each outcome
    parity p (0 for the rho outcomes, 1 for sigma), for X its D and then
    its O, at pair weight t = 0, 1, 2, in that order: as weights, slices of
    the eight rows D, then O, laid end to end, and the values its unlock
    needs.

    The projector leaves cond[j, j] = 1/2 sum_v C(n - 2, v) D[v + t] 4^-n
    and cond[j, jbar] = +/- 1/2 sum_v C(n - 2, v) O[v + t] 4^-n (the sign
    of the outcome), and unlock passes iff every outcome has probability
    1/4 and leaves its Bell projector: iff each conditional entry is a
    quarter of the Bell projector's, whose entries are 0 and +/- 1/2.  The
    "-" outcome of a parity negates the anti-diagonal, and PAIRING gives it
    the Bell state of the opposite anti-diagonal sign: both outcomes of a
    parity need the same sums, read here from the "+" one.
    """
    quarter = 4 ** (n - 1)
    table = []
    for i, lab in enumerate(LABELS):
        weights, slices, want = [], [], []
        for p, out in enumerate(("rho+", "sigma+")):
            for row, part in zip((i, 4 + i), _BELL_CLASSES[PAIRING[lab][out]]):
                for t in (0, 1, 2):
                    weights.append([math.comb(n - 2, v) for v in range(p, n - 1, 2)])
                    slices.append(slice(row * (n + 1) + p + t, row * (n + 1) + n - 1 + t, 2))
                    want.append(quarter * part[t])
        table.append((weights, slices, want))
    return table


def _unlocks(rows, table):
    """Whether each state's class sums, read from the eight rows laid end
    to end, are the ones its unlock needs (see _outcome_classes); stops at
    the first state that fails."""
    for weights, slices, want in table:
        if list(map(sum, map(map, repeat(mul), weights, map(rows.__getitem__, slices)))) != want:
            return False
    return True


def verify_classes(n, d, o, quick=False):
    """Run the seven family checks on class values d and o (four rows of
    n + 1 ints each, in LABELS order, in units of 4^-n) of an n-qubit
    family, n even and >= 4; the family is permutation symmetric by its
    form.  The flags are exact at any n.  Unless quick, `cut_evidence`
    lists each cut's float PT minimum per state, as the stacks give it; the
    cuts of one size share it.  quick=True only leaves it empty."""
    n_qubits, n = n, int(n)
    d, o = (tuple(map(tuple, rows)) for rows in (d, o))  # rows of any sequence type
    binom = _binomials(n)
    orthogonal = not any(
        sum(map(mul, binom, map(mul, d[a], d[b]))) + sum(map(mul, binom, map(mul, o[a], o[b][::-1])))
        for a, b in combinations(range(4), 2)
    )

    flat = 1 << (n + 1)  # 2^(1-n)
    reduced_max_mixed = all(x + y == flat for row in d for x, y in zip(row, row[1:]))

    d0, o0 = d[0], o[0]
    pauli_connected = True
    for (moves, phase), dl, ol in zip(_PAULI_MOVES, d, o):
        po = o0 if phase == 1 else tuple(-c for c in o0)
        if moves:
            pauli_connected = dl[:-1] == d0[1:] and dl[1:] == d0[:-1] and ol[:-1] == po[1:] and ol[1:] == po[:-1]
        else:
            pauli_connected = dl == d0 and ol == po
        if not pauli_connected:
            break

    unlock_ok = _unlocks(list(chain(*d, *o)), _outcome_classes(n))

    # PT: each weight's block (x, y) = (D[w], D[n - w]) at its largest
    # |c|^2; states with equal D and |O| (the +/- siblings) share one pass
    sizes, wide, pick = _coupling_table(n, quick)
    k = len(sizes)
    half, unit2 = 0.5 * 4.0**-n, 16.0**-n
    even_cut_ppt = single_vs_rest_npt = True
    minima = {}  # (D, |O|^2) -> the state's float minimum per size, None if quick
    for dl, ol in zip(d, o):
        c2 = tuple(map(mul, ol, ol))
        if (dl, c2) in minima:
            continue
        worst = pick(c2 + tuple(map(max, map(c2.__getitem__, wide))))  # per size, then per w
        dbar = dl[::-1]
        dets = list(map(mul, dl, dbar))
        traces_ok = min(map(add, dl, dbar)) >= 0
        single_vs_rest_npt &= not (traces_ok and all(map(ge, dets, worst[: n + 1])))
        even_cut_ppt &= traces_ok and all(map(ge, dets * (k - 1), worst[n + 1 :]))
        if quick:
            if not (even_cut_ppt or single_vs_rest_npt):
                break  # no other state can change either flag
            minima[dl, c2] = None
            continue
        # the stacks' float64 steps on exact values, every size at once
        means = list(map(mul, map(add, dl, dbar), repeat(half)))
        halves = list(map(mul, map(sub, dl, dbar), repeat(half)))
        roots = map(math.sqrt, map(add, list(map(mul, halves, halves)) * k, map(mul, worst, repeat(unit2))))
        values = list(map(sub, means * k, roots))
        minima[dl, c2] = [min(values[at : at + n + 1]) for at in range(0, k * (n + 1), n + 1)]
    evidence = []
    if not quick:
        per_state = [minima[dl, tuple(map(mul, ol, ol))] for dl, ol in zip(d, o)]
        per_size = dict(zip(sizes, zip(*per_state)))
        labels, cuts, cut_sizes = _evidence_layout(n)
        evidence = list(zip(labels, cuts, chain.from_iterable(map(per_size.__getitem__, cut_sizes))))

    return FamilyReport(
        n_qubits=n_qubits,
        orthogonal=orthogonal,
        permutation_symmetric=True,
        even_cut_ppt=even_cut_ppt,
        single_vs_rest_npt=single_vs_rest_npt,
        pauli_connected=pauli_connected,
        reduced_max_mixed=reduced_max_mixed,
        unlock_ok=unlock_ok,
        cut_evidence=evidence,
    )
