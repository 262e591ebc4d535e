"""Seeded (a, b) pairs for the order-decision workloads, each with proven labels.

A pair carries, for each of the five relations, the truth its construction
proves (True or False) or None where nothing proves it.  The constructions:

  1mp      b = a - b4*d*a + b4:             minus, 1MP and plus hold
  mp1      b = a - a*d*b4 + b4:             minus, MP1 and plus hold
  diamond  b = a + b4, b4 in (1-p)R(1-q):   the star order, so all five hold
  plus     b = plus_block_compose(a, data): plus holds
  perturbed (a, b + a) for 1mp, mp1, diamond: minus, 1MP and MP1 fail

(p = a*dagger(a), q = dagger(a)*a.)  The perturbation keeps rank(b + a) ==
rank(b), because a and b - a are rank-additive and 2 is a unit in every field
used here, so rank(b + a - a) != rank(b + a) - rank(a) for a != 0: the minus
order fails, and with it 1MP and MP1.  Over GF(3) at n = 2 every label is
taken from the exhaustive m2gf3 oracle instead; the benchmark's own tests
check that the construction labels agree with it.

The 1mp and mp1 formulas are those of the library's above_1mp and
above_mp1, with b4 and d drawn in the corners they require.  The
constructors are not called: they re-decide the relation they build (at
n = 8 one exact solve, about 3 s), which the timed op does again.
plus_block_compose is the library's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from starinv import (
    GF,
    QQ,
    ConditionFailure,
    ExactMatrix,
    NotMPInvertible,
    NotRickart,
    PlusBlockData,
    dagger,
    lp,
    plus_block_compose,
    rp,
)

RELATIONS = ("minus", "1mp", "mp1", "diamond", "plus")
KINDS = ("1mp", "mp1", "diamond", "plus")

_KNOWN = {
    "1mp": {"minus": True, "1mp": True, "plus": True},
    "mp1": {"minus": True, "mp1": True, "plus": True},
    "diamond": dict.fromkeys(RELATIONS, True),
    "plus": {"plus": True},
    "perturbed": {"minus": False, "1mp": False, "mp1": False},
}

# decide-small: mostly rationals, one GF(3) 2x2 slice, a GF(101) n = 3, 4 slice
SMALL_SLICES = (
    ("rational", 2),
    ("rational", 3),
    ("rational", 4),
    ("gf:3", 2),
    ("rational", 3),
    ("rational", 4),
    ("gf:101", 3),
    ("gf:101", 4),
)
LARGE_SLICES = (("rational", 8),)


@dataclass(frozen=True)
class Pair:
    kind: str  # one of KINDS, or "perturbed"
    field: str
    n: int
    a: ExactMatrix
    b: ExactMatrix
    labels: dict  # relation -> True / False / None

    def ops(self, truth):
        """The relations whose label is True (truth=True), or False/unknown."""
        return [r for r in RELATIONS if (self.labels[r] is True) == truth]


def construction_labels(kind) -> dict:
    known = _KNOWN[kind]
    return {r: known.get(r) for r in RELATIONS}


def field_of(tag):
    return QQ if tag == "rational" else GF(int(tag[3:]))


def random_matrix(rng, rows, cols, field):
    if field is QQ:
        ents = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rows * cols)]
    else:
        ents = [rng.randrange(field.p) for _ in range(rows * cols)]
    return ExactMatrix(rows, cols, ents, field)


def _base_element(rng, field, n, rank):
    """A nonzero singular a with dagger(a), lp(a) and rp(a) all defined."""
    while True:
        a = random_matrix(rng, n, rank, field) * random_matrix(rng, rank, n, field)
        if a.is_zero:
            continue
        try:
            return a, dagger(a), lp(a), rp(a)
        except (NotMPInvertible, NotRickart):
            continue


class PairStream:
    """An endless, seed-determined stream of labelled pairs.

    It walks the slices in turn and, per slice, gives one pair of every kind
    in KINDS order, so the stream has the same composition whatever the seed.
    """

    def __init__(self, seed, slices, oracle=None):
        self.rng = random.Random(seed)
        self.slices = slices
        self.oracle = oracle  # m2gf3 ring for the GF(3) 2x2 labels
        self._slice_turn = 0

    def next_pairs(self):
        """The pairs of the next slice: one per kind, each minus-type pair
        followed by its perturbation."""
        position = self._slice_turn % len(self.slices)
        tag, n = self.slices[position]
        self._slice_turn += 1
        field = field_of(tag)
        out = []
        for index, kind in enumerate(KINDS):
            # ranks 1 .. n-1 in a fixed rotation, so every cycle of slices has the same mix
            rank = 1 + (position + index) % (n - 1)
            pair = self._build(kind, field, tag, n, rank)
            out.append(pair)
            if kind != "plus":
                out.append(self._pair("perturbed", tag, n, pair.a, pair.b + pair.a))
        return out

    def _pair(self, kind, tag, n, a, b):
        labels = construction_labels(kind)
        if self.oracle is not None and tag == "gf:3" and n == 2:
            labels = oracle_labels(self.oracle, a, b)
        return Pair(kind, tag, n, a, b, labels)

    def _build(self, kind, field, tag, n, rank):
        rng = self.rng
        eye = ExactMatrix.identity(n, field)
        while True:
            a, a_dag, la, ra = _base_element(rng, field, n, rank)
            p = a * a_dag
            q = a_dag * a
            b4 = (eye - p) * random_matrix(rng, n, n, field) * (eye - q)
            if kind == "plus":
                data = PlusBlockData(
                    b22=(eye - la) * random_matrix(rng, n, n, field) * (eye - ra),
                    y=la * random_matrix(rng, n, n, field) * (eye - la),
                    x=(eye - ra) * random_matrix(rng, n, n, field) * ra,
                    w=(eye - la) * random_matrix(rng, n, n, field) * ra,
                    z=la * random_matrix(rng, n, n, field) * (eye - ra),
                )
                try:
                    b = plus_block_compose(a, data)
                except ConditionFailure:
                    continue
            elif kind == "diamond":
                b = a + b4
            elif kind == "1mp":
                d = (eye - q) * random_matrix(rng, n, n, field) * p
                b = a - b4 * d * a + b4
            else:
                d = q * random_matrix(rng, n, n, field) * (eye - p)
                b = a - a * d * b4 + b4
            return self._pair(kind, tag, n, a, b)


def oracle_labels(ring, a, b) -> dict:
    """Exhaustive truth over m2gf3 for a pair of GF(3) 2x2 matrices."""
    return {
        "minus": ring.rel_minus(a, b),
        "1mp": ring.rel_1mp(a, b),
        "mp1": ring.rel_mp1(a, b),
        "diamond": ring.rel_diamond(a, b),
        "plus": ring.rel_plus(a, b),
    }
