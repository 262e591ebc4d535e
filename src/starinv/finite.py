"""Enumerable finite *-rings used as brute-force oracles.

Two families are registered: Z_n with the identity involution (valid because
those rings are commutative) and the ring of 2x2 matrices over GF(p) with
transpose, p in {2, 3}.  Construction verifies the full ring and involution
axiom set over the carrier; all products are table-backed so exhaustive
sweeps stay fast.

Everything in this module decides membership questions by raw enumeration
against the defining equations.  It deliberately shares no code paths with
the formula-based layers so that agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from . import inverses as gi
from .errors import (
    CarrierTooLarge,
    InternalCheckError,
    NotMPInvertible,
    RingMismatch,
    UniquenessViolation,
    UnknownRing,
)
from .fields import GF
from .matrix import ExactMatrix

CARRIER_GUARD = 10_000
TUPLE_CAP = 1_000_000
SAMPLE_SEED = 74207281


@dataclass(frozen=True)
class TheoremReport:
    """Result of one exhaustive verification sweep over a finite ring."""

    theorem: str
    ring: str
    checked: int
    violations: tuple
    elapsed: float
    notes: tuple = ()
    sampled: bool = False

    @property
    def passed(self) -> bool:
        return not self.violations


def capped_tuples(pools, cap=TUPLE_CAP, seed=SAMPLE_SEED):
    """All tuples from `pools`, or a deterministic sample when too many.

    Returns (iterable, sampled_flag, count).
    """
    total = 1
    for pool in pools:
        total *= len(pool)
    if total <= cap:
        return itertools.product(*pools), False, total
    rng = random.Random(seed)
    def sample():
        for _ in range(cap):
            yield tuple(rng.choice(pool) for pool in pools)
    return sample(), True, cap


@dataclass(frozen=True)
class ZnElement:
    """An element of Z_n; the involution is the identity map."""

    value: int
    modulus: int

    def _check(self, other):
        if not isinstance(other, ZnElement):
            raise RingMismatch(f"cannot combine ZnElement with {type(other).__name__}")
        if other.modulus != self.modulus:
            raise RingMismatch(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other):
        self._check(other)
        return ZnElement((self.value + other.value) % self.modulus, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return ZnElement((self.value - other.value) % self.modulus, self.modulus)

    def __neg__(self):
        return ZnElement((-self.value) % self.modulus, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return ZnElement((self.value * other.value) % self.modulus, self.modulus)

    @property
    def star(self):
        return self

    @property
    def is_zero(self):
        return self.value == 0

    def __repr__(self):
        return f"{self.value} (mod {self.modulus})"


@gi.dagger.register
def _(x: ZnElement):
    d = zn_ring(x.modulus).dagger_of(x)
    if d is None:
        raise NotMPInvertible(f"{x!r} has no Moore-Penrose inverse")
    return d


class FiniteStarRing:
    """A finite *-ring with cached operation tables and annihilator data."""

    def __init__(self, name, elements, zero, one):
        if len(elements) > CARRIER_GUARD:
            raise CarrierTooLarge(f"carrier of {name} has {len(elements)} elements")
        self.name = name
        self.elements = tuple(elements)
        self.zero = zero
        self.one = one
        self._mul = {}
        self._add = {}
        for a in self.elements:
            for b in self.elements:
                self._mul[a, b] = a * b
                self._add[a, b] = a + b
        self._neg = {a: -a for a in self.elements}
        self._star = {a: a.star for a in self.elements}
        self._left_ann = {}
        self._right_ann = {}
        self._inner = {}
        self._corners = {}
        self._lazily_built = False
        self._verify_axioms()

    # -- table-backed operations -------------------------------------------

    def mul(self, a, b):
        return self._mul[a, b]

    def add(self, a, b):
        return self._add[a, b]

    def sub(self, a, b):
        return self._add[a, self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def star(self, a):
        return self._star[a]

    def mul3(self, a, b, c):
        return self._mul[self._mul[a, b], c]

    # -- construction-time axiom verification --------------------------------

    def _verify_axioms(self):
        els = self.elements
        mul, add, neg, star = self._mul, self._add, self._neg, self._star
        zero, one = self.zero, self.one
        for a in els:
            if add[a, zero] != a or mul[a, one] != a or mul[one, a] != a:
                raise InternalCheckError(f"{self.name}: identity axioms fail at {a!r}")
            if add[a, neg[a]] != zero:
                raise InternalCheckError(f"{self.name}: negation fails at {a!r}")
            if star[star[a]] != a:
                raise InternalCheckError(f"{self.name}: involution not involutive at {a!r}")
        if star[one] != one:
            raise InternalCheckError(f"{self.name}: star(1) != 1")
        for a in els:
            for b in els:
                if add[a, b] != add[b, a]:
                    raise InternalCheckError(f"{self.name}: addition not commutative")
                if star[add[a, b]] != add[star[a], star[b]]:
                    raise InternalCheckError(f"{self.name}: star not additive")
                if star[mul[a, b]] != mul[star[b], star[a]]:
                    raise InternalCheckError(f"{self.name}: star not antimultiplicative")
        # Triple-quantified axioms run on int-indexed tables for speed.
        n = len(els)
        idx = {e: i for i, e in enumerate(els)}
        mul_i = [[idx[mul[a, b]] for b in els] for a in els]
        add_i = [[idx[add[a, b]] for b in els] for a in els]
        if n ** 3 <= TUPLE_CAP:
            triples = (
                (i, j, k) for i in range(n) for j in range(n) for k in range(n)
            )
        else:
            rng = random.Random(SAMPLE_SEED)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(TUPLE_CAP)
            )
        for i, j, k in triples:
            mi, ai = mul_i[i], add_i[i]
            mij, aij = mi[j], ai[j]
            if mul_i[mij][k] != mi[mul_i[j][k]]:
                raise InternalCheckError(f"{self.name}: multiplication not associative")
            if add_i[aij][k] != ai[add_i[j][k]]:
                raise InternalCheckError(f"{self.name}: addition not associative")
            if mi[add_i[j][k]] != add_i[mij][mi[k]]:
                raise InternalCheckError(f"{self.name}: left distributivity fails")
            if mul_i[aij][k] != add_i[mi[k]][mul_i[j][k]]:
                raise InternalCheckError(f"{self.name}: right distributivity fails")

    # -- annihilators and structure sets -------------------------------------

    def left_ann(self, a) -> frozenset:
        """{x : x*a == 0}"""
        if a not in self._left_ann:
            mul, zero = self._mul, self.zero
            self._left_ann[a] = frozenset(x for x in self.elements if mul[x, a] == zero)
        return self._left_ann[a]

    def right_ann(self, a) -> frozenset:
        """{x : a*x == 0}"""
        if a not in self._right_ann:
            mul, zero = self._mul, self.zero
            self._right_ann[a] = frozenset(x for x in self.elements if mul[a, x] == zero)
        return self._right_ann[a]

    def _build_structure(self):
        if self._lazily_built:
            return
        mul, star = self._mul, self._star
        els = self.elements
        self._idempotents = tuple(e for e in els if mul[e, e] == e)
        self._projections = tuple(e for e in self._idempotents if star[e] == e)
        dag = {}
        for a in els:
            found = [
                x
                for x in els
                if self.penrose_flags(a, x) == (True, True, True, True)
            ]
            if len(found) > 1:
                raise UniquenessViolation(f"{self.name}: {a!r} has two Moore-Penrose inverses")
            dag[a] = found[0] if found else None
        self._dagger = dag
        self._mp_invertible = tuple(a for a in els if dag[a] is not None)
        self._regular = tuple(
            a for a in els if any(self.mul3(a, x, a) == a for x in els)
        )
        self._lazily_built = True

    @property
    def idempotents(self) -> tuple:
        self._build_structure()
        return self._idempotents

    @property
    def projections(self) -> tuple:
        self._build_structure()
        return self._projections

    @property
    def mp_invertible(self) -> tuple:
        """All elements possessing a Moore-Penrose inverse."""
        self._build_structure()
        return self._mp_invertible

    @property
    def regular(self) -> tuple:
        """All elements possessing an inner inverse."""
        self._build_structure()
        return self._regular

    def penrose_flags(self, a, x):
        mul, star = self._mul, self._star
        ax = mul[a, x]
        xa = mul[x, a]
        return (
            mul[ax, a] == a,
            mul[xa, x] == x,
            star[ax] == ax,
            star[xa] == xa,
        )

    def dagger_of(self, a):
        self._build_structure()
        return self._dagger[a]

    def inner_inverses(self, a) -> tuple:
        """a{1} by full scan."""
        if a not in self._inner:
            self._inner[a] = tuple(
                x for x in self.elements if self.mul3(a, x, a) == a
            )
        return self._inner[a]

    def inverse_class(self, a, classes) -> frozenset:
        """The set of all {classes}-inverses of a by full scan."""
        cs = frozenset(classes)
        out = []
        for x in self.elements:
            flags = self.penrose_flags(a, x)
            if all(flags[c - 1] for c in cs):
                out.append(x)
        return frozenset(out)

    def one_mp_set(self, a) -> frozenset:
        """{a_minus * a * dagger(a)} over all inner inverses; empty if no dagger."""
        d = self.dagger_of(a)
        if d is None:
            return frozenset()
        ad = self._mul[a, d]
        return frozenset(self._mul[x, ad] for x in self.inner_inverses(a))

    def mp_one_set(self, a) -> frozenset:
        d = self.dagger_of(a)
        if d is None:
            return frozenset()
        da = self._mul[d, a]
        return frozenset(self._mul[da, x] for x in self.inner_inverses(a))

    def corner(self, p, q) -> frozenset:
        """The corner space {p*u*q : u in R}."""
        key = (p, q)
        if key not in self._corners:
            mul = self._mul
            self._corners[key] = frozenset(mul[mul[p, u], q] for u in self.elements)
        return self._corners[key]

    # -- annihilator-matching idempotent families ----------------------------

    def lp_members(self, a) -> tuple:
        """LP(a): idempotents whose left annihilator equals that of a."""
        self._build_structure()
        target = self.left_ann(a)
        return tuple(e for e in self.idempotents if self.left_ann(e) == target)

    def rp_members(self, a) -> tuple:
        """RP(a): idempotents whose right annihilator equals that of a."""
        self._build_structure()
        target = self.right_ann(a)
        return tuple(e for e in self.idempotents if self.right_ann(e) == target)

    def lp(self, a):
        """The unique projection in LP(a), or None when none exists."""
        self._build_structure()
        target = self.left_ann(a)
        hits = [e for e in self.projections if self.left_ann(e) == target]
        if len(hits) > 1:
            raise UniquenessViolation(f"{self.name}: two projections share a left annihilator")
        return hits[0] if hits else None

    def rp(self, a):
        self._build_structure()
        target = self.right_ann(a)
        hits = [e for e in self.projections if self.right_ann(e) == target]
        if len(hits) > 1:
            raise UniquenessViolation(f"{self.name}: two projections share a right annihilator")
        return hits[0] if hits else None

    # -- oracle order relations (pure table scans) ---------------------------

    def rel_minus(self, a, b) -> bool:
        """Minus order by scanning all inner inverses of a."""
        mul = self._mul
        return any(
            mul[x, a] == mul[x, b] and mul[a, x] == mul[b, x]
            for x in self.inner_inverses(a)
        )

    def rel_1mp(self, a, b) -> bool:
        """1MP order by scanning the full 1MP family of a."""
        mul = self._mul
        return any(
            mul[x, a] == mul[x, b] and mul[a, x] == mul[b, x]
            for x in self.one_mp_set(a)
        )

    def rel_mp1(self, a, b) -> bool:
        mul = self._mul
        return any(
            mul[x, a] == mul[x, b] and mul[a, x] == mul[b, x]
            for x in self.mp_one_set(a)
        )

    def rel_diamond(self, a, b) -> bool:
        """Diamond order: annihilator containments plus a*star(b)*a == a*star(a)*a."""
        if not (self.left_ann(b) <= self.left_ann(a) and self.right_ann(b) <= self.right_ann(a)):
            return False
        return self.mul3(a, self._star[b], a) == self.mul3(a, self._star[a], a)

    def rel_plus(self, a, b) -> bool:
        """Plus order with idempotent witnesses; False when LP or RP is empty."""
        if not (self.left_ann(b) <= self.left_ann(a) and self.right_ann(b) <= self.right_ann(a)):
            return False
        rp_set = self.rp_members(a)
        return any(
            self.mul3(qt, b, q) == a for qt in self.lp_members(a) for q in rp_set
        )

    @property
    def is_vn_regular(self) -> bool:
        self._build_structure()
        return len(self.regular) == len(self.elements)

    @property
    def is_rickart_star(self) -> bool:
        """Every left annihilator generated by a projection (scan both sides)."""
        self._build_structure()
        return all(self.lp(a) is not None and self.rp(a) is not None for a in self.elements)

    def __repr__(self):
        return f"FiniteStarRing({self.name}, |R|={len(self.elements)})"


@lru_cache(maxsize=None)
def zn_ring(n: int) -> FiniteStarRing:
    """Z_n with the identity involution."""
    if n < 2:
        raise UnknownRing("modulus must be at least 2")
    els = [ZnElement(v, n) for v in range(n)]
    return FiniteStarRing(f"z{n}", els, els[0], els[1])


@lru_cache(maxsize=None)
def matrix_star_ring(p: int) -> FiniteStarRing:
    """All 2x2 matrices over GF(p) with transpose involution, p in {2, 3}."""
    if p not in (2, 3):
        raise UnknownRing(f"m2gf{p} is not a registered backend (p must be 2 or 3)")
    field = GF(p)
    els = [
        ExactMatrix(2, 2, [a, b, c, d], field)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
    ]
    zero = ExactMatrix.zeros(2, 2, field)
    one = ExactMatrix.identity(2, field)
    return FiniteStarRing(f"m2gf{p}", els, zero, one)


def ring_by_name(name: str) -> FiniteStarRing:
    """Resolve a ring id: z<n> or m2gf<p>."""
    if name.startswith("z"):
        try:
            n = int(name[1:])
        except ValueError:
            raise UnknownRing(f"bad ring id {name!r}") from None
        return zn_ring(n)
    if name.startswith("m2gf"):
        try:
            p = int(name[4:])
        except ValueError:
            raise UnknownRing(f"bad ring id {name!r}") from None
        return matrix_star_ring(p)
    raise UnknownRing(f"unknown ring id {name!r}")


# -- module-level enumeration API ---------------------------------------------


def enumerate_regular(ring: FiniteStarRing) -> frozenset:
    """All regular elements (those with an inner inverse)."""
    ring._build_structure()
    return frozenset(ring.regular)


def enumerate_dagger(ring: FiniteStarRing) -> dict:
    """Map each element to its Moore-Penrose inverse or None."""
    ring._build_structure()
    return dict(ring._dagger)


def enumerate_class(ring: FiniteStarRing, a, classes) -> frozenset:
    """The exact inverse class a{classes} by full scan."""
    return ring.inverse_class(a, classes)
