"""Enumerable finite *-rings used as brute-force oracles.

Three families are registered: Z_n with the identity involution (valid because
those rings are commutative), the 2x2 matrices over GF(p) with transpose for
p in {2, 3, 5} (m2gf5, 625 elements, is the odd characteristic where
1 + 2^2 == 0, so the involution is not proper), and the 3x3 matrices over
GF(2) with transpose (m3gf2, 512 elements).  Construction verifies the full
ring and involution axiom set over the carrier; associativity and
distributivity are checked through a generating set of (R, +), not over
triples (`_verify_axioms` has the argument).

A ring is stored by index: `elements[i]` is the i-th element and `index` maps
an element back to i.  Sum and product are flat int tables
(`mul_table[i * n + j]` is the index of elements[i] * elements[j]); negation
and involution are int lists; annihilators are int bitsets with bit x set when
elements[x] lies in them, so a containment is `a & ~b == 0`.  Everything
derived (the dagger, inner inverses, the 1MP/MP1 families, LP/RP members,
corners) is computed on first use and cached per index.  Each scan is written
once on indices (the `*_i` methods); the element-facing methods are thin
wrappers over them.  The registered rings fill their tables from integer
codes (Z_n from residues, matrices from base-p digit tuples) and keep the
element objects only as the carrier and `index`; a ring built from a list of
elements fills them through element arithmetic.

The five order relations exist twice.  `rel_<relation>_i(a, b)` decides one
pair from the definition and is the reference.  `rel_rows(relation)` holds
the whole relation as one int per element (bit b of rows[a] set when a
relates to b), built for every a at once and cached per ring.  The rows
are ORs of fibre bitsets: `fibres()` returns left[x][c] = {b : x*b == c}
and right[x][c] = {b : b*x == c}, so the minus row of a is the OR over
inner inverses x of left[x][x*a] & right[x][a*x], and the 1MP and MP1 rows
take the same OR over their families.  Fibres hold 2 * |R|^2 ints; they are
built once per ring on first use and kept (a singleton fibre is the shared
`1 << b`, so the table holds few distinct ints: about 7 MB for m2gf5).

Everything in this module decides membership questions by raw enumeration
against the defining equations.  It deliberately shares no code paths with
the formula-based layers so that agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import lru_cache, partial, reduce
from operator import itemgetter
from typing import NamedTuple

from .errors import CarrierTooLarge, InternalCheckError, UniquenessViolation, UnknownRing
from .fields import GF, _canonical_int
from .matrix import ExactMatrix
from .zn import ZnElement

# A ring keeps two |R|^2-entry int tables: at most 250,000 entries each for a
# carrier of 500.  Only tables built from element arithmetic are refused: the
# registered rings pass theirs prebuilt, so m3gf2 (512) and m2gf5 (625) pass.
CARRIER_GUARD = 500
MATRIX_RINGS = {(2, 2), (2, 3), (2, 5), (3, 2)}  # (size, p) of the registered m<size>gf<p>


class TheoremReport(NamedTuple):
    """Result of one exhaustive verification sweep over a finite ring.

    `sampled` is always False: every sweep enumerates its whole domain.  The
    field stays because the `verify` JSON reports it.
    """

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


# Index data a ring shares with its opposite, where both answer alike;
# dagger[a] is the index of the Moore-Penrose inverse of a, or -1.
Structure = namedtuple("Structure", "idempotents projections dagger mp_invertible regular")


def bitset(values, target) -> int:
    """The int with bit x set where values[x] == target."""
    bits = 0
    for x, v in enumerate(values):
        if v == target:
            bits |= 1 << x
    return bits


def bit_indices(bits):
    """The positions of the set bits of a nonnegative int, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def fibre_row(products, bits) -> tuple:
    """row[c] = the bitset of positions b with products[b] == c.

    `bits[b]` is 1 << b, passed in so a caller splitting many rows builds it
    once; a singleton fibre is that very object, not a copy of it.
    """
    row = [0] * len(bits)
    for c, bit in zip(products, bits):
        old = row[c]
        row[c] = old | bit if old else bit
    return tuple(row)


class FiniteStarRing:
    """A finite *-ring on flat int operation tables with lazily cached derived data."""

    def __init__(self, name, elements, zero, one, *, _tables=None):
        # The tables come from element arithmetic unless a registered builder
        # passes them prebuilt as `_tables` (mul, add, neg, star) from integer
        # codes; either way `_verify_axioms` checks them.
        if _tables is None and len(elements) > CARRIER_GUARD:
            raise CarrierTooLarge(f"carrier of {name} has {len(elements)} elements")
        self.name = name
        self.elements = els = tuple(elements)
        self.n = len(els)
        self.index = index = {e: i for i, e in enumerate(els)}
        if len(index) != self.n:
            raise InternalCheckError(f"{name}: carrier lists an element twice")
        self.zero = zero
        self.one = one
        try:
            self.zero_i = index[zero]
            self.one_i = index[one]
            if _tables is None:
                _tables = (
                    [index[a * b] for a in els for b in els],
                    [index[a + b] for a in els for b in els],
                    [index[-a] for a in els],
                    [index[a.star] for a in els],
                )
        except KeyError:
            raise InternalCheckError(
                f"{name}: carrier not closed under the ring operations"
            ) from None
        self.mul_table, self.add_table, self.neg_table, self.star_table = _tables
        n = self.n
        # Per-index caches, filled on first use; `opposite()` shares some of
        # them.  The structure sits in a one-slot list so a scan run by either
        # ring serves both.
        self._structure = [None]
        self._inner = [None] * n
        self._left_bits = [None] * n
        self._right_bits = [None] * n
        self._one_mp = [None] * n
        self._mp_one = [None] * n
        self._penrose_bits = [None] * n
        self._lp_members = [None] * n
        self._rp_members = [None] * n
        self._lp = [None] * n
        self._rp = [None] * n
        self._corners = {}  # p*n + q -> corner (p, q), in the unflipped ring's orientation
        self._rows = {}  # relation tag -> rel_rows
        self._fibres = None
        self._flipped = False
        self._opposite = None
        self._verify_axioms()

    # -- table-backed operations on elements --------------------------------

    def mul(self, a, b):
        i = self.index
        return self.elements[self.mul_table[i[a] * self.n + i[b]]]

    def add(self, a, b):
        i = self.index
        return self.elements[self.add_table[i[a] * self.n + i[b]]]

    def sub(self, a, b):
        i = self.index
        return self.elements[self.add_table[i[a] * self.n + self.neg_table[i[b]]]]

    def neg(self, a):
        return self.elements[self.neg_table[self.index[a]]]

    def star(self, a):
        return self.elements[self.star_table[self.index[a]]]

    def mul3(self, a, b, c):
        i, m, n = self.index, self.mul_table, self.n
        return self.elements[m[m[i[a] * n + i[b]] * n + i[c]]]

    def opposite(self) -> FiniteStarRing:
        """The same ring with multiplication reversed: a transpose of the product table.

        Addition, negation, involution and carrier are shared; the reversed
        table meets the axioms exactly when this one does, so they are not
        checked again.  Derived data that reversal leaves alone (idempotents,
        projections, the dagger, regularity, inner inverses) is shared, and
        so are the annihilators and corners with their sides swapped: a left
        annihilator of the opposite is a right annihilator here, and its
        corner (p, q) is the corner (q, p) here.  The 1MP/MP1 families, the
        Penrose-equation bitsets, LP/RP data, fibres and relation rows are not
        shared: the opposite scans its own table for them, so the duality
        sweep compares two computations, not one cache.
        """
        if self._opposite is None:
            n, m = self.n, self.mul_table
            opp = FiniteStarRing.__new__(FiniteStarRing)
            opp.__dict__.update(self.__dict__)
            opp.mul_table = [x for i in range(n) for x in m[i::n]]  # row i = column i
            opp._left_bits, opp._right_bits = self._right_bits, self._left_bits
            for attr in (
                "_one_mp", "_mp_one", "_penrose_bits", "_lp_members", "_rp_members", "_lp", "_rp"
            ):
                setattr(opp, attr, [None] * n)
            opp._rows = {}
            opp._fibres = None
            opp._flipped = not self._flipped
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    # -- construction-time axiom verification --------------------------------

    def _verify_axioms(self):
        n, mul, add = self.n, self.mul_table, self.add_table
        neg, star = self.neg_table, self.star_table
        zero, one = self.zero_i, self.one_i
        fail = f"{self.name}: "
        for a in range(n):
            an = a * n
            if add[an + zero] != a or mul[an + one] != a or mul[one * n + a] != a:
                raise InternalCheckError(fail + f"identity axioms fail at {self.elements[a]!r}")
            if add[an + neg[a]] != zero:
                raise InternalCheckError(fail + f"negation fails at {self.elements[a]!r}")
            if star[star[a]] != a:
                raise InternalCheckError(
                    fail + f"involution not involutive at {self.elements[a]!r}"
                )
        if star[one] != one:
            raise InternalCheckError(fail + "star(1) != 1")
        for a in range(n):
            an, sa = a * n, star[a]
            add_row = add[an : an + n]
            if add_row != add[a::n]:
                raise InternalCheckError(fail + "addition not commutative")
            add_sa = add[sa * n : sa * n + n]
            if [star[x] for x in add_row] != [add_sa[sb] for sb in star]:
                raise InternalCheckError(fail + "star not additive")
            mul_col_sa = mul[sa::n]
            if [star[x] for x in mul[an : an + n]] != [mul_col_sa[sb] for sb in star]:
                raise InternalCheckError(fail + "star not antimultiplicative")
        # Associativity and distributivity without a loop over triples.
        # (1) Walk e over the carrier; an e not yet reached becomes a generator
        # and the reached set grows by adding e until it is stable, so every
        # element is 0 or a left-nested sum ((g1 + g2) + ...) + gk.  (2) Per x
        # and generator g, one row over the third element: (x + g) + z ==
        # x + (g + z) for all z makes + associative by Light's test (Clifford
        # and Preston I, 1961); x*(y + g) == x*y + x*g and (y + g)*x == y*x +
        # g*x for all y make every left and right multiplication additive, (R, +)
        # being an abelian group.  (3) (g*h)*k == g*(h*k) on generator triples:
        # both sides are additive in each variable, so they agree on every triple.
        gens, reached = [], {zero}
        for e in range(n):
            if e not in reached:
                gens.append(e)
                new = reached
                while new:
                    new = {add[r * n + e] for r in new} - reached
                    reached |= new
        # at_gen_sums[i](row) reads row at gens[i] + z for every z
        at_gen_sums = [itemgetter(*add[g * n : g * n + n]) for g in gens]
        for x in range(n):
            xn = x * n
            add_x, mul_x, mul_col_x = add[xn : xn + n], mul[xn : xn + n], mul[x::n]
            at_x_times, at_times_x = itemgetter(*mul_x), itemgetter(*mul_col_x)
            for g, at_gen_sum in zip(gens, at_gen_sums):
                sum_xg = add_x[g] * n
                if tuple(add[sum_xg : sum_xg + n]) != at_gen_sum(add_x):
                    raise InternalCheckError(fail + "addition not associative")
                prod_xg = mul_x[g] * n
                if at_gen_sum(mul_x) != at_x_times(add[prod_xg : prod_xg + n]):
                    raise InternalCheckError(fail + "left distributivity fails")
                prod_gx = mul[g * n + x] * n
                if at_gen_sum(mul_col_x) != at_times_x(add[prod_gx : prod_gx + n]):
                    raise InternalCheckError(fail + "right distributivity fails")
        for g, h, k in itertools.product(gens, repeat=3):
            if mul[mul[g * n + h] * n + k] != mul[g * n + mul[h * n + k]]:
                raise InternalCheckError(fail + "multiplication not associative")

    # -- index-level scans ----------------------------------------------------

    def left_bits(self, a) -> int:
        """Bitset of {x : x*a == 0}."""
        bits = self._left_bits[a]
        if bits is None:
            bits = self._left_bits[a] = bitset(self.mul_table[a :: self.n], self.zero_i)
        return bits

    def right_bits(self, a) -> int:
        """Bitset of {x : a*x == 0}."""
        bits = self._right_bits[a]
        if bits is None:
            n = self.n
            bits = self._right_bits[a] = bitset(self.mul_table[a * n : a * n + n], self.zero_i)
        return bits

    def inner_i(self, a) -> tuple:
        """a{1} by full scan, in carrier order."""
        found = self._inner[a]
        if found is None:
            n, mul = self.n, self.mul_table
            row = a * n
            found = tuple(x for x in range(n) if mul[mul[row + x] * n + a] == a)
            self._inner[a] = found
        return found

    def structure(self) -> Structure:
        """Idempotents, projections, dagger, MP-invertible and regular indices.

        Built on first use by one Penrose scan, shared with the opposite ring.
        """
        s = self._structure[0]
        if s is None:
            s = self._structure[0] = self._scan_structure()
        return s

    def _scan_structure(self) -> Structure:
        n, mul, star = self.n, self.mul_table, self.star_table
        idempotents = tuple(e for e in range(n) if mul[e * n + e] == e)
        projections = tuple(e for e in idempotents if star[e] == e)
        dagger = [-1] * n
        for a in range(n):
            found = [x for x in self.inner_i(a) if self.penrose_i(a, x) == (True, True, True, True)]
            if len(found) > 1:
                raise UniquenessViolation(
                    f"{self.name}: {self.elements[a]!r} has two Moore-Penrose inverses"
                )
            if found:
                dagger[a] = found[0]
        return Structure(
            idempotents,
            projections,
            dagger,
            tuple(a for a in range(n) if dagger[a] >= 0),
            tuple(a for a in range(n) if self.inner_i(a)),
        )

    def penrose_i(self, a, x) -> tuple:
        n, mul, star = self.n, self.mul_table, self.star_table
        ax = mul[a * n + x]
        xa = mul[x * n + a]
        return (
            mul[ax * n + a] == a,
            mul[xa * n + x] == x,
            star[ax] == ax,
            star[xa] == xa,
        )

    def penrose_bits(self, a) -> tuple:
        """Penrose bitsets of a: bit x of the c-th is set when x satisfies equation c."""
        found = self._penrose_bits[a]
        if found is None:
            n, mul, star = self.n, self.mul_table, self.star_table
            row = a * n
            b1 = b2 = b3 = b4 = 0
            for x in range(n):
                ax = mul[row + x]
                xa = mul[x * n + a]
                bit = 1 << x
                if mul[ax * n + a] == a:
                    b1 |= bit
                if mul[xa * n + x] == x:
                    b2 |= bit
                if star[ax] == ax:
                    b3 |= bit
                if star[xa] == xa:
                    b4 |= bit
            found = self._penrose_bits[a] = (b1, b2, b3, b4)
        return found

    def inverse_class_i(self, a, classes) -> frozenset:
        """The {classes}-inverses of a: the AND of the requested Penrose bitsets."""
        cs = frozenset(classes)
        if not cs or not cs <= {1, 2, 3, 4}:
            raise ValueError(f"inverse class must be a nonempty subset of {{1,2,3,4}}: {classes}")
        eqs = self.penrose_bits(a)
        bits = (1 << self.n) - 1
        for c in cs:
            bits &= eqs[c - 1]
        return frozenset(bit_indices(bits))

    def one_mp_i(self, a) -> frozenset:
        """{a_minus * a * dagger(a)} over all inner inverses; empty if no dagger."""
        family = self._one_mp[a]
        if family is None:
            d = self.structure().dagger[a]
            if d < 0:
                family = frozenset()
            else:
                n, mul = self.n, self.mul_table
                ad = mul[a * n + d]
                family = frozenset(mul[x * n + ad] for x in self.inner_i(a))
            self._one_mp[a] = family
        return family

    def mp_one_i(self, a) -> frozenset:
        """{dagger(a) * a * a_minus} over all inner inverses; empty if no dagger."""
        family = self._mp_one[a]
        if family is None:
            d = self.structure().dagger[a]
            if d < 0:
                family = frozenset()
            else:
                n, mul = self.n, self.mul_table
                da = mul[d * n + a] * n
                family = frozenset(mul[da + x] for x in self.inner_i(a))
            self._mp_one[a] = family
        return family

    def corner_i(self, p, q) -> frozenset:
        """The corner space {p*u*q : u in R}."""
        n = self.n
        key = q * n + p if self._flipped else p * n + q
        found = self._corners.get(key)
        if found is None:
            mul = self.mul_table
            row = p * n
            # (p*u)*q over u: each distinct p*u is multiplied by q once
            found = self._corners[key] = frozenset(mul[t * n + q] for t in set(mul[row : row + n]))
        return found

    def lp_members_i(self, a) -> tuple:
        """LP(a): idempotents whose left annihilator equals that of a."""
        found = self._lp_members[a]
        if found is None:
            idempotents = self.structure().idempotents
            found = self._lp_members[a] = self._matching(self.left_bits, a, idempotents)
        return found

    def rp_members_i(self, a) -> tuple:
        """RP(a): idempotents whose right annihilator equals that of a."""
        found = self._rp_members[a]
        if found is None:
            idempotents = self.structure().idempotents
            found = self._rp_members[a] = self._matching(self.right_bits, a, idempotents)
        return found

    def lp_i(self, a) -> int:
        """The unique projection in LP(a), or -1 when none exists."""
        found = self._lp[a]
        if found is None:
            found = self._lp[a] = self._unique_projection(self.left_bits, a, "left")
        return found

    def rp_i(self, a) -> int:
        """The unique projection in RP(a), or -1 when none exists."""
        found = self._rp[a]
        if found is None:
            found = self._rp[a] = self._unique_projection(self.right_bits, a, "right")
        return found

    @staticmethod
    def _matching(bits, a, candidates) -> tuple:
        """The candidates e with bits(e) == bits(a)."""
        target = bits(a)
        return tuple(e for e in candidates if bits(e) == target)

    def _unique_projection(self, bits, a, side):
        hits = self._matching(bits, a, self.structure().projections)
        if len(hits) > 1:
            raise UniquenessViolation(f"{self.name}: two projections share a {side} annihilator")
        return hits[0] if hits else -1

    def contained_i(self, b, a) -> bool:
        """Both annihilators of b lie inside those of a."""
        return not (self.left_bits(b) & ~self.left_bits(a)) and not (
            self.right_bits(b) & ~self.right_bits(a)
        )

    def identifying_i(self, a, b, candidates) -> int:
        """The first candidate x with x*a == x*b and a*x == b*x, or -1."""
        n, mul = self.n, self.mul_table
        an, bn = a * n, b * n
        for x in candidates:
            xn = x * n
            if mul[xn + a] == mul[xn + b] and mul[an + x] == mul[bn + x]:
                return x
        return -1

    def plus_pair_i(self, a, b):
        """The first (qt, q) in LP(a) x RP(a), in carrier order, with qt*b*q == a, or None."""
        n, mul = self.n, self.mul_table
        rp_set = self.rp_members_i(a)
        for qt in self.lp_members_i(a):
            row = mul[qt * n + b] * n
            for q in rp_set:
                if mul[row + q] == a:
                    return qt, q
        return None

    # -- oracle order relations on indices ------------------------------------

    def rel_minus_i(self, a, b) -> bool:
        """Minus order by scanning all inner inverses of a."""
        return self.identifying_i(a, b, self.inner_i(a)) >= 0

    def rel_1mp_i(self, a, b) -> bool:
        """1MP order by scanning the full 1MP family of a."""
        return self.identifying_i(a, b, self.one_mp_i(a)) >= 0

    def rel_mp1_i(self, a, b) -> bool:
        return self.identifying_i(a, b, self.mp_one_i(a)) >= 0

    def rel_diamond_i(self, a, b) -> bool:
        """Diamond order: annihilator containments plus a*star(b)*a == a*star(a)*a."""
        if not self.contained_i(b, a):
            return False
        n, mul, star = self.n, self.mul_table, self.star_table
        an = a * n
        return mul[mul[an + star[b]] * n + a] == mul[mul[an + star[a]] * n + a]

    def rel_plus_i(self, a, b) -> bool:
        """Plus order with idempotent witnesses; False when LP or RP is empty."""
        return self.contained_i(b, a) and self.plus_pair_i(a, b) is not None

    # -- relation rows ----------------------------------------------------------

    def fibres(self) -> tuple:
        """(left, right): bit b of left[x][c] is set when x*b == c, of right[x][c] when b*x == c.

        Built on first use and kept for the ring's lifetime, so every sweep
        and relation row reads one table; it is tuples all the way down, so
        no caller can change it for the others.
        """
        if self._fibres is None:
            n, mul = self.n, self.mul_table
            bits = [1 << b for b in range(n)]
            self._fibres = (
                tuple(fibre_row(mul[x * n : x * n + n], bits) for x in range(n)),
                tuple(fibre_row(mul[x::n], bits) for x in range(n)),
            )
        return self._fibres

    def rel_rows(self, relation) -> tuple:
        """Row bitsets of an oracle order: bit b of rows[a] is set when rel_<relation>_i(a, b).

        `relation` is "minus", "1mp", "mp1", "diamond" or "plus".  All rows are
        built on first use and cached per relation; the opposite ring builds
        its own from its own table.
        """
        rows = self._rows.get(relation)
        if rows is None:
            if relation == "minus":
                rows = self._identified_rows(self.inner_i)
            elif relation == "1mp":
                rows = self._identified_rows(self.one_mp_i)
            elif relation == "mp1":
                rows = self._identified_rows(self.mp_one_i)
            elif relation == "diamond":
                rows = self._diamond_rows()
            elif relation == "plus":
                rows = self._plus_rows()
            else:
                raise ValueError(f"unknown relation tag {relation!r}")
            rows = self._rows[relation] = tuple(rows)
        return rows

    def _identified_rows(self, candidates) -> list:
        """rows[a]: the OR over x in candidates(a) of {b : x*b == x*a} & {b : b*x == a*x}."""
        n, mul = self.n, self.mul_table
        left, right = self.fibres()
        rows = []
        for a in range(n):
            an = a * n
            row = 0
            for x in candidates(a):
                row |= left[x][mul[x * n + a]] & right[x][mul[an + x]]
            rows.append(row)
        return rows

    def _containment_rows(self) -> list:
        """rows[a]: {b : contained_i(b, a)}, one test per distinct annihilator pair."""
        keys = [(self.left_bits(b), self.right_bits(b)) for b in range(self.n)]
        groups = {}
        for b, key in enumerate(keys):
            groups[key] = groups.get(key, 0) | 1 << b
        rows = []
        for left_a, right_a in keys:
            row = 0
            for (left_b, right_b), members in groups.items():
                if not (left_b & ~left_a) and not (right_b & ~right_a):
                    row |= members
            rows.append(row)
        return rows

    def _diamond_rows(self) -> list:
        """rows[a]: the contained b with a*star(b)*a == a*star(a)*a."""
        n, mul, star = self.n, self.mul_table, self.star_table
        rows = []
        for a, contained in enumerate(self._containment_rows()):
            an = a * n
            asa = mul[mul[an + star[a]] * n + a]
            row = 0
            for b in bit_indices(contained):
                if mul[mul[an + star[b]] * n + a] == asa:
                    row |= 1 << b
            rows.append(row)
        return rows

    def _plus_rows(self) -> list:
        """rows[a]: the contained b with (qt*b)*q == a for some qt in LP(a), q in RP(a)."""
        left, right = self.fibres()
        rows = []
        for a, contained in enumerate(self._containment_rows()):
            lands = 0  # c with c*q == a for some q in RP(a)
            for q in self.rp_members_i(a):
                lands |= right[q][a]
            lands = tuple(bit_indices(lands))
            reach = 0
            for qt in self.lp_members_i(a):
                left_qt = left[qt]
                for c in lands:
                    reach |= left_qt[c]
            rows.append(contained & reach)
        return rows

    # -- element-facing wrappers ----------------------------------------------

    def _set_of(self, ids) -> frozenset:
        els = self.elements
        return frozenset(els[i] for i in ids)

    def _tuple_of(self, ids) -> tuple:
        els = self.elements
        return tuple(els[i] for i in ids)

    def _bits_to_set(self, bits) -> frozenset:
        return self._set_of(bit_indices(bits))

    def _element_or_none(self, i):
        return None if i < 0 else self.elements[i]

    def left_ann(self, a) -> frozenset:
        """{x : x*a == 0}"""
        return self._bits_to_set(self.left_bits(self.index[a]))

    def right_ann(self, a) -> frozenset:
        """{x : a*x == 0}"""
        return self._bits_to_set(self.right_bits(self.index[a]))

    @property
    def idempotents(self) -> tuple:
        return self._tuple_of(self.structure().idempotents)

    @property
    def projections(self) -> tuple:
        return self._tuple_of(self.structure().projections)

    @property
    def mp_invertible(self) -> tuple:
        """All elements possessing a Moore-Penrose inverse."""
        return self._tuple_of(self.structure().mp_invertible)

    @property
    def regular(self) -> tuple:
        """All elements possessing an inner inverse."""
        return self._tuple_of(self.structure().regular)

    def dagger_of(self, a):
        return self._element_or_none(self.structure().dagger[self.index[a]])

    def inner_inverses(self, a) -> tuple:
        """a{1} by full scan."""
        return self._tuple_of(self.inner_i(self.index[a]))

    def inverse_class(self, a, classes) -> frozenset:
        """The set of all {classes}-inverses of a by full scan."""
        return self._set_of(self.inverse_class_i(self.index[a], classes))

    def one_mp_set(self, a) -> frozenset:
        """{a_minus * a * dagger(a)} over all inner inverses; empty if no dagger."""
        return self._set_of(self.one_mp_i(self.index[a]))

    def mp_one_set(self, a) -> frozenset:
        return self._set_of(self.mp_one_i(self.index[a]))

    def corner(self, p, q) -> frozenset:
        """The corner space {p*u*q : u in R}."""
        return self._set_of(self.corner_i(self.index[p], self.index[q]))

    def lp_members(self, a) -> tuple:
        """LP(a): idempotents whose left annihilator equals that of a."""
        return self._tuple_of(self.lp_members_i(self.index[a]))

    def rp_members(self, a) -> tuple:
        """RP(a): idempotents whose right annihilator equals that of a."""
        return self._tuple_of(self.rp_members_i(self.index[a]))

    def lp(self, a):
        """The unique projection in LP(a), or None when none exists."""
        return self._element_or_none(self.lp_i(self.index[a]))

    def rp(self, a):
        return self._element_or_none(self.rp_i(self.index[a]))

    def rel_minus(self, a, b) -> bool:
        return self.rel_minus_i(self.index[a], self.index[b])

    def rel_1mp(self, a, b) -> bool:
        return self.rel_1mp_i(self.index[a], self.index[b])

    def rel_mp1(self, a, b) -> bool:
        return self.rel_mp1_i(self.index[a], self.index[b])

    def rel_diamond(self, a, b) -> bool:
        return self.rel_diamond_i(self.index[a], self.index[b])

    def rel_plus(self, a, b) -> bool:
        return self.rel_plus_i(self.index[a], self.index[b])

    @property
    def is_vn_regular(self) -> bool:
        return len(self.structure().regular) == self.n

    @property
    def is_rickart_star(self) -> bool:
        """Every left annihilator generated by a projection (scan both sides)."""
        return all(self.lp_i(a) >= 0 and self.rp_i(a) >= 0 for a in range(self.n))

    def __repr__(self):
        return f"FiniteStarRing({self.name}, |R|={self.n})"


@lru_cache(maxsize=None)
def zn_ring(n: int) -> FiniteStarRing:
    """Z_n with the identity involution."""
    if n < 2:
        raise UnknownRing("modulus must be at least 2")
    if n > CARRIER_GUARD:
        raise CarrierTooLarge(f"carrier of z{n} has {n} elements")
    els = [ZnElement(v, n) for v in range(n)]
    # Element i is the residue i, so the tables are integer arithmetic mod n;
    # entries are read from `ids` so that equal entries share one int object.
    ids = list(range(n))
    add = []
    for i in range(n):
        add += ids[i:]
        add += ids[:i]
    mul = [ids[i * j % n] for i in range(n) for j in range(n)]
    tables = (mul, add, [ids[-i] for i in range(n)], ids)
    return FiniteStarRing(f"z{n}", els, els[0], els[1], _tables=tables)


@lru_cache(maxsize=None)
def _matrix_ring(size: int, p: int) -> FiniteStarRing:
    if (size, p) not in MATRIX_RINGS:
        raise UnknownRing(
            f"m{size}gf{p} is not a registered backend (m2gf2, m2gf3, m2gf5 and m3gf2 are)"
        )
    field = GF(p)
    digits = list(itertools.product(range(p), repeat=size * size))
    els = [ExactMatrix(size, size, entries, field) for entries in digits]
    zero = ExactMatrix.zeros(size, size, field)
    one = ExactMatrix.identity(size, field)
    tables = _matrix_tables(size, p, digits)
    return FiniteStarRing(f"m{size}gf{p}", els, zero, one, _tables=tables)


def _matrix_tables(size, p, digits) -> tuple:
    """The (mul, add, neg, star) tables of M_size(GF(p)) from integer codes alone.

    Element i is the matrix whose row-major entries are digits[i], the base-p
    digits of i (most significant first, as `itertools.product` lists them),
    so i is the sum over rows r of code(row r) * w[r] with w[r] = q**(size-1-r)
    and q = p**size row vectors.  Row r of a*b is (row r of a)*b and row r of
    a+b is (row r of a)+(row r of b), so each table row i is a sum over r of
    one precomputed list over j: the index contribution of row r of
    elements[i] combined with elements[j].
    """
    n, q = len(digits), p**size
    w = [q ** (size - 1 - r) for r in range(size)]
    vectors = list(itertools.product(range(p), repeat=size))  # vectors[v] has code v

    def code(vec):
        c = 0
        for d in vec:
            c = c * p + d
        return c

    row_codes = [[code(m[r * size : r * size + size]) for r in range(size)] for m in digits]
    columns = [[m[k::size] for k in range(size)] for m in digits]
    # v_times[v][j]: the code of the row vector v times elements[j]
    v_times = [
        [code([sum(map(operator.mul, v, col)) % p for col in cols]) for cols in columns]
        for v in vectors
    ]
    v_plus = [[code([(x + y) % p for x, y in zip(v, u)]) for u in vectors] for v in vectors]
    mul_parts = [[[wr * c for c in row] for row in v_times] for wr in w]
    add_parts = [
        [[wr * v_plus_v[codes[r]] for codes in row_codes] for v_plus_v in v_plus]
        for r, wr in enumerate(w)
    ]
    total = partial(reduce, partial(map, operator.add))  # elementwise sum of lists
    shared = list(range(n)).__getitem__  # so that equal entries share one int object
    mul_table, add_table = [], []
    for codes in row_codes:
        mul_table += map(shared, total([part[v] for part, v in zip(mul_parts, codes)]))
        add_table += map(shared, total([part[v] for part, v in zip(add_parts, codes)]))
    neg_table = [code([-d % p for d in m]) for m in digits]
    star_table = [code(m[c * size + r] for r in range(size) for c in range(size)) for m in digits]
    return mul_table, add_table, neg_table, star_table


def matrix_star_ring(p: int, size: int = 2) -> FiniteStarRing:
    """All size x size matrices over GF(p) with transpose: m2gf2, m2gf3, m2gf5, m3gf2."""
    return _matrix_ring(size, p)


matrix_star_ring.cache_clear = _matrix_ring.cache_clear  # drops every cached matrix ring


def ring_by_name(name: str) -> FiniteStarRing:
    """Resolve a ring id: z<n>, m2gf2, m2gf3, m2gf5 or m3gf2, each size spelled as str(n)."""
    if name.startswith("z"):
        sizes = [_canonical_int(name[1:])]
    elif name[:1] == "m" and name[2:4] == "gf":
        sizes = [_canonical_int(name[1]), _canonical_int(name[4:])]
    else:
        raise UnknownRing(f"unknown ring id {name!r}")
    if None in sizes:
        raise UnknownRing(f"bad ring id {name!r}")
    return zn_ring(*sizes) if len(sizes) == 1 else _matrix_ring(*sizes)


# -- module-level enumeration API ---------------------------------------------


def enumerate_regular(ring: FiniteStarRing) -> frozenset:
    """All regular elements (those with an inner inverse)."""
    return frozenset(ring.regular)


def enumerate_dagger(ring: FiniteStarRing) -> dict:
    """Map each element to its Moore-Penrose inverse or None."""
    dagger = ring.structure().dagger
    return {a: ring._element_or_none(dagger[i]) for i, a in enumerate(ring.elements)}


def enumerate_class(ring: FiniteStarRing, a, classes) -> frozenset:
    """The exact inverse class a{classes} by full scan."""
    return ring.inverse_class(a, classes)
