import itertools
import random
import re
import tracemalloc
from dataclasses import dataclass

import pytest

from starinv import (
    CarrierTooLarge,
    ExactMatrix,
    FiniteStarRing,
    GF,
    InternalCheckError,
    UnknownRing,
    ZnElement,
    leq_1mp,
    leq_diamond,
    leq_minus,
    leq_mp1,
    leq_plus,
    matrix_star_ring,
    ring_by_name,
    verify_all,
    zn_ring,
)

from starinv import finite
from starinv.finite import MATRIX_RINGS, bit_indices

from conftest import M, z


class TestRegistry:
    def test_ring_ids(self):
        assert ring_by_name("z6") is zn_ring(6)
        assert ring_by_name("m2gf2") is matrix_star_ring(2)
        assert ring_by_name("m2gf3") is matrix_star_ring(3)

    def test_unknown(self):
        with pytest.raises(UnknownRing):
            ring_by_name("q7")
        with pytest.raises(UnknownRing):
            ring_by_name("m2gf7")
        with pytest.raises(UnknownRing):
            ring_by_name("m3gf3")
        with pytest.raises(UnknownRing):
            ring_by_name("zxx")
        with pytest.raises(UnknownRing):
            zn_ring(1)

    def test_size_must_be_an_int_literal(self):
        # only the ASCII spelling str(n) names a size: no '_', sign, space,
        # leading zero or non-ASCII digit
        for name in (
            "m\u00b2gf2", "mxgf2", "m3gf", "m3gfx", "z1_2", "z+12", "z\u0661\u0662",
            "z 12", "z012", "m2gf\u0663", "m2gf0_3", "m\u0662gf3",
        ):
            with pytest.raises(UnknownRing, match="bad ring id"):
                ring_by_name(name)

    def test_carrier_guard(self):
        with pytest.raises(CarrierTooLarge):
            zn_ring(10_001)

    def test_carrier_guard_fires_before_the_carrier_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(CarrierTooLarge, match="carrier of z200000 has 200000 elements"):
                zn_ring(200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestEnumeration:
    def test_z6_everything_regular(self):
        assert frozenset(zn_ring(6).regular) == frozenset(zn_ring(6).elements)

    def test_z4_two_not_regular(self):
        reg = frozenset(zn_ring(4).regular)
        assert z(2, 4) not in reg
        assert reg == frozenset({z(0, 4), z(1, 4), z(3, 4)})

    def test_dagger_map_z6(self):
        ring = zn_ring(6)
        assert ring.dagger_of(z(0)) == z(0)
        assert ring.dagger_of(z(1)) == z(1)
        assert ring.dagger_of(z(2)) == z(2)
        assert ring.dagger_of(z(3)) == z(3)
        assert ring.dagger_of(z(5)) == z(5)

    def test_dagger_map_z4_missing(self):
        assert zn_ring(4).dagger_of(z(2, 4)) is None

    def test_class_examples_z6(self):
        ring = zn_ring(6)
        assert ring.inverse_class(z(2), {1}) == frozenset({z(2), z(5)})
        assert ring.inverse_class(z(2), {1, 2, 3}) == frozenset({z(2)})
        assert ring.inverse_class(z(0), {1}) == frozenset(ring.elements)

    def test_one_mp_set_matches_class(self):
        ring = zn_ring(12)
        for a in ring.mp_invertible:
            assert ring.one_mp_set(a) == ring.inverse_class(a, {1, 2, 3})
            assert ring.mp_one_set(a) == ring.inverse_class(a, {1, 2, 4})

    def test_scan_dagger_matches_factorization_dagger(self):
        # the exhaustive scan and the formula route must agree on every
        # element of the matrix backends
        from starinv import NotMPInvertible, mp_inverse

        for p in (2, 3):
            ring = matrix_star_ring(p)
            for a in ring.elements:
                try:
                    formula = mp_inverse(a)
                except NotMPInvertible:
                    formula = None
                assert ring.dagger_of(a) == formula


class TestStructure:
    def test_z6_projection_scan(self):
        ring = zn_ring(6)
        assert set(ring.idempotents) == {z(0), z(1), z(3), z(4)}
        assert ring.lp(z(3)) == z(3)
        assert ring.rp(z(3)) == z(3)

    def test_rickart_flags(self):
        assert zn_ring(6).is_rickart_star
        assert not zn_ring(8).is_rickart_star
        assert not zn_ring(12).is_rickart_star
        assert not matrix_star_ring(2).is_rickart_star
        assert matrix_star_ring(3).is_rickart_star

    def test_vn_regular_flags(self):
        assert zn_ring(6).is_vn_regular
        assert not zn_ring(8).is_vn_regular
        assert matrix_star_ring(2).is_vn_regular
        assert matrix_star_ring(3).is_vn_regular

    def test_m2gf2_no_projection_for_all_ones(self, gf2):
        ring = matrix_star_ring(2)
        a = M([[1, 1], [1, 1]], gf2)
        assert ring.lp(a) is None
        assert ring.rp(a) is None

    def test_m2gf2_counts(self):
        ring = matrix_star_ring(2)
        assert len(ring.elements) == 16
        assert len(ring.mp_invertible) == 11
        assert len(ring.regular) == 16

    def test_corner_z6(self):
        ring = zn_ring(6)
        one = ring.one
        assert ring.corner(one - z(4), one - z(4)) == frozenset({z(0), z(3)})
        assert ring.corner(one - z(4), z(4)) == frozenset({z(0)})


def _fresh(ring):
    """An uncached copy of a registered ring, so no earlier test built its opposite."""
    return FiniteStarRing(ring.name, ring.elements, ring.zero, ring.one)


class TestOpposite:
    def test_m2gf2_opposite_after_warm_caches(self):
        ring = _fresh(matrix_star_ring(2))
        els = ring.elements
        for a in els:
            ring.left_ann(a)
            ring.right_ann(a)
            ring.inner_inverses(a)
        for p in ring.projections:
            for q in ring.idempotents:
                ring.corner(p, q)
        opp = ring.opposite()
        assert ring.opposite() is opp and opp.opposite() is ring
        assert any(ring.left_ann(a) != ring.right_ann(a) for a in els)
        for a in els:
            assert opp.left_ann(a) == ring.right_ann(a)
            assert opp.right_ann(a) == ring.left_ann(a)
            assert opp.one_mp_set(a) == ring.mp_one_set(a)
            assert opp.mp_one_set(a) == ring.one_mp_set(a)
            assert opp.dagger_of(a) == ring.dagger_of(a)
            for b in els:
                assert opp.mul(a, b) == ring.mul(b, a)
        for p in ring.idempotents:
            for q in ring.idempotents:
                assert opp.corner(p, q) == ring.corner(q, p)
        for attr in ("idempotents", "projections", "mp_invertible", "regular"):
            assert getattr(opp, attr) == getattr(ring, attr)

    def test_opposite_runs_no_penrose_scan(self, monkeypatch):
        scans = []
        scan = FiniteStarRing._scan_structure

        def counting_scan(self):
            scans.append(self)
            return scan(self)

        monkeypatch.setattr(FiniteStarRing, "_scan_structure", counting_scan)
        ring = _fresh(matrix_star_ring(2))
        ring.mp_invertible
        opp = ring.opposite()
        for attr in ("idempotents", "projections", "mp_invertible", "regular"):
            assert getattr(opp, attr) == getattr(ring, attr)
        for a in ring.elements:
            assert opp.dagger_of(a) == ring.dagger_of(a)
            assert opp.inner_inverses(a) == ring.inner_inverses(a)
        assert scans == [ring]
        # an opposite taken before any scan shares the one it triggers
        other = _fresh(matrix_star_ring(2))
        other_opp = other.opposite()
        assert other_opp.mp_invertible == other.mp_invertible
        assert scans == [ring, other_opp]

    def test_z6_opposite_has_the_same_tables(self):
        ring = _fresh(zn_ring(6))
        opp = ring.opposite()
        els = ring.elements
        assert all(opp.mul(a, b) == ring.mul(a, b) for a in els for b in els)
        assert all(opp.left_ann(a) == ring.left_ann(a) for a in els)
        assert opp.projections == ring.projections


@pytest.mark.parametrize("name", ["z6", "z12", "m2gf2", "m2gf3"])
class TestTableConsistency:
    """The flat int tables, bitsets and cached families against element arithmetic."""

    def test_operations_match_element_arithmetic(self, name):
        # the registered ring, whose tables come from integer codes; a _fresh
        # copy would fill them through the very arithmetic compared here
        ring = ring_by_name(name)
        opp = ring.opposite()
        els = ring.elements
        for a in els:
            assert ring.neg(a) == -a
            assert ring.star(a) == a.star
            assert ring.mul3(a, a.star, a) == a * a.star * a
            for b in els:
                assert ring.mul(a, b) == a * b
                assert ring.add(a, b) == a + b
                assert ring.sub(a, b) == a - b
                assert opp.mul(a, b) == b * a

    def test_annihilator_bitsets_match_set_scans(self, name):
        ring = _fresh(ring_by_name(name))
        els, idx, zero = ring.elements, ring.index, ring.zero
        left = {a: frozenset(x for x in els if x * a == zero) for a in els}
        right = {a: frozenset(x for x in els if a * x == zero) for a in els}
        for a in els:
            assert ring.left_ann(a) == left[a]
            assert ring.right_ann(a) == right[a]
        for a in els:
            for b in els:
                i, j = idx[a], idx[b]
                assert (ring.left_bits(j) & ~ring.left_bits(i) == 0) == (left[b] <= left[a])
                assert (ring.right_bits(j) & ~ring.right_bits(i) == 0) == (right[b] <= right[a])
                assert ring.contained_i(j, i) == (left[b] <= left[a] and right[b] <= right[a])

    def test_cached_families_match_inverse_classes(self, name):
        ring = _fresh(ring_by_name(name))
        opp = ring.opposite()
        for a in ring.elements:
            if ring.dagger_of(a) is None:
                assert ring.one_mp_set(a) == ring.mp_one_set(a) == frozenset()
                continue
            for _ in range(2):  # the second read comes from the cache
                assert ring.one_mp_set(a) == ring.inverse_class(a, {1, 2, 3})
                assert ring.mp_one_set(a) == ring.inverse_class(a, {1, 2, 4})
                assert opp.one_mp_set(a) == ring.inverse_class(a, {1, 2, 4})


@pytest.mark.parametrize("name", ["z12", "m2gf2", "m2gf3"])
class TestPenroseBitsets:
    """inverse_class_i, an AND of cached per-equation bitsets, against a plain filter."""

    def test_every_class_matches_the_penrose_filter(self, name):
        ring = _fresh(ring_by_name(name))
        subsets = [
            set(c) for r in range(1, 5) for c in itertools.combinations((1, 2, 3, 4), r)
        ]
        assert len(subsets) == 15
        for a in range(ring.n):
            flags = [ring.penrose_i(a, x) for x in range(ring.n)]
            for classes in subsets:
                expected = frozenset(
                    x for x in range(ring.n) if all(flags[x][c - 1] for c in classes)
                )
                assert ring.inverse_class_i(a, classes) == expected

    @pytest.mark.parametrize("opposite_first", [True, False])
    def test_opposite_scans_its_own_table(self, name, opposite_first):
        ring = _fresh(ring_by_name(name))
        opp = ring.opposite()
        for a in range(ring.n):
            if opposite_first:
                lhs = opp.inverse_class_i(a, {1, 2, 3})
                rhs = ring.inverse_class_i(a, {1, 2, 4})
            else:
                rhs = ring.inverse_class_i(a, {1, 2, 4})
                lhs = opp.inverse_class_i(a, {1, 2, 3})
            assert lhs == rhs
            b1, b2, b3, b4 = ring.penrose_bits(a)
            assert opp.penrose_bits(a) == (b1, b2, b4, b3)
        assert opp._penrose_bits is not ring._penrose_bits


BAD_CLASS_LABELS = [{0}, {-1}, set(), {5}, {1, 5}]
BAD_CLASS_MESSAGE = re.escape("inverse class must be a nonempty subset of {1,2,3,4}")


@pytest.mark.parametrize("classes", BAD_CLASS_LABELS, ids=repr)
class TestInverseClassLabels:
    """A label outside {1,2,3,4} raises the formula layer's ValueError at every entry point."""

    def element(self):
        return M([[0, 0], [0, 1]], GF(2))

    def test_index_scan(self, classes):
        ring = matrix_star_ring(2)
        with pytest.raises(ValueError, match=BAD_CLASS_MESSAGE):
            ring.inverse_class_i(ring.index[self.element()], classes)

    def test_element_scan(self, classes):
        with pytest.raises(ValueError, match=BAD_CLASS_MESSAGE):
            matrix_star_ring(2).inverse_class(self.element(), classes)


@pytest.mark.parametrize("name", ["z12", "m2gf2", "m2gf3"])
class TestRelationRows:
    """rel_rows, built for all a from fibre bitsets, against the one-pair rel_*_i."""

    @pytest.mark.parametrize("opposite", [False, True])
    def test_rows_match_the_pairwise_relations(self, name, opposite):
        ring = _fresh(ring_by_name(name))
        if opposite:
            ring = ring.opposite()
        n = ring.n
        for relation in ("minus", "1mp", "mp1", "diamond", "plus"):
            rel = getattr(ring, f"rel_{relation}_i")
            rows = ring.rel_rows(relation)
            assert len(rows) == n
            for a in range(n):
                assert rows[a] == sum(1 << b for b in range(n) if rel(a, b)), (relation, a)
            assert ring.rel_rows(relation) is rows
        with pytest.raises(ValueError):
            ring.rel_rows("sharp")

    def test_mp1_rows_are_the_opposite_1mp_rows(self, name):
        ring = _fresh(ring_by_name(name))
        mp1 = ring.rel_rows("mp1")
        opp = ring.opposite()
        assert opp._rows == {}
        assert opp.rel_rows("1mp") == mp1
        assert ring.rel_rows("1mp") is not opp.rel_rows("1mp")

    def test_fibres_partition_the_carrier(self, name):
        ring = ring_by_name(name)
        _assert_fibres_partition(ring, range(ring.n))


def _assert_fibres_partition(ring, xs):
    """The fibres of each x in xs split the carrier by x*b and by b*x."""
    n, mul = ring.n, ring.mul_table
    fibres = left, right = ring.fibres()
    assert ring.fibres() is fibres
    full = (1 << n) - 1
    for x in xs:
        for fibre in (left[x], right[x]):
            assert isinstance(fibre, tuple) and len(fibre) == n
            assert sum(fibre) == full and sum(f.bit_count() for f in fibre) == n
        for b in range(n):
            assert left[x][mul[x * n + b]] >> b & 1
            assert right[x][mul[b * n + x]] >> b & 1


class TestFibreCache:
    """One fibre table per ring, built on first use and read by every sweep."""

    def test_a_full_registry_builds_one_table_per_ring_and_opposite(self, monkeypatch):
        calls = []
        split = finite.fibre_row

        def counted(products, bits):
            calls.append(None)
            return split(products, bits)

        monkeypatch.setattr(finite, "fibre_row", counted)
        ring = _fresh(ring_by_name("m2gf3"))
        assert all(report.passed for report in verify_all(ring))
        # left and right rows of every x, once for the ring and once for its opposite
        assert len(calls) == 4 * ring.n

    def test_the_opposite_builds_its_own_fibres_after_warm_caches(self):
        ring = _fresh(ring_by_name("m2gf3"))
        left, right = ring.fibres()
        mp1 = ring.rel_rows("mp1")
        opp = ring.opposite()
        fibres = opp.fibres()
        assert fibres is not ring.fibres() and opp.fibres() is fibres
        assert fibres[0] is not right and fibres[1] is not left
        assert left != right and fibres == (right, left)
        assert opp.rel_rows("1mp") == mp1

    @pytest.mark.parametrize("name", ["m3gf2", "m2gf5"])
    def test_fibres_partition_the_carrier_on_seeded_rows(self, name):
        ring = ring_by_name(name)
        _assert_fibres_partition(ring, random.Random(ring.n).sample(range(ring.n), 12))

    def test_m2gf5_fibres_hold_under_12_mb(self):
        ring = ring_by_name("m2gf5")
        tables = (ring.mul_table, ring.add_table, ring.neg_table, ring.star_table)
        copy = FiniteStarRing(ring.name, ring.elements, ring.zero, ring.one, _tables=tables)
        tracemalloc.start()
        try:
            fibres = copy.fibres()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 12_000_000
        assert copy.fibres() is fibres


@dataclass(frozen=True)
class UVAlgebraElement:
    """c*1 + u*U + v*V in the GF(2)-algebra with U*U == V, V*V == U, U*V == V*U == 0.

    Unital, commutative and bi-additive, with the identity involution, but
    (U*U)*V == U while U*(U*V) == 0: only the generator triples catch it.
    """

    c: int
    u: int
    v: int

    def __add__(self, other):
        return UVAlgebraElement(self.c ^ other.c, self.u ^ other.u, self.v ^ other.v)

    def __neg__(self):
        return self

    def __mul__(self, other):
        return UVAlgebraElement(
            self.c & other.c,
            (self.c & other.u) ^ (self.u & other.c) ^ (self.v & other.v),
            (self.c & other.v) ^ (self.v & other.c) ^ (self.u & other.u),
        )

    @property
    def star(self):
        return self


class TestAxiomCheck:
    @pytest.mark.parametrize("name", ["z12", "z101"])
    def test_corrupted_table_fails_exhaustive_check(self, name):
        ring = _fresh(ring_by_name(name))
        n = ring.n
        ring.mul_table[2 * n + 3] = ring.mul_table[3 * n + 2] = 7
        with pytest.raises(InternalCheckError, match="left distributivity fails"):
            ring._verify_axioms()

    @pytest.mark.parametrize("name", ["z12", "z101"])
    def test_corrupted_addition_fails(self, name):
        ring = _fresh(ring_by_name(name))
        n = ring.n
        ring.add_table[2 * n + 3] = ring.add_table[3 * n + 2] = 7
        with pytest.raises(InternalCheckError, match="addition not associative"):
            ring._verify_axioms()

    @pytest.mark.parametrize(
        "left, right, side",
        [
            ([[0, 0], [0, 1]], [[0, 0], [0, 1]], "left"),
            ([[0, 0], [1, 1]], [[0, 0], [1, 0]], "right"),
        ],
    )
    def test_one_sided_distributivity_failure_is_named(self, gf2, left, right, side):
        # x*y := 0 and, to keep star antimultiplicative, star(y)*star(x) := 0
        ring = _fresh(matrix_star_ring(2))
        n, star, index = ring.n, ring.star_table, ring.index
        x, y = index[M(left, gf2)], index[M(right, gf2)]
        ring.mul_table[x * n + y] = ring.mul_table[star[y] * n + star[x]] = ring.zero_i
        with pytest.raises(InternalCheckError, match=f"{side} distributivity fails"):
            ring._verify_axioms()

    def test_non_associative_algebra_fails(self):
        els = [UVAlgebraElement(*bits) for bits in itertools.product((0, 1), repeat=3)]
        with pytest.raises(InternalCheckError, match="multiplication not associative"):
            FiniteStarRing("uv", els, els[0], UVAlgebraElement(1, 0, 0))

    def test_carrier_not_closed_fails(self):
        # {0, 1} inside Z_4: 1 + 1 == 2 leaves the carrier
        els = [ZnElement(0, 4), ZnElement(1, 4)]
        with pytest.raises(InternalCheckError) as err:
            FiniteStarRing("half", els, els[0], els[1])
        assert str(err.value) == "half: carrier not closed under the ring operations"


class TestM3GF2:
    """3x3 matrices over GF(2): 512 elements, admitted past the carrier guard by name."""

    def test_build_and_structure_counts(self):
        ring = ring_by_name("m3gf2")
        assert ring is matrix_star_ring(2, 3)
        assert len(ring.elements) == 512
        assert len(ring.mp_invertible) == 281
        assert len(ring.regular) == 512
        assert len(ring.idempotents) == 58  # 1 + 28 + 28 + 1 by rank
        assert len(ring.projections) == 10
        assert ring.is_vn_regular
        assert not ring.is_rickart_star

    def test_guard_admits_only_the_registered_build(self):
        ring = matrix_star_ring(2, 3)
        for name in ("m3x", "m3gf2"):
            with pytest.raises(CarrierTooLarge, match=f"carrier of {name} has 512 elements"):
                FiniteStarRing(name, ring.elements, ring.zero, ring.one)

    def test_decisions_match_the_oracle_on_a_seeded_slice(self):
        # 100 seeded a, each with one random b and one b above a in the
        # minus order, so every relation meets positives
        ring = matrix_star_ring(2, 3)
        rng = random.Random(512)
        els = ring.elements
        mp_set = set(ring.mp_invertible)
        pairs = []
        for a in rng.sample(els, 100):
            pairs.append((a, rng.choice(els)))
            pairs.append((a, rng.choice([b for b in els if ring.rel_minus(a, b)])))
        holds = {"minus": 0, "1mp": 0, "mp1": 0, "diamond": 0, "plus": 0}
        for a, b in pairs:
            decided = {"minus": leq_minus(a, b).holds, "diamond": leq_diamond(a, b).holds}
            oracle = {"minus": ring.rel_minus(a, b), "diamond": ring.rel_diamond(a, b)}
            if a in mp_set:
                decided.update({"1mp": leq_1mp(a, b).holds, "mp1": leq_mp1(a, b).holds})
                oracle.update({"1mp": ring.rel_1mp(a, b), "mp1": ring.rel_mp1(a, b)})
            decided["plus"] = leq_plus(a, b).holds
            oracle["plus"] = ring.rel_plus(a, b)
            assert decided == oracle, (a, b)
            for rel, value in decided.items():
                holds[rel] += value
        assert all(holds.values()), holds


def _check_witness(ring, relation, a, b, witness):
    """A positive verdict's witness against the oracle's own sets and the definition."""
    if relation == "minus":
        assert a * witness.inner * a == a
        assert witness.inner * a == witness.inner * b and a * witness.inner == b * witness.inner
        assert witness.p * b == a and b * witness.q == a
    elif relation in ("1mp", "mp1"):
        family = ring.one_mp_set(a) if relation == "1mp" else ring.mp_one_set(a)
        assert witness.x in family
        assert witness.x * a == witness.x * b and a * witness.x == b * witness.x
    elif relation == "diamond":
        if witness is not None:
            assert tuple(witness) == (ring.lp(a), ring.rp(a))
    else:
        assert witness.q_tilde in ring.lp_members(a) and witness.q in ring.rp_members(a)
        assert witness.q_tilde * b * witness.q == a


class TestM2GF5:
    """2x2 matrices over GF(5): 625 elements; 1 + 2^2 == 0, so transpose is not proper."""

    def test_build_and_structure_counts(self):
        ring = ring_by_name("m2gf5")
        assert ring is matrix_star_ring(5)
        assert len(ring.elements) == 625
        assert len(ring.mp_invertible) == 545
        assert len(ring.regular) == 625
        without = [i for i in range(ring.n) if ring.lp_i(i) < 0 or ring.rp_i(i) < 0]
        assert len(without) == 80
        assert not ring.is_rickart_star

    def test_decisions_match_the_oracle_on_a_seeded_slice(self):
        # 60 seeded a and all 80 without canonical projections, each with one
        # random b and one b above a in the minus order; those 80 also get a
        # b above a in the plus order, which only the rank stage can decide
        ring = matrix_star_ring(5)
        rng = random.Random(625)
        els = ring.elements
        mp_set = set(ring.mp_invertible)
        minus_rows, plus_rows = ring.rel_rows("minus"), ring.rel_rows("plus")
        without = [i for i in range(ring.n) if ring.lp_i(i) < 0 or ring.rp_i(i) < 0]
        pairs = []
        for i in rng.sample(range(ring.n), 60) + without:
            a = els[i]
            pairs.append((a, rng.choice(els)))
            pairs.append((a, els[rng.choice(list(bit_indices(minus_rows[i])))]))
            if i in without:
                pairs.append((a, els[rng.choice(list(bit_indices(plus_rows[i])))]))
        holds = {"minus": 0, "1mp": 0, "mp1": 0, "diamond": 0, "plus": 0}
        rank_positives = 0
        for a, b in pairs:
            decided = {"minus": leq_minus(a, b), "diamond": leq_diamond(a, b)}
            oracle = {"minus": ring.rel_minus(a, b), "diamond": ring.rel_diamond(a, b)}
            if a in mp_set:
                decided.update({"1mp": leq_1mp(a, b), "mp1": leq_mp1(a, b)})
                oracle.update({"1mp": ring.rel_1mp(a, b), "mp1": ring.rel_mp1(a, b)})
            decided["plus"] = leq_plus(a, b)
            oracle["plus"] = ring.rel_plus(a, b)
            assert {rel: v.holds for rel, v in decided.items()} == oracle, (a, b)
            for rel, v in decided.items():
                if v.holds:
                    holds[rel] += 1
                    _check_witness(ring, rel, a, b, v.witness)
            if decided["plus"].holds and ring.lp(a) is None:
                rank_positives += decided["plus"].method == "rank"
        assert all(holds.values()), holds
        assert rank_positives > 0


class TestIntegerCodedTables:
    """The registered rings' tables come from integer codes; element arithmetic checks them.

    `_verify_axioms` cannot tell a ring from its opposite (a transposed
    product table meets every axiom), so only this comparison pins the
    orientation of the product.
    """

    @staticmethod
    def mismatch(ring, rows):
        """The first (table, i) where row i disagrees with element arithmetic, or None."""
        els, index, n = ring.elements, ring.index, ring.n
        for i in rows:
            a = els[i]
            if ring.neg_table[i] != index[-a]:
                return "neg", i
            if ring.star_table[i] != index[a.star]:
                return "star", i
            if ring.mul_table[i * n : i * n + n] != [index[a * b] for b in els]:
                return "mul", i
            if ring.add_table[i * n : i * n + n] != [index[a + b] for b in els]:
                return "add", i
        return None

    @staticmethod
    def rows_of(ring):
        if ring.n <= 81:
            return range(ring.n)
        return random.Random(ring.n).sample(range(ring.n), 12)

    def test_every_entry_of_the_small_rings(self):
        for name in [f"z{n}" for n in range(2, 61)] + ["m2gf2", "m2gf3"]:
            ring = ring_by_name(name)
            assert self.mismatch(ring, range(ring.n)) is None, name

    @pytest.mark.parametrize("name", ["m3gf2", "m2gf5"])
    def test_seeded_rows_of_the_large_rings(self, name):
        ring = ring_by_name(name)
        assert self.mismatch(ring, self.rows_of(ring)) is None

    @pytest.mark.parametrize("name", ["m2gf2", "m2gf3", "m3gf2", "m2gf5"])
    def test_a_transposed_product_table_is_caught(self, name):
        opp = ring_by_name(name).opposite()
        opp._verify_axioms()
        assert self.mismatch(opp, self.rows_of(opp))[0] == "mul"

    def test_building_uses_no_element_arithmetic(self, monkeypatch):
        calls = []

        def counted(cls, attr):
            original = getattr(cls, attr)
            if isinstance(original, property):
                replacement = property(lambda self: calls.append(attr) or original.fget(self))
            else:
                def replacement(self, *args):
                    calls.append(attr)
                    return original(self, *args)
            monkeypatch.setattr(cls, attr, replacement)

        for cls in (ExactMatrix, ZnElement):
            for attr in ("__mul__", "__add__", "__sub__", "__neg__", "star"):
                counted(cls, attr)
        zn_ring.cache_clear()
        matrix_star_ring.cache_clear()
        names = [f"m{size}gf{p}" for size, p in sorted(MATRIX_RINGS)] + ["z500"]
        for name in names:
            assert ring_by_name(name).n > 0
        assert calls == []
        residues, one = ring_by_name("z500").elements, ring_by_name("m2gf2").one
        residues[2] * residues[3], one + one  # the counters are live
        assert calls == ["__mul__", "__add__"]


def test_zn_element_repr():
    assert repr(ZnElement(2, 6)) == "2 (mod 6)"
