import tracemalloc

import pytest

from starinv import (
    CarrierTooLarge,
    FiniteStarRing,
    UnknownRing,
    ZnElement,
    enumerate_class,
    enumerate_dagger,
    enumerate_regular,
    matrix_star_ring,
    ring_by_name,
    zn_ring,
)
from starinv.finite import capped_tuples

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
            ring_by_name("m2gf5")
        with pytest.raises(UnknownRing):
            ring_by_name("zxx")
        with pytest.raises(UnknownRing):
            zn_ring(1)

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
        assert enumerate_regular(zn_ring(6)) == frozenset(zn_ring(6).elements)

    def test_z4_two_not_regular(self):
        reg = enumerate_regular(zn_ring(4))
        assert z(2, 4) not in reg
        assert reg == frozenset({z(0, 4), z(1, 4), z(3, 4)})

    def test_dagger_map_z6(self):
        dag = enumerate_dagger(zn_ring(6))
        assert dag[z(0)] == z(0)
        assert dag[z(1)] == z(1)
        assert dag[z(2)] == z(2)
        assert dag[z(3)] == z(3)
        assert dag[z(5)] == z(5)

    def test_dagger_map_z4_missing(self):
        dag = enumerate_dagger(zn_ring(4))
        assert dag[z(2, 4)] is None

    def test_class_examples_z6(self):
        ring = zn_ring(6)
        assert enumerate_class(ring, z(2), {1}) == frozenset({z(2), z(5)})
        assert enumerate_class(ring, z(2), {1, 2, 3}) == frozenset({z(2)})
        assert enumerate_class(ring, z(0), {1}) == frozenset(ring.elements)

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

    def test_z6_opposite_has_the_same_tables(self):
        ring = _fresh(zn_ring(6))
        opp = ring.opposite()
        els = ring.elements
        assert all(opp.mul(a, b) == ring.mul(a, b) for a in els for b in els)
        assert all(opp.left_ann(a) == ring.left_ann(a) for a in els)
        assert opp.projections == ring.projections


class TestCappedTuples:
    def test_exhaustive_below_cap(self):
        it, sampled, count = capped_tuples([[1, 2], [3, 4]], cap=100)
        assert not sampled and count == 4
        assert sorted(it) == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_sampling_above_cap(self):
        it, sampled, count = capped_tuples([range(100), range(100)], cap=50)
        assert sampled and count == 50
        drawn = list(it)
        assert len(drawn) == 50
        # deterministic under the fixed seed
        it2, _, _ = capped_tuples([range(100), range(100)], cap=50)
        assert list(it2) == drawn


def test_zn_element_repr():
    assert repr(ZnElement(2, 6)) == "2 (mod 6)"
