import random

import pytest

from starinv import (
    ExactMatrix,
    IdempotentPair,
    IdempotentViolation,
    CornerViolation,
    OppositeView,
    PeirceBlocks,
    RingMismatch,
    ZnElement,
    in_corner,
    is_member,
    matrix_star_ring,
    mp_one,
    one_mp,
    opposite_view,
    peirce_decompose,
    peirce_multiply,
    peirce_recompose,
    zn_ring,
)

from conftest import M, random_rational_matrix, z


def blocks_tuple(bl):
    return (bl.x11, bl.x12, bl.x21, bl.x22)


class TestIdempotentPair:
    def test_rejects_non_idempotent(self):
        good = M([[1, 0], [0, 0]])
        bad = M([[1, 1], [1, 1]])
        with pytest.raises(IdempotentViolation):
            IdempotentPair(bad, good)
        with pytest.raises(IdempotentViolation):
            IdempotentPair(good, bad)

    def test_accepts_projections_and_idempotents(self):
        IdempotentPair(M([[1, 5], [0, 0]]), M([[1, 0], [0, 1]]))


class TestPeirce:
    def test_corner_projection_example(self):
        x = M([[1, 2], [3, 4]])
        e = M([[1, 0], [0, 0]])
        bl = peirce_decompose(x, IdempotentPair(e, e))
        assert blocks_tuple(bl) == (
            M([[1, 0], [0, 0]]),
            M([[0, 2], [0, 0]]),
            M([[0, 0], [3, 0]]),
            M([[0, 0], [0, 4]]),
        )
        assert peirce_recompose(bl) == x

    def test_identity_idempotent(self):
        x = M([[1, 2], [3, 4]])
        one = ExactMatrix.identity(2)
        bl = peirce_decompose(x, IdempotentPair(one, one))
        zero = ExactMatrix.zeros(2, 2)
        assert blocks_tuple(bl) == (x, zero, zero, zero)

    def test_z6_example(self):
        # p = q = 3 is idempotent in Z_6; x = 5 splits as (3, 0, 0, 2)
        pair = IdempotentPair(z(3), z(3))
        bl = peirce_decompose(z(5), pair)
        assert blocks_tuple(bl) == (z(3), z(0), z(0), z(2))
        assert peirce_recompose(bl) == z(5)

    def test_round_trip_exhaustive_z6(self):
        ring = zn_ring(6)
        ring.structure()
        for p in ring.idempotents:
            for q in ring.idempotents:
                pair = IdempotentPair(p, q)
                for x in ring.elements:
                    assert peirce_recompose(peirce_decompose(x, pair)) == x

    def test_round_trip_randomized_rational(self):
        rng = random.Random(31)
        projs = [
            M([[1, 0], [0, 0]]),
            M([[1, 5], [0, 0]]),
            ExactMatrix.identity(2),
            ExactMatrix.zeros(2, 2),
            M([["1/2", "1/2"], ["1/2", "1/2"]]),
        ]
        for _ in range(300):
            x = random_rational_matrix(rng, 2, 2)
            pair = IdempotentPair(rng.choice(projs), rng.choice(projs))
            bl = peirce_decompose(x, pair)
            bl.validate()
            assert peirce_recompose(bl) == x

    def test_recompose_rejects_corner_escape(self):
        e = M([[1, 0], [0, 0]])
        pair = IdempotentPair(e, e)
        bad = PeirceBlocks(
            M([[0, 0], [0, 1]]),  # not in the (1,1) corner
            ExactMatrix.zeros(2, 2),
            ExactMatrix.zeros(2, 2),
            ExactMatrix.zeros(2, 2),
            pair,
        )
        with pytest.raises(CornerViolation):
            peirce_recompose(bad)

    def test_block_multiplication_rule(self):
        # block-multiply then recompose == recompose then multiply
        rng = random.Random(97)
        ring = zn_ring(6)
        ring.structure()
        idems = ring.idempotents
        for _ in range(200):
            p, q, g = rng.choice(idems), rng.choice(idems), rng.choice(idems)
            x = rng.choice(ring.elements)
            zz = rng.choice(ring.elements)
            xb = peirce_decompose(x, IdempotentPair(p, q))
            zb = peirce_decompose(zz, IdempotentPair(q, g))
            prod = peirce_multiply(xb, zb)
            assert peirce_recompose(prod) == x * zz

    def test_block_multiplication_requires_matching_middle(self):
        e = M([[1, 0], [0, 0]])
        one = ExactMatrix.identity(2)
        x = M([[1, 2], [3, 4]])
        xb = peirce_decompose(x, IdempotentPair(e, e))
        zb = peirce_decompose(x, IdempotentPair(one, e))
        with pytest.raises(RingMismatch):
            peirce_multiply(xb, zb)


class TestInCorner:
    def test_corner_membership(self):
        e = M([[1, 0], [0, 0]])
        assert in_corner(M([[7, 0], [0, 0]]), e, e, 1, 1)
        assert in_corner(M([[0, 7], [0, 0]]), e, e, 1, 2)
        assert in_corner(M([[0, 0], [7, 0]]), e, e, 2, 1)
        assert in_corner(M([[0, 0], [0, 7]]), e, e, 2, 2)
        assert not in_corner(M([[7, 1], [0, 0]]), e, e, 1, 1)


class TestOppositeView:
    def test_reversed_product(self):
        a = opposite_view(M([[0, 1], [0, 0]]))
        b = opposite_view(M([[0, 0], [1, 0]]))
        assert (a * b).base == M([[0, 0], [0, 1]])

    def test_star_commutes_with_view(self):
        a = M([[1, 2], [3, 4]])
        assert opposite_view(a).star == opposite_view(a.star)

    def test_mixing_raises(self):
        a = opposite_view(M([[1]]))
        with pytest.raises(RingMismatch):
            a * M([[1]])
        with pytest.raises(RingMismatch):
            OppositeView(a)

    def test_one_mp_in_view_is_mp_one(self):
        rng = random.Random(12)
        for _ in range(50):
            a = random_rational_matrix(rng, 3, 3)
            from conftest import random_inner_inverse

            k = random_inner_inverse(rng, a)
            direct = mp_one(a, k)
            via_view = one_mp(opposite_view(a), opposite_view(k))
            assert via_view.base == direct

    def test_class_duality_exhaustive_m2gf2(self):
        # x is a {1,2,3}-inverse in the view exactly when it is a
        # {1,2,4}-inverse in the base ring
        ring = matrix_star_ring(2)
        for a in ring.elements:
            va = opposite_view(a)
            for x in ring.elements:
                in_view = is_member(va, opposite_view(x), {1, 2, 3})
                in_base = is_member(a, x, {1, 2, 4})
                assert in_view == in_base


class TestZnElement:
    def test_modulus_mismatch(self):
        with pytest.raises(RingMismatch):
            ZnElement(1, 6) + ZnElement(1, 8)
        with pytest.raises(RingMismatch):
            ZnElement(1, 6) * ZnElement(1, 8)

    def test_star_identity(self):
        assert z(5).star == z(5)
