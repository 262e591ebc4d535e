import random
from fractions import Fraction

import pytest

from starinv import (
    GF,
    QQ,
    DimensionMismatch,
    DocumentError,
    ExactMatrix,
    NotMPInvertible,
    RingMismatch,
    column_space_leq,
    embed_square,
    full_rank_factorize,
    is_mp_invertible,
    mp_inverse,
    rank,
    row_space_leq,
)
from starinv.fields import PRIME_CHECK_LIMIT, field_by_name
from starinv.matrix import (
    hstack,
    inner_inverse,
    inverse,
    penrose_equations,
    rref,
    solve_matrix_equations,
)

from conftest import M, random_rational_matrix


class TestArithmetic:
    def test_add_sub_neg(self):
        a = M([[1, 2], [3, 4]])
        b = M([[5, 6], [7, 8]])
        assert a + b == M([[6, 8], [10, 12]])
        assert b - a == M([[4, 4], [4, 4]])
        assert -a == M([[-1, -2], [-3, -4]])

    def test_mul(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert a * b == M([[2, 1], [4, 3]])

    def test_rectangular_mul_shapes(self):
        a = M([[1, 2, 3]])
        b = M([[1], [1], [1]])
        assert a * b == M([[6]])
        assert b * a == M([[1, 2, 3], [1, 2, 3], [1, 2, 3]])

    def test_star_is_transpose(self):
        a = M([[1, 2, 3], [4, 5, 6]])
        assert a.star == M([[1, 4], [2, 5], [3, 6]])

    def test_field_mismatch_raises(self):
        a = M([[1]])
        b = M([[1]], GF(2))
        with pytest.raises(RingMismatch):
            a + b
        with pytest.raises(RingMismatch):
            a * b

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            M([[1, 2]]) * M([[1, 2]])
        with pytest.raises(DimensionMismatch):
            M([[1, 2]]) + M([[1], [2]])

    def test_gf_entries_reduced(self):
        a = ExactMatrix.from_rows([[5, -1], [3, 2]], GF(3))
        assert a == ExactMatrix.from_rows([[2, 2], [0, 2]], GF(3))

    def test_hashable_and_equal(self):
        a = M([[1, 2], [3, 4]])
        b = M([[1, 2], [3, 4]])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestInvolutionAxioms:
    def test_randomized_involution_laws(self):
        # star is involutive, additive, and antimultiplicative: 10^4 pairs
        rng = random.Random(1009)
        for _ in range(10_000):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = random_rational_matrix(rng, m, n)
            b = random_rational_matrix(rng, m, n)
            c = random_rational_matrix(rng, n, rng.randint(1, 4))
            assert a.star.star == a
            assert (a + b).star == a.star + b.star
            assert (a * c).star == c.star * a.star


class TestElimination:
    def test_rank_examples(self):
        assert rank(ExactMatrix.zeros(3, 3)) == 0
        assert rank(ExactMatrix.identity(4)) == 4
        assert rank(M([[1, 1], [0, 0]])) == 1

    def test_rank_gf(self):
        assert rank(M([[1, 1], [1, 1]], GF(2))) == 1
        assert rank(M([[1, 2], [2, 1]], GF(3))) == 1  # second row = 2 * first

    def test_rref_pivots(self):
        red, pivots = rref(M([[0, 2, 1], [0, 4, 2]]))
        assert pivots == [1]
        assert red.row_list(0) == [0, 1, Fraction(1, 2)]

    def test_inverse_round_trip(self):
        a = M([[2, 1], [1, 1]])
        assert a * inverse(a) == ExactMatrix.identity(2)

    def test_inverse_singular(self):
        with pytest.raises(ZeroDivisionError):
            inverse(M([[1, 1], [1, 1]]))


class TestInnerInverse:
    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=lambda f: f.name)
    def test_inner_inverse_equation(self, field):
        rng = random.Random(29)
        cases = [
            ExactMatrix.zeros(3, 3, field),
            ExactMatrix.zeros(2, 4, field),
            M([[1, 2], [0, 1]], field),
            M([[1, 1], [1, 1]], field),
            M([[0, 1, 1], [0, 2, 2]], field),
            M([[1, 0], [0, 1], [1, 1]], field),
        ]
        for _ in range(60):
            rows, cols, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rows)]
            right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(r)]
            if r:
                cases.append(M(left, field) * M(right, field))
        for a in cases:
            g = inner_inverse(a)
            assert g.shape == (a.cols, a.rows) and g.field == field
            assert a * g * a == a

    def test_invertible_gives_the_inverse(self):
        a = M([[2, 1], [1, 1]])
        assert inner_inverse(a) == inverse(a)
        b = M([[1, 2], [2, 2]], GF(3))
        assert inner_inverse(b) == inverse(b)

    def test_zero_gives_zero(self):
        assert inner_inverse(ExactMatrix.zeros(2, 3)) == ExactMatrix.zeros(3, 2)


class TestPrimeFields:
    def test_large_prime_accepted(self):
        assert field_by_name("gf:10000000000037").p == 10000000000037

    @pytest.mark.parametrize("n", [1, 561, 3215031751, 3825123056546413051])
    def test_composites_and_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(DocumentError):
            field_by_name(f"gf:{n}")

    def test_modulus_beyond_exact_range_rejected(self):
        with pytest.raises(DocumentError, match="too large"):
            field_by_name(f"gf:{PRIME_CHECK_LIMIT}")

    def test_small_primes_match_trial_division(self):
        from starinv.fields import _is_prime

        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(_is_prime(n) == trial(n) for n in range(3000))


class TestFactorization:
    def test_basic_example(self):
        fact = full_rank_factorize(M([[1, 1], [0, 0]]))
        assert fact.r == 1
        assert fact.f_matrix() == M([[1], [0]])
        assert fact.g_matrix() == M([[1, 1]])

    def test_identity(self):
        fact = full_rank_factorize(ExactMatrix.identity(3))
        assert fact.f_matrix() == ExactMatrix.identity(3)
        assert fact.g_matrix() == ExactMatrix.identity(3)

    def test_scaled_diagonal(self):
        a = M([[2, 0], [0, 0]])
        fact = full_rank_factorize(a)
        assert fact.product() == a
        assert rank(fact.f_matrix()) == fact.r == rank(fact.g_matrix()) == 1

    def test_rank_zero(self):
        fact = full_rank_factorize(ExactMatrix.zeros(2, 3))
        assert fact.r == 0
        assert fact.product() == ExactMatrix.zeros(2, 3)

    def test_random_products(self):
        rng = random.Random(77)
        for _ in range(200):
            a = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            fact = full_rank_factorize(a)
            assert fact.product() == a
            if fact.r:
                assert rank(fact.f_matrix()) == fact.r
                assert rank(fact.g_matrix()) == fact.r


class TestMoorePenrose:
    def test_frozen_example(self):
        a = M([[1, 1], [0, 0]])
        assert mp_inverse(a) == M([["1/2", 0], ["1/2", 0]])

    def test_identity(self):
        assert mp_inverse(ExactMatrix.identity(3)) == ExactMatrix.identity(3)

    def test_zero(self):
        assert mp_inverse(ExactMatrix.zeros(2, 3)) == ExactMatrix.zeros(3, 2)

    def test_gf2_not_invertible(self):
        with pytest.raises(NotMPInvertible):
            mp_inverse(M([[1, 1], [1, 1]], GF(2)))

    def test_gf2_exhaustive_oracle(self, gf2):
        # formula-based existence agrees with a full search over all 16
        # candidate inverses, for every 2x2 matrix over GF(2)
        all_mats = [
            ExactMatrix(2, 2, [a, b, c, d], gf2)
            for a in range(2)
            for b in range(2)
            for c in range(2)
            for d in range(2)
        ]
        for a in all_mats:
            found = [x for x in all_mats if all(penrose_equations(a, x))]
            assert len(found) <= 1
            if found:
                assert mp_inverse(a) == found[0]
            else:
                assert not is_mp_invertible(a)

    def test_penrose_and_double_dagger_randomized(self):
        rng = random.Random(4242)
        for _ in range(300):
            a = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            x = mp_inverse(a)
            assert all(penrose_equations(a, x))
            assert mp_inverse(x) == a
            ax = a * x
            xa = x * a
            assert ax * ax == ax and ax.star == ax
            assert xa * xa == xa and xa.star == xa


class TestSpaceTests:
    def test_column_examples(self):
        assert column_space_leq(M([[1, 0], [0, 0]]), ExactMatrix.identity(2))
        assert not column_space_leq(ExactMatrix.identity(2), M([[1, 0], [0, 0]]))
        assert column_space_leq(M([[1, 1], [0, 0]]), M([[2, 0], [0, 0]]))

    def test_row_examples(self):
        assert row_space_leq(M([[1, 0], [0, 0]]), ExactMatrix.identity(2))
        assert row_space_leq(M([[1, 0], [1, 0]]), M([[1, 0], [0, 0]]))
        assert not row_space_leq(ExactMatrix.identity(2), M([[1, 0], [0, 0]]))

    def test_annihilator_oracle_gf2_2x2(self, gf2):
        # column_space_leq(a, b) must equal the left-annihilator containment
        # left_ann(b) <= left_ann(a), checked by brute force
        mats = [
            ExactMatrix(2, 2, [a, b, c, d], gf2)
            for a in range(2)
            for b in range(2)
            for c in range(2)
            for d in range(2)
        ]
        def left_ann(m):
            return frozenset(x for x in mats if (x * m).is_zero)
        for a in mats:
            for b in mats:
                assert column_space_leq(a, b) == (left_ann(b) <= left_ann(a))

    def test_annihilator_oracle_gf2_3x3_sampled(self, gf2):
        rng = random.Random(55)
        mats = [
            ExactMatrix(3, 3, [rng.randint(0, 1) for _ in range(9)], gf2)
            for _ in range(60)
        ]
        probe = [
            ExactMatrix(3, 3, [(i >> k) & 1 for k in range(9)], gf2)
            for i in range(512)
        ]
        def left_ann(m):
            return frozenset(x for x in probe if (x * m).is_zero)
        for _ in range(120):
            a = rng.choice(mats)
            b = rng.choice(mats)
            assert column_space_leq(a, b) == (left_ann(b) <= left_ann(a))


class TestSolver:
    def test_simple_inverse_problem(self):
        a = M([[2, 0], [0, 3]])
        eye = ExactMatrix.identity(2)
        x = solve_matrix_equations([([(a, eye)], eye)], (2, 2), QQ)
        assert x == M([["1/2", 0], [0, "1/3"]])

    def test_inconsistent(self):
        zero = ExactMatrix.zeros(2, 2)
        eye = ExactMatrix.identity(2)
        assert solve_matrix_equations([([(zero, eye)], eye)], (2, 2), QQ) is None

    def test_sum_of_terms(self):
        # X + 2*X == [[3, 0], [0, 3]]  =>  X == identity
        eye = ExactMatrix.identity(2)
        two = M([[2, 0], [0, 2]])
        target = M([[3, 0], [0, 3]])
        x = solve_matrix_equations([([(eye, eye), (two, eye)], target)], (2, 2), QQ)
        assert x == eye


def test_desk_scale_instant():
    # a 12x12 rational matrix of rank 7 stays comfortably inside the
    # "instant" envelope for exact Moore-Penrose computation
    import time

    rng = random.Random(314)
    left = ExactMatrix(12, 7, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(84)], QQ)
    right = ExactMatrix(7, 12, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(84)], QQ)
    a = left * right
    start = time.perf_counter()
    x = mp_inverse(a)
    elapsed = time.perf_counter() - start
    assert all(penrose_equations(a, x))
    assert elapsed < 5.0


def test_embed_square():
    a = M([[1, 2, 3], [4, 5, 6]])
    e = embed_square(a)
    assert e.shape == (3, 3)
    assert e == M([[1, 2, 3], [4, 5, 6], [0, 0, 0]])
    assert embed_square(e) is e


def test_hstack():
    a = M([[1], [2]])
    b = M([[3], [4]])
    assert hstack(a, b) == M([[1, 3], [2, 4]])
