import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

import starinv
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
    ring_by_name,
    row_space_leq,
    try_dagger,
)
from starinv.fields import PRIME_CHECK_LIMIT, field_by_name
from starinv.matrix import (
    bases,
    hstack,
    inner_inverse,
    inner_solve,
    inverse,
    penrose_equations,
    pivot_columns,
    rref,
    select,
    solve_matrix_equations,
)

from conftest import M, random_rational_matrix, random_singular_matrix


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


class TestPickling:
    def test_round_trip(self):
        for a in (M([[1, "1/2"], [-3, 4]]), M([[1, 2], [0, 1]], GF(3))):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                b = pickle.loads(pickle.dumps(a, protocol))
                assert b == a and a * b == a * a
        assert pickle.loads(pickle.dumps(QQ)) is QQ

    def test_hash_survives_another_process(self):
        # the child hashes the matrix before pickling it under its own seed
        src = os.path.dirname(os.path.dirname(starinv.__file__))
        env = dict(os.environ, PYTHONHASHSEED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import pickle, sys\n"
            "from starinv import ExactMatrix\n"
            "a = ExactMatrix.from_rows([[1, 2], [3, 4]])\n"
            "hash(a)\n"
            "sys.stdout.buffer.write(pickle.dumps(a))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, check=True
        )
        b = pickle.loads(proc.stdout)
        a = M([[1, 2], [3, 4]])
        assert b == a and hash(b) == hash(a) and b in {a}


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

    def test_inverse_of_non_square_refused(self):
        with pytest.raises(DimensionMismatch):
            inverse(M([[1, 0, 0], [0, 1, 0]]))


def _reduce(field, x):
    """x as a scalar of field: a Fraction over Q, its residue mod p over GF(p)."""
    return Fraction(x) if field is QQ else x % field.p


def _inv(field, x):
    return 1 / Fraction(x) if field is QQ else pow(x, -1, field.p)


def _textbook_product(a, b):
    """Entries of a*b by the triple loop over Fraction or mod-p scalar arithmetic."""
    return [
        _reduce(a.field, sum(a[i, t] * b[t, j] for t in range(a.cols)))
        for i in range(a.rows)
        for j in range(b.cols)
    ]


def _textbook_rref(a):
    """Gauss-Jordan over Fraction or mod-p scalar arithmetic: (row-major entries, pivots)."""
    f = a.field
    m = a.to_rows()
    pivots = []
    for c in range(a.cols):
        r = len(pivots)
        pr = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _inv(f, m[r][c])
        m[r] = [_reduce(f, inv * v) for v in m[r]]
        for i in range(a.rows):
            if i != r:
                m[i] = [_reduce(f, x - m[i][c] * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return [v for row in m for v in row], pivots


class TestKernels:
    """The shared kernels (products, sums, row_reduce, residue) against textbook loops."""

    # (rows, inner, cols); inner 0 is the empty product that _plus_rank_witness forms
    SHAPES = [(1, 1, 1), (3, 5, 2), (2, 7, 1), (4, 4, 4), (5, 3, 6), (6, 6, 6), (3, 0, 4)]
    FIELDS = [QQ, GF(2), GF(3), GF(101), GF(10000000000037)]

    @staticmethod
    def _scalar(rng, field):
        if field is QQ:
            kind = rng.randrange(4)
            if kind == 0:
                return Fraction(rng.randint(-50, 50))
            if kind == 1:
                return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**15))
            if kind == 2:
                return Fraction(0)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(field.p)

    def _matrix(self, rng, field, rows, cols):
        """Random entries, each row zeroed with probability 1/5."""
        ents = []
        for _ in range(rows):
            zero_row = rng.random() < 0.2
            ents += [field.zero if zero_row else self._scalar(rng, field) for _ in range(cols)]
        return ExactMatrix(rows, cols, ents, field)

    def _low_rank(self, rng, field, rows, cols):
        r = rng.randint(1, min(rows, cols))
        return self._matrix(rng, field, rows, r) * self._matrix(rng, field, r, cols)

    @staticmethod
    def _assert_canonical(a):
        for e in a.entries:
            if a.field is QQ:
                assert type(e) is Fraction
                assert e.denominator > 0 and gcd(e.numerator, e.denominator) == 1
            else:
                assert type(e) is int and 0 <= e < a.field.p

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_product_matches_triple_loop(self, field):
        rng = random.Random(41)
        for rows, k, cols in self.SHAPES * 4:
            a = self._matrix(rng, field, rows, k)
            b = self._matrix(rng, field, k, cols)
            c = a * b
            assert c.shape == (rows, cols)
            assert list(c.entries) == _textbook_product(a, b)
            self._assert_canonical(c)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_sums_match_entrywise_arithmetic(self, field):
        # a + b, a - b and -a against Fraction or mod-p arithmetic per entry
        rng = random.Random(59)
        unlike_dens = 0
        for rows, _, cols in self.SHAPES * 4:
            a = self._matrix(rng, field, rows, cols)
            b = self._matrix(rng, field, rows, cols)
            unlike_dens += a.den != b.den
            pairs = list(zip(a.entries, b.entries))
            for c, expected in (
                (a + b, [_reduce(field, x + y) for x, y in pairs]),
                (a - b, [_reduce(field, x - y) for x, y in pairs]),
                (-a, [_reduce(field, -x) for x in a.entries]),
            ):
                assert c.shape == a.shape
                assert list(c.entries) == expected
                self._assert_canonical(c)
                _assert_packed(c)
            _assert_packed(a - a)
        if field is QQ:
            assert unlike_dens >= 20  # of 28 pairs: the sums rescale to a common den

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_rref_matches_gauss_jordan(self, field):
        rng = random.Random(43)
        cases = [ExactMatrix.zeros(3, 4, field), ExactMatrix(2, 0, [], field)]
        for rows, _, cols in self.SHAPES * 4:
            cases.append(self._matrix(rng, field, rows, cols))
            cases.append(self._low_rank(rng, field, rows, cols))
        for a in cases:
            red, pivots = rref(a)
            assert (list(red.entries), pivots) == _textbook_rref(a)
            assert red.shape == a.shape
            self._assert_canonical(red)
            assert rank(a) == len(pivots)
            assert pivot_columns(a) == pivots

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_inner_solve_against_inner_inverse(self, field):
        # one rref of [b | c]: b's pivots and g*c for g = inner_inverse(b) when
        # col(c) lies in col(b); a flag when it does not; g itself for c = I
        rng = random.Random(53)
        kinds = set()
        for rows, k, cols in self.SHAPES * 4:
            n = rows + 1
            for b in (self._low_rank(rng, field, n, n), self._matrix(rng, field, n, n)):
                g = inner_inverse(b)
                kinds.add(rank(b) == n)
                assert inner_solve(b, ExactMatrix.identity(n, field))[1] == g
                pivots = rref(b)[1]
                c = b * self._matrix(rng, field, n, cols)
                assert inner_solve(b, c) == (pivots, g * c, True)
                self._assert_canonical(inner_solve(b, c)[1])
                outside = hstack(c, self._matrix(rng, field, n, 1))
                if rank(hstack(b, outside)) > rank(b):
                    found, _, inside = inner_solve(b, outside)
                    assert (found, inside) == (pivots, False)
                    kinds.add("outside")
        assert kinds == {True, False, "outside"}
        b = M([[1, 1], [1, 1]], field)
        assert inner_solve(b, M([[1], [0]], field))[2] is False
        assert inner_solve(b, M([[3], [3]], field)) == ([0], inner_inverse(b) * M([[3], [3]], field), True)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_bases_from_one_forward_elimination(self, field):
        # echelon's pivots are pivot_columns(a); F is a at them, G has rank r and spans row(a)
        rng = random.Random(71)
        cases = [ExactMatrix.zeros(3, 4, field), ExactMatrix.zeros(4, 2, field), ExactMatrix(2, 0, [], field)]
        cases += [ExactMatrix.identity(3, field), M([[1, 2, 3], [0, 1, 4]], field), M([[1, 0], [2, 1], [3, 5]], field)]
        for rows, _, cols in self.SHAPES * 4:
            cases.append(self._matrix(rng, field, rows, cols))
            cases.append(self._low_rank(rng, field, rows, cols))
        kinds = set()
        for a in cases:
            pivots = pivot_columns(a)
            r = len(pivots)
            assert field.echelon(a.nums, a.rows, a.cols)[0] == pivots
            f, g = bases(a)
            assert f == select(a, range(a.rows), pivots)
            assert g.shape == (r, a.cols) and rank(g) == r
            assert row_space_leq(a, g) and row_space_leq(g, a)
            _assert_packed(g)
            self._assert_canonical(g)
            full = r == min(a.shape)
            kinds.add((r == 0, full, a.rows < a.cols, a.rows > a.cols))
        # rank 0, full rank and a lower rank, each on wide and tall shapes
        assert {(True, False, True, False), (True, False, False, True)} <= kinds
        assert {(False, True, True, False), (False, True, False, True), (False, True, False, False)} <= kinds
        assert {(False, False, True, False), (False, False, False, True)} <= kinds

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_residue_grows_an_echelon_basis(self, field):
        # residue reads packed int rows: here the rows of a.nums, a.den times a's rows
        rng = random.Random(47)
        assert field.residue([], [0, 0, 0]) is None
        if field is not QQ:
            assert field.residue([], [field.p, 0, -2 * field.p]) is None
        for rows, _, cols in self.SHAPES * 4:
            a = self._low_rank(rng, field, rows + 2, cols)
            packed = [list(a.nums[i * cols : (i + 1) * cols]) for i in range(a.rows)]
            # empty basis: v itself up to a unit, pivot at its first nonzero entry
            v = packed[0]
            res = field.residue([], v)
            nonzero = [c for c, x in enumerate(v) if _reduce(field, x)]
            if res is None:
                assert not nonzero
            else:
                assert res[0] == nonzero[0]
                assert rank(ExactMatrix(2, cols, v + res[1], field)) == 1
            # outside the span: the basis grows with the rank of the stacked rows
            basis = []
            for i, v in enumerate(packed):
                res = field.residue(basis, v)
                if res is not None:
                    c, row = res
                    assert row[c] and not any(row[:c])
                    assert all(row[b] == 0 for b, _ in basis)
                    basis.append(res)
                assert len(basis) == rank(select(a, range(i + 1), range(cols)))
            # in the span: integer combinations of the rows leave no residue
            for _ in range(3):
                ks = [rng.randint(-5, 5) for _ in packed]
                w = [sum(k * v[j] for k, v in zip(ks, packed)) for j in range(cols)]
                assert field.residue(basis, w) is None


def _assert_packed(m):
    """The canonical packed form: int nums over one den > 0 with gcd(den, *nums) == 1."""
    assert type(m.nums) is tuple and len(m.nums) == m.rows * m.cols
    assert all(type(v) is int for v in m.nums)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *m.nums) == 1
    if not any(m.nums):
        assert m.den == 1


class TestPackedForm:
    """Rational matrices hold nums / den in lowest terms after every operation."""

    @staticmethod
    def _cases(rng):
        cases = [
            M([["1/2", "1/2"], ["1/4", "-1/4"]]),
            M([["2/3", 0], [0, "3/2"]]),
            M([[6, 4], [2, 8]]),
            ExactMatrix.zeros(2, 2),
            random_singular_matrix(rng, 4, 2),
        ]
        cases += [random_rational_matrix(rng, n, n) for n in (1, 2, 3, 5)]
        return cases

    def test_operations_keep_the_canonical_form(self):
        rng = random.Random(61)
        cases = self._cases(rng)
        for a in cases:
            b = random_rational_matrix(rng, a.rows, a.cols)
            results = [a, a * a.star, a.star * a, a + b, a - b, b - b, a - a, a + (-a), a.star]
            results += [rref(a)[0], inner_inverse(a), mp_inverse(a)]
            if rank(a) == a.rows == a.cols:
                results.append(inverse(a))
            for m in results:
                _assert_packed(m)
        # products that cancel to integers, to zero, and the 3x0 by 0x4 product
        half = M([["1/2", "1/2"]])
        _assert_packed(half * M([[1], [-1]]))
        _assert_packed(M([["2/3"]]) * M([["3/2"]]))
        empty = ExactMatrix(3, 0, [], QQ) * ExactMatrix(0, 4, [], QQ)
        _assert_packed(empty)
        assert empty == ExactMatrix.zeros(3, 4)

    def test_from_rows_and_constructor_pack(self):
        for m in (
            M([["1/2", "1/3"], ["-5/6", 7]]),
            M([[2, 4], [6, 8]]),
            ExactMatrix(1, 3, [Fraction(2, 4), 3, Fraction(-9, 6)], QQ),
        ):
            _assert_packed(m)
        m = M([["1/2", "1/3"], ["-5/6", 7]])
        assert (m.nums, m.den) == ((3, 2, -5, 42), 6)

    def test_entries_are_lowest_terms_fractions(self):
        rng = random.Random(67)
        for a in self._cases(rng):
            for m in (a, a * a.star, rref(a)[0], mp_inverse(a)):
                assert len(m.entries) == m.rows * m.cols
                for e in m.entries:
                    assert type(e) is Fraction
                    assert e.denominator > 0 and gcd(e.numerator, e.denominator) == 1
                assert m.entries is m.entries  # built once
                assert m == ExactMatrix(m.rows, m.cols, m.entries, QQ)

    def test_built_and_computed_matrices_agree(self):
        a = M([["1/2", "1/3"], [2, "-3/4"]])
        b = M([[2, "1/5"], ["4/7", 3]])
        built = M([["25/21", "11/10"], ["25/7", "-37/20"]])  # a*b worked by hand
        product = a * b
        assert built == product and product == built
        assert hash(built) == hash(product)
        assert product in {built} and built in {product}
        assert len({built, product, M([[1, 0], [0, 1]])}) == 2
        # equal values with different arithmetic histories
        assert M([["1/3"]]) * M([[3]]) == ExactMatrix.identity(1)
        assert hash(M([["1/3"]]) * M([[3]])) == hash(ExactMatrix.identity(1))
        assert (a - a) == ExactMatrix.zeros(2, 2) and hash(a - a) == hash(ExactMatrix.zeros(2, 2))


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


class TestRationalLiterals:
    def test_exponent_literal_rejected_fast(self):
        start = time.perf_counter()
        for text in ("1e10000000", "2E-3", "1.5e2"):
            with pytest.raises(DocumentError, match="exponent"):
                QQ.of(text)
        assert time.perf_counter() - start < 1.0

    def test_integer_fraction_and_decimal_literals(self):
        assert QQ.of("-7/2") == Fraction(-7, 2)
        assert QQ.of("12") == 12
        assert QQ.of("0.25") == Fraction(1, 4)


class TestFactorization:
    def test_basic_example(self):
        fact = full_rank_factorize(M([[1, 1], [0, 0]]))
        assert fact.r == 1
        assert fact.f == M([[1], [0]])
        assert fact.g == M([[1, 1]])

    def test_identity(self):
        fact = full_rank_factorize(ExactMatrix.identity(3))
        assert fact.f == ExactMatrix.identity(3)
        assert fact.g == ExactMatrix.identity(3)

    def test_scaled_diagonal(self):
        a = M([[2, 0], [0, 0]])
        fact = full_rank_factorize(a)
        assert fact.product() == a
        assert rank(fact.f) == fact.r == rank(fact.g) == 1

    def test_rank_zero(self):
        # the factors are a 2 x 0 and a 0 x 3 matrix, not None
        for field in (QQ, GF(3), GF(101)):
            zero = ExactMatrix.zeros(2, 3, field)
            fact = full_rank_factorize(zero)
            assert fact.r == 0 and fact.pivots == ()
            assert fact.f.shape == (2, 0) and fact.g.shape == (0, 3)
            assert fact.product() == zero
            assert mp_inverse(zero) == ExactMatrix.zeros(3, 2, field)

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=lambda f: f.name)
    def test_zero_width_kernels(self, field):
        # the kernels a rank-zero factorisation runs through, at zero sizes
        a = M([[1, 2], [3, 4]], field)
        col0 = ExactMatrix(2, 0, [], field)
        assert col0 == ExactMatrix.zeros(2, 0, field)
        assert col0 * ExactMatrix(0, 3, [], field) == ExactMatrix.zeros(2, 3, field)
        assert col0.star == ExactMatrix.zeros(0, 2, field) and (col0.star * a).shape == (0, 2)
        assert col0.star * col0 == ExactMatrix.zeros(0, 0, field)
        assert hstack(a, col0) == a == hstack(col0, a)
        assert select(a, range(2), []) == col0
        empty = ExactMatrix.zeros(0, 0, field)
        assert rref(empty) == (empty, [])
        assert inverse(empty) == empty
        assert solve_matrix_equations([], (2, 3), field) == ExactMatrix.zeros(2, 3, field)

    def test_random_products(self):
        rng = random.Random(77)
        for _ in range(200):
            a = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            fact = full_rank_factorize(a)
            assert fact.product() == a
            if fact.r:
                assert rank(fact.f) == fact.r
                assert rank(fact.g) == fact.r


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

    def test_is_mp_invertible_builds_no_inverse(self, monkeypatch):
        # the rank test rank(a^T*a) == rank(a) == rank(a*a^T), no MacDuffee inverse
        import starinv.matrix as matrix

        def no_inverse(a):
            raise AssertionError("is_mp_invertible built an inverse")

        monkeypatch.setattr(matrix, "inverse", no_inverse)
        gf5 = GF(5)
        assert not is_mp_invertible(ExactMatrix.from_rows([[1, 2], [0, 0]], gf5))
        assert not is_mp_invertible(ExactMatrix.from_rows([[1, 0], [2, 0]], gf5))
        assert is_mp_invertible(ExactMatrix.from_rows([[1, 1], [0, 0]], gf5))
        assert is_mp_invertible(ExactMatrix.zeros(2, 3, gf5))
        assert is_mp_invertible(ExactMatrix.from_rows([[1, 2], [0, 0]]))

    @pytest.mark.parametrize("name", ["m2gf2", "m2gf3", "m2gf5", "m3gf2"])
    def test_is_mp_invertible_against_the_oracle(self, name):
        # the Gram-rank test against the Penrose scan, on every element (1,234 over the four rings)
        ring = ring_by_name(name)
        members = set(ring.mp_invertible)
        assert 0 < len(members) <= len(ring.elements)
        for a in ring.elements:
            assert is_mp_invertible(a) == (a in members), a

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(101)], ids=lambda f: f.name)
    def test_is_mp_invertible_against_try_dagger(self, field):
        # rectangular shapes from 1x3 to 4x2, rank 0 and isotropic rows included
        rng = random.Random(89)
        shapes = [(m, n) for m in range(1, 5) for n in range(1, 5) if m != n]
        cases = [ExactMatrix.zeros(m, n, field) for m, n in shapes]
        # 1 + 2^2 == 0 over GF(5) and 10^2 + 1 == 0 over GF(101)
        isotropic = {5: [1, 2], 101: [10, 1]}.get(field.p, [1, 1] if field.p == 2 else [1, 1, 1])
        for m, n in shapes:
            if n >= len(isotropic):
                cases.append(M([isotropic + [0] * (n - len(isotropic))] + [[0] * n] * (m - 1), field))
            for _ in range(12):
                r = rng.randint(1, min(m, n))
                left = ExactMatrix(m, r, [rng.randrange(field.p) for _ in range(m * r)], field)
                cases.append(left * ExactMatrix(r, n, [rng.randrange(field.p) for _ in range(r * n)], field))
        seen = set()
        for a in cases:
            for x in (a, a.star):
                built = try_dagger(x) is not None
                assert is_mp_invertible(x) == built, x
                seen.add(built)
        assert seen == {True, False}

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
