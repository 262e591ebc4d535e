import collections
import itertools
import random
from fractions import Fraction

import pytest

from starinv import (
    GF,
    QQ,
    ConditionFailure,
    CornerViolation,
    DimensionMismatch,
    ExactMatrix,
    FiniteStarRing,
    InternalCheckError,
    MP1Witness,
    NotMPInvertible,
    NotRegular,
    NotRickart,
    OneMPAboveForm,
    OneMPWitness,
    OrderVerdict,
    OrderViolation,
    PlusBlockData,
    RingMismatch,
    above_1mp,
    above_mp1,
    b_1mp_inverse_check,
    dagger,
    in_corner,
    is_member,
    leq_1mp,
    leq_1mp_routes,
    leq_diamond,
    leq_minus,
    leq_mp1,
    leq_plus,
    lp,
    lp_family_member,
    matrix_star_ring,
    order_axiom_suite,
    plus_block_compose,
    rank,
    ring_by_name,
    rp,
    rp_family_member,
    zn_ring,
)
from starinv.finite import bit_indices
from starinv.matrix import full_rank_factorize, hstack, idempotent_rank, inner_inverse, inverse
from starinv.orders import _left_ann_matches
from starinv.theorems import MAX_STORED_VIOLATIONS, _order_axioms

from conftest import M, random_rational_matrix, random_singular_matrix, z

DIAG10 = M([[1, 0], [0, 0]])
EYE2 = ExactMatrix.identity(2)


class TestLpRp:
    def test_frozen_example(self):
        a = M([[1, 1], [0, 0]])
        assert lp(a) == DIAG10
        assert rp(a) == M([["1/2", "1/2"], ["1/2", "1/2"]])

    def test_zero_and_invertible(self):
        zero = ExactMatrix.zeros(2, 2)
        assert lp(zero) == zero and rp(zero) == zero
        for field in (QQ, GF(3), GF(101)):  # built from the zero-width rank factors
            zero3 = ExactMatrix.zeros(3, 3, field)
            assert lp(zero3) == zero3 and rp(zero3) == zero3
        a = M([[2, 1], [1, 1]])
        assert lp(a) == EYE2 and rp(a) == EYE2

    def test_matches_canonical_projections(self):
        rng = random.Random(21)
        for _ in range(40):
            a = random_rational_matrix(rng, 3, 3)
            d = dagger(a)
            assert lp(a) == a * d
            assert rp(a) == d * a

    def test_zn_scan(self):
        assert lp(z(3)) == z(3)
        assert rp(z(3)) == z(3)

    def test_gf2_not_rickart(self):
        a = M([[1, 1], [0, 0]], GF(2))
        assert lp(a) == M([[1, 0], [0, 0]], GF(2))  # column Gram is fine
        with pytest.raises(NotRickart):
            rp(a)  # row Gram vanishes over GF(2)


class TestIdempotentRank:
    """rank(e) of an idempotent from its trace over Q and GF(p > n), by elimination over GF(p <= n)."""

    @pytest.mark.parametrize(
        "field, kernels",
        [(QQ, []), (GF(101), []), (GF(5), []), (GF(3), ["rank"]), (GF(2), ["rank"])],
        ids=["rational", "gf101", "gf5", "gf3", "gf2"],
    )
    def test_branch_and_identity_rejection(self, monkeypatch, field, kernels):
        # e = I passes e*a == a for a = diag(1, 0, 0), but rank(e) = 3 != 1;
        # over GF(3) the trace of I_3 is 0, so that branch eliminates
        a, eye = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]], field), ExactMatrix.identity(3, field)
        count = TestLazyDerivedData._count_eliminations(monkeypatch, field)
        assert idempotent_rank(eye) == 3 and count == kernels
        assert eye * a == a
        assert not _left_ann_matches(eye, a) and not _left_ann_matches(eye, a, 1)
        assert _left_ann_matches(a, a, 1)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=["rational", "gf2", "gf3", "gf101"])
    def test_wrong_gram_solve_fails_verification(self, monkeypatch, field):
        # a Gram solve that returns 2X: e = 2*lp(a) is not idempotent over
        # GF(p > 2), and 0 over GF(2), where e*a == a fails
        import starinv.matrix as mx

        solve = mx.inner_solve

        def doubled(b, c):
            pivots, x, inside = solve(b, c)
            return pivots, x + x, inside

        monkeypatch.setattr(mx, "inner_solve", doubled)
        with pytest.raises(InternalCheckError, match="^lp construction failed verification$"):
            lp(M([[1, 2], [0, 0]], field))


class TestAnnihilatorFamilies:
    def test_trivial_member(self):
        a = DIAG10
        assert lp_family_member(a, ExactMatrix.zeros(2, 2)) == lp(a)

    def test_frozen_example(self):
        a = DIAG10
        e = lp_family_member(a, M([[0, 5], [0, 0]]))
        assert e == M([[1, 5], [0, 0]])
        assert e * e == e

    def test_rp_member(self):
        a = DIAG10
        e = rp_family_member(a, M([[0, 0], [5, 0]]))
        assert e == M([[1, 0], [5, 0]])
        assert e * e == e

    def test_corner_violation(self):
        with pytest.raises(CornerViolation):
            lp_family_member(DIAG10, M([[0, 0], [5, 0]]))

    def test_z6_family_is_singleton(self):
        ring = zn_ring(6)
        assert ring.lp_members(z(3)) == (z(3),)
        assert lp_family_member(z(3), z(0)) == z(3)


class TestMinusOrder:
    def test_reflexive(self):
        a = M([[1, 2], [3, 4]])
        v = leq_minus(a, a)
        assert v.holds and v.method == "rank"

    def test_projection_below_identity(self):
        v = leq_minus(DIAG10, EYE2)
        assert v.holds
        w = v.witness
        assert w.p * EYE2 == DIAG10 and EYE2 * w.q == DIAG10

    def test_rank_holds_but_not_1mp(self):
        b = M([[1, 1], [0, 1]])
        assert leq_minus(DIAG10, b).holds
        assert not leq_1mp(DIAG10, b).holds

    def test_fails(self):
        assert not leq_minus(EYE2, DIAG10).holds

    @pytest.mark.parametrize("n", [6, 4, 8, 12])
    def test_zn_exhaustive_against_oracle(self, n):
        # unlike z6, z4, z8 and z12 have elements without an inner inverse
        ring = zn_ring(n)
        for a in ring.elements:
            for b in ring.elements:
                if not ring.inner_inverses(a):
                    with pytest.raises(NotRegular):
                        leq_minus(a, b)
                else:
                    assert leq_minus(a, b).holds == ring.rel_minus(a, b)

    def test_not_regular_raises(self):
        with pytest.raises(NotRegular):
            leq_minus(z(2, 8), z(1, 8))

    def test_matrix_route_matches_oracle_on_m2gf2(self):
        ring = matrix_star_ring(2)
        for a in ring.elements:
            for b in ring.elements:
                assert leq_minus(a, b).holds == ring.rel_minus(a, b)

    def test_square_required(self):
        with pytest.raises(DimensionMismatch):
            leq_minus(M([[1, 0, 0], [0, 0, 0]]), M([[1, 0, 0], [0, 1, 0]]))

    def test_matrix_route_matches_oracle_on_m2gf3(self):
        ring = matrix_star_ring(3)
        for a in ring.elements:
            for b in ring.elements:
                assert leq_minus(a, b).holds == ring.rel_minus(a, b)


class TestWitnessesWithSingularB:
    """Rational pairs with b singular, where the witness is one of many.

    Adding z with z*b == 0 == b*z to a witness gives another, and such a z
    is nonzero whenever b is singular; so each witness is checked against
    its defining equations, not against a fixed matrix.
    """

    def test_minus(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randint(2, 4)
            r = rng.randint(1, n - 1)
            s = rng.randint(0, n - 1 - r)
            a = random_singular_matrix(rng, n, r)
            b = a + (random_singular_matrix(rng, n, s) if s else ExactMatrix.zeros(n, n))
            assert rank(b) < n
            v = leq_minus(a, b)
            assert v.holds and v.method == "rank"
            k, p, q = v.witness
            assert a * k * a == a and k * a == k * b and a * k == b * k
            assert p == a * k and q == k * a and p * b == a and b * q == a

    def test_1mp_and_mp1(self):
        rng = random.Random(71)
        eye = ExactMatrix.identity(3)
        for _ in range(20):
            a = random_singular_matrix(rng, 3, 1)
            d = dagger(a)
            p = a * d
            q = d * a
            low = random_singular_matrix(rng, 3, 1)
            b4 = (eye - p) * low * (eye - q)
            b = above_1mp(a, OneMPAboveForm(b4, (eye - q) * random_rational_matrix(rng, 3, 3) * p))
            assert rank(b) < 3
            x = leq_1mp(a, b).witness.x
            assert is_member(a, x, {1, 2, 3}) and x * a == x * b and a * x == b * x
            b = above_mp1(a, OneMPAboveForm(b4, q * random_rational_matrix(rng, 3, 3) * (eye - p)))
            assert rank(b) < 3
            x = leq_mp1(a, b).witness.x
            assert is_member(a, x, {1, 2, 4}) and x * a == x * b and a * x == b * x


class TestOneMPOrder:
    def test_holds_example(self):
        v = leq_1mp(DIAG10, EYE2)
        assert v.holds and v.method == "minus-dagger"
        x = v.witness.x
        assert x * DIAG10 == x * EYE2 and DIAG10 * x == EYE2 * x

    def test_fails_with_reason(self):
        v = leq_1mp(DIAG10, M([[1, 1], [0, 1]]))
        assert not v.holds
        assert v.reason == "dagger(a)*b != dagger(a)*a"

    def test_reflexive(self):
        a = M([[1, 2], [2, 4]])
        assert leq_1mp(a, a).holds

    def test_z6_above_set(self):
        above = {b.value for b in zn_ring(6).elements if leq_1mp(z(2), b).holds}
        assert above == {2, 5}

    @pytest.mark.parametrize("n", [6, 4, 8, 12])
    def test_zn_matches_oracle(self, n):
        # the one route of every ring; the witness is unique in a commutative ring
        ring = zn_ring(n)
        for a in ring.elements:
            a_dag = ring.dagger_of(a)
            for b in ring.elements:
                if a_dag is None:
                    with pytest.raises(NotMPInvertible):
                        leq_1mp(a, b)
                    continue
                v = leq_1mp(a, b)
                assert v.holds == ring.rel_1mp(a, b)
                assert v.method == "minus-dagger"
                if v.holds:
                    assert v.witness.x == a_dag

    def test_matrix_route_matches_oracle_on_m2gf2(self):
        ring = matrix_star_ring(2)
        for a in ring.mp_invertible:
            for b in ring.elements:
                assert leq_1mp(a, b).holds == ring.rel_1mp(a, b)

    def test_three_routes_agree_randomized(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(120):
            a = random_rational_matrix(rng, 3, 3)
            b = random_rational_matrix(rng, 3, 3)
            routes = leq_1mp_routes(a, b)
            assert len(set(routes.values())) == 1
            hits += routes["definition"]
        # random pairs are almost never comparable; make sure generated ones are
        for _ in range(40):
            a = random_singular_matrix(rng, 3, rng.randint(1, 2))
            d = dagger(a)
            p = a * d
            q = d * a
            eye = ExactMatrix.identity(3)
            b4 = (eye - p) * random_rational_matrix(rng, 3, 3) * (eye - q)
            dd = (eye - q) * random_rational_matrix(rng, 3, 3) * p
            b = above_1mp(a, OneMPAboveForm(b4, dd))
            routes = leq_1mp_routes(a, b)
            assert routes == {"definition": True, "minus-dagger": True, "shared-inner": True}


class TestMP1Order:
    def test_reflexive_and_duality(self):
        a = M([[1, 2], [2, 4]])
        assert leq_mp1(a, a).holds

    def test_transpose_dual_of_1mp_examples(self):
        assert leq_mp1(DIAG10, EYE2).holds
        assert not leq_mp1(DIAG10, M([[1, 0], [1, 1]])).holds

    def test_witness_satisfies_definition(self):
        v = leq_mp1(DIAG10, EYE2)
        x = v.witness.x
        assert is_member(DIAG10, x, {1, 2, 4})
        assert x * DIAG10 == x * EYE2 and DIAG10 * x == EYE2 * x

    @pytest.mark.parametrize("n", [6, 4, 8, 12])
    def test_zn_matches_oracle(self, n):
        # the one route of every ring; the witness is unique in a commutative ring
        ring = zn_ring(n)
        for a in ring.elements:
            a_dag = ring.dagger_of(a)
            for b in ring.elements:
                if a_dag is None:
                    with pytest.raises(NotMPInvertible):
                        leq_mp1(a, b)
                    continue
                v = leq_mp1(a, b)
                assert v.holds == ring.rel_mp1(a, b)
                assert v.method == "transpose-dual"
                if v.holds:
                    assert v.witness.x == a_dag

    def test_matrix_route_matches_oracle_on_m2gf2(self):
        ring = matrix_star_ring(2)
        for a in ring.mp_invertible:
            for b in ring.elements:
                assert leq_mp1(a, b).holds == ring.rel_mp1(a, b)

    def test_no_dagger_per_matrix_decision(self, monkeypatch):
        # the verdict equals the transposed 1MP decision; no matrix decision
        # builds dagger, positive or negative (the minus order fails, or it
        # holds and a*star(b) != a*star(a))
        import starinv.orders as orders

        rng = random.Random(89)
        eye = ExactMatrix.identity(3)
        pairs = []
        for _ in range(8):
            a = random_singular_matrix(rng, 3, rng.randint(1, 2))
            d = dagger(a)
            p, q = a * d, d * a
            b4 = (eye - p) * random_rational_matrix(rng, 3, 3) * (eye - q)
            dd = q * random_rational_matrix(rng, 3, 3) * (eye - p)
            above = above_mp1(a, OneMPAboveForm(b4, dd))
            pairs.append((a, above))
            pairs.append((a, above + a))  # rank(above) == rank(above + a): minus fails
            pairs.append((a, a + random_singular_matrix(rng, 3, 1)))
        expected = [leq_1mp(a.star, b.star) for a, b in pairs]
        calls = []

        def counting_dagger(x):
            calls.append(x)
            return dagger(x)

        monkeypatch.setattr(orders, "dagger", counting_dagger)
        reasons = set()
        for (a, b), old in zip(pairs, expected):
            del calls[:]
            v = leq_mp1(a, b)
            assert calls == []
            assert (v.holds, v.reason) == (old.holds, old.reason)
            assert v.witness == (MP1Witness(old.witness.x.star) if old.holds else None)
            reasons.add(v.reason)
            del calls[:]
            assert leq_1mp(a.star, b.star) == old
            assert calls == []
        assert reasons == {
            None,
            "rank(b - a) != rank(b) - rank(a)",
            "dagger(a)*b != dagger(a)*a",
        }


def _reference_1mp(a, b):
    """leq_1mp by the earlier matrix route: the minus witness k = g*a*g for
    g = inner_inverse(b), then x = k*a*dagger(a)."""
    a_dag = dagger(a)
    if rank(b - a) != rank(b) - rank(a):
        return OrderVerdict(False, None, "minus-dagger", "rank(b - a) != rank(b) - rank(a)")
    if not (a.star * (b - a)).is_zero:
        return OrderVerdict(False, None, "minus-dagger", "dagger(a)*b != dagger(a)*a")
    g = inner_inverse(b)
    k = g * a * g
    return OrderVerdict(True, OneMPWitness(k * a * a_dag), "minus-dagger")


def _reference_mp1(a, b):
    v = _reference_1mp(a.star, b.star)
    witness = MP1Witness(v.witness.x.star) if v.holds else None
    return OrderVerdict(v.holds, witness, "transpose-dual", v.reason)


def _packed_outcome(decide, a, b):
    """A decision as (holds, method, reason, packed witness), or its NotMPInvertible text."""
    try:
        v = decide(a, b)
    except NotMPInvertible as e:
        return str(e)
    x = v.witness.x if v.holds else None
    return v.holds, v.method, v.reason, None if x is None else (tuple(x.nums), x.den)


def _random_matrix(rng, rows, cols, field):
    if field is QQ:
        ents = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rows * cols)]
    else:
        ents = [rng.randrange(field.p) for _ in range(rows * cols)]
    return ExactMatrix(rows, cols, ents, field)


def _constructed_pairs(rng, field, n):
    """b above a by the 1mp, mp1 and diamond constructions (a nonzero, singular,
    with dagger(a)), each followed by its b + a perturbation, on which minus fails."""
    eye = ExactMatrix.identity(n, field)
    pairs = []
    for kind in ("1mp", "mp1", "diamond"):
        while True:
            r = rng.randint(1, n - 1)
            a = _random_matrix(rng, n, r, field) * _random_matrix(rng, r, n, field)
            try:
                a_dag = dagger(a)
            except NotMPInvertible:
                continue
            if not a.is_zero:
                break
        p, q = a * a_dag, a_dag * a
        b4 = (eye - p) * _random_matrix(rng, n, n, field) * (eye - q)
        if kind == "1mp":
            b = a - b4 * ((eye - q) * _random_matrix(rng, n, n, field) * p) * a + b4
        elif kind == "mp1":
            b = a - a * (q * _random_matrix(rng, n, n, field) * (eye - p)) * b4 + b4
        else:
            b = a + b4
        pairs += [(a, b), (a, b + a)]
    return pairs


class TestOneMPWitnessRoute:
    """A matrix 1MP positive takes x = inner_inverse(b)*lp(a): the same
    verdicts, witnesses and refusals as the route through the minus witness
    and dagger(a), and no Moore-Penrose inverse."""

    @staticmethod
    def _assert_matches_reference(pairs):
        holds = set()
        for a, b in pairs:
            for decide, reference in ((leq_1mp, _reference_1mp), (leq_mp1, _reference_mp1)):
                outcome = _packed_outcome(decide, a, b)
                assert outcome == _packed_outcome(reference, a, b), (decide.__name__, a, b)
                holds.add(outcome[0] if isinstance(outcome, tuple) else outcome)
        return holds

    def test_every_m2gf3_pair(self):
        gf3 = GF(3)
        elements = [
            ExactMatrix(2, 2, list(digits), gf3) for digits in itertools.product(range(3), repeat=4)
        ]
        holds = self._assert_matches_reference(itertools.product(elements, elements))
        assert holds == {True, False}

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=["rational", "gf3", "gf101"])
    def test_constructed_pairs(self, field):
        rng = random.Random(24)
        pairs = []
        for n in range(2, 9):
            pairs += _constructed_pairs(rng, field, n)
            a = _random_matrix(rng, n, 1, field) * _random_matrix(rng, 1, n, field)
            pairs.append((a, a))  # a positive, or a refused a with no dagger(a)
        holds = self._assert_matches_reference(pairs)
        assert {True, False} <= holds

    @pytest.mark.parametrize("field, most", [(QQ, 10), (GF(101), 12)], ids=["rational", "gf101"])
    @pytest.mark.parametrize("relation", [leq_1mp, leq_mp1], ids=["1mp", "mp1"])
    def test_positive_products_and_no_mp_inverse(self, monkeypatch, field, most, relation):
        # star(F)*(b - a), over GF(p) the two Gram products of the Moore-Penrose
        # check, F^T*F, (F^T F)^{-1}*F^T, (g*F) times that, six equations (13
        # and 15 through lp(a), 26 and one mp_inverse through the minus witness)
        import starinv.matrix as matrix

        pairs = _constructed_pairs(random.Random(3), field, 3)
        a, b = pairs[0] if relation is leq_1mp else pairs[2]
        calls = []
        mul = ExactMatrix.__mul__

        def counting_mul(x, y):
            calls.append(None)
            return mul(x, y)

        def no_mp_inverse(*args):
            raise AssertionError("mp_inverse called on a 1MP or MP1 decision")

        monkeypatch.setattr(ExactMatrix, "__mul__", counting_mul)
        monkeypatch.setattr(matrix, "mp_inverse", no_mp_inverse)
        assert relation(a, b).holds
        assert len(calls) <= most


class TestRationalDecidePath:
    """What a rational decision computes: the witness self-checks compute each
    product once, and no Fraction is built."""

    @pytest.mark.parametrize(
        "relation, most", [(leq_minus, 9), (leq_1mp, 10), (leq_mp1, 10)], ids=["minus", "1mp", "mp1"]
    )
    def test_products_per_positive_decision(self, monkeypatch, relation, most):
        # ExactMatrix.__mul__ calls per positive n = 8 decision, dagger(a) included
        rng = random.Random(5)
        n = 8
        eye = ExactMatrix.identity(n)
        a = random_singular_matrix(rng, n, 4)
        d = dagger(a)
        p, q = a * d, d * a
        b4 = (eye - p) * random_rational_matrix(rng, n, n) * (eye - q)
        if relation is leq_mp1:
            b = a - a * (q * random_rational_matrix(rng, n, n) * (eye - p)) * b4 + b4
        else:
            b = a - b4 * ((eye - q) * random_rational_matrix(rng, n, n) * p) * a + b4
        calls = []
        mul = ExactMatrix.__mul__

        def counting_mul(x, y):
            calls.append(None)
            return mul(x, y)

        monkeypatch.setattr(ExactMatrix, "__mul__", counting_mul)
        assert relation(a, b).holds
        assert len(calls) <= most
        if relation is leq_minus:
            assert len(calls) == most

    def test_rational_decisions_build_no_fraction(self, monkeypatch):
        # decisions run on the packed integer form; only reading entries makes Fractions
        import starinv.fields as fields

        rng = random.Random(7)
        pairs = []
        for n in (2, 3, 4):
            a = random_singular_matrix(rng, n, n - 1)
            pairs += [(a, a), (a, a + random_singular_matrix(rng, n, 1)), (a, random_rational_matrix(rng, n, n))]

        def no_fraction(*args):
            raise AssertionError("a Fraction was built on the decide path")

        monkeypatch.setattr(fields, "Fraction", no_fraction)
        for a, b in pairs:
            for relation in (leq_minus, leq_1mp, leq_mp1, leq_diamond, leq_plus):
                relation(a, b)


class TestLazyDerivedData:
    """dagger(a), lp(a) and rp(a) are built only when the verdict uses them,
    and refusals are those of building them."""

    @pytest.mark.parametrize("relation", [leq_1mp, leq_mp1], ids=["1mp", "mp1"])
    def test_no_mp_inverse_refused_whatever_b(self, relation):
        # the row (1, 2) is isotropic over GF(5): a*a^T == 0, so no dagger(a)
        a = M([[1, 2], [0, 0]], GF(5))
        eye = ExactMatrix.identity(2, GF(5))
        assert not leq_minus(a, a + a).holds
        for b in (a, eye, a + a):
            with pytest.raises(NotMPInvertible) as info:
                relation(a, b)
            assert str(info.value) == "no Moore-Penrose inverse over gf:5: singular Gram factor"

    @pytest.mark.parametrize("relation", [leq_1mp, leq_mp1], ids=["1mp", "mp1"])
    def test_non_regular_zn_refused_by_dagger(self, relation):
        # a finite ring builds dagger(a) first: NotMPInvertible, never NotRegular
        for b in (z(2, 12), z(1, 12), z(4, 12)):
            with pytest.raises(NotMPInvertible) as info:
                relation(z(2, 12), b)
            assert str(info.value) == "2 (mod 12) has no Moore-Penrose inverse"

    # every _Field method that runs _eliminate, directly or through another
    KERNELS = ("row_reduce", "pivots", "rank", "echelon")

    @staticmethod
    def _count_eliminations(monkeypatch, field, reduced=None, kernels=KERNELS):
        """The list that gets the kernel name of each call of kernels over field.

        A list given as reduced gets the packed nums each of those calls
        reduces.  A kernel run inside another (rank runs pivots) is the
        same elimination and is not counted again.  An elimination that runs
        outside every listed kernel is counted as "_eliminate", so a kernel
        missing from the list fails every exact list.
        """
        field_cls = type(field)
        count = []
        running = []
        for name in kernels + ("_eliminate",):
            kernel = getattr(field_cls, name)

            def counting(self, *args, _kernel=kernel, _name=name):
                if not running:
                    count.append(_name)
                    if reduced is not None:
                        reduced.append(args[0])
                running.append(_name)
                try:
                    return _kernel(self, *args)
                finally:
                    running.pop()

            monkeypatch.setattr(field_cls, name, counting)
        return count

    def test_rank_stage_probe_eliminations(self, monkeypatch):
        # row_reduce plus rank calls of one 3x3 rank-stage decision; the
        # candidate columns are reduced against running echelon bases
        count = self._count_eliminations(monkeypatch, DIAG10.field)
        v = leq_plus(M([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), M([[2, 0, 0], [0, 1, 0], [0, 0, 0]]))
        assert (v.holds, v.method) == (True, "rank")
        assert len(count) <= 12

    def test_rank_stage_eliminations_do_not_grow_with_the_picks(self, monkeypatch):
        # a 24x24 pair, a a rank-12 product of [-9, 9] integer matrices and
        # b = a + a random one: several picks, each testing several candidate
        # columns, and still no elimination per candidate
        rng = random.Random(0)

        def integer_matrix(rows, cols):
            return ExactMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)], QQ)

        a = integer_matrix(24, 12) * integer_matrix(12, 24)
        b = a + integer_matrix(24, 24)
        count = self._count_eliminations(monkeypatch, QQ)
        v = leq_plus(a, b)
        assert (v.holds, v.method) == (True, "rank")
        # [b | a] and [b^T | a^T] forward, [b | I], a, D, [S V] and T*P
        # reduced; the pair's ranks are traces (187 with a fresh rank per
        # candidate column)
        assert len(count) <= 7

    def test_diamond_positive_eliminations(self, monkeypatch):
        # one forward elimination of [b | a] per containment, no [b | I];
        # then lp(a) and rp(a), both bases from one forward elimination of a
        # and one rref of [c^T c | c^T] each, each rank(e) read from the trace
        count = self._count_eliminations(monkeypatch, DIAG10.field)
        v = leq_diamond(M([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), ExactMatrix.identity(3))
        assert v.holds and v.witness is not None
        assert count == ["pivots", "pivots", "echelon", "row_reduce", "row_reduce"]

    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["rational", "gf101"])
    def test_canonical_plus_positive_never_reduces_b_with_the_identity(self, monkeypatch, field):
        # the containments are the forward eliminations of [b | a] and
        # [b^T | a^T]; [b | I] is reduced only in the rank stage
        a, b = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]], field), M([[1, 0, 0], [0, 2, 1], [0, 1, 1]], field)
        reduced = []
        count = self._count_eliminations(monkeypatch, field, reduced)
        v = leq_plus(a, b)
        assert (v.holds, v.method) == (True, "canonical")
        assert count == ["pivots", "pivots", "echelon", "row_reduce", "row_reduce"]
        eye = ExactMatrix.identity(3, field)
        assert hstack(b, eye).nums not in reduced and hstack(b.star, eye).nums not in reduced
        assert hstack(b, a).nums in reduced and hstack(b.star, a.star).nums in reduced

    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["rational", "gf101"])
    def test_lp_alone_eliminations(self, monkeypatch, field):
        # the forward elimination of a, one rref of [F^T F | F^T], rank(lp(a)) from the trace
        a = M([[1, 2, 0], [2, 4, 0], [0, 1, 1]], field)
        count = self._count_eliminations(monkeypatch, field)
        assert lp(a) * a == a
        assert count == ["echelon", "row_reduce"]

    @pytest.mark.parametrize(
        "field, kernels",
        [(QQ, ["pivots"] + ["rank"] * 2), (GF(101), ["echelon"] + ["rank"] * 4)],
        ids=["rational", "gf101"],
    )
    @pytest.mark.parametrize("relation", [leq_1mp, leq_mp1], ids=["1mp", "mp1"])
    def test_product_test_rejection_eliminations(self, monkeypatch, field, kernels, relation):
        # the minus order holds by the rank test and star(a)*(b - a) != 0: the
        # pivots of a, rank(b - a) and rank(b), all forward eliminations, no
        # minus witness (no row_reduce of [b | I]); over GF(p) the forward
        # elimination of a also gives G, and the Moore-Penrose check ranks
        # the r x r Gram matrices F^T F and G G^T, two more ranks
        a, b = M([[1, 0], [0, 0]], field), M([[1, 1], [0, 1]], field)
        if relation is leq_mp1:
            a, b = a.star, b.star
        count = self._count_eliminations(monkeypatch, field)
        v = relation(a, b)
        assert (v.holds, v.reason) == (False, "dagger(a)*b != dagger(a)*a")
        assert count == kernels

    @pytest.mark.parametrize("relation", [leq_1mp, leq_mp1], ids=["1mp", "mp1"])
    def test_column_of_a_outside_b_after_the_product_test(self, monkeypatch, relation):
        # rank(a) + rank(b - a) == n and star(a)*(b - a) == 0, but col(a) is
        # not inside col(b): a pivot in the F block of [b | F], the rank reason
        a, b = DIAG10, M([[1, 0], [1, 0]])
        assert (a.star * (b - a)).is_zero
        assert relation(a, b) == (_reference_1mp if relation is leq_1mp else _reference_mp1)(a, b)
        if relation is leq_mp1:  # the same branch for MP1 runs on the starred pair
            a, b = a.star, b.star
        count = self._count_eliminations(monkeypatch, QQ)
        v = relation(a, b)
        assert (v.holds, v.reason) == (False, "rank(b - a) != rank(b) - rank(a)")
        assert count == ["pivots", "rank", "row_reduce"]

    @pytest.mark.parametrize(
        "relation, kernels",
        [(leq_minus, ["rank", "rank"]), (leq_1mp, ["pivots", "rank"]), (leq_mp1, ["pivots", "rank"])],
        ids=["minus", "1mp", "mp1"],
    )
    def test_rank_sum_rejection_never_reduces_b(self, monkeypatch, relation, kernels):
        # rank(a) + rank(b - a) > n: the rank test fails whatever rank(b) <= n
        # is, so rank(a) and rank(b - a) decide (three eliminations before)
        pairs = [
            (DIAG10, M([[0, 0], [0, 1]])),
            (EYE2, ExactMatrix.zeros(2, 2)),
            (M([[1, 2, 0], [0, 1, 0], [0, 0, 0]]), M([[0, 0, 0], [1, 0, 0], [0, 0, 1]])),
        ]
        reduced = []
        count = self._count_eliminations(monkeypatch, QQ, reduced)
        for a, b in pairs:
            count.clear()
            reduced.clear()
            v = relation(a, b)
            assert (v.holds, v.reason) == (False, "rank(b - a) != rank(b) - rank(a)")
            assert count == kernels
            assert b.star.nums not in reduced and b.nums not in reduced

    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["rational", "gf101"])
    def test_zero_a_reuses_rank_of_b_minus_a(self, monkeypatch, field):
        zero = ExactMatrix.zeros(3, 3, field)
        count = self._count_eliminations(monkeypatch, field)
        for b in (zero, ExactMatrix.identity(3, field), M([[1, 2, 0], [2, 4, 0], [0, 0, 0]], field)):
            for relation in (leq_minus, leq_1mp, leq_mp1):
                count.clear()
                v = relation(zero, b)
                assert v.holds and v.witness[0] == zero
                if relation is not leq_minus:  # over GF(p) the bases of a, no Gram rank at rank 0
                    assert count == ["pivots" if field is QQ else "echelon"]

    def test_rational_1mp_positive_eliminations(self, monkeypatch):
        # an n = 8 1MP positive: the pivots of a, rank(b - a), one row_reduce
        # of [b | F] and the inverse of F^T*F (seven eliminations through lp(a))
        rng = random.Random(5)
        n = 8
        eye = ExactMatrix.identity(n)
        a = random_singular_matrix(rng, n, 4)
        d = dagger(a)
        p, q = a * d, d * a
        b4 = (eye - p) * random_rational_matrix(rng, n, n) * (eye - q)
        b = a - b4 * ((eye - q) * random_rational_matrix(rng, n, n) * p) * a + b4
        reference = _reference_1mp(a, b)
        count = self._count_eliminations(monkeypatch, QQ)
        v = leq_1mp(a, b)
        assert v.holds and v == reference
        assert count == ["pivots", "rank", "row_reduce", "row_reduce"]

    @pytest.mark.parametrize("field", [DIAG10.field, GF(3)], ids=["rational", "gf3"])
    def test_failed_containment_reduces_b_once(self, monkeypatch, field):
        # a plus or diamond negative on the containments: a forward
        # elimination of [b | a], then one of [b^T | a^T] when the columns of
        # a lie in col(b); no row_reduce of [b | I]
        b = M([[1, 2, 0], [2, 4, 0], [0, 0, 0]], field)
        a_col = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]], field)  # a column outside those of b
        a_row = M([[1, 0, 0], [2, 0, 0], [0, 0, 0]], field)  # only a row outside those of b
        count = self._count_eliminations(monkeypatch, field)
        for a in (a_col, a_row, M([[0, 0, 0], [0, 0, 0], [0, 0, 1]], field)):
            kernels = ["pivots", "pivots"] if a is a_row else ["pivots"]
            for decide, method in ((leq_diamond, "equational"), (leq_plus, "containment")):
                count.clear()
                v = decide(a, b)
                assert (v.holds, v.method, v.reason) == (False, method, "annihilator containment fails")
                assert count == kernels

    def test_failed_gate_builds_no_projection(self, monkeypatch):
        # containments pass, a*star(b)*a != a*star(a)*a: straight to the rank stage
        import starinv.orders as orders

        def no_projection(*args):
            raise AssertionError("lp or rp built for a canonical stage that cannot succeed")

        gf101 = GF(101)
        pairs = [
            (M([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), M([[2, 0, 0], [0, 1, 0], [0, 0, 0]]), True),
            (M([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), M([[2, 0, 0], [0, 0, 0], [0, 0, 0]]), False),
            (M([[1, 1], [0, 0]], gf101), M([[1, 0], [0, 1]], gf101), True),
        ]
        monkeypatch.setattr(orders, "_projections", no_projection)
        for a, b, holds in pairs:
            g = inner_inverse(b)
            assert b * g * a == a and a * g * b == a
            assert orders._containments(a, b)
            assert a * b.star * a != a * a.star * a
            v = leq_plus(a, b)
            assert (v.holds, v.method) == (holds, "rank")

    def test_kernels_are_the_methods_that_eliminate(self):
        # the _Field methods whose source calls _eliminate, or a method that does
        import inspect
        import re

        from starinv import fields

        calls = collections.defaultdict(set)
        for cls in (fields._Field, fields.RationalField, fields.PrimeField):
            for name, fn in vars(cls).items():
                if inspect.isfunction(fn):
                    calls[name] |= set(re.findall(r"self\.(\w+)\(", inspect.getsource(fn)))
        eliminating = {"_eliminate"}
        while grown := {name for name, called in calls.items() if called & eliminating} - eliminating:
            eliminating |= grown
        assert eliminating - {"_eliminate"} == set(self.KERNELS)

    @staticmethod
    def _eliminate_everywhere(field):
        """Every public route to an elimination, on 3x3 matrices over field."""
        import starinv.matrix as mx

        a, b = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]], field), M([[1, 0, 0], [0, 1, 0], [0, 0, 0]], field)
        c, eye = M([[1, 1, 0], [1, 1, 0], [0, 1, 1]], field), ExactMatrix.identity(3, field)
        for x, y in ((a, b), (a, eye), (c, eye), (c, c + c), (b, a)):
            for relation in (leq_minus, leq_1mp, leq_mp1, leq_diamond, leq_plus):
                try:
                    relation(x, y)
                except (NotMPInvertible, NotRickart):
                    pass
        for build in (lp, rp, dagger, mx.is_mp_invertible, mx.full_rank_factorize, mx.inner_inverse, mx.rref):
            try:
                build(c)
            except (NotMPInvertible, NotRickart):
                pass
        mx.inverse(eye)
        mx.idempotent_rank(a)
        mx.column_space_leq(a, c)
        mx.solve_matrix_equations([([(c, eye)], c)], (3, 3), field)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=["rational", "gf2", "gf3", "gf101"])
    def test_no_elimination_escapes_the_lists(self, field):
        # each listed kernel runs, no elimination runs outside them, and a
        # kernel left out of the list shows as "_eliminate" (rank runs
        # pivots, so it still counts as "pivots" then)
        with pytest.MonkeyPatch.context() as patch:
            count = self._count_eliminations(patch, field)
            self._eliminate_everywhere(field)
        assert set(count) == set(self.KERNELS)
        for missing in ("row_reduce", "pivots", "echelon"):
            with pytest.MonkeyPatch.context() as patch:
                kernels = tuple(k for k in self.KERNELS if k != missing)
                count = self._count_eliminations(patch, field, kernels=kernels)
                self._eliminate_everywhere(field)
            assert "_eliminate" in count and missing not in count


class TestSelfCheckFailures:
    """A corrupted step on a pair that holds raises InternalCheckError, never a negative verdict."""

    FIELDS = [QQ, GF(101)]

    @pytest.mark.parametrize("field", FIELDS, ids=["rational", "gf101"])
    def test_minus_witness_equations(self, monkeypatch, field):
        # a doubled inner inverse keeps its nonzero rows, so the rank test
        # passes, but k = 2g*a*2g gives a*k*a == 4a
        import starinv.matrix as mx

        inner = mx.inner_inverse
        monkeypatch.setattr(mx, "inner_inverse", lambda b: inner(b) + inner(b))
        with pytest.raises(InternalCheckError, match="^minus witness fails its equations$"):
            leq_minus(M([[1, 0], [0, 0]], field), ExactMatrix.identity(2, field))

    @pytest.mark.parametrize("field", FIELDS, ids=["rational", "gf101"])
    def test_minus_idempotent_pair(self, monkeypatch, field):
        # p*b == a == b*q follow from the witness equations in exact
        # arithmetic, so only a wrong product p*b reaches this check;
        # here k = diag(1/2, 0) and p = a*k = diag(1, 0) differ
        a, b = M([[2, 0], [0, 0]], field), M([[2, 0], [0, 1]], field)
        p = a * leq_minus(a, b).witness.inner
        mul = ExactMatrix.__mul__

        def corrupted(x, y):
            out = mul(x, y)
            return out + out if y is b and x == p else out

        monkeypatch.setattr(ExactMatrix, "__mul__", corrupted)
        with pytest.raises(InternalCheckError, match=r"^minus idempotent pair fails p\*b == a == b\*q$"):
            leq_minus(a, b)

    @pytest.mark.parametrize("field", FIELDS, ids=["rational", "gf101"])
    def test_one_mp_witness_equations(self, monkeypatch, field):
        # doubled solves make the witness 4*g*lp(a): x*a*x == 16*x/4 != x
        import starinv.matrix as mx

        solve = mx.inner_solve

        def doubled(b, c):
            pivots, x, inside = solve(b, c)
            return pivots, x + x, inside

        monkeypatch.setattr(mx, "inner_solve", doubled)
        with pytest.raises(InternalCheckError, match="^1MP witness fails its equations$"):
            leq_1mp(M([[1, 0], [0, 0]], field), ExactMatrix.identity(2, field))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda q, a: q + q, "plus witness pair not idempotent"),
            (lambda q, a: ExactMatrix.identity(3, a.field), "plus witness pair fails annihilator matching"),
            (lambda q, a: rp(a), r"plus witness fails a == q_tilde\*b\*q"),
        ],
        ids=["idempotent", "annihilator", "product"],
    )
    @pytest.mark.parametrize("field", FIELDS, ids=["rational", "gf101"])
    def test_plus_rank_witness_checks(self, monkeypatch, field, corrupt, message):
        # the rank stage's q, scattered from V*G, replaced by 2q (not
        # idempotent), by I (idempotent, rank 3 != rank(a)) and by rp(a) (in
        # RP(a), but q_tilde*b*rp(a) != a on this pair)
        import starinv.matrix as mx

        a, b = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]], field), M([[2, 0, 0], [0, 1, 0], [0, 0, 0]], field)
        assert leq_plus(a, b).method == "rank"
        scatter = mx.scatter_rows
        monkeypatch.setattr(mx, "scatter_rows", lambda m, rows, n: corrupt(scatter(m, rows, n), a))
        with pytest.raises(InternalCheckError, match=f"^{message}$"):
            leq_plus(a, b)

    @pytest.mark.parametrize("field", FIELDS, ids=["rational", "gf101"])
    def test_canonical_plus_check(self, monkeypatch, field):
        # lp(a) and rp(a) swapped: both projections, but rp(a)*a*lp(a) != a
        import starinv.orders as orders

        projections = orders._projections
        monkeypatch.setattr(orders, "_projections", lambda a, *sides: projections(a, *sides)[::-1])
        a = M([[1, 1], [0, 0]], field)
        with pytest.raises(InternalCheckError, match=r"^canonical plus witness fails a == lp\(a\)\*b\*rp\(a\)$"):
            leq_plus(a, a)


class TestUnreducedEntries:
    """The constructor packs unreduced GF(p) residues in the canonical form
    that ==, hash and the self-checks of every decision rely on."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except NotMPInvertible as exc:
            return type(exc), str(exc)

    def test_unreduced_gf5_matrices_decide_like_reduced_ones(self):
        f = GF(5)
        rng = random.Random(17)
        cases = [([7, 0, 0, 0], [2, 0, 0, 0]), ([5, -1, 13, 2], [0, 4, 3, 2])]
        for _ in range(30):
            ents = [rng.randrange(5) for _ in range(4)]
            cases.append(([v + 5 * rng.randrange(-3, 4) for v in ents], ents))
        others = [([6, 0, 0, 11], [1, 0, 0, 1]), ([1, 2, 7, -1], [1, 2, 2, 4])]
        for raw, canonical in cases:
            a, c = ExactMatrix(2, 2, raw, f), ExactMatrix(2, 2, canonical, f)
            assert a == c and hash(a) == hash(c) and a.nums == tuple(canonical)
            assert self._outcome(dagger, a) == self._outcome(dagger, c)
            assert inner_inverse(a) == inner_inverse(c)
            for b_raw, b_canonical in [(raw, canonical)] + others:
                b, bc = ExactMatrix(2, 2, b_raw, f), ExactMatrix(2, 2, b_canonical, f)
                for decide in (leq_minus, leq_1mp, leq_mp1, leq_diamond, leq_plus):
                    assert self._outcome(decide, a, b) == self._outcome(decide, c, bc)
                    assert self._outcome(decide, b, a) == self._outcome(decide, bc, c)


class TestDiamondOrder:
    def test_holds_example(self):
        v = leq_diamond(DIAG10, EYE2)
        assert v.holds and v.method == "equational"
        assert v.witness.left_projection == DIAG10

    def test_reflexive(self):
        a = M([[1, 2], [3, 4]])
        assert leq_diamond(a, a).holds

    def test_fails_product_example(self):
        assert not leq_diamond(DIAG10, M([[2, 0], [0, 1]])).holds

    def test_zn_matches_oracle(self):
        ring = zn_ring(6)
        for a in ring.elements:
            for b in ring.elements:
                assert leq_diamond(a, b).holds == ring.rel_diamond(a, b)

    def test_matrix_route_matches_oracle_on_m2gf2(self):
        ring = matrix_star_ring(2)
        for a in ring.elements:
            for b in ring.elements:
                assert leq_diamond(a, b).holds == ring.rel_diamond(a, b)


class TestPlusOrder:
    def test_diamond_pair_via_canonical(self):
        v = leq_plus(DIAG10, EYE2)
        assert v.holds and v.method == "canonical"

    def test_minus_pair_holds(self):
        b = M([[1, 1], [0, 1]])
        assert leq_minus(DIAG10, b).holds
        v = leq_plus(DIAG10, b)
        assert v.holds
        qt, q = v.witness.q_tilde, v.witness.q
        assert qt * b * q == DIAG10

    def test_rank_stage_finds_the_non_canonical_witness(self):
        # neither the canonical pair nor a minus witness works here
        b = M([[2, 0], [0, 1]])
        assert not leq_minus(DIAG10, b).holds
        v = leq_plus(DIAG10, b)
        assert v.holds and v.method == "rank"
        qt, q = v.witness.q_tilde, v.witness.q
        assert qt * qt == qt and q * q == q
        assert qt * b * q == DIAG10

    def test_rank_stage_rejects(self):
        # both invertible: the containments hold, rank(b) - rank(a) == 0 and
        # a - a*inverse(b)*a != 0
        a = M([[1, 1], [0, 1]])
        b = M([[2, 0], [0, 1]])
        v = leq_plus(a, b)
        assert not v.holds and v.method == "rank"

    def test_reflexive(self):
        a = M([[1, 2], [3, 4]])
        assert leq_plus(a, a).holds

    def test_containment_fail(self):
        v = leq_plus(EYE2, DIAG10)
        assert not v.holds and v.method == "containment"

    def test_ladder_matches_oracle_on_m2gf2(self):
        # complete calibration: on every pair the ladder must agree with the
        # exhaustive idempotent-pair scan, also where a has no canonical
        # projections (5 elements, 80 pairs): there the canonical stage is
        # skipped and the containments or the rank stage decide
        ring = matrix_star_ring(2)
        without_projections = collections.Counter()
        for a in ring.elements:
            try:
                lp(a), rp(a)
                rickart = True
            except NotRickart:
                rickart = False
            for b in ring.elements:
                v = leq_plus(a, b)
                assert v.method != "undecided-negative"
                assert v.holds == ring.rel_plus(a, b)
                if not rickart:
                    without_projections[v.method, v.holds] += 1
        assert without_projections == {("rank", True): 35, ("containment", False): 45}

    def test_matrix_route_matches_oracle_on_m2gf3(self):
        ring = matrix_star_ring(3)
        decided = set()
        for a in ring.elements:
            for b in ring.elements:
                v = leq_plus(a, b)
                assert v.holds == ring.rel_plus(a, b)
                decided.add((v.method, v.holds))
        assert {("rank", True), ("rank", False)} <= decided

    def test_matrix_route_matches_brute_force_on_3x3_gf2_sampled(self):
        # LP(a) and RP(a) by scanning every idempotent of M3(GF(2))
        field = GF(2)
        elements = [
            ExactMatrix(3, 3, ents, field) for ents in itertools.product(range(2), repeat=9)
        ]
        idempotents = [e for e in elements if e * e == e]

        def brute_plus(a, b):
            if not (rank(hstack(b, a)) == rank(b) and rank(hstack(b.star, a.star)) == rank(b)):
                return False
            lps = [e for e in idempotents if rank(hstack(e, a)) == rank(e) == rank(a)]
            rps = [e for e in idempotents if rank(hstack(e.star, a.star)) == rank(e) == rank(a)]
            return any(qt * b * q == a for qt in lps for q in rps)

        rng = random.Random(83)
        decided = set()
        for _ in range(300):
            a, b = rng.choice(elements), rng.choice(elements)
            b = b if rng.random() < 0.5 else a + b * a  # bias toward the containments
            v = leq_plus(a, b)
            assert v.holds == brute_plus(a, b)
            decided.add((v.method, v.holds))
        assert {("rank", True), ("rank", False)} <= decided

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_rank_witness_on_rectangular_gf2(self, shape):
        # the rank stage on its own, where the selector of b's pivot columns
        # lives in M_cols, not M_rows; leq_plus still refuses non-square input
        from starinv.orders import _containments, _plus_rank_witness, _verify_plus_witness

        field = GF(2)
        elements = [
            ExactMatrix(*shape, ents, field)
            for ents in itertools.product(range(2), repeat=shape[0] * shape[1])
        ]
        found = collections.Counter()
        for a in elements:
            if rank(a) == 0:
                continue
            for b in elements:
                g = inner_inverse(b)
                inside = b * g * a == a and a * g * b == a
                assert _containments(a, b) == inside
                if not inside:
                    continue
                pair = _plus_rank_witness(a, b, g)
                if pair is not None:
                    _verify_plus_witness(a, b, *pair)
                found[pair is not None] += 1
        # as rel_plus of the zero-padded pairs in m3gf2 says
        assert found == {True: 441, False: 210}

    def test_zn_matches_oracle(self):
        ring = zn_ring(6)
        for a in ring.elements:
            for b in ring.elements:
                assert leq_plus(a, b).holds == ring.rel_plus(a, b)

    def test_zn_empty_family_refuses(self):
        # in Z_4 the only idempotents are 0 and 1, and neither shares 2's annihilator {0, 2}
        with pytest.raises(NotRickart):
            leq_plus(z(2, 4), z(2, 4))

    def test_operand_checks(self):
        a = M([[1, 0, 0], [0, 0, 0]])
        b = M([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(DimensionMismatch):
            leq_plus(a, b)
        with pytest.raises(RingMismatch, match="same ring"):
            leq_plus(DIAG10, z(1))

    def test_zero_below_everything(self):
        rng = random.Random(29)
        zero = ExactMatrix.zeros(2, 2)
        for _ in range(20):
            b = random_rational_matrix(rng, 2, 2)
            assert leq_plus(zero, b).holds
            assert leq_minus(zero, b).holds
            assert leq_1mp(zero, b).holds
            assert leq_mp1(zero, b).holds
            assert leq_diamond(zero, b).holds


def _reference_plus_rank_witness(a, b, inner):
    """The rank stage as it was with one exact rank per candidate column.

    Kept as a reference: orders._plus_rank_witness must pick the same
    columns, so its verdicts and witnesses are byte-identical to these.
    """
    from starinv.matrix import full_rank_factorize, select
    from starinv.orders import _verify_plus_witness

    def columns(m, cols):
        return select(m, range(m.rows), cols)

    def adds_rank(m, v):
        return rank(hstack(m, v)) > m.cols

    field = a.field
    fa = full_rank_factorize(a)
    r, f, g = fa.r, fa.f, fa.g
    m = inner.cols
    pivots = [i for i in range(inner.rows) if any(inner.nums[i * m : (i + 1) * m])]
    r_b, l_b = len(pivots), select(inner, pivots, range(m))
    s = l_b * f
    t = columns(g, pivots)
    d = ExactMatrix.identity(r, field) - t * s
    rank_d = rank(d)
    if rank_d > r_b - r:
        return None
    h = d * t
    eye_b = ExactMatrix.identity(r_b, field)
    units = [columns(eye_b, [j]) for j in range(r_b)]
    sv, hv = s, ExactMatrix(r, 0, [], field)
    for _ in range(rank_d):
        u = next(e for e in units if adds_rank(sv, e))
        w = next(e for e in units if adds_rank(hv, h * e))
        pick = next(c for c in (u, w, u + w) if adds_rank(sv, c) and adds_rank(hv, h * c))
        sv, hv = hstack(sv, pick), hstack(hv, h * pick)
    l_sv = select(inner_inverse(sv), range(r), range(r_b))
    u = t + d * l_sv
    p = eye_b - s * u
    v = s + p * inner_inverse(t * p) * d
    r_b_sel = columns(ExactMatrix.identity(a.cols, field), pivots)
    return _verify_plus_witness(a, b, f * u * l_b, r_b_sel * v * g, r)


class TestRankStageAgainstReference:
    """The running-echelon rank stage against the per-candidate rank loop."""

    @staticmethod
    def _matrix(rng, n, m, field):
        if field is QQ:
            ents = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n * m)]
        else:
            ents = [rng.randrange(field.p) for _ in range(n * m)]
        return ExactMatrix(n, m, ents, field)

    def _plus_kind(self, rng, a, field):
        """b = plus_block_compose(a, data) on random corner data, or None."""
        n = a.rows
        eye = ExactMatrix.identity(n, field)
        la, ra = lp(a), rp(a)

        def rand():
            return self._matrix(rng, n, n, field)

        data = PlusBlockData(
            b22=(eye - la) * rand() * (eye - ra),
            y=la * rand() * (eye - la),
            x=(eye - ra) * rand() * ra,
            w=(eye - la) * rand() * ra,
            z=la * rand() * (eye - ra),
        )
        try:
            return plus_block_compose(a, data)
        except ConditionFailure:
            return None

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=["rational", "gf3", "gf101"])
    def test_same_verdicts_and_witnesses(self, field):
        from starinv.orders import _containments, _plus_rank_witness

        rng = random.Random(53)
        outcomes = collections.Counter()
        for n in range(2, 9):
            for _ in range(4):
                a = self._matrix(rng, n, rng.randint(1, n - 1), field)
                a = a * self._matrix(rng, a.cols, n, field)
                if rank(a) == 0:
                    continue
                candidates = [a + self._matrix(rng, n, n, field)]
                try:
                    candidates.append(self._plus_kind(rng, a, field))
                except (NotMPInvertible, NotRickart):
                    pass  # no lp(a) or rp(a) to build corners from
                for b in filter(None, candidates):
                    g = inner_inverse(b)
                    inside = b * g * a == a and a * g * b == a
                    assert _containments(a, b) == inside
                    if not inside:
                        continue
                    new, old = _plus_rank_witness(a, b, g), _reference_plus_rank_witness(a, b, g)
                    assert new == old
                    if new is not None:
                        assert all((x.nums, x.den) == (y.nums, y.den) for x, y in zip(new, old))
                    outcomes[new is not None] += 1
        assert outcomes[True] >= 20 and outcomes[False] >= 1, outcomes


def _reference_projections(a):
    """[lp(a), rp(a)] by the factorisation formulas, each a refusal text where it has none.

    With a = F*G from full_rank_factorize: F*(F^T F)^{-1}*F^T and
    G^T*(G G^T)^{-1}*G, each Gram matrix inverted on its own.  Kept as a
    reference: orders._projections builds both from forward eliminations of
    a and star(a) instead, and must give the same bytes and refusals.
    """
    fact = full_rank_factorize(a)
    out = []
    for side, c in (("left", fact.f), ("right", fact.g.star)):
        try:
            out.append(c * inverse(c.star * c) * c.star)
        except ZeroDivisionError:
            out.append(f"no projection matches the {side} annihilator over {a.field.name}")
    return out


class TestRightProjectionFromG:
    """lp(a) and rp(a) against the factorisation formulas; rp(a) equals lp(star(a)), refusals included."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=["rational", "gf2", "gf3", "gf5"])
    def test_lp_and_rp_match_the_factorisation_formulas(self, field):
        rng = random.Random(67)
        seen = collections.Counter()
        for _ in range(150):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            inner = rng.randint(0, min(rows, cols))
            a = TestRankStageAgainstReference._matrix(rng, rows, inner, field)
            a = a * TestRankStageAgainstReference._matrix(rng, inner, cols, field)
            for build, expected in zip((lp, rp), _reference_projections(a)):
                if isinstance(expected, str):
                    with pytest.raises(NotRickart) as info:
                        build(a)
                    assert str(info.value) == expected
                    seen["refused"] += 1
                    continue
                got = build(a)
                assert (got.shape, got.nums, got.den) == (expected.shape, expected.nums, expected.den)
                seen["built"] += 1
        assert seen["built"] >= 100
        if field.name in ("gf:2", "gf:3"):
            assert seen["refused"] >= 10

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=["rational", "gf2", "gf3", "gf5"])
    def test_rp_is_lp_of_the_star(self, field):
        rng = random.Random(61)
        seen = collections.Counter()
        for _ in range(150):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            inner = rng.randint(1, min(rows, cols))
            a = TestRankStageAgainstReference._matrix(rng, rows, inner, field)
            a = a * TestRankStageAgainstReference._matrix(rng, inner, cols, field)
            try:
                expected = lp(a.star)
            except NotRickart as exc:
                with pytest.raises(NotRickart) as info:
                    rp(a)
                message = f"no projection matches the right annihilator over {field.name}"
                assert str(info.value) == str(exc).replace("left", "right") == message
                seen["refused"] += 1
                continue
            got = rp(a)
            assert (got.shape, got.nums, got.den) == (expected.shape, expected.nums, expected.den)
            seen["built"] += 1
        assert seen["built"] >= 50
        if field.name in ("gf:2", "gf:3"):
            assert seen["refused"] >= 5


class TestAbove1MP:
    def test_trivial_form(self):
        a = M([[1, 2], [2, 4]])
        zero = ExactMatrix.zeros(2, 2)
        assert above_1mp(a, OneMPAboveForm(zero, zero)) == a

    def test_frozen_example(self):
        b4 = M([[0, 0], [0, 1]])
        zero = ExactMatrix.zeros(2, 2)
        assert above_1mp(DIAG10, OneMPAboveForm(b4, zero)) == EYE2

    def test_corner_violation(self):
        with pytest.raises(CornerViolation):
            above_1mp(DIAG10, OneMPAboveForm(M([[1, 0], [0, 0]]), ExactMatrix.zeros(2, 2)))

    def test_z6_above_set_via_corners(self):
        ring = zn_ring(6)
        a = z(2)
        d = ring.dagger_of(a)
        p = a * d
        q = d * a
        assert p == z(4) and q == z(4)
        one = ring.one
        c22 = ring.corner(one - p, one - q)
        c21 = ring.corner(one - q, p)
        assert c22 == frozenset({z(0), z(3)})
        assert c21 == frozenset({z(0)})
        image = {above_1mp(a, OneMPAboveForm(b4, dd)) for b4 in c22 for dd in c21}
        assert image == {b for b in ring.elements if leq_1mp(a, b).holds} == {z(2), z(5)}

    def test_postcondition_randomized(self):
        rng = random.Random(37)
        eye = ExactMatrix.identity(3)
        for _ in range(50):
            a = random_singular_matrix(rng, 3, rng.randint(1, 2))
            d = dagger(a)
            p = a * d
            q = d * a
            b4 = (eye - p) * random_rational_matrix(rng, 3, 3) * (eye - q)
            dd = (eye - q) * random_rational_matrix(rng, 3, 3) * p
            b = above_1mp(a, OneMPAboveForm(b4, dd))
            assert leq_1mp(a, b).holds


class TestAboveMP1:
    def test_trivial_form(self):
        a = M([[1, 2], [2, 4]])
        zero = ExactMatrix.zeros(2, 2)
        assert above_mp1(a, OneMPAboveForm(zero, zero)) == a

    def test_nilpotent_example(self):
        a = M([[0, 1], [0, 0]])
        b4 = M([[0, 0], [1, 0]])
        d = M([[0, 0], [0, 1]])
        b = above_mp1(a, OneMPAboveForm(b4, d))
        assert b == M([[-1, 1], [1, 0]])
        assert leq_mp1(a, b).holds

    def test_transpose_transport(self):
        rng = random.Random(41)
        eye = ExactMatrix.identity(3)
        for _ in range(30):
            a = random_singular_matrix(rng, 3, rng.randint(1, 2))
            d = dagger(a)
            p = a * d
            q = d * a
            b4 = (eye - p) * random_rational_matrix(rng, 3, 3) * (eye - q)
            dd = q * random_rational_matrix(rng, 3, 3) * (eye - p)
            b = above_mp1(a, OneMPAboveForm(b4, dd))
            # same construction through the transpose anti-isomorphism
            b_t = above_1mp(a.star, OneMPAboveForm(b4.star, dd.star))
            assert b == b_t.star

    def test_forms_sweep_the_oracle_rows_on_m2gf3(self):
        # the corners come from the oracle's dagger and the elements above a
        # from its own MP1 table, so the star transport is checked, not restated
        ring = matrix_star_ring(3)
        rows, one = ring.rel_rows("mp1"), ring.one
        for a in ring.mp_invertible:
            d = ring.dagger_of(a)
            p, q = a * d, d * a
            above = {
                ring.index[above_mp1(a, OneMPAboveForm(b4, dd))]
                for b4 in ring.corner(one - p, one - q)
                for dd in ring.corner(q, one - p)
            }
            assert above == set(bit_indices(rows[ring.index[a]])), a

    def test_rp_family_sweeps_the_oracle_on_m2gf3(self):
        ring = matrix_star_ring(3)
        for a in ring.elements:
            ra = ring.rp(a)  # no nonzero x*x + y*y is 0 mod 3, so every rp(a) exists
            members = {rp_family_member(a, q1) for q1 in ring.corner(ring.one - ra, ra)}
            assert members == set(ring.rp_members(a)), a

    def test_corner_violation(self):
        with pytest.raises(CornerViolation):
            above_mp1(DIAG10, OneMPAboveForm(M([[1, 0], [0, 0]]), ExactMatrix.zeros(2, 2)))


class TestUpperInverseCheck:
    def test_dagger_of_b_passes(self):
        b4 = M([[0, 0], [0, 3]])
        d = M([[0, 0], [5, 0]])
        b = above_1mp(DIAG10, OneMPAboveForm(b4, d))
        assert b_1mp_inverse_check(DIAG10, b, dagger(b))

    def test_bad_x3_fails_both_routes(self):
        b4 = M([[0, 0], [0, 3]])
        d = M([[0, 0], [5, 0]])
        b = above_1mp(DIAG10, OneMPAboveForm(b4, d))
        # x3 chosen so that b4*x3 != b4*d
        x = dagger(DIAG10) + M([[0, 0], [1, 0]]) + dagger(b4)
        assert not b_1mp_inverse_check(DIAG10, b, x)
        assert not is_member(b, x, {1, 2, 3})

    def test_requires_order(self):
        with pytest.raises(OrderViolation):
            b_1mp_inverse_check(DIAG10, M([[1, 1], [0, 1]]), EYE2)

    def test_exhaustive_agreement_m2gf2(self):
        ring = matrix_star_ring(2)
        one = ring.one
        pairs = 0
        for a in ring.mp_invertible:
            d = ring.dagger_of(a)
            p = a * d
            q = d * a
            for b4 in ring.corner(one - p, one - q):
                for dd in ring.corner(one - q, p):
                    b = a - b4 * dd * a + b4
                    if ring.dagger_of(b) is None:
                        continue
                    pairs += 1
                    for x in ring.elements:
                        assert b_1mp_inverse_check(a, b, x) == is_member(b, x, {1, 2, 3})
        assert pairs > 0


class TestPlusBlockCompose:
    def test_trivial(self):
        a = M([[1, 2], [2, 4]])
        zero = ExactMatrix.zeros(2, 2)
        assert plus_block_compose_helper(a, zero, zero, zero, zero, zero) == a

    def test_frozen_example(self):
        zero = ExactMatrix.zeros(2, 2)
        b22 = M([[0, 0], [0, 1]])
        b = plus_block_compose_helper(DIAG10, b22, zero, zero, zero, zero)
        assert b == EYE2
        assert leq_plus(DIAG10, b).holds

    def test_left_condition_failure(self):
        zero = ExactMatrix.zeros(2, 2)
        w = M([[0, 0], [1, 0]])
        with pytest.raises(ConditionFailure) as err:
            plus_block_compose_helper(DIAG10, zero, zero, zero, w, zero)
        assert err.value.side == "left"

    def test_right_condition_failure(self):
        zero = ExactMatrix.zeros(2, 2)
        zz = M([[0, 1], [0, 0]])
        with pytest.raises(ConditionFailure) as err:
            plus_block_compose_helper(DIAG10, zero, zero, zero, zero, zz)
        assert err.value.side == "right"

    def test_corner_violation(self):
        zero = ExactMatrix.zeros(2, 2)
        with pytest.raises(CornerViolation):
            plus_block_compose_helper(DIAG10, EYE2, zero, zero, zero, zero)

    def test_composed_pairs_always_hold(self):
        # every pair built with a known witness is decided positively
        rng = random.Random(43)
        eye = ExactMatrix.identity(3)
        produced = 0
        for _ in range(60):
            a = random_singular_matrix(rng, 3, rng.randint(1, 2))
            la = lp(a)
            ra = rp(a)
            def corner(left, right):
                return left * random_rational_matrix(rng, 3, 3) * right
            data = PlusBlockData(
                b22=corner(eye - la, eye - ra),
                y=corner(la, eye - la),
                x=corner(eye - ra, ra),
                w=corner(eye - la, ra),
                z=corner(la, eye - ra),
            )
            try:
                b = plus_block_compose(a, data)
            except ConditionFailure:
                continue
            produced += 1
            v = leq_plus(a, b)
            assert v.holds
            assert v.witness.q_tilde * b * v.witness.q == a
        assert produced > 0


def plus_block_compose_helper(a, b22, y, x, w, zz):
    from starinv import plus_block_compose

    return plus_block_compose(a, PlusBlockData(b22=b22, y=y, x=x, w=w, z=zz))


class TestZnWitnesses:
    """On Z_n the minus witness is dagger(a), the one inner inverse x of a
    with x*a*x == x, whenever some inner inverse identifies a and b; the plus
    witness is the first (q_tilde, q) in LP(a) x RP(a) with
    a == q_tilde*b*q.  Both are found here by plain loops over the elements."""

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_first_candidates(self, n):
        els = zn_ring(n).elements
        zero = els[0]

        def left_ann(x):
            return {u for u in els if u * x == zero}

        def right_ann(x):
            return {u for u in els if x * u == zero}

        idempotents = [e for e in els if e * e == e]
        for a in els:
            inners = [x for x in els if a * x * a == a]
            reflexive = [x for x in inners if x * a * x == x]
            lps = [e for e in idempotents if left_ann(e) == left_ann(a)]
            rps = [e for e in idempotents if right_ann(e) == right_ann(a)]
            for b in els:
                minus = next((x for x in inners if x * a == x * b and a * x == b * x), None)
                if not inners:
                    with pytest.raises(NotRegular):
                        leq_minus(a, b)
                else:
                    v = leq_minus(a, b)
                    assert v.holds == (minus is not None) and v.method == "dagger"
                    if v.holds:
                        assert [v.witness.inner] == reflexive
                contained = left_ann(b) <= left_ann(a) and right_ann(b) <= right_ann(a)
                plus = next(
                    ((qt, q) for qt in lps for q in rps if contained and qt * b * q == a), None
                )
                if not (lps and rps):
                    with pytest.raises(NotRickart):
                        leq_plus(a, b)
                else:
                    v = leq_plus(a, b)
                    assert (tuple(v.witness) if v.holds else None) == plus
                    assert v.method in ("containment", "canonical")


class TestGF3Calibration:
    def test_matrix_routes_match_oracle_sampled(self):
        # exercise the GF(3) Gram and rank paths of every relation
        # against the exhaustive oracle on seeded pairs
        ring = matrix_star_ring(3)
        rng = random.Random(53)
        mp_set = set(ring.mp_invertible)
        pairs = [(rng.choice(ring.elements), rng.choice(ring.elements)) for _ in range(400)]
        for a, b in pairs:
            assert leq_minus(a, b).holds == ring.rel_minus(a, b)
            assert leq_diamond(a, b).holds == ring.rel_diamond(a, b)
            if a in mp_set:
                assert leq_1mp(a, b).holds == ring.rel_1mp(a, b)
                assert leq_mp1(a, b).holds == ring.rel_mp1(a, b)
            verdict = leq_plus(a, b)
            assert verdict.method != "undecided-negative"
            assert verdict.holds == ring.rel_plus(a, b)


class TestOperandDispatch:
    @pytest.mark.parametrize("relation", [leq_1mp, leq_mp1, leq_minus, leq_diamond, leq_plus])
    def test_mixed_ring_pair_is_a_ring_mismatch(self, relation):
        a = M([[1, 0], [0, 0]])
        pairs = [
            (a, z(1), "same ring"),
            (z(1), a, "same ring"),
            (z(1), z(1, 8), "modulus mismatch"),
            (a, M([[1, 0], [0, 0]], GF(3)), "field mismatch"),
        ]
        for x, y, message in pairs:
            with pytest.raises(RingMismatch, match=message):
                relation(x, y)

    @pytest.mark.parametrize(
        "call",
        [
            leq_1mp,
            leq_mp1,
            leq_minus,
            leq_diamond,
            leq_plus,
            lambda a, b: lp(a),
            lambda a, b: rp(a),
            lambda a, b: dagger(a),
        ],
        ids=["leq_1mp", "leq_mp1", "leq_minus", "leq_diamond", "leq_plus", "lp", "rp", "dagger"],
    )
    def test_unsupported_operand_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="int"):
            call(1, 1)


class TestInheritance:
    def test_upper_inverses_shrink_to_lower_family_sampled(self):
        # a below b: products z*a*y with y, z from b's family land in a's family
        from starinv import family_1mp
        from starinv.inverses import is_one_mp

        rng = random.Random(47)
        eye = ExactMatrix.identity(3)
        for _ in range(25):
            a = random_singular_matrix(rng, 3, rng.randint(1, 2))
            d = dagger(a)
            p = a * d
            q = d * a
            b4 = (eye - p) * random_rational_matrix(rng, 3, 3) * (eye - q)
            dd = (eye - q) * random_rational_matrix(rng, 3, 3) * p
            b = above_1mp(a, OneMPAboveForm(b4, dd))
            fam_b = family_1mp(b, dagger(b))
            y = fam_b.at(random_rational_matrix(rng, 3, 3))
            zz = fam_b.at(random_rational_matrix(rng, 3, 3))
            assert is_one_mp(a, zz * a * y, d)


class TestAxiomSuite:
    def test_z6_1mp(self):
        rep = order_axiom_suite(zn_ring(6), "1mp")
        assert rep.passed and rep.checked > 0

    def test_z8_minus(self):
        rep = order_axiom_suite(zn_ring(8), "minus")
        assert rep.passed

    def test_m2gf2_plus(self):
        rep = order_axiom_suite(matrix_star_ring(2), "plus")
        assert rep.passed and rep.checked > 0

    def test_z8_plus_skipped(self):
        rep = order_axiom_suite(zn_ring(8), "plus")
        assert rep.passed and rep.checked == 0
        assert any("undefined" in note for note in rep.notes)

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            order_axiom_suite(zn_ring(6), "sharp")

    @pytest.mark.parametrize("relation", ["1mp", "diamond"])
    @pytest.mark.parametrize("name", ["z12", "m2gf2", "z101"])
    def test_non_transitive_relation_matches_a_triple_loop(self, name, relation):
        # z101 has 101^3 > 10^6 triples: the whole product is still walked
        base = ring_by_name(name)
        ring = FiniteStarRing(base.name, base.elements, base.zero, base.one)
        rng = random.Random(90731)
        related = {
            (x, y) for x in range(ring.n) for y in range(ring.n) if rng.random() < 0.4
        }

        def rel(x, y):
            return (x, y) in related

        # a fixed, non-transitive relation, injected as the suite reads it
        rows = tuple(sum(1 << y for y in range(ring.n) if rel(x, y)) for x in range(ring.n))
        ring.rel_rows = {relation: rows}.__getitem__
        domain = ring.structure().mp_invertible if relation == "1mp" else range(ring.n)
        els = ring.elements
        violations = []
        checked = 0
        for x in domain:
            checked += 1
            if not rel(x, x):
                violations.append(("reflexivity", els[x]))
        for x in domain:
            for y in domain:
                checked += 1
                if x != y and rel(x, y) and rel(y, x):
                    violations.append(("antisymmetry", els[x], els[y]))
        for x in domain:
            for y in domain:
                for w in domain:
                    checked += 1
                    if rel(x, y) and rel(y, w) and not rel(x, w):
                        violations.append(("transitivity", els[x], els[y], els[w]))
        assert any(v[0] == "transitivity" for v in violations)

        # the sweep's whole stream, in the triple loop's order
        sweep_checked, stream, sweep_notes = _order_axioms(ring, relation)
        assert list(stream) == violations
        assert sweep_checked == checked and sweep_notes == []

        # the suite stores its first violations and notes the exact total
        rep = order_axiom_suite(ring, relation)
        assert rep.violations == tuple(violations[:MAX_STORED_VIOLATIONS])
        assert rep.checked == checked
        total = f"{len(violations)} violations total; first {MAX_STORED_VIOLATIONS} stored"
        assert rep.notes == ((total,) if len(violations) > MAX_STORED_VIOLATIONS else ())
        assert not rep.passed and not rep.sampled

    def test_total_note_counts_every_violation(self):
        base = zn_ring(200)
        ring = FiniteStarRing(base.name, base.elements, base.zero, base.one)
        # i relates to j when i == j or i + j is odd: i -> j -> k breaks
        # transitivity for each of the 99 k != i of i's parity
        rows = tuple(sum(1 << j for j in range(200) if i == j or (i + j) % 2 == 1) for i in range(200))
        ring.rel_rows = {"diamond": rows}.__getitem__
        kinds = collections.Counter(v[0] for v in _order_axioms(ring, "diamond")[1])
        assert kinds == {"antisymmetry": 200 * 100, "transitivity": 200 * 100 * 99}
        rep = order_axiom_suite(ring, "diamond")
        els = ring.elements
        # the first 20 are the antisymmetric pairs (0, j), j odd
        assert len(rep.violations) == MAX_STORED_VIOLATIONS == 20
        assert rep.violations == tuple(("antisymmetry", els[0], els[j]) for j in range(1, 40, 2))
        assert rep.checked == 200 + 200**2 + 200**3 == 8_040_200
        assert rep.notes == ("2000000 violations total; first 20 stored",)


class TestInCorner:
    def test_corner_membership(self):
        e = M([[1, 0], [0, 0]])
        assert in_corner(M([[7, 0], [0, 0]]), e, e, 1, 1)
        assert in_corner(M([[0, 7], [0, 0]]), e, e, 1, 2)
        assert in_corner(M([[0, 0], [7, 0]]), e, e, 2, 1)
        assert in_corner(M([[0, 0], [0, 7]]), e, e, 2, 2)
        assert not in_corner(M([[7, 1], [0, 0]]), e, e, 1, 1)
