"""The five inverse-induced relations: 1MP, MP1, minus, diamond, plus.

Decision routes differ by backend.  Matrices are decided structurally (rank
arithmetic, one inner inverse of b from a single row reduction,
annihilator-matching projections); exact linear solves remain only in the
plus-order ladder and in the independent routes of leq_1mp_routes.  Modular
rings are decided by exhaustive witness scans through their FiniteStarRing.
Annihilator containment is the one backend-specific test shared by several
relations; it is decided in _left_ann_leq/_right_ann_leq and nowhere else.
Every positive verdict carries a witness that has been re-verified against
the defining equations of the relation, so a structural shortcut can never
silently disagree with the definition.

Verdict method tags:
    minus    "rank" | "exhaustive"
    1mp      "minus-dagger" | "exhaustive"
    mp1      "transpose-dual" | "exhaustive"
    diamond  "equational"
    plus     "canonical" | "minus-shortcut" | "right-solve" | "left-solve" |
             "corner-search" | "undecided-negative" | "containment" |
             "exhaustive"

"undecided-negative" is an honest verdict: over the rationals no complete
decision procedure for the bilinear plus-order witness problem is
implemented, and the structured search may fail to find a witness that
exists.  Over small prime fields the corner search is exhaustive, hence
definitive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import matrix as mx
from .errors import (
    ConditionFailure,
    CornerViolation,
    DimensionMismatch,
    InternalCheckError,
    NotMPInvertible,
    NotRegular,
    NotRickart,
    OrderViolation,
    RingMismatch,
)
from .finite import FiniteStarRing, TheoremReport, ZnElement, capped_tuples, zn_ring
from .inverses import dagger, is_mp_one, is_one_mp
from .matrix import ExactMatrix, column_space_leq, row_space_leq, solve_matrix_equations
from .ring import OppositeView, in_corner

PLUS_CORNER_ENUM_CAP = 768


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an order query: verdict, certifying witness, deciding route."""

    holds: bool
    witness: object = None
    method: str = ""
    reason: Optional[str] = None


class MinusWitness(NamedTuple):
    inner: object  # a_minus with a_minus*a == a_minus*b and a*a_minus == b*a_minus
    p: object  # idempotent a*a_minus, satisfies p*b == a
    q: object  # idempotent a_minus*a, satisfies b*q == a


class OneMPWitness(NamedTuple):
    x: object  # 1MP-inverse with x*a == x*b and a*x == b*x


class MP1Witness(NamedTuple):
    x: object  # MP1-inverse with x*a == x*b and a*x == b*x


class PlusWitness(NamedTuple):
    q_tilde: object  # idempotent in LP(a)
    q: object  # idempotent in RP(a); a == q_tilde * b * q


class DiamondWitness(NamedTuple):
    left_projection: object  # lp(a)
    right_projection: object  # rp(a); a == lp(a) * b * rp(a)


# -- lp / rp ------------------------------------------------------------------


def lp(a):
    """The unique projection whose left annihilator matches that of a.

    Matrices: built from a column basis F as F*(F^T F)^{-1}*F^T; exists iff
    that Gram matrix is nonsingular (always over the rationals).  Modular
    rings: located by scanning all projections.

    Raises:
        NotRickart: no such projection exists.
    """
    return _left_projection(a, "left")


def rp(a):
    """The unique projection whose right annihilator matches that of a.

    It is lp(star(a)): the right annihilator of a is the star of the left
    annihilator of star(a), and projections are self-adjoint.
    """
    return _left_projection(a.star, "right")


def _left_projection(a, side):
    """lp(a); `side` names the annihilator of the caller's element in errors."""
    if isinstance(a, ExactMatrix):
        fact = mx.full_rank_factorize(a)
        if fact.r == 0:
            return ExactMatrix.zeros(a.rows, a.rows, a.field)
        f = fact.f_matrix()
        try:
            gram_inv = mx.inverse(f.star * f)
        except ZeroDivisionError:
            raise NotRickart(
                f"no projection matches the {side} annihilator over {a.field.name}"
            ) from None
        e = f * gram_inv * f.star
        if not (e * e == e and e.star == e and _left_ann_equal(e, a)):
            raise InternalCheckError(f"{side[0]}p construction failed verification")
        return e
    if isinstance(a, ZnElement):
        e = zn_ring(a.modulus).lp(a)
        if e is None:
            raise NotRickart(f"no projection matches the {side} annihilator of {a!r}")
        return e
    raise TypeError(f"{side[0]}p not supported for {type(a).__name__}")


def _left_ann_leq(b, t) -> bool:
    """Whether the left annihilator of b is contained in that of t."""
    if isinstance(b, ExactMatrix):
        return column_space_leq(t, b)
    ring = zn_ring(b.modulus)
    return ring.left_ann(b) <= ring.left_ann(t)


def _right_ann_leq(b, t) -> bool:
    """Whether the right annihilator of b is contained in that of t."""
    if isinstance(b, ExactMatrix):
        return row_space_leq(t, b)
    ring = zn_ring(b.modulus)
    return ring.right_ann(b) <= ring.right_ann(t)


def _left_ann_equal(x, y) -> bool:
    return _left_ann_leq(x, y) and _left_ann_leq(y, x)


def _right_ann_equal(x, y) -> bool:
    return _right_ann_leq(x, y) and _right_ann_leq(y, x)


def _containments(a, b) -> bool:
    """The annihilator containments of b inside those of a, on both sides."""
    return _left_ann_leq(b, a) and _right_ann_leq(b, a)


def lp_family_member(a, p1):
    """lp(a) + p1 for p1 in the upper-right corner: an idempotent in LP(a)."""
    la = lp(a)
    if not in_corner(p1, la, la, 1, 2):
        raise CornerViolation("p1 must lie in lp(a)*R*(1 - lp(a))")
    e = la + p1
    if not (e * e == e and _left_ann_equal(e, a)):
        raise InternalCheckError("lp family member failed verification")
    return e


def rp_family_member(a, q1):
    """rp(a) + q1 for q1 in the lower-left corner: an idempotent in RP(a)."""
    ra = rp(a)
    if not in_corner(q1, ra, ra, 2, 1):
        raise CornerViolation("q1 must lie in (1 - rp(a))*R*rp(a)")
    e = ra + q1
    if not (e * e == e and _right_ann_equal(e, a)):
        raise InternalCheckError("rp family member failed verification")
    return e


# -- shared helpers -------------------------------------------------------------


def _require_square_pair(a, b):
    if not isinstance(b, ExactMatrix):
        raise RingMismatch("operands must live in the same ring")
    if a.field != b.field:
        raise RingMismatch(f"field mismatch: {a.field.name} vs {b.field.name}")
    if not (a.is_square and a.shape == b.shape):
        raise DimensionMismatch(
            "order relations need square matrices of equal size; "
            "zero-pad rectangular inputs first"
        )


def _zn_pair_ring(a, b) -> FiniteStarRing:
    if not isinstance(b, ZnElement):
        raise RingMismatch("operands must live in the same ring")
    if a.modulus != b.modulus:
        raise RingMismatch(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    return zn_ring(a.modulus)


def _order_equations_hold(x, a, b) -> bool:
    return x * a == x * b and a * x == b * x


def _first_identifying(ring, a, b, candidates):
    """The first candidate x with x*a == x*b and a*x == b*x, or None."""
    mul = ring.mul
    for x in candidates:
        if mul(x, a) == mul(x, b) and mul(a, x) == mul(b, x):
            return x
    return None


def _canonical_first(candidates, canonical):
    """Deterministic witness scan order with the Moore-Penrose inverse first."""
    ordered = sorted(candidates, key=lambda e: e.value)
    if canonical in candidates:
        ordered.remove(canonical)
        ordered.insert(0, canonical)
    return ordered


# -- minus order ----------------------------------------------------------------


def leq_minus(a, b) -> OrderVerdict:
    """a <= b in the minus order: some inner inverse of a identifies a and b.

    Matrix route: the classical rank-subtractivity test
    rank(b - a) == rank(b) - rank(a).  When it passes, a*g*a == a and
    a*g*b == a == b*g*a for every inner inverse g of b (Hartwig 1980), so
    k = g*a*g built from one inner inverse of b is a witness; it is
    re-verified.  When b is invertible the witness is unique; otherwise k is
    one of several.
    """
    if isinstance(a, ExactMatrix):
        _require_square_pair(a, b)
        if mx.rank(b - a) != mx.rank(b) - mx.rank(a):
            return OrderVerdict(False, None, "rank", "rank(b - a) != rank(b) - rank(a)")
        g = mx.inner_inverse(b)
        return OrderVerdict(True, _minus_witness(a, b, g * a * g), "rank")
    if isinstance(a, ZnElement):
        ring = _zn_pair_ring(a, b)
        inners = ring.inner_inverses(a)
        if not inners:
            raise NotRegular(f"{a!r} has no inner inverse")
        k = _first_identifying(ring, a, b, inners)
        if k is None:
            return OrderVerdict(False, None, "exhaustive", "no inner inverse identifies a and b")
        return OrderVerdict(True, _minus_witness(a, b, k), "exhaustive")
    raise TypeError(f"leq_minus not supported for {type(a).__name__}")


def _minus_witness(a, b, k) -> MinusWitness:
    if not (a * k * a == a and k * a == k * b and a * k == b * k):
        raise InternalCheckError("minus witness fails its equations")
    p = a * k
    q = k * a
    if not (p * b == a and b * q == a):
        raise InternalCheckError("minus idempotent pair fails p*b == a == b*q")
    return MinusWitness(k, p, q)


# -- 1MP order -------------------------------------------------------------------


def leq_1mp(a, b) -> OrderVerdict:
    """a <= b in the 1MP order: some 1MP-inverse of a identifies a and b.

    Matrix route: a <= b in the minus order together with
    dagger(a)*b == dagger(a)*a; the witness k*a*dagger(a) built from the
    minus witness is re-verified against the defining equations.
    """
    if isinstance(a, ExactMatrix):
        _require_square_pair(a, b)
        a_dag = dagger(a)
        minus = leq_minus(a, b)
        if not minus.holds:
            return OrderVerdict(False, None, "minus-dagger", minus.reason)
        if a_dag * b != a_dag * a:
            return OrderVerdict(False, None, "minus-dagger", "dagger(a)*b != dagger(a)*a")
        x = minus.witness.inner * a * a_dag
        if not (is_one_mp(a, x, a_dag) and _order_equations_hold(x, a, b)):
            raise InternalCheckError("1MP witness fails its equations")
        return OrderVerdict(True, OneMPWitness(x), "minus-dagger")
    if isinstance(a, ZnElement):
        ring = _zn_pair_ring(a, b)
        candidates = ring.one_mp_set(a)
        if not candidates:
            raise NotMPInvertible(f"{a!r} has no Moore-Penrose inverse")
        x = _first_identifying(ring, a, b, _canonical_first(candidates, ring.dagger_of(a)))
        if x is None:
            return OrderVerdict(False, None, "exhaustive", "no 1MP-inverse identifies a and b")
        return OrderVerdict(True, OneMPWitness(x), "exhaustive")
    if isinstance(a, OppositeView):
        v = leq_mp1(a.base, b.base)
        witness = OneMPWitness(OppositeView(v.witness.x)) if v.holds else None
        return OrderVerdict(v.holds, witness, v.method, v.reason)
    raise TypeError(f"leq_1mp not supported for {type(a).__name__}")


def leq_1mp_routes(a, b) -> dict:
    """The three independent matrix decision routes for the 1MP order.

    "definition": an exact linear solve for x == dagger(a) + d over the
    lower-left corner such that x identifies a and b.
    "minus-dagger": the route used by leq_1mp.
    "shared-inner": a*dagger(a)*b == a and an exact linear solve for an inner
    inverse k with b*k*a == a.
    """
    _require_square_pair(a, b)
    field = a.field
    n = a.rows
    eye = ExactMatrix.identity(n, field)
    zero = ExactMatrix.zeros(n, n, field)
    a_dag = dagger(a)
    p = a * a_dag
    q = a_dag * a

    d = solve_matrix_equations(
        [
            ([(eye, a - b)], a_dag * (b - a)),  # (a_dag + d)*a == (a_dag + d)*b
            ([(a - b, eye)], (b - a) * a_dag),  # a*(a_dag + d) == b*(a_dag + d)
            ([(q, eye)], zero),  # d in the lower-left corner: q*d == 0
            ([(eye, p - eye)], zero),  # ... and d*p == d
        ],
        (n, n),
        field,
    )
    route_definition = False
    if d is not None:
        x = a_dag + d
        route_definition = is_one_mp(a, x, a_dag) and _order_equations_hold(x, a, b)
        if not route_definition:
            raise InternalCheckError("definition-route solution fails verification")

    minus = leq_minus(a, b)
    route_minus_dagger = minus.holds and a_dag * b == a_dag * a

    route_shared_inner = False
    if a * a_dag * b == a:
        k = solve_matrix_equations(
            [([(a, a)], a), ([(b, a)], a)],  # a*k*a == a and b*k*a == a
            (n, n),
            field,
        )
        route_shared_inner = k is not None
    return {
        "definition": route_definition,
        "minus-dagger": route_minus_dagger,
        "shared-inner": route_shared_inner,
    }


# -- MP1 order --------------------------------------------------------------------


def leq_mp1(a, b) -> OrderVerdict:
    """a <= b in the MP1 order; for matrices decided as the transpose dual."""
    if isinstance(a, ExactMatrix):
        _require_square_pair(a, b)
        v = leq_1mp(a.star, b.star)
        if not v.holds:
            return OrderVerdict(False, None, "transpose-dual", v.reason)
        x = v.witness.x.star
        a_dag = dagger(a)
        if not (is_mp_one(a, x, a_dag) and _order_equations_hold(x, a, b)):
            raise InternalCheckError("MP1 witness fails its equations")
        return OrderVerdict(True, MP1Witness(x), "transpose-dual")
    if isinstance(a, ZnElement):
        ring = _zn_pair_ring(a, b)
        candidates = ring.mp_one_set(a)
        if not candidates:
            raise NotMPInvertible(f"{a!r} has no Moore-Penrose inverse")
        x = _first_identifying(ring, a, b, _canonical_first(candidates, ring.dagger_of(a)))
        if x is None:
            return OrderVerdict(False, None, "exhaustive", "no MP1-inverse identifies a and b")
        return OrderVerdict(True, MP1Witness(x), "exhaustive")
    if isinstance(a, OppositeView):
        v = leq_1mp(a.base, b.base)
        witness = MP1Witness(OppositeView(v.witness.x)) if v.holds else None
        return OrderVerdict(v.holds, witness, v.method, v.reason)
    raise TypeError(f"leq_mp1 not supported for {type(a).__name__}")


# -- diamond order -----------------------------------------------------------------


def leq_diamond(a, b) -> OrderVerdict:
    """a <= b in the diamond order: annihilator containments plus a*b^* *a == a*a^* *a.

    Purely equational; the witness pair (lp(a), rp(a)) is attached when those
    projections exist.
    """
    if isinstance(a, ExactMatrix):
        _require_square_pair(a, b)
    elif isinstance(a, ZnElement):
        _zn_pair_ring(a, b)
    else:
        raise TypeError(f"leq_diamond not supported for {type(a).__name__}")
    if not _containments(a, b):
        return OrderVerdict(False, None, "equational", "annihilator containment fails")
    if a * b.star * a != a * a.star * a:
        return OrderVerdict(False, None, "equational", "a*star(b)*a != a*star(a)*a")
    witness = None
    try:
        witness = DiamondWitness(lp(a), rp(a))
    except NotRickart:
        pass
    return OrderVerdict(True, witness, "equational")


# -- plus order ---------------------------------------------------------------------


def _solve_plus_right(a, b, la, ra, q_tilde):
    """Solve q_tilde*b*(ra + v) == a for v in the lower-left (ra, ra) corner."""
    field = a.field
    n = a.rows
    eye = ExactMatrix.identity(n, field)
    zero = ExactMatrix.zeros(n, n, field)
    lhs = q_tilde * b
    v = solve_matrix_equations(
        [
            ([(lhs, eye)], a - lhs * ra),
            ([(ra, eye)], zero),  # ra*v == 0
            ([(eye, ra - eye)], zero),  # v*ra == v
        ],
        (n, n),
        field,
    )
    return None if v is None else ra + v


def _plus_corner_candidates(la, field, n):
    """All elements of la*R*(1 - la) for a small prime field, else None."""
    if field.name == "rational":
        return None
    total = field.p ** (n * n)
    if total > PLUS_CORNER_ENUM_CAP:
        return None
    eye = ExactMatrix.identity(n, field)
    seen = set()
    out = []
    for ents in _all_entry_tuples(field.p, n * n):
        m = ExactMatrix(n, n, ents, field)
        u = la * m * (eye - la)
        if u not in seen:
            seen.add(u)
            out.append(u)
    return out


def _all_entry_tuples(p, count):
    if count == 0:
        yield ()
        return
    for rest in _all_entry_tuples(p, count - 1):
        for v in range(p):
            yield (v,) + rest


def _verify_plus_witness(a, b, q_tilde, q):
    if not (q_tilde * q_tilde == q_tilde and q * q == q):
        raise InternalCheckError("plus witness pair not idempotent")
    if not (_left_ann_equal(q_tilde, a) and _right_ann_equal(q, a)):
        raise InternalCheckError("plus witness pair fails annihilator matching")
    if q_tilde * b * q != a:
        raise InternalCheckError("plus witness fails a == q_tilde*b*q")


def leq_plus(a, b, witness_hint=None) -> OrderVerdict:
    """a <= b in the plus order.

    Decision ladder for matrices: annihilator containments, the canonical
    witness (lp(a), rp(a)), the minus-order shortcut, one-sided exact linear
    solves, and an exhaustive corner search over small prime fields.  When
    every stage is inconclusive over the rationals the verdict is a negative
    tagged "undecided-negative" rather than a proof of absence.

    A caller who knows a candidate idempotent pair (for example from the
    block-form construction) can pass it as witness_hint=(q_tilde, q); the
    hint is fully re-verified and, when valid, decides positively with
    method "hinted".

    Raises:
        NotRickart: the canonical projections for a do not exist.
    """
    if witness_hint is not None:
        qt, q = witness_hint
        if (
            qt * qt == qt
            and q * q == q
            and _left_ann_equal(qt, a)
            and _right_ann_equal(q, a)
            and qt * b * q == a
            and _containments(a, b)
        ):
            return OrderVerdict(True, PlusWitness(qt, q), "hinted")
    if isinstance(a, ZnElement):
        ring = _zn_pair_ring(a, b)
        lp_set = ring.lp_members(a)
        rp_set = ring.rp_members(a)
        if not lp_set or not rp_set:
            raise NotRickart(f"{a!r} has empty LP or RP family")
        if not _containments(a, b):
            return OrderVerdict(False, None, "containment", "annihilator containment fails")
        for qt in lp_set:
            for q in rp_set:
                if ring.mul3(qt, b, q) == a:
                    _verify_plus_witness(a, b, qt, q)
                    return OrderVerdict(True, PlusWitness(qt, q), "exhaustive")
        return OrderVerdict(False, None, "exhaustive", "no idempotent pair factors a through b")
    if not isinstance(a, ExactMatrix):
        raise TypeError(f"leq_plus not supported for {type(a).__name__}")
    _require_square_pair(a, b)
    la = lp(a)
    ra = rp(a)
    if not _containments(a, b):
        return OrderVerdict(False, None, "containment", "annihilator containment fails")
    if la * b * ra == a:
        _verify_plus_witness(a, b, la, ra)
        return OrderVerdict(True, PlusWitness(la, ra), "canonical")
    minus = leq_minus(a, b)
    if minus.holds:
        qt, q = minus.witness.p, minus.witness.q
        _verify_plus_witness(a, b, qt, q)
        return OrderVerdict(True, PlusWitness(qt, q), "minus-shortcut")
    q = _solve_plus_right(a, b, la, ra, la)
    if q is not None:
        _verify_plus_witness(a, b, la, q)
        return OrderVerdict(True, PlusWitness(la, q), "right-solve")
    field = a.field
    n = a.rows
    eye = ExactMatrix.identity(n, field)
    zero = ExactMatrix.zeros(n, n, field)
    u = solve_matrix_equations(
        [
            ([(eye, b * ra)], a - la * b * ra),  # (la + u)*b*ra == a
            ([(la - eye, eye)], zero),  # la*u == u
            ([(eye, la)], zero),  # u*la == 0
        ],
        (n, n),
        field,
    )
    if u is not None:
        qt = la + u
        _verify_plus_witness(a, b, qt, ra)
        return OrderVerdict(True, PlusWitness(qt, ra), "left-solve")
    candidates = _plus_corner_candidates(la, field, n)
    if candidates is not None:
        for u in candidates:
            qt = la + u
            q = _solve_plus_right(a, b, la, ra, qt)
            if q is not None:
                _verify_plus_witness(a, b, qt, q)
                return OrderVerdict(True, PlusWitness(qt, q), "corner-search")
        return OrderVerdict(
            False, None, "corner-search", "no idempotent pair factors a through b"
        )
    return OrderVerdict(
        False,
        None,
        "undecided-negative",
        "structured search found no witness; absence not proven",
    )


# -- block forms above an element -----------------------------------------------


@dataclass(frozen=True)
class OneMPAboveForm:
    """Free data (b4, d) describing one element above a in the 1MP order."""

    b4: object
    d: object


def above_1mp(a, form: OneMPAboveForm):
    """Build the element a - b4*d*a + b4 lying above a in the 1MP order.

    b4 must lie in the (2,2) corner and d in the (2,1) corner relative to
    (a*dagger(a), dagger(a)*a); the constructed element is re-verified.
    """
    a_dag = dagger(a)
    p = a * a_dag
    q = a_dag * a
    if not in_corner(form.b4, p, q, 2, 2):
        raise CornerViolation("b4 must lie in (1-p)*R*(1-q) for p = a*dagger(a), q = dagger(a)*a")
    if not in_corner(form.d, q, p, 2, 1):
        raise CornerViolation("d must lie in (1-q)*R*p")
    b = a - form.b4 * form.d * a + form.b4
    if not leq_1mp(a, b).holds:
        raise InternalCheckError("constructed element is not above a in the 1MP order")
    return b


def above_mp1(a, form: OneMPAboveForm):
    """The MP1 dual of above_1mp: a - a*d*b4 + b4 with transported corners.

    Corners live relative to the swapped projection pair: b4 in
    (1 - a*dagger(a))*R*(1 - dagger(a)*a) and d in (dagger(a)*a)*R*(1 - a*dagger(a)).
    """
    a_dag = dagger(a)
    p = a * a_dag
    q = a_dag * a
    if not ((p * form.b4).is_zero and (form.b4 * q).is_zero):
        raise CornerViolation("b4 must lie in (1 - a*dagger(a))*R*(1 - dagger(a)*a)")
    if not (q * form.d == form.d and (form.d * p).is_zero):
        raise CornerViolation("d must lie in (dagger(a)*a)*R*(1 - a*dagger(a))")
    b = a - a * form.d * form.b4 + form.b4
    if not leq_mp1(a, b).holds:
        raise InternalCheckError("constructed element is not above a in the MP1 order")
    return b


def b_1mp_inverse_check(a, b, x) -> bool:
    """Block-form membership test for x among the 1MP-inverses of b.

    Requires a <= b in the 1MP order.  Relative to (q, p) =
    (dagger(a)*a, a*dagger(a)) the element x must decompose as dagger(a) in
    the (1,1) corner, zero in (1,2), any x3 with b4*x3 == b4*d in (2,1), and
    a member of the b4 1MP family in (2,2).  Agrees with direct {1,2,3}
    membership for b.
    """
    if not leq_1mp(a, b).holds:
        raise OrderViolation("a is not below b in the 1MP order")
    a_dag = dagger(a)
    p = a * a_dag
    q = a_dag * a
    px = q * x
    xp = x * p
    x11 = q * xp
    x12 = px - x11
    x3 = xp - x11
    x4 = x - px - xp + x11
    if x11 != a_dag or not x12.is_zero:
        return False
    pb = p * b
    bq = b * q
    b4 = b - pb - bq + p * bq
    b21 = bq - p * bq
    b4d = -(b21 * a_dag)  # b21 == -b4*d*a forces b4*d == -b21*dagger(a)
    if b4 * x3 != b4d:
        return False
    b4x4 = b4 * x4
    return b4x4 * b4 == b4 and x4 * b4x4 == x4 and b4x4.star == b4x4


# -- plus-order block form ---------------------------------------------------------


@dataclass(frozen=True)
class PlusBlockData:
    """Free corner data for one element above a in the plus order."""

    b22: object
    y: object
    x: object
    w: object
    z: object


def plus_block_compose(a, data: PlusBlockData):
    """Assemble b above a in the plus order from its free corner data.

    Relative to (lp(a), rp(a)) the blocks are
    [[a + y*(b22*x + w) + z*x, y*b22 + z], [b22*x + w, b22]].  The two
    annihilator side conditions are then checked; on success the witness pair
    (lp(a) - y, rp(a) - x) certifies a <= b.

    Raises:
        CornerViolation: a data element escapes its corner.
        ConditionFailure: an annihilator side condition fails (.side tells which).
    """
    la = lp(a)
    ra = rp(a)
    checks = (
        (data.b22, la, ra, 2, 2, "b22"),
        (data.y, la, la, 1, 2, "y"),
        (data.x, ra, ra, 2, 1, "x"),
        (data.w, la, ra, 2, 1, "w"),
        (data.z, la, ra, 1, 2, "z"),
    )
    for value, left, right, i, j, label in checks:
        if not in_corner(value, left, right, i, j):
            raise CornerViolation(f"{label} escapes its corner")
    b21 = data.b22 * data.x + data.w
    b12 = data.y * data.b22 + data.z
    b11 = a + data.y * b21 + data.z * data.x
    b = b11 + b12 + b21 + data.b22
    t_left = data.y * data.w + data.w  # (y + 1)*w
    t_right = data.z * data.x + data.z  # z*(x + 1)
    if not _left_ann_leq(b, t_left):
        raise ConditionFailure("left")
    if not _right_ann_leq(b, t_right):
        raise ConditionFailure("right")
    q_tilde = la - data.y
    q = ra - data.x
    _verify_plus_witness(a, b, q_tilde, q)
    if not _containments(a, b):
        raise InternalCheckError("composed element fails the containments")
    return b


# -- exhaustive partial-order axiom suite -------------------------------------------


def order_axiom_suite(ring: FiniteStarRing, relation: str, label: str = ""):
    """Exhaustively check reflexivity, antisymmetry, and transitivity.

    Domains: the MP-invertible elements for "1mp"/"mp1", the regular elements
    for "minus", the whole carrier for "plus" and "diamond".  Rings where the
    plus order is undefined for some element (empty LP or RP family) are
    skipped with an explanatory note.  Returns a TheoremReport.
    """
    start = time.perf_counter()
    label = label or f"order-axioms-{relation}"
    ring._build_structure()
    notes = []
    if relation in ("1mp", "mp1"):
        domain = ring.mp_invertible
        rel = ring.rel_1mp if relation == "1mp" else ring.rel_mp1
    elif relation == "minus":
        domain = ring.regular
        rel = ring.rel_minus
    elif relation == "diamond":
        domain = ring.elements
        rel = ring.rel_diamond
    elif relation == "plus":
        domain = ring.elements
        bad = [a for a in domain if not ring.lp_members(a) or not ring.rp_members(a)]
        if bad:
            notes.append(
                f"plus order undefined for {len(bad)} element(s) with empty LP/RP "
                f"family; suite skipped"
            )
            return TheoremReport(
                label, ring.name, 0, (), time.perf_counter() - start,
                tuple(notes), False,
            )
        rel = ring.rel_plus
    else:
        raise ValueError(f"unknown relation tag {relation!r}")

    table = {}
    for x in domain:
        for y in domain:
            table[x, y] = rel(x, y)
    violations = []
    checked = 0
    for x in domain:
        checked += 1
        if not table[x, x]:
            violations.append(("reflexivity", x))
    for x in domain:
        for y in domain:
            checked += 1
            if x != y and table[x, y] and table[y, x]:
                violations.append(("antisymmetry", x, y))
    triples, sampled, count = capped_tuples([domain, domain, domain])
    if sampled:
        notes.append(f"transitivity sampled: {count} seeded triples")
    for x, y, z in triples:
        checked += 1
        if table[x, y] and table[y, z] and not table[x, z]:
            violations.append(("transitivity", x, y, z))
    return TheoremReport(
        label,
        ring.name,
        checked,
        tuple(violations),
        time.perf_counter() - start,
        tuple(notes),
        sampled,
    )
