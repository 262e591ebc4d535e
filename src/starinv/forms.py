"""Constructions on the orders: block forms above a, LP/RP family members, 1MP routes.

above_1mp, above_mp1 and plus_block_compose build an element above a from
free corner data, b_1mp_inverse_check reads the 1MP-inverses of such an
element in block form, and lp_family_member and rp_family_member step from
lp(a) and rp(a) to other members of LP(a) and RP(a); orders.py re-verifies
each.  The MP1 side is the 1MP side on stars, with its own refusal texts.
Exact linear solves remain only in leq_1mp_routes.  No decision imports
this module, so an `order` child of the CLI never loads it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConditionFailure, CornerViolation, InternalCheckError, NotRickart, OrderViolation
from .inverses import dagger, is_one_mp
from .matrix import ExactMatrix, solve_matrix_equations
from .orders import _ann_leq, _containments, _left_ann_matches, _modular, _projections, leq_1mp, lp
from .orders import _verify_plus_witness


# Corner membership, with (1 - p) factors expanded away, so no identity is
# needed:
#   x in pRq         iff p*x == x and x*q == x
#   x in pR(1-q)     iff p*x == x and x*q == 0
#   x in (1-p)Rq     iff p*x == 0 and x*q == x
#   x in (1-p)R(1-q) iff p*x == 0 and x*q == 0


def in_corner(x, p, q, i: int, j: int) -> bool:
    """Whether x lies in the (i, j) Peirce corner relative to (p, q)."""
    px = p * x
    xq = x * q
    left_ok = (px == x) if i == 1 else px.is_zero
    right_ok = (xq == x) if j == 1 else xq.is_zero
    return left_ok and right_ok


def lp_family_member(a, p1):
    """lp(a) + p1 for p1 in the upper-right corner: an idempotent in LP(a)."""
    la = lp(a)
    if not in_corner(p1, la, la, 1, 2):
        raise CornerViolation("p1 must lie in lp(a)*R*(1 - lp(a))")
    e = la + p1
    if not (e * e == e and _left_ann_matches(e, a)):
        raise InternalCheckError("lp family member failed verification")
    return e


def rp_family_member(a, q1):
    """rp(a) + q1 for q1 in the lower-left corner: an idempotent in RP(a).

    rp(a) is lp(star(a)), and star maps the lower-left corner of rp(a) onto
    the upper-right corner of lp(star(a)).
    """
    _modular(a)
    try:
        return lp_family_member(a.star, q1.star).star
    except CornerViolation:
        raise CornerViolation("q1 must lie in (1 - rp(a))*R*rp(a)") from None
    except NotRickart as e:
        raise NotRickart(str(e).replace("left", "right")) from None


def leq_1mp_routes(a, b) -> dict:
    """The three independent matrix decision routes for the 1MP order.

    "definition": an exact linear solve for x == dagger(a) + d over the
    lower-left corner such that x identifies a and b.
    "minus-dagger": the route used by leq_1mp.
    "shared-inner": a*dagger(a)*b == a and an exact linear solve for an inner
    inverse k with b*k*a == a.
    """
    if _modular(a, b):
        raise TypeError("leq_1mp_routes decides matrices only")
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
        route_definition = is_one_mp(a, x, a_dag) and x * a == x * b and a * x == b * x
        if not route_definition:
            raise InternalCheckError("definition-route solution fails verification")

    route_minus_dagger = leq_1mp(a, b).holds

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


# -- block forms above an element -----------------------------------------------


class OneMPAboveForm(NamedTuple):
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
    Star swaps a*dagger(a) and dagger(a)*a between a and star(a).
    """
    try:
        return above_1mp(a.star, OneMPAboveForm(form.b4.star, form.d.star)).star
    except CornerViolation as e:
        if str(e).startswith("b4"):
            raise CornerViolation("b4 must lie in (1 - a*dagger(a))*R*(1 - dagger(a)*a)") from None
        raise CornerViolation("d must lie in (dagger(a)*a)*R*(1 - a*dagger(a))") from None


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


class PlusBlockData(NamedTuple):
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
    (lp(a) - y, rp(a) - x) certifies a <= b.  Each containment is one forward
    elimination (see _ann_leq); no inner inverse of b is built.

    Raises:
        CornerViolation: a data element escapes its corner.
        ConditionFailure: an annihilator side condition fails (.side tells which).
    """
    la, ra = _projections(a)
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
    if not _ann_leq(b, data.y * data.w + data.w):  # t_left = (y + 1)*w
        raise ConditionFailure("left")
    t_right = data.z * data.x + data.z  # z*(x + 1)
    if not _ann_leq(b.star, t_right.star):
        raise ConditionFailure("right")
    _verify_plus_witness(a, b, la - data.y, ra - data.x)
    if not _containments(a, b):
        raise InternalCheckError("composed element fails the containments")
    return b
