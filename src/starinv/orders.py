"""The five inverse-induced relations: 1MP, MP1, minus, diamond, plus.

Operand types are checked once, in _modular, which tells a Z_n element
from a matrix.  The 1MP order is a <= b in the minus order and
dagger(a)*b == dagger(a)*a; on Z_n the first implies the second, so only
the minus test runs.  The MP1 side is the star transport of the 1MP
side: leq_mp1, above_mp1 and rp_family_member are leq_1mp, above_1mp and
lp_family_member on stars, starred back, and keep their own refusal
texts.  Star is an injective anti-automorphism, so each MP1 equation is
the star of a verified 1MP one.  Minus, lp/rp, the annihilator tests and
plus keep a matrix branch (rank arithmetic, one inner inverse of b,
annihilator-matching projections, a rank criterion for plus) and a Z_n
branch on the gcd closed forms of zn.py; exact linear
solves remain only in leq_1mp_routes.  Annihilator containment is decided
in _ann_leq and nowhere else: on matrices each containment is one forward
elimination of [b | t] (mx.column_space_leq), never the Gauss-Jordan pass
of [b | I]; leq_plus builds an inner inverse of b only for its rank
stage.  Whether an idempotent has the annihilator of a is decided in
_left_ann_matches; the right side of each is the left side on stars, as
rp is lp.  On matrices, dagger(a), lp(a) and rp(a) are built only when
the verdict uses them, lp(a) and rp(a) from the two bases that one
forward elimination of a gives (mx.bases).  Minus and 1MP
(so MP1) reduce each operand at most once: rank(a) and rank(b - a) come
first, and when their sum exceeds n the rank test fails before b is
reduced.  Minus then reads rank(b) off inner_inverse(b); a 1MP or MP1
positive builds no minus witness, no dagger(a) and no lp(a), and takes
its witness inner_inverse(b)*lp(a) from one rref of [b | F], F the pivot
columns of a (see leq_1mp).  Every positive verdict carries a witness
checked against the defining equations of the relation, so a structural
shortcut can never silently disagree with it.

Verdict method tags:
    minus    "rank" (matrices) | "dagger" (Z_n)
    1mp      "minus-dagger"
    mp1      "transpose-dual"
    diamond  "equational"
    plus     "containment" | "canonical" | "rank" (matrices only)
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import matrix as mx
from . import zn
from .errors import (
    ConditionFailure,
    CornerViolation,
    DimensionMismatch,
    InternalCheckError,
    NotRegular,
    NotRickart,
    OrderViolation,
    RingMismatch,
)
from .inverses import dagger, is_one_mp
from .matrix import ExactMatrix, solve_matrix_equations


class OrderVerdict(NamedTuple):
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

    Matrices: F*(F^T F)^{-1}*F^T for F the pivot columns of a; exists iff
    that Gram matrix is nonsingular (always over the rationals).  Z_n:
    a*dagger(a), which exists iff a is regular.

    Raises:
        NotRickart: no such projection exists.
    """
    return _projections(a, ("left",))[0]


def rp(a):
    """The unique projection whose right annihilator matches that of a.

    It is lp(star(a)): the right annihilator of a is the star of the left
    annihilator of star(a), and projections are self-adjoint; _projections
    builds it as lp of star(a).
    """
    return _projections(a, ("right",))[0]


def _projections(a, sides=("left", "right")):
    """[lp(a), rp(a)], or those that sides names (also in errors); rp(a) is lp(star(a)).

    Matrices: for x = a (lp) or star(a) (rp), c = F or G^T of mx.bases(a),
    one forward elimination of a, is a basis of col(x), and the projection
    is c*X for X = (c^T c)^{-1}*c^T, read from one rref of [c^T c | c^T]
    (mx.inner_solve); a Gram matrix of rank below rank(x) has no inverse,
    and then no projection exists.  Neither depends on the basis, so any
    basis gives the same bytes and refusals.
    """
    modular = _modular(a)
    if not modular:
        f, g = mx.bases(a)
    out = []
    for side in sides:
        x = a if side == "left" else a.star
        if modular:
            if not zn.is_regular(x):
                raise NotRickart(f"no projection matches the {side} annihilator of {x!r}")
            e, rank_x = x * dagger(x), None
        else:
            c = f if side == "left" else g.star
            rank_x = c.cols
            gram_pivots, gram_inv_c_star, _ = mx.inner_solve(c.star * c, c.star)
            if len(gram_pivots) < rank_x:
                msg = f"no projection matches the {side} annihilator over {x.field.name}"
                raise NotRickart(msg)
            e = c * gram_inv_c_star
        if not (e * e == e and e.star == e and _left_ann_matches(e, x, rank_x)):
            raise InternalCheckError(f"{side[0]}p construction failed verification")
        out.append(e)
    return out


def _ann_leq(b, t) -> bool:
    """Whether the left annihilator of b is contained in that of t.

    Matrices: t lies in b*R, that is col(t) inside col(b), which
    mx.column_space_leq tests by one forward elimination of [b | t].  On
    the right pass stars.  Z_n: zn.ann_leq decides.
    """
    return zn.ann_leq(b, t) if _modular(b) else mx.column_space_leq(t, b)


def _left_ann_matches(e, a, rank_a=None) -> bool:
    """Whether the idempotent e has the left annihilator of a.

    Requires e*e == e, which every caller checks first.  Matrices: e*a == a
    puts the column space of a inside that of e, and equal ranks make the
    two spaces equal; rank_a is rank(a) if known, and rank(e) is read from
    the trace (mx.idempotent_rank).
    """
    if _modular(e):
        return zn.ann_leq(e, a) and zn.ann_leq(a, e)
    return e * a == a and mx.idempotent_rank(e) == (mx.rank(a) if rank_a is None else rank_a)


def _containments(a, b) -> bool:
    """The annihilator containments of b inside those of a, on both sides."""
    return _ann_leq(b, a) and _ann_leq(b.star, a.star)


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


# -- shared helpers -------------------------------------------------------------


def _modular(a, b=None) -> bool:
    """Whether a is a Z_n element (False for a matrix).

    With b given, b must live in the same ring, and matrices must be square
    of equal size.
    """
    modular = isinstance(a, zn.ZnElement)
    if not (modular or isinstance(a, ExactMatrix)):
        raise TypeError(f"operands of type {type(a).__name__} are not supported")
    if b is None:
        return modular
    if type(b) is not type(a):
        raise RingMismatch("operands must live in the same ring")
    if modular:
        if a.modulus != b.modulus:
            raise RingMismatch(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    elif a.field != b.field:
        raise RingMismatch(f"field mismatch: {a.field.name} vs {b.field.name}")
    elif not (a.is_square and a.shape == b.shape):
        raise DimensionMismatch(
            "order relations need square matrices of equal size; "
            "zero-pad rectangular inputs first"
        )
    return modular


# -- minus order ----------------------------------------------------------------

_RANK_FAILS = "rank(b - a) != rank(b) - rank(a)"
_PRODUCT_FAILS = "dagger(a)*b != dagger(a)*a"
_INNER_FAILS = "no inner inverse identifies a and b"  # the Z_n minus test


def leq_minus(a, b) -> OrderVerdict:
    """a <= b in the minus order: some inner inverse of a identifies a and b.

    Matrix route: the classical rank-subtractivity test
    rank(b - a) == rank(b) - rank(a).  rank(a) and rank(b - a) come first:
    when their sum exceeds n the test fails, since rank(b) <= n, and b is
    never reduced.  Otherwise b is reduced once, for g = inner_inverse(b),
    whose nonzero rows are b's pivots, so rank(b) is their number.  A
    rejection with rank(a) + rank(b - a) <= n thus pays the Gauss-Jordan
    pass of [b | I] where a forward rank(b) would do; that trade keeps
    positives at one reduction of b.  When the test passes, a*g*a == a and
    a*g*b == a == b*g*a (Hartwig 1980), so k = g*a*g is a witness (0 when
    a == 0); it is re-verified.  When b is invertible the witness is
    unique; otherwise k is one of several.

    Z_n: the witness is dagger(a).  An inner inverse x of a identifies a
    and b iff x*(b - a) == 0; then a*(b - a) == a*a*x*(b - a) == 0, and so
    dagger(a)*(b - a) == dagger(a)*dagger(a)*a*(b - a) == 0.
    """
    modular = _modular(a, b)
    if modular:
        if not zn.is_regular(a):
            raise NotRegular(f"{a!r} has no inner inverse")
        k = dagger(a)
        reason = None if (k * (b - a)).is_zero else _INNER_FAILS
    else:
        rank_a, rank_d = mx.rank(a), mx.rank(b - a)
        k, reason = None, _RANK_FAILS
        if rank_a + rank_d <= a.rows:
            g = mx.inner_inverse(b)
            if rank_d == len(mx.nonzero_rows(g)) - rank_a:
                k, reason = g * a * g, None
    witness = None if reason else _minus_witness(a, b, k)
    return OrderVerdict(reason is None, witness, "dagger" if modular else "rank", reason)


def _minus_witness(a, b, k) -> MinusWitness:
    """The minus witness k, once its equations hold."""
    p = a * k
    q = k * a
    # a*k*a == a, k*a == k*b and a*k == b*k
    if not (p * a == a and q == k * b and p == b * k):
        raise InternalCheckError("minus witness fails its equations")
    if not (p * b == a and b * q == a):
        raise InternalCheckError("minus idempotent pair fails p*b == a == b*q")
    return MinusWitness(k, p, q)


# -- 1MP order -------------------------------------------------------------------


def leq_1mp(a, b) -> OrderVerdict:
    """a <= b in the 1MP order: some 1MP-inverse of a identifies a and b.

    In every ring: a <= b in the minus order together with
    dagger(a)*b == dagger(a)*a; the witness x is re-verified.

    The second condition is tested as star(a)*b == star(a)*a, which needs
    no dagger(a): since dagger(a) == dagger(a)*star(dagger(a))*star(a) and
    star(a) == star(a)*a*dagger(a), dagger(a) and star(a) annihilate the
    same elements.  Z_n builds dagger(a) first, so a non-regular a raises
    NotMPInvertible, and then runs only leq_minus's test
    dagger(a)*(b - a) == 0, whose proof there also gives
    star(a)*(b - a) == a*(b - a) == 0; its witness is dagger(a).

    Matrices decide in this order, reducing each operand at most once.
    The forward elimination of a gives rank(a) and its pivot columns, and
    F = a at those columns (a = F*G, G the nonzero rows of rref(a)).  Over
    GF(p) it also gives a basis of row(a), and an a with no Moore-Penrose
    inverse is refused at once, by the Gram ranks of is_mp_invertible, with
    mp_inverse's NotMPInvertible (mx.mp_column_basis; over the rationals
    nothing is tested).  When a == 0 the elimination decides: 0 lies below
    every b, and x is 0.  Then rank(b - a): if rank(a) + rank(b - a) > n
    the minus order fails (rank(b) <= n) and b is never reduced.  Then
    the product test, run as star(F)*(b - a) == 0: star(a) = star(G)*star(F)
    and star(G) has independent columns.  A rejection there ranks b to tell
    which condition failed.  The test comes before b is reduced, so a rank
    rejection with rank(a) + rank(b - a) <= n makes that one product more
    than the rank test alone; running the rref of [b | F] first instead
    would make every product-test rejection pay a Gauss-Jordan pass where
    a forward rank(b) does.  Otherwise one rref of [b | F] decides the
    rest: a pivot in the F block means col(a) is not inside col(b), so the
    minus order fails; else b's pivots give rank(b) for the rank test, and
    the rows of the F block at them are g*F for g = inner_inverse(b) (see
    mx.inner_solve: col(F) inside col(b) makes that block E*F for whatever
    E reduced b).

    The witness of a positive is x = (g*F)*((F^T F)^{-1}*F^T) = g*lp(a),
    built without lp(a): lp(a) = F*(F^T F)^{-1}*F^T, and over GF(p) F^T F
    is the Gram matrix the test ranked.  When a <= b in the
    minus order, a*g*a == a and a*g*b == a == b*g*a (Hartwig 1980), and
    lp(a) == a*dagger(a), so x = g*a*dagger(a) is a 1MP-inverse of a that
    identifies a and b.  It is checked against x*a*x == x, a*x*a == a and
    star(a*x) == a*x: for an a with a Moore-Penrose inverse the 1MP-inverses
    are exactly these {1,2,3}-inverses (a*x is then the self-adjoint
    idempotent onto col(a), which is a*dagger(a)); then x*a == x*b and
    a*x == b*x.
    """
    if _modular(a, b):
        x = dagger(a)
        reason = None if (x * (b - a)).is_zero else _INNER_FAILS
    else:
        reason, x = _one_mp_matrix(a, b)
    if reason is not None:
        return OrderVerdict(False, None, "minus-dagger", reason)
    return OrderVerdict(True, _one_mp_witness(a, b, x), "minus-dagger")


def _one_mp_matrix(a, b):
    """(reason, x) of leq_1mp on matrices: why a <= b fails, or None and the witness x."""
    n = a.rows
    f, gram = mx.mp_column_basis(a)
    rank_a = f.cols
    if rank_a == 0:
        return None, ExactMatrix.zeros(n, n, a.field)
    d = b - a
    rank_d = mx.rank(d)
    if rank_a + rank_d > n:
        return _RANK_FAILS, None
    f_star = f.star
    if not (f_star * d).is_zero:
        return (_RANK_FAILS if rank_d != mx.rank(b) - rank_a else _PRODUCT_FAILS), None
    pivots_b, gf, inside = mx.inner_solve(b, f)
    if not inside or rank_d != len(pivots_b) - rank_a:
        return _RANK_FAILS, None
    return None, gf * mx.inner_solve(f_star * f if gram is None else gram, f_star)[1]


def _one_mp_witness(a, b, x) -> OneMPWitness:
    """x as a OneMPWitness, once it is a {1,2,3}-inverse of a that identifies a and b."""
    xa, ax = x * a, a * x
    if not (xa * x == x and ax * a == a and ax.star == ax and xa == x * b and ax == b * x):
        raise InternalCheckError("1MP witness fails its equations")
    return OneMPWitness(x)


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


# -- MP1 order --------------------------------------------------------------------


def leq_mp1(a, b) -> OrderVerdict:
    """a <= b in the MP1 order iff star(a) <= star(b) in the 1MP order.

    The operands are checked before they are starred, so an unsupported or
    mixed pair is refused as leq_1mp refuses it.
    """
    _modular(a, b)
    v = leq_1mp(a.star, b.star)
    witness = MP1Witness(v.witness.x.star) if v.holds else None
    return OrderVerdict(v.holds, witness, "transpose-dual", v.reason)


# -- diamond order -----------------------------------------------------------------


def leq_diamond(a, b) -> OrderVerdict:
    """a <= b in the diamond order: annihilator containments plus a*b^* *a == a*a^* *a.

    Purely equational; the witness pair (lp(a), rp(a)) is attached when those
    projections exist.  No inner inverse of b is built: on matrices each
    containment is one forward elimination (see _ann_leq), and the gate
    a*b^* *a == a*a^* *a is tested as a*(b - a)^* *a == 0, two products.
    """
    _modular(a, b)
    if not _containments(a, b):
        return OrderVerdict(False, None, "equational", "annihilator containment fails")
    if not (a * (b - a).star * a).is_zero:
        return OrderVerdict(False, None, "equational", "a*star(b)*a != a*star(a)*a")
    try:
        witness = DiamondWitness(*_projections(a))
    except NotRickart:
        witness = None
    return OrderVerdict(True, witness, "equational")


# -- plus order ---------------------------------------------------------------------


def _plus_rank_witness(a, b, inner):
    """The verified witness of the rank criterion in leq_plus, or None.

    Requires the containments and rank(a) > 0.  With a = F*G and
    b = F_b*G_b, G_b the nonzero rref rows of b: S = L_b*F for a left
    inverse L_b of F_b, T = G at b's pivot columns, D = I_r - T*S.  The
    pair is (F*U*L_b, R_b*V*G), R_b the selector of b's pivot rows.  Those
    pivots are the nonzero rows of inner = inner_inverse(b), and its rows
    there are L_b = inner_inverse(F_b): both are the first r_b rows of the
    E that puts [b | I] in RREF, so this stage reduces b once.
    """
    field = a.field
    fa = mx.full_rank_factorize(a)
    r, f, g = fa.r, fa.f, fa.g
    pivots = mx.nonzero_rows(inner)
    r_b, l_b = len(pivots), mx.select(inner, pivots, range(inner.cols))
    s = l_b * f
    t = mx.select(g, range(r), pivots)
    d = ExactMatrix.identity(r, field) - t * s
    rank_d = mx.rank(d)
    if rank_d > r_b - r:
        return None
    # Extend S by rank_d columns V with [S V] independent and D*T*V of rank
    # rank_d.  Each pick avoids two proper subspaces: a unit vector avoids
    # each one, and when neither avoids both their sum does.  Candidates are
    # reduced against growing echelon bases of [S V] and of H*V (H = D*T, so
    # H*c sums columns of H); as spans grow, the first unit outside never moves back.
    h = d * t

    def unit(js):  # the sum of the columns js of I_{r_b}
        return [int(i in js) for i in range(r_b)]

    s_basis, h_basis = [], []
    for j in range(r):  # S has independent columns
        s_basis.append(field.residue(s_basis, mx.column_sum(s, (j,))))
    sv, u, w = s, 0, 0
    for _ in range(rank_d):
        u = next(j for j in range(u, r_b) if field.residue(s_basis, unit((j,))))
        w = next(j for j in range(w, r_b) if field.residue(h_basis, mx.column_sum(h, (j,))))
        for js in ((u,), (w,), (u, w)):
            in_s = field.residue(s_basis, unit(js))
            in_h = in_s and field.residue(h_basis, mx.column_sum(h, js))
            if in_h:
                break
        else:
            raise InternalCheckError("no pick extends both column spaces")
        s_basis, h_basis = s_basis + [in_s], h_basis + [in_h]
        sv = mx.hstack(sv, ExactMatrix(r_b, 1, unit(js), field))
    # L*S == I and L*V == 0, so U*S == I; with V = S + P*inner(T*P)*D,
    # U*P == 0 gives U*V == I and col(T*P) == col(D) gives T*V == I.
    l_sv = mx.select(mx.inner_inverse(sv), range(r), range(r_b))
    u = t + d * l_sv
    p = ExactMatrix.identity(r_b, field) - s * u
    v = s + p * mx.inner_inverse(t * p) * d
    return _verify_plus_witness(a, b, f * u * l_b, mx.scatter_rows(v * g, pivots, a.cols), r)


def _verify_plus_witness(a, b, q_tilde, q, rank_a=None) -> PlusWitness:
    """The pair as a PlusWitness once its equations hold; rank_a as in _left_ann_matches."""
    if not (q_tilde * q_tilde == q_tilde and q * q == q):
        raise InternalCheckError("plus witness pair not idempotent")
    if rank_a is None and not _modular(a):
        rank_a = mx.rank(a)
    if not (_left_ann_matches(q_tilde, a, rank_a) and _left_ann_matches(q.star, a.star, rank_a)):
        raise InternalCheckError("plus witness pair fails annihilator matching")
    if q_tilde * b * q != a:
        raise InternalCheckError("plus witness fails a == q_tilde*b*q")
    return PlusWitness(q_tilde, q)


def leq_plus(a, b) -> OrderVerdict:
    """a <= b in the plus order.

    Matrices: the annihilator containments, then the canonical witness
    (lp(a), rp(a)), then a rank criterion that decides every remaining pair
    over any field.  lp(a) and rp(a) are built only when the canonical stage
    can succeed, that is when a*b^* *a == a*a^* *a (the Baksalary-Hauke form
    of the diamond order).  The containments are one forward elimination
    each (see _ann_leq); the Gauss-Jordan pass of [b | I] for an inner
    inverse of b runs only in the rank stage.  With a = F*G,
    lp(a) = F*(F^T F)^{-1}*F^T and rp(a) = G^T*(G G^T)^{-1}*G (any column
    bases give the same projections), cancelling F on the left and G on the right
    turns lp(a)*b*rp(a) == a into F^T*b*G^T == F^T F*G G^T, whose transpose
    is G*b^T*F == G G^T*F^T F, and that is a*b^* *a == a*a^* *a with F and
    G cancelled.  A passed gate with both projections present is therefore
    a canonical positive, and lp(a)*b*rp(a) == a is re-checked.

    The rank stage: write a = F*G and b = F_b*G_b as full-rank
    factorisations of ranks r and r_b; the containments give F = F_b*S and
    G = T*G_b.  LP(a) = {F*X : X*F = I_r}
    and RP(a) = {Y*G : G*Y = I_r}, so a = (F*X)*b*(Y*G) for such X, Y
    exactly when U = X*F_b and V = G_b*Y satisfy U*S = T*V = U*V = I_r.
    Such U, V exist iff rank(I_r - T*S) <= r_b - r.  Necessity:
    I_r - T*S = T*(V - S) and the columns of V - S lie in the kernel of U,
    of dimension r_b - r.  Sufficiency: _plus_rank_witness builds U and V.
    Since F*(I_r - T*S)*G = a - a*g*a for any inner inverse g of b, the
    criterion reads rank(a - a*g*a) <= rank(b) - rank(a), and the minus
    order (Hartwig 1980) is the case where the left side is 0.  Both
    verdicts of this stage are definitive and tagged "rank".

    Over a field LP(a) and RP(a) are never empty, so this never refuses.
    Where lp(a) or rp(a) is missing (over GF(2), say) it decides the oracle's
    idempotent-witness relation, which extends the paper's plus order on
    Rickart *-rings.  lp and rp verify the canonical projections themselves.

    Z_n: LP(a) == {lp(a)} and RP(a) == {rp(a)}, so a failed gate is a
    definitive "canonical" negative and the rank stage never runs.

    Raises:
        NotRickart: a Z_n operand a is not regular (empty LP and RP families).
    """
    modular = _modular(a, b)
    if modular and not zn.is_regular(a):
        raise NotRickart(f"{a!r} has empty LP or RP family")
    if not _containments(a, b):
        return OrderVerdict(False, None, "containment", "annihilator containment fails")
    if (a * (b - a).star * a).is_zero:  # a*b^* *a == a*a^* *a
        try:
            la, ra = _projections(a)
        except NotRickart:
            pass
        else:
            if la * b * ra != a:
                raise InternalCheckError("canonical plus witness fails a == lp(a)*b*rp(a)")
            return OrderVerdict(True, PlusWitness(la, ra), "canonical")
    method = "canonical" if modular else "rank"
    witness = None if modular else _plus_rank_witness(a, b, mx.inner_inverse(b))
    if witness is None:
        return OrderVerdict(False, None, method, "no idempotent pair factors a through b")
    return OrderVerdict(True, witness, method)


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
