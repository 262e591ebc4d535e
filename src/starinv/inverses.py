"""Generalized inverse classes: {1}, {1,2,3}, {1,2,4}, 1MP and MP1.

A 1MP-inverse of a is any product a_minus * a * dagger(a) with a_minus an
inner inverse; an MP1-inverse is dagger(a) * a * a_minus.  Membership in
either family is decided purely equationally:

    x is a 1MP-inverse of a  iff  x*a*x == x and a*x == a*dagger(a)
    x is an MP1-inverse of a iff  x*a*x == x and x*a == dagger(a)*a

which also coincide with the {1,2,3}- and {1,2,4}-inverse classes.  The
equational tests are used everywhere instead of searching for a generating
inner inverse.  The MP1 side is the star transport of the 1MP side (x is an
MP1-inverse of a iff star(x) is a 1MP-inverse of star(a)): mp_one and
is_mp_one are one_mp and is_one_mp on stars.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import matrix as mx
from .errors import (
    InternalCheckError,
    NotA1MPInverse,
    NotInnerInverse,
    NotMPInvertible,
    NotPartialIsometry,
)


def dagger(x):
    """Moore-Penrose inverse of x, or NotMPInvertible; zn.py loads only for a non-matrix."""
    if isinstance(x, mx.ExactMatrix):
        return mx.mp_inverse(x)
    from . import zn
    if isinstance(x, zn.ZnElement):
        return zn.mp_inverse(x)
    raise TypeError(f"no dagger backend registered for {type(x).__name__}")


def try_dagger(x):
    try:
        return dagger(x)
    except NotMPInvertible:
        return None


class PenroseProfile(NamedTuple):
    """Which of the four Penrose equations the pair (a, x) satisfies."""

    eq1: bool  # a*x*a == a
    eq2: bool  # x*a*x == x
    eq3: bool  # star(a*x) == a*x
    eq4: bool  # star(x*a) == x*a

    def satisfies(self, classes) -> bool:
        flags = {1: self.eq1, 2: self.eq2, 3: self.eq3, 4: self.eq4}
        return all(flags[c] for c in classes)

    def as_tuple(self):
        return (self.eq1, self.eq2, self.eq3, self.eq4)


def penrose_profile(a, x) -> PenroseProfile:
    """Evaluate all four Penrose equations exactly."""
    ax = a * x
    xa = x * a
    return PenroseProfile(ax * a == a, xa * x == x, ax.star == ax, xa.star == xa)


def is_member(a, x, classes) -> bool:
    """Whether x is a {i, j, ...}-inverse of a for the given equation set."""
    cs = frozenset(classes)
    if not cs or not cs <= {1, 2, 3, 4}:
        raise ValueError(f"inverse class must be a nonempty subset of {{1,2,3,4}}: {classes}")
    return penrose_profile(a, x).satisfies(cs)


def is_inner_inverse(a, x) -> bool:
    return a * x * a == a


def _require_inner(a, a_minus):
    if not is_inner_inverse(a, a_minus):
        raise NotInnerInverse("a * a_minus * a != a")


def is_one_mp(a, x, a_dagger=None) -> bool:
    """Equational 1MP membership: x*a*x == x and a*x == a*dagger(a)."""
    if a_dagger is None:
        a_dagger = dagger(a)
    return x * a * x == x and a * x == a * a_dagger


def is_mp_one(a, x, a_dagger=None) -> bool:
    """Equational MP1 membership: x*a*x == x and x*a == dagger(a)*a."""
    return is_one_mp(a.star, x.star, None if a_dagger is None else a_dagger.star)


def one_mp(a, a_minus):
    """The 1MP-inverse a_minus * a * dagger(a), verified before returning."""
    _require_inner(a, a_minus)
    a_dagger = dagger(a)
    x = a_minus * a * a_dagger
    if not (x * a * x == x and a * x == a * a_dagger and a * x * a == a):
        raise InternalCheckError("1MP product fails its defining system")
    return x


def mp_one(a, a_minus):
    """The MP1-inverse dagger(a) * a * a_minus, verified before returning."""
    return one_mp(a.star, a_minus.star).star


class InverseFamily(NamedTuple):
    """A parametrized solution family {instantiate(w) : w arbitrary}.

    kind "one-mp": w |-> base + (1 - base*a)*w*(a*base)
    kind "mp-one": w |-> base + (base*a)*w*(1 - a*base)

    Stored products keep instantiation down to two multiplications and one
    addition, with the (1 - ...) factors expanded away.
    """

    kind: str
    a: object
    base: object
    left: object  # base * a
    right: object  # a * base

    def at(self, w):
        """The family member generated by parameter w."""
        if self.kind == "one-mp":
            t = w * self.right
            return self.base + t - self.left * t
        t = self.left * w
        return self.base + t - t * self.right

    def contains(self, x) -> bool:
        """Equational membership in the represented inverse set."""
        if self.kind == "one-mp":
            return x * self.a * x == x and self.a * x == self.right
        return x * self.a * x == x and x * self.a == self.left


def family_1mp(a, base) -> InverseFamily:
    """All 1MP-inverses of a, parametrized around a verified base member."""
    a_dagger = dagger(a)
    if not is_one_mp(a, base, a_dagger):
        raise NotA1MPInverse("base fails the 1MP system")
    return InverseFamily("one-mp", a, base, base * a, a * base)


def family_mp1(a, base) -> InverseFamily:
    """All MP1-inverses of a, parametrized around a verified base member."""
    a_dagger = dagger(a)
    if not is_mp_one(a, base, a_dagger):
        raise NotA1MPInverse("base fails the MP1 system")
    return InverseFamily("mp-one", a, base, base * a, a * base)


def seven_conditions(a, a_minus, x):
    """Seven equational tests tied to the 1MP-inverse generated by a_minus.

    Conditions (1)-(6) pin x to the specific product a_minus*a*dagger(a);
    condition (7) does not mention a_minus at all and holds exactly when x is
    *some* 1MP-inverse of a.  In commutative backends the 1MP-inverse is
    unique, so all seven agree; in noncommutative rings (7) is genuinely
    weaker than (1)-(6) whenever a has more than one 1MP-inverse.
    """
    _require_inner(a, a_minus)
    a_dagger = dagger(a)
    ax = a * x
    xa = x * a
    aax = a_minus * a
    asx = a.star * ax  # a* a x
    cond1 = x == a_minus * a * a_dagger
    cond2 = ax == a * a_dagger and x == a_minus * ax
    cond3 = asx == a.star and x == a_minus * ax
    cond4 = xa == aax and x == xa * a_dagger
    cond5 = xa * a_minus == aax * a_minus and x == xa * a_dagger
    cond6 = ax * a == a and a_minus * (ax * a) * a_dagger == x
    cond7 = xa * x == x and asx == a.star
    return (cond1, cond2, cond3, cond4, cond5, cond6, cond7)


def is_projection(p) -> bool:
    """Whether p is a self-adjoint idempotent."""
    return p * p == p and p.star == p


class ProjectionWitness(NamedTuple):
    p: object  # projection with p*R == a*R
    q: object  # idempotent with R*q == R*a
    witness: object  # q * a_minus * p, a verified 1MP-inverse


def existence_via_projections(a, a_minus=None) -> Optional[ProjectionWitness]:
    """Produce the projection/idempotent pair certifying that 1MP-inverses exist.

    Returns None when a has no Moore-Penrose inverse (the 1MP family is then
    empty).  With no a_minus given the canonical inner inverse dagger(a) is
    used, making the output deterministic.
    """
    a_dagger = try_dagger(a)
    if a_dagger is None:
        return None
    if a_minus is None:
        a_minus = a_dagger
    else:
        _require_inner(a, a_minus)
    p = a * a_dagger
    q = a_minus * a
    witness = q * a_minus * p
    if not is_projection(p):
        raise InternalCheckError("a * dagger(a) is not a projection")
    if not (q * q == q and p * a == a and a * q == a):
        raise InternalCheckError("projection pair fails its range identities")
    if not is_one_mp(a, witness, a_dagger):
        raise InternalCheckError("q * a_minus * p fails the 1MP system")
    return ProjectionWitness(p, q, witness)


def closure_products(a, x, y):
    """x * a * y for two 1MP-inverses; the result is again a 1MP-inverse."""
    a_dagger = dagger(a)
    if not is_one_mp(a, x, a_dagger):
        raise NotA1MPInverse("x fails the 1MP system")
    if not is_one_mp(a, y, a_dagger):
        raise NotA1MPInverse("y fails the 1MP system")
    out = x * a * y
    if not is_one_mp(a, out, a_dagger):
        raise InternalCheckError("closure product left the 1MP family")
    return out


def is_partial_isometry(a) -> bool:
    """Whether star(a) is the Moore-Penrose inverse of a."""
    d = try_dagger(a)
    return d is not None and d == a.star


def partial_isometry_solutions(a, a_minus, w):
    """One solution c of the system c*a*c == c, a*c == a*star(a).

    For a partial isometry the full solution set is swept out by w; the
    returned element is verified against both equations.
    """
    if not is_partial_isometry(a):
        raise NotPartialIsometry("star(a) is not the Moore-Penrose inverse of a")
    _require_inner(a, a_minus)
    aas = a * a.star
    c = a_minus * aas + w * aas - a_minus * a * w * aas
    if not (c * a * c == c and a * c == aas):
        raise InternalCheckError("partial isometry solution fails its system")
    return c
