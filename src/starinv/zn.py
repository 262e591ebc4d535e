"""Z_n with the identity involution, decided by gcd closed forms.

Z_n is commutative, so Penrose equations 3 and 4 always hold.  With
d = gcd(a, n) and m = n/d, a is regular iff gcd(d, m) == 1; then Z_n is
Z_d x Z_m, a is 0 in Z_d and a unit in Z_m, dagger(a) is 0 and a^-1 there,
and a*dagger(a), 0 and 1 there, is the one idempotent with the annihilator
of a, the multiples of m.  No carrier is enumerated: any modulus decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InternalCheckError, NotMPInvertible, RingMismatch
from .inverses import dagger


@dataclass(frozen=True)
class ZnElement:
    """An element of Z_n; the involution is the identity map."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"Z_n needs a modulus n >= 2, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _check(self, other):
        if not isinstance(other, ZnElement):
            raise RingMismatch(f"cannot combine ZnElement with {type(other).__name__}")
        if other.modulus != self.modulus:
            raise RingMismatch(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other):
        self._check(other)
        return ZnElement(self.value + other.value, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return ZnElement(self.value - other.value, self.modulus)

    def __neg__(self):
        return ZnElement(-self.value, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return ZnElement(self.value * other.value, self.modulus)

    @property
    def star(self):
        return self

    @property
    def is_zero(self):
        return self.value == 0

    def __repr__(self):
        return f"{self.value} (mod {self.modulus})"


def is_regular(a: ZnElement) -> bool:
    """Whether a has an inner inverse: gcd(d, n/d) == 1 for d = gcd(a, n)."""
    d = gcd(a.value, a.modulus)
    return gcd(d, a.modulus // d) == 1


@dagger.register
def _(a: ZnElement):
    if not is_regular(a):
        raise NotMPInvertible(f"{a!r} has no Moore-Penrose inverse")
    n = a.modulus
    d = gcd(a.value, n)
    m = n // d
    x = ZnElement(d * pow(d, -1, m) * pow(a.value, -1, m) % n, n)
    if not (a * x * a == a and x * a * x == x):
        raise InternalCheckError(f"closed-form dagger of {a!r} fails the Penrose equations")
    return x


def ann_leq(b: ZnElement, a: ZnElement) -> bool:
    """Whether the annihilator of b lies inside that of a: gcd(b, n) divides gcd(a, n)."""
    n = a.modulus
    return gcd(a.value, n) % gcd(b.value, n) == 0
