"""Ring-generic machinery: Peirce corners and the opposite-ring view.

Everything here works uniformly for any element type that supports +, -, *,
==, `.star`, and `.is_zero` (exact matrices, modular-ring elements, and
opposite-ring views of either).  Identity elements are never required: every
occurrence of (1 - p) is expanded away algebraically, which lets the same
code run on rectangular matrix shapes where no single identity exists.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CornerViolation, IdempotentViolation, RingMismatch


def is_idempotent(p) -> bool:
    return p * p == p


def is_projection(p) -> bool:
    return p * p == p and p.star == p


class SlottedRecord:
    """A read-only record of the fields in `__slots__`, validated in `__init__`.

    It equals only its own class and hashes and pickles as its field tuple;
    it is no tuple, so `3 * x` is no repetition.
    """

    __slots__ = ()

    def _astuple(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._astuple()))
        return f"{self.__class__.__name__}({fields})"


class IdempotentPair(SlottedRecord):
    """A left idempotent p and right idempotent q for corner decompositions."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        if not is_idempotent(p):
            raise IdempotentViolation("left element p is not idempotent")
        if not is_idempotent(q):
            raise IdempotentViolation("right element q is not idempotent")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


# Corner membership tests, with (1 - p) factors expanded away:
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


def corner(x, p, q, i: int, j: int):
    """The (i, j) Peirce corner component of x relative to (p, q)."""
    pxq = p * x * q
    if (i, j) == (1, 1):
        return pxq
    if (i, j) == (1, 2):
        return p * x - pxq
    if (i, j) == (2, 1):
        return x * q - pxq
    if (i, j) == (2, 2):
        return x - p * x - x * q + pxq
    raise ValueError("corner indices must be 1 or 2")


class PeirceBlocks(NamedTuple):
    """The four corner components of an element relative to an IdempotentPair.

    Blocks are full ring elements (zero outside their corner), so corner
    containment is a checkable invariant rather than a type distinction.
    """

    x11: object
    x12: object
    x21: object
    x22: object
    pair: IdempotentPair

    def validate(self):
        p, q = self.pair.p, self.pair.q
        for block, i, j in (
            (self.x11, 1, 1),
            (self.x12, 1, 2),
            (self.x21, 2, 1),
            (self.x22, 2, 2),
        ):
            if not in_corner(block, p, q, i, j):
                raise CornerViolation(f"block ({i},{j}) escapes its corner")


def peirce_decompose(x, pair: IdempotentPair) -> PeirceBlocks:
    """Split x into its four corners relative to (p, q); recomposes exactly."""
    p, q = pair.p, pair.q
    px = p * x
    xq = x * q
    pxq = p * xq
    return PeirceBlocks(pxq, px - pxq, xq - pxq, x - px - xq + pxq, pair)


def peirce_recompose(blocks: PeirceBlocks):
    """Sum the four corners back into the original element."""
    blocks.validate()
    return blocks.x11 + blocks.x12 + blocks.x21 + blocks.x22


def peirce_multiply(xb: PeirceBlocks, zb: PeirceBlocks) -> PeirceBlocks:
    """Block-compose two decompositions sharing the middle idempotent.

    The result is the decomposition of (x * z) relative to (p_x, q_z).
    """
    if xb.pair.q != zb.pair.p:
        raise RingMismatch("middle idempotents differ; block product undefined")
    pair = IdempotentPair(xb.pair.p, zb.pair.q)
    return PeirceBlocks(
        xb.x11 * zb.x11 + xb.x12 * zb.x21,
        xb.x11 * zb.x12 + xb.x12 * zb.x22,
        xb.x21 * zb.x11 + xb.x22 * zb.x21,
        xb.x21 * zb.x12 + xb.x22 * zb.x22,
        pair,
    )


class OppositeView:
    """The same element seen in the opposite ring (multiplication reversed).

    Addition, negation, equality, and the involution pass straight through;
    only products flip.  No data is copied: `base` is the original element.
    """

    __slots__ = ("base",)

    def __init__(self, base):
        if isinstance(base, OppositeView):
            raise RingMismatch("double opposite view; unwrap with .base instead")
        self.base = base

    def _check(self, other):
        if not isinstance(other, OppositeView):
            raise RingMismatch("cannot mix opposite-ring views with base-ring elements")

    def __mul__(self, other):
        self._check(other)
        return OppositeView(other.base * self.base)

    def __add__(self, other):
        self._check(other)
        return OppositeView(self.base + other.base)

    def __sub__(self, other):
        self._check(other)
        return OppositeView(self.base - other.base)

    def __neg__(self):
        return OppositeView(-self.base)

    @property
    def star(self):
        return OppositeView(self.base.star)

    @property
    def is_zero(self):
        return self.base.is_zero

    def __eq__(self, other):
        if not isinstance(other, OppositeView):
            return NotImplemented
        return self.base == other.base

    def __hash__(self):
        return hash(("OppositeView", self.base))

    def __repr__(self):
        return f"OppositeView({self.base!r})"


def opposite_view(x) -> OppositeView:
    """Wrap x so that every product computes in the opposite ring."""
    return OppositeView(x)
