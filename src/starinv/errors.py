"""Exception hierarchy for starinv.

Mathematical non-existence (e.g. a matrix over GF(p) with no Moore-Penrose
inverse) is reported through dedicated exception types so callers can tell a
legitimate negative outcome from misuse.  InternalCheckError marks a failed
self-verification and always indicates a bug, never bad input.
"""


class StarInvError(Exception):
    """Base class for all starinv errors."""


class RingMismatch(StarInvError):
    """Operands belong to different rings (field or modulus)."""


class DimensionMismatch(StarInvError):
    """Matrix shapes are incompatible for the requested operation."""


class CornerViolation(StarInvError):
    """An element lies outside its required Peirce corner."""


class NotMPInvertible(StarInvError):
    """The element has no Moore-Penrose inverse."""


class NotInnerInverse(StarInvError):
    """The supplied element x fails a*x*a == a."""


class NotA1MPInverse(StarInvError):
    """The supplied element is not a 1MP- (resp. MP1-) inverse."""


class NotPartialIsometry(StarInvError):
    """star(a) is not the Moore-Penrose inverse of a."""


class NotRegular(StarInvError):
    """The element has no inner inverse."""


class NotRickart(StarInvError):
    """No projection generates the required annihilator."""


class OrderViolation(StarInvError):
    """A precondition of the form 'a is below b' does not hold."""


class ConditionFailure(StarInvError):
    """An annihilator side condition of the plus-order block form failed.

    The `side` attribute is "left" or "right".
    """

    def __init__(self, side, message=None):
        self.side = side
        super().__init__(message or f"{side} annihilator side condition failed")


class UniquenessViolation(StarInvError):
    """A scan found two distinct objects required to be unique (bug)."""


class CarrierTooLarge(StarInvError):
    """Finite ring carrier exceeds the enumeration guard."""


class UnknownRing(StarInvError):
    """Ring identifier not recognised by the registry."""


class UnknownTheorem(StarInvError):
    """Theorem identifier not recognised by the registry."""


class DocumentError(StarInvError):
    """Matrix document could not be parsed.

    Carries `line` (1-based) and optionally `column` for error reporting.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class InternalCheckError(StarInvError):
    """A verified construction failed its own postcondition (bug)."""
