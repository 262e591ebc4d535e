"""Exact scalar fields: the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` (always in lowest terms with a
positive denominator); GF(p) scalars are plain ints in [0, p).  A field
object bundles the scalar arithmetic, parsing and formatting of the exact
string form used by the CLI ("-7/2", "3"), and the two matrix kernels that
`matrix.py` is built on: `matmul` and `row_reduce`.  The kernels may work
on other representations inside (the rational ones on integer-scaled rows
and columns), but every entry they return is canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DocumentError


# Miller-Rabin with the first 13 primes as bases is exact below
# PRIME_CHECK_LIMIT (Sorenson & Webster, Math. Comp. 86, 2017).
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CHECK_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_CHECK_LIMIT."""
    if n < 2:
        return False
    for base in _WITNESS_BASES:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _WITNESS_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_scaled(values):
    """(d, ints) with d the lcm of the denominators and ints[i] == values[i] * d."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


class RationalField:
    """The field of rationals with arbitrary-precision Fraction scalars."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value) -> Fraction:
        """Coerce an int, Fraction, or exact string to a canonical scalar."""
        if isinstance(value, bool):
            raise DocumentError("booleans are not rational scalars")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            # Fraction would build 10**exponent in full: "1e10000000" alone
            # takes seconds and each further digit multiplies that.
            if "e" in value or "E" in value:
                raise DocumentError(f"bad rational literal {value!r}: exponents are not accepted")
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(f"bad rational literal {value!r}: {exc}") from None
        raise DocumentError(f"cannot interpret {value!r} as a rational scalar")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def to_str(self, a) -> str:
        return str(a)

    def matmul(self, a, b, n, k, m):
        """Row-major entries of the n x m product of row-major n x k `a` and k x m `b`.

        Each row of a and each column of b is scaled to integers by the lcm
        of its denominators, so an entry is one integer dot product and one
        normalisation instead of a gcd per scalar operation.
        """
        rows = [_integer_scaled(a[i * k : (i + 1) * k]) for i in range(n)]
        cols = [_integer_scaled(b[j::m]) for j in range(m)]
        return [
            Fraction(sum(map(mul, r, c)), dr * dc) for dr, r in rows for dc, c in cols
        ]

    def row_reduce(self, rows):
        """Reduced row-echelon form of a list of rows, and its pivot columns.

        Fraction-free Gauss-Jordan: each row is scaled to integers, a row
        is eliminated as pv*x - f*y and divided by the gcd of its entries,
        and only the pivot rows are divided by their pivots at the end.
        Every row stays a nonzero multiple of the row textbook elimination
        holds, so the pivots, and the (unique) RREF, are the same.
        """
        m = [_integer_scaled(row)[1] for row in rows]
        nrows = len(m)
        ncols = len(m[0]) if m else 0
        pivots = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            pr = next((i for i in range(r, nrows) if m[i][c]), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            y = m[r]
            pv = y[c]
            for i in range(nrows):
                f = m[i][c]
                if i != r and f:
                    x = [pv * xv - f * yv for xv, yv in zip(m[i], y)]
                    g = gcd(*x)
                    m[i] = [v // g for v in x] if g > 1 else x
            pivots.append(c)
            r += 1
        out = [[Fraction(v, m[i][c]) for v in m[i]] for i, c in enumerate(pivots)]
        out += [[self.zero] * ncols for _ in range(nrows - r)]
        return out, pivots

    def __reduce__(self):
        # Unpickle to the module singleton QQ: fields compare by identity.
        return "QQ"

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """GF(p) for a prime p; scalars are canonical residues in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_CHECK_LIMIT:
            raise ValueError(
                f"modulus {p} is too large: primality is decided only below {PRIME_CHECK_LIMIT}"
            )
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"gf:{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value) -> int:
        if isinstance(value, bool):
            raise DocumentError("booleans are not field scalars")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            text = value.strip()
            try:
                n = int(text)
            except ValueError:
                raise DocumentError(f"bad GF({self.p}) literal {value!r}") from None
            return n % self.p
        raise DocumentError(f"cannot interpret {value!r} as a GF({self.p}) scalar")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def to_str(self, a) -> str:
        return str(a % self.p)

    def matmul(self, a, b, n, k, m):
        """Row-major entries of the n x m product of row-major n x k `a` and k x m `b`.

        One integer dot product and one reduction mod p per entry.
        """
        p = self.p
        rows = [a[i * k : (i + 1) * k] for i in range(n)]
        cols = [b[j::m] for j in range(m)]
        return [sum(map(mul, r, c)) % p for r in rows for c in cols]

    def row_reduce(self, rows):
        """Reduced row-echelon form of a list of rows, and its pivot columns."""
        m = [list(row) for row in rows]
        nrows = len(m)
        ncols = len(m[0]) if m else 0
        pivots = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            inv_p = self.inv(m[r][c])
            m[r] = [self.mul(inv_p, v) for v in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    factor = m[i][c]
                    m[i] = [self.sub(x, self.mul(factor, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field GF(p)."""
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_by_name(name: str):
    """Resolve a field tag: "rational" or "gf:<p>"."""
    if name == "rational":
        return QQ
    if name.startswith("gf:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise DocumentError(f"bad field tag {name!r}") from None
        try:
            return GF(p)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
    raise DocumentError(f"unknown field tag {name!r}")
