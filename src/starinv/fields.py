"""Exact scalar fields: the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` (always in lowest terms with a
positive denominator); GF(p) scalars are plain ints in [0, p).  A field
object bundles the scalar arithmetic, parsing and formatting of the exact
string form used by the CLI ("-7/2", "3"), and the matrix kernels that
`matrix.py` is built on.

The kernels work on a matrix's packed form: a row-major tuple of ints
`nums` and one int `den > 0`, the matrix being nums / den.  Each field owns
its format.  `RationalField` keeps it canonical: `gcd(den, *nums) == 1`, so
the zero matrix has den 1 and equal matrices have equal packed forms.
`PrimeField` keeps the residues themselves with den 1.  Every field has
`pack(values)` and `unpack(nums, den)` between scalars and packed form, the
matrix kernels `matmul`, `matadd`, `matsub` and `matneg`, and the
elimination kernels `row_reduce` and `rank`; no kernel builds a scalar
object.
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

_NOT_PLAIN = "'_' and non-ASCII characters are not accepted"


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


def lowest_terms(nums, den):
    """The packed form (tuple(nums), den) divided by gcd(den, *nums); den > 0."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([v // g for v in nums]), den // g


class RationalField:
    """The field of rationals with arbitrary-precision Fraction scalars."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)
    # A sum of squares is 0 only when every term is, so x^T*x == 0 forces
    # x == 0: transpose has no isotropic vector and every matrix is
    # Moore-Penrose invertible.  Over GF(p) there are isotropic vectors in
    # three or more coordinates, for every p.
    anisotropic = True

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
            if "_" in value or not value.isascii():  # Fraction reads "1_0" as 10 and "٣" as 3
                raise DocumentError(f"bad rational literal {value!r}: {_NOT_PLAIN}")
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

    # -- packed matrices: nums / den, canonical --------------------------------

    def pack(self, values):
        """Canonical (nums, den) of a row-major sequence of ints and Fractions.

        den is the lcm of the denominators, so no gcd is needed: a prime
        dividing den divides some denominator d_i to its full power in den,
        and then not den // d_i, nor the numerator coprime to d_i.
        """
        values = list(values)
        den = lcm(*(x.denominator for x in values))
        return tuple([x.numerator * (den // x.denominator) for x in values]), den

    def unpack(self, nums, den):
        """The entries of a packed matrix as canonical Fractions."""
        return tuple([Fraction(v, den) for v in nums])

    def matmul(self, an, ad, bn, bd, n, k, m):
        """Packed n x m product of packed n x k (an, ad) and k x m (bn, bd).

        The integer product of the numerators over ad * bd, reduced once.
        """
        rows = [an[i * k : (i + 1) * k] for i in range(n)]
        cols = [bn[j::m] for j in range(m)]
        return lowest_terms([sum(map(mul, r, c)) for r in rows for c in cols], ad * bd)

    def matadd(self, an, ad, bn, bd):
        d = lcm(ad, bd)
        sa, sb = d // ad, d // bd
        return lowest_terms([x * sa + y * sb for x, y in zip(an, bn)], d)

    def matsub(self, an, ad, bn, bd):
        d = lcm(ad, bd)
        sa, sb = d // ad, d // bd
        return lowest_terms([x * sa - y * sb for x, y in zip(an, bn)], d)

    def matneg(self, nums):
        return tuple([-v for v in nums])

    @staticmethod
    def _eliminate(nums, nrows, ncols, full):
        """Fraction-free Gauss(-Jordan) elimination on the integer rows of nums.

        A row is eliminated as pv*x - f*y and divided by the gcd of its
        entries.  Every row stays a positive multiple of the row textbook
        elimination holds, so the pivots are the same.  With full=False
        only the rows below each pivot are eliminated (enough for the rank).
        """
        m = [list(nums[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
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
            for i in range(nrows) if full else range(r + 1, nrows):
                f = m[i][c]
                if i != r and f:
                    x = [pv * xv - f * yv for xv, yv in zip(m[i], y)]
                    g = gcd(*x)
                    m[i] = [v // g for v in x] if g > 1 else x
            pivots.append(c)
            r += 1
        return m, pivots

    def row_reduce(self, nums, nrows, ncols):
        """Packed reduced row-echelon form of a packed matrix, and its pivot columns.

        The den of the input plays no part: scaling every row leaves the
        RREF alone.  Pivot row i ends as x_i / p_i with x_i primitive and
        p_i > 0 its pivot entry; over den = lcm(p_i) the result is canonical
        by the argument of `pack`.
        """
        m, pivots = self._eliminate(nums, nrows, ncols, True)
        rows = []
        for i, c in enumerate(pivots):
            g = gcd(*m[i])
            if m[i][c] < 0:
                g = -g
            rows.append([v // g for v in m[i]])
        den = lcm(*(row[c] for row, c in zip(rows, pivots)))
        out = []
        for row, c in zip(rows, pivots):
            s = den // row[c]
            out += row if s == 1 else [v * s for v in row]
        out += [0] * ((nrows - len(pivots)) * ncols)
        return tuple(out), den, pivots

    def rank(self, nums, nrows, ncols):
        """Rank of a packed matrix: forward elimination only, no RREF built."""
        return len(self._eliminate(nums, nrows, ncols, False)[1])

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
        self.anisotropic = False
        self.zero = 0
        self.one = 1 % p

    def of(self, value) -> int:
        if isinstance(value, bool):
            raise DocumentError("booleans are not field scalars")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            text = value.strip()
            if "_" in text or not text.isascii():
                raise DocumentError(f"bad GF({self.p}) literal {value!r}: {_NOT_PLAIN}")
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

    # -- packed matrices: the residues themselves, den 1 ------------------------

    def pack(self, values):
        return tuple([v % self.p for v in values]), 1

    def unpack(self, nums, den):
        return nums

    def matmul(self, an, ad, bn, bd, n, k, m):
        """Packed n x m product: one integer dot product and one reduction mod p per entry."""
        p = self.p
        rows = [an[i * k : (i + 1) * k] for i in range(n)]
        cols = [bn[j::m] for j in range(m)]
        return tuple([sum(map(mul, r, c)) % p for r in rows for c in cols]), 1

    def matadd(self, an, ad, bn, bd):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(an, bn)]), 1

    def matsub(self, an, ad, bn, bd):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(an, bn)]), 1

    def matneg(self, nums):
        p = self.p
        return tuple([-v % p for v in nums])

    def _eliminate(self, nums, nrows, ncols, full):
        """Gauss(-Jordan) elimination mod p; full=False clears below the pivots only."""
        p = self.p
        m = [list(nums[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
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
            inv = pow(m[r][c], -1, p)
            y = m[r] = [v * inv % p for v in m[r]]
            for i in range(nrows) if full else range(r + 1, nrows):
                f = m[i][c]
                if i != r and f != 0:
                    m[i] = [(x - f * yv) % p for x, yv in zip(m[i], y)]
            pivots.append(c)
            r += 1
        return m, pivots

    def row_reduce(self, nums, nrows, ncols):
        """Packed reduced row-echelon form of a packed matrix, and its pivot columns."""
        m, pivots = self._eliminate(nums, nrows, ncols, True)
        return tuple([v for row in m for v in row]), 1, pivots

    def rank(self, nums, nrows, ncols):
        """Rank of a packed matrix: forward elimination only."""
        return len(self._eliminate(nums, nrows, ncols, False)[1])

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


def _canonical_int(text: str):
    """The int that str() spells as text, or None ('+', ' ', '_', leading 0, non-ASCII digit)."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


def field_by_name(name: str):
    """Resolve a field tag: "rational" or "gf:<p>"."""
    if name == "rational":
        return QQ
    if name.startswith("gf:"):
        p = _canonical_int(name[3:])
        if p is None:
            raise DocumentError(f"bad field tag {name!r}")
        try:
            return GF(p)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
    raise DocumentError(f"unknown field tag {name!r}")
