"""Exact scalar fields: the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` (always in lowest terms with a
positive denominator); GF(p) scalars are plain ints in [0, p).  A field
object parses the exact string form used by the CLI ("-7/2", "3"; `str`
writes it back) and holds the matrix kernels that `matrix.py` is built on.
It has no scalar arithmetic: scalars add and multiply with their own
operators, and a GF(p) sum is reduced when a matrix packs it.

The kernels work on a matrix's packed form: a row-major tuple of ints
`nums` and one int `den > 0`, the matrix being nums / den; only this
module and `matrix.py` read it.  Over Q it is canonical, `gcd(den, *nums)
== 1`, so the zero matrix has den 1 and equal matrices have equal packed
forms; over GF(p) it is the residues themselves over den 1.  `_Field`
writes every kernel once for both fields: `matmul`, `matadd`, `matsub`,
`matneg`, the elimination behind `row_reduce`, `pivots` and `rank`, and
`residue(basis, v)`, one step of a running echelon form.  A field supplies
`of`, `pack(values)` and `unpack(nums, den)` between scalars and packed
form, the last pass of `row_reduce`, and the two primitives the kernels
run on: `_canonical` (lowest terms over Q, residues mod p over GF(p)) and
`_step`, one row operation.  No kernel builds a scalar object.
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
_ECHO = 40  # the most characters of a refused literal's repr that an error message repeats


def _echo(value) -> str:
    """repr(value) for an error message; past _ECHO characters, its head and the literal's length."""
    text = repr(value)
    if len(text) <= _ECHO:
        return text
    return f"{text[:_ECHO]}... ({len(str(value))} characters)"


def _detail(exc, value) -> str:
    """str(exc); when _echo cuts value, its first clause and at most 64 characters.

    After the first ': ' Python's text may repeat the literal ("Invalid
    literal for Fraction: '...'"), and a zero denominator repeats the
    numerator ("Fraction(n, 0)").
    """
    text = str(exc)
    if len(repr(value)) <= _ECHO:
        return text
    head = text.partition(": ")[0]
    return head if len(head) <= 64 else f"{head[:64]}..."


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


class _Field:
    """Products, sums, elimination and `residue`, written once over the packed form.

    They run on the field's `_canonical(nums, den)`, the canonical packed
    form of nums / den, and `_step(pv, x, f, y)`, the row pv*x - f*y kept small.
    """

    def matmul(self, an, ad, bn, bd, n, k, m):
        """Packed n x m product of packed n x k (an, ad) and k x m (bn, bd).

        The integer product of the numerators over ad * bd, made canonical once.
        """
        rows = [an[i * k : (i + 1) * k] for i in range(n)]
        cols = [bn[j::m] for j in range(m)]
        return self._canonical([sum(map(mul, r, c)) for r in rows for c in cols], ad * bd)

    def matadd(self, an, ad, bn, bd):
        d = lcm(ad, bd)
        sa, sb = d // ad, d // bd
        return self._canonical([x * sa + y * sb for x, y in zip(an, bn)], d)

    def matsub(self, an, ad, bn, bd):
        d = lcm(ad, bd)
        sa, sb = d // ad, d // bd
        return self._canonical([x * sa - y * sb for x, y in zip(an, bn)], d)

    def matneg(self, nums):
        """The nums of -(nums / den), over the same den."""
        # den 1 leaves every gcd at 1, so only the residues are reduced
        return self._canonical([-v for v in nums], 1)[0]

    def _eliminate(self, nums, nrows, ncols, full):
        """Gauss(-Jordan) elimination on the int rows of nums, without division.

        A row is eliminated as `_step(pv, x, f, y)`, so every row stays a
        nonzero multiple of the row textbook elimination holds, and the
        pivots are the same.  Pivot rows are not scaled: `row_reduce` does
        that once at the end.  With full=False only the rows below each
        pivot are eliminated (enough for the rank).
        """
        step = self._step
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
                    m[i] = step(pv, m[i], f, y)
            pivots.append(c)
            r += 1
        return m, pivots

    def pivots(self, nums, nrows, ncols):
        """Pivot columns of a packed matrix, those of its RREF: forward elimination only."""
        return self._eliminate(nums, nrows, ncols, False)[1]

    def rank(self, nums, nrows, ncols):
        """Rank of a packed matrix: forward elimination only, no RREF built."""
        return len(self.pivots(nums, nrows, ncols))

    def residue(self, basis, v):
        """(pivot, int vector v reduced against an echelon basis), or None if v lies in its span.

        v is a packed row or column: any nonzero multiple of the vector
        serves.  basis holds earlier results, (pivot, row) pairs, each row
        zero at the pivots before it.  Each step is `_eliminate`'s.
        """
        step = self._step
        v = step(1, v, 0, v)  # v itself, kept small
        for c, y in basis:
            f = v[c]
            if f:
                v = step(y[c], v, f, y)
        return next(((c, v) for c, x in enumerate(v) if x), None)


class RationalField(_Field):
    """The field of rationals with arbitrary-precision Fraction scalars."""

    name = "rational"
    zero = Fraction(0)
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
                raise DocumentError(
                    f"bad rational literal {_echo(value)}: exponents are not accepted"
                )
            if "_" in value or not value.isascii():  # Fraction reads "1_0" as 10 and "٣" as 3
                raise DocumentError(f"bad rational literal {_echo(value)}: {_NOT_PLAIN}")
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                msg = f"bad rational literal {_echo(value)}: {_detail(exc, value)}"
                raise DocumentError(msg) from None
        raise DocumentError(f"cannot interpret {_echo(value)} as a rational scalar")

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

    _canonical = staticmethod(lowest_terms)

    @staticmethod
    def _step(pv, x, f, y):
        """pv*x - f*y divided by the gcd of its entries."""
        x = [pv * xv - f * yv for xv, yv in zip(x, y)]
        g = gcd(*x)
        return [v // g for v in x] if g > 1 else x

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

    def __reduce__(self):
        # Unpickle to the module singleton QQ: fields compare by identity.
        return "QQ"

    def __repr__(self):
        return "RationalField()"


class PrimeField(_Field):
    """GF(p) for a prime p; scalars are canonical residues in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_CHECK_LIMIT:
            raise ValueError(
                f"modulus {_echo(p)} is too large: "
                f"primality is decided only below {PRIME_CHECK_LIMIT}"
            )
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"gf:{p}"
        self.anisotropic = False
        self.zero = 0

    def of(self, value) -> int:
        if isinstance(value, bool):
            raise DocumentError("booleans are not field scalars")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            text = value.strip()
            if "_" in text or not text.isascii():
                raise DocumentError(f"bad GF({self.p}) literal {_echo(value)}: {_NOT_PLAIN}")
            try:
                n = int(text)
            except ValueError:
                raise DocumentError(f"bad GF({self.p}) literal {_echo(value)}") from None
            return n % self.p
        raise DocumentError(f"cannot interpret {_echo(value)} as a GF({self.p}) scalar")

    # -- packed matrices: the residues themselves, den 1 ------------------------

    def pack(self, values):
        return self._canonical(values, 1)

    def unpack(self, nums, den):
        return nums

    def _canonical(self, nums, den):
        """The residues of nums mod p, over den 1 (den is 1 in every GF(p) kernel)."""
        p = self.p
        return tuple([v % p for v in nums]), 1

    def _step(self, pv, x, f, y):
        """pv*x - f*y reduced mod p."""
        p = self.p
        return [(pv * xv - f * yv) % p for xv, yv in zip(x, y)]

    def row_reduce(self, nums, nrows, ncols):
        """Packed RREF and pivot columns; each pivot row is scaled to 1 here, once."""
        p = self.p
        m, pivots = self._eliminate(nums, nrows, ncols, True)
        out = []
        for row, c in zip(m, pivots):
            inv = pow(row[c], -1, p)
            out += [v * inv % p for v in row]
        out += [0] * ((nrows - len(pivots)) * ncols)
        return tuple(out), 1, pivots

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
            raise DocumentError(f"bad field tag {_echo(name)}")
        try:
            return GF(p)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
    raise DocumentError(f"unknown field tag {_echo(name)}")
