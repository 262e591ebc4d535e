"""Exact dense matrices over the rationals or a prime field.

The involution is plain transpose, which is a legitimate *-ring involution
over these fields and keeps every identity in the package exactly checkable.
No floating point exists anywhere in this module.

A matrix holds its field's packed form (see `fields.py`): a row-major int
tuple `nums` and an int `den > 0`, the matrix being nums / den.  Over the
rationals it is canonical (`gcd(den, *nums) == 1`), so `==` and `hash`
compare ints; over GF(p), `nums` are the residues and den is 1.  Products,
sums and row reduction are the field's kernels (`matmul`, `matadd`,
`matsub`, `matneg`, `row_reduce`, `pivots`, `rank`, `residue`); this
module carries shapes and does the structural work (transpose, stacking,
selection, column sums, nonzero rows) on packed forms.  No other module
reads them.  `entries` gives the scalars (canonical `Fraction`s over the rationals,
residues over GF(p)); it is built on first read and cached.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Optional

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    NotMPInvertible,
    RingMismatch,
)
from .fields import QQ, lowest_terms


class ExactMatrix:
    """Immutable m x n matrix with exact entries and transpose involution."""

    __slots__ = ("rows", "cols", "field", "nums", "den", "_entries", "_hash")

    def __init__(self, rows, cols, entries, field):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.nums, self.den = field.pack(entries)
        if len(self.nums) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(self.nums)}")
        self._entries = None
        self._hash = None

    @classmethod
    def _packed(cls, rows, cols, nums, den, field) -> "ExactMatrix":
        """A matrix from a packed form that is already canonical (a kernel's output)."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.field = field
        m.nums = nums
        m.den = den
        m._entries = None
        m._hash = None
        return m

    @classmethod
    def from_rows(cls, row_lists, field=QQ) -> "ExactMatrix":
        """Build a matrix from a list of rows, coercing entries into `field`."""
        nrows = len(row_lists)
        if nrows == 0:
            raise DimensionMismatch("a matrix needs at least one row")
        ncols = len(row_lists[0])
        if any(len(r) != ncols for r in row_lists):
            raise DimensionMismatch("ragged rows")
        ents = [field.of(v) for row in row_lists for v in row]
        return cls(nrows, ncols, ents, field)

    @classmethod
    def zeros(cls, rows, cols, field=QQ) -> "ExactMatrix":
        return cls._packed(rows, cols, (0,) * (rows * cols), 1, field)

    @classmethod
    def identity(cls, n, field=QQ) -> "ExactMatrix":
        nums = tuple([int(i == j) for i in range(n) for j in range(n)])
        return cls._packed(n, n, nums, 1, field)

    # -- basic access ------------------------------------------------------

    @property
    def entries(self):
        """Row-major scalars: canonical Fractions over the rationals, residues over GF(p)."""
        e = self._entries
        if e is None:
            e = self._entries = self.field.unpack(self.nums, self.den)
        return e

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row_list(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- ring structure ----------------------------------------------------

    def _check_ring(self, other):
        if not isinstance(other, ExactMatrix):
            raise RingMismatch(f"cannot combine ExactMatrix with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise RingMismatch(f"field mismatch: {self.field.name} vs {other.field.name}")

    def __add__(self, other):
        self._check_ring(other)
        if other.shape != self.shape:
            raise DimensionMismatch(f"add {self.shape} + {other.shape}")
        nums, den = self.field.matadd(self.nums, self.den, other.nums, other.den)
        return ExactMatrix._packed(self.rows, self.cols, nums, den, self.field)

    def __sub__(self, other):
        self._check_ring(other)
        if other.shape != self.shape:
            raise DimensionMismatch(f"sub {self.shape} - {other.shape}")
        nums, den = self.field.matsub(self.nums, self.den, other.nums, other.den)
        return ExactMatrix._packed(self.rows, self.cols, nums, den, self.field)

    def __neg__(self):
        nums = self.field.matneg(self.nums)
        return ExactMatrix._packed(self.rows, self.cols, nums, self.den, self.field)

    def __mul__(self, other):
        self._check_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"mul {self.shape} * {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        nums, den = self.field.matmul(self.nums, self.den, other.nums, other.den, n, k, m)
        return ExactMatrix._packed(n, m, nums, den, self.field)

    @property
    def star(self) -> "ExactMatrix":
        """Transpose: the involution of this *-ring."""
        nums = self.nums
        cols = self.cols
        t = tuple([nums[i * cols + j] for j in range(cols) for i in range(self.rows)])
        return ExactMatrix._packed(cols, self.rows, t, self.den, self.field)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.den == other.den
            and self.nums == other.nums
            and self.rows == other.rows
            and self.cols == other.cols
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.name, self.rows, self.cols, self.den, self.nums))
        return self._hash

    def __reduce__(self):
        # The cached hash follows the process's string hashing; leave it out.
        return (ExactMatrix, (self.rows, self.cols, self.entries, self.field))

    def __repr__(self):
        rows = "; ".join(
            " ".join(str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"ExactMatrix[{self.field.name}]({rows})"


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[a | b]; over den = lcm(a.den, b.den) the packed form stays canonical."""
    if a.field != b.field:
        raise RingMismatch("field mismatch in hstack")
    if a.rows != b.rows:
        raise DimensionMismatch("row count mismatch in hstack")
    den = lcm(a.den, b.den)
    an = a.nums if den == a.den else [v * (den // a.den) for v in a.nums]
    bn = b.nums if den == b.den else [v * (den // b.den) for v in b.nums]
    ac, bc = a.cols, b.cols
    nums = []
    for i in range(a.rows):
        nums += an[i * ac : (i + 1) * ac]
        nums += bn[i * bc : (i + 1) * bc]
    return ExactMatrix._packed(a.rows, ac + bc, tuple(nums), den, a.field)


def select(a: ExactMatrix, rows, cols) -> ExactMatrix:
    """The submatrix of a on the given row and column indices, in that order."""
    nums, n = a.nums, a.cols
    sub = [nums[i * n + j] for i in rows for j in cols]
    return ExactMatrix._packed(len(rows), len(cols), *lowest_terms(sub, a.den), a.field)


def column_sum(a: ExactMatrix, js):
    """The sum of the columns js of a as ints, a.den times that column: a field's `residue` input."""
    nums, n = a.nums, a.cols
    return [sum(nums[i * n + j] for j in js) for i in range(a.rows)]


def nonzero_rows(a: ExactMatrix):
    """The indices of the nonzero rows of a, in order."""
    nums, n = a.nums, a.cols
    return [i for i in range(a.rows) if any(nums[i * n : (i + 1) * n])]


def embed_square(a: ExactMatrix) -> ExactMatrix:
    """Zero-pad a rectangular matrix to the max(m, n) square ring."""
    n = max(a.rows, a.cols)
    if a.shape == (n, n):
        return a
    nums = []
    for i in range(a.rows):
        nums += a.nums[i * a.cols : (i + 1) * a.cols]
        nums += [0] * (n - a.cols)
    nums += [0] * ((n - a.rows) * n)
    return ExactMatrix._packed(n, n, tuple(nums), a.den, a.field)


# -- elimination ------------------------------------------------------------


def rref(a: ExactMatrix):
    """Reduced row-echelon form and pivot columns, exactly over the field."""
    nums, den, pivots = a.field.row_reduce(a.nums, a.rows, a.cols)
    return ExactMatrix._packed(a.rows, a.cols, nums, den, a.field), pivots


def rank(a: ExactMatrix) -> int:
    """Exact rank over the matrix's field, from the elimination alone."""
    return a.field.rank(a.nums, a.rows, a.cols)


def pivot_columns(a: ExactMatrix):
    """The pivot columns of rref(a), from forward elimination alone; there are rank(a) of them."""
    return a.field.pivots(a.nums, a.rows, a.cols)


def idempotent_rank(e: ExactMatrix) -> int:
    """rank(e) of an idempotent e (unchecked): its trace over Q and GF(p > n), else by elimination."""
    p = e.field.characteristic  # the trace of an idempotent is rank(e) * 1 in its field
    if p and p <= e.rows:
        return rank(e)
    trace = sum(e.nums[:: e.cols + 1]) // e.den
    return trace % p if p else trace


def inverse(a: ExactMatrix) -> ExactMatrix:
    """Inverse of a square matrix (inner_solve's full-rank c = I case); ZeroDivisionError if singular."""
    if not a.is_square:
        raise DimensionMismatch("inverse needs a square matrix")
    pivots, g, _ = inner_solve(a, ExactMatrix.identity(a.rows, a.field))
    if len(pivots) < a.rows:
        raise ZeroDivisionError("matrix is singular")
    return g


def inner_solve(b: ExactMatrix, c: ExactMatrix):
    """(pivot columns of b, g*c, whether col(c) lies in col(b)) from one rref of [b | c].

    g = inner_inverse(b).  Every E that puts [b | c] in RREF has
    E*b = rref(b).  When c = b*z, E*c = rref(b)*z is the same for every
    such E, the E that reduces [b | I] and defines g among them; so the top
    rank(b) rows of the right block, carried to b's pivot rows as g carries
    E's, are g*c.  A pivot in the right block means c leaves col(b), and
    then only c = I gives g*c (it is g).
    """
    n, k = b.cols, c.cols
    red, pivots = rref(hstack(b, c))
    pivots_b = [p for p in pivots if p < n]
    width = n + k
    nums = [0] * (n * k)
    for i, p in enumerate(pivots_b):
        nums[p * k : (p + 1) * k] = red.nums[i * width + n : (i + 1) * width]
    gc = ExactMatrix._packed(n, k, *lowest_terms(nums, red.den), b.field)
    return pivots_b, gc, len(pivots_b) == len(pivots)


def inner_inverse(a: ExactMatrix) -> ExactMatrix:
    """One inner inverse g of a (a*g*a == a): inner_solve's c = I case, one rref of [a | I].

    The right block is an invertible E with E*a == rref(a); g carries row i
    of E at row pivots[i] and zeros elsewhere.  Exists over any field.
    """
    return inner_solve(a, ExactMatrix.identity(a.rows, a.field))[1]


class RankFactorization(NamedTuple):
    """a = F*G with F of full column rank r and G of full row rank r.

    F is the columns of a at the pivots of its RREF and G the nonzero RREF
    rows.  At rank zero they are an m x 0 and a 0 x n matrix, whose product
    is the m x n zero matrix, so no caller needs a rank-zero branch.
    """

    f: ExactMatrix  # m x r
    g: ExactMatrix  # r x n
    pivots: tuple  # the pivot columns of a
    r: int

    def product(self) -> ExactMatrix:
        return self.f * self.g


def full_rank_factorize(a: ExactMatrix) -> RankFactorization:
    """Factor a into pivot columns (F) times nonzero RREF rows (G)."""
    red, pivots = rref(a)
    r = len(pivots)
    f = select(a, range(a.rows), pivots)
    g = select(red, range(r), range(a.cols))
    fact = RankFactorization(f, g, tuple(pivots), r)
    if fact.product() != a:
        raise InternalCheckError("rank factorization does not reproduce the matrix")
    return fact


# -- Moore-Penrose -----------------------------------------------------------


def penrose_equations(a: ExactMatrix, x: ExactMatrix):
    """The four Penrose equation booleans for the pair (a, x)."""
    if x.shape != (a.cols, a.rows):
        raise DimensionMismatch(f"candidate inverse shape {x.shape} for {a.shape}")
    ax = a * x
    xa = x * a
    return (
        ax * a == a,
        xa * x == x,
        ax.star == ax,
        xa.star == xa,
    )


def mp_inverse(a: ExactMatrix) -> ExactMatrix:
    """Moore-Penrose inverse via full-rank factorization, then verified.

    MacDuffee's formula: with a = F*G of full rank r,
    dagger(a) = G^T*(F^T*a*G^T)^{-1}*F^T, one r x r inverse.  Since
    F^T*a*G^T = (F^T*F)*(G*G^T), over the rationals this always succeeds;
    over GF(p) the inverse exists exactly when both Gram factors are
    nonsingular, and otherwise NotMPInvertible is raised.

    Raises:
        NotMPInvertible: no Moore-Penrose inverse exists over this field.
    """
    fact = full_rank_factorize(a)
    f_star, g_star = fact.f.star, fact.g.star
    try:
        core_inv = inverse(f_star * a * g_star)
    except ZeroDivisionError:
        raise _not_mp_invertible(a) from None
    x = g_star * core_inv * f_star
    if not all(penrose_equations(a, x)):
        raise InternalCheckError("computed Moore-Penrose candidate fails a Penrose equation")
    return x


def _not_mp_invertible(a: ExactMatrix) -> NotMPInvertible:
    return NotMPInvertible(f"no Moore-Penrose inverse over {a.field.name}: singular Gram factor")


def is_mp_invertible(a: ExactMatrix, rank_a: Optional[int] = None) -> bool:
    """Whether a has a Moore-Penrose inverse: rank(a^T*a) == rank(a) == rank(a*a^T).

    With a = F*G of full rank r, rank(a^T*a) = rank(F^T*F) and
    rank(a*a^T) = rank(G*G^T), so this holds exactly when both Gram factors
    of MacDuffee's formula in mp_inverse are nonsingular.  No inverse is built,
    and over an anisotropic field (the rationals) nothing is computed; rank_a is rank(a) if known.
    """
    if a.field.anisotropic:
        return True
    r = rank(a) if rank_a is None else rank_a
    return rank(a.star * a) == r and rank(a * a.star) == r


def require_mp_invertible(a: ExactMatrix, rank_a: Optional[int] = None) -> None:
    """Raise mp_inverse's NotMPInvertible unless is_mp_invertible(a, rank_a)."""
    if not is_mp_invertible(a, rank_a):
        raise _not_mp_invertible(a)


# -- row/column space tests ---------------------------------------------------


def column_space_leq(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff every column of a lies in the column space of b.

    Equivalent to the left-annihilator containment of b inside that of a in
    the matrix *-ring.  One forward elimination of [b | a] decides it: a
    column of a outside col(b) is a pivot in the a block, and a column
    inside it never is.  No inner inverse of b is built.
    """
    if a.field != b.field:
        raise RingMismatch("field mismatch")
    if a.rows != b.rows:
        raise DimensionMismatch("column_space_leq needs equal row counts")
    pivots = pivot_columns(hstack(b, a))
    return not pivots or pivots[-1] < b.cols


def row_space_leq(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff every row of a lies in the row space of b (transpose dual)."""
    if a.field != b.field:
        raise RingMismatch("field mismatch")
    if a.cols != b.cols:
        raise DimensionMismatch("row_space_leq needs equal column counts")
    return column_space_leq(a.star, b.star)


# -- exact linear matrix equations -------------------------------------------


def solve_matrix_equations(terms, shape, field) -> Optional[ExactMatrix]:
    """Solve a system of linear matrix equations for one unknown X.

    Each item of `terms` is a pair (products, c) standing for the equation
    sum(L*X*R for (L, R) in products) == c, with X of the given shape.
    Returns one exact solution (free variables set to zero) or None when the
    system is inconsistent.
    """
    xr, xc = shape
    nunk = xr * xc
    aug = []  # the augmented system [coefficients | c], row-major
    for products, c in terms:
        for (l_mat, r_mat) in products:
            if l_mat.cols != xr or r_mat.rows != xc:
                raise DimensionMismatch("term shape does not fit the unknown")
        for s in range(c.rows):
            for t in range(c.cols):
                coeff = [field.zero] * nunk
                for (l_mat, r_mat) in products:
                    if c.rows != l_mat.rows or c.cols != r_mat.cols:
                        raise DimensionMismatch("equation shape mismatch")
                    for u in range(xr):
                        lsu = l_mat[s, u]
                        if lsu == field.zero:
                            continue
                        for v in range(xc):
                            coeff[u * xc + v] += lsu * r_mat[v, t]
                aug += coeff
                aug.append(c[s, t])
    red, pivots = rref(ExactMatrix(len(aug) // (nunk + 1), nunk + 1, aug, field))
    if nunk in pivots:
        return None
    sol = [field.zero] * nunk
    for i, c in enumerate(pivots):
        sol[c] = red[i, nunk]
    return ExactMatrix(xr, xc, sol, field)
