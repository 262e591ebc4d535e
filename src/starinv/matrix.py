"""Exact dense matrices over the rationals or a prime field.

The involution is plain transpose, which is a legitimate *-ring involution
over these fields and keeps every identity in the package exactly checkable.
No floating point exists anywhere in this module.

Products and row reduction are the field's kernels (`field.matmul`,
`field.row_reduce` in `fields.py`); `ExactMatrix.__mul__` and `rref` only
carry shapes.  Entries are canonical at this boundary: `Fraction` in lowest
terms over the rationals, residues in [0, p) over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    NotMPInvertible,
    RingMismatch,
)
from .fields import QQ


class ExactMatrix:
    """Immutable m x n matrix with exact entries and transpose involution."""

    __slots__ = ("rows", "cols", "entries", "field", "_hash")

    def __init__(self, rows, cols, entries, field):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self.field = field
        if len(self.entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(self.entries)}"
            )
        self._hash = None

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
        return cls(rows, cols, [field.zero] * (rows * cols), field)

    @classmethod
    def identity(cls, n, field=QQ) -> "ExactMatrix":
        ents = [field.one if i == j else field.zero for i in range(n) for j in range(n)]
        return cls(n, n, ents, field)

    # -- basic access ------------------------------------------------------

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
        z = self.field.zero
        return all(e == z for e in self.entries)

    # -- ring structure ----------------------------------------------------

    def _check_ring(self, other):
        if not isinstance(other, ExactMatrix):
            raise RingMismatch(f"cannot combine ExactMatrix with {type(other).__name__}")
        if other.field != self.field:
            raise RingMismatch(f"field mismatch: {self.field.name} vs {other.field.name}")

    def __add__(self, other):
        self._check_ring(other)
        if other.shape != self.shape:
            raise DimensionMismatch(f"add {self.shape} + {other.shape}")
        add = self.field.add
        ents = [add(a, b) for a, b in zip(self.entries, other.entries)]
        return ExactMatrix(self.rows, self.cols, ents, self.field)

    def __sub__(self, other):
        self._check_ring(other)
        if other.shape != self.shape:
            raise DimensionMismatch(f"sub {self.shape} - {other.shape}")
        sub = self.field.sub
        ents = [sub(a, b) for a, b in zip(self.entries, other.entries)]
        return ExactMatrix(self.rows, self.cols, ents, self.field)

    def __neg__(self):
        neg = self.field.neg
        return ExactMatrix(self.rows, self.cols, [neg(a) for a in self.entries], self.field)

    def __mul__(self, other):
        self._check_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"mul {self.shape} * {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        ents = self.field.matmul(self.entries, other.entries, n, k, m)
        return ExactMatrix(n, m, ents, self.field)

    def scale(self, scalar):
        c = self.field.of(scalar)
        mul = self.field.mul
        return ExactMatrix(self.rows, self.cols, [mul(c, e) for e in self.entries], self.field)

    @property
    def star(self) -> "ExactMatrix":
        """Transpose: the involution of this *-ring."""
        ents = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return ExactMatrix(self.cols, self.rows, ents, self.field)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.name, self.rows, self.cols, self.entries))
        return self._hash

    def __reduce__(self):
        # The cached hash follows the process's string hashing; leave it out.
        return (ExactMatrix, (self.rows, self.cols, self.entries, self.field))

    def __repr__(self):
        rows = "; ".join(
            " ".join(self.field.to_str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"ExactMatrix[{self.field.name}]({rows})"


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.field != b.field:
        raise RingMismatch("field mismatch in hstack")
    if a.rows != b.rows:
        raise DimensionMismatch("row count mismatch in hstack")
    ents = []
    for i in range(a.rows):
        ents.extend(a.row_list(i))
        ents.extend(b.row_list(i))
    return ExactMatrix(a.rows, a.cols + b.cols, ents, a.field)


def embed_square(a: ExactMatrix) -> ExactMatrix:
    """Zero-pad a rectangular matrix to the max(m, n) square ring."""
    n = max(a.rows, a.cols)
    if a.shape == (n, n):
        return a
    z = a.field.zero
    ents = []
    for i in range(n):
        for j in range(n):
            ents.append(a[i, j] if i < a.rows and j < a.cols else z)
    return ExactMatrix(n, n, ents, a.field)


# -- elimination ------------------------------------------------------------


def rref(a: ExactMatrix):
    """Reduced row-echelon form and pivot columns, exactly over the field."""
    rows, pivots = a.field.row_reduce([a.row_list(i) for i in range(a.rows)])
    return ExactMatrix(a.rows, a.cols, [v for row in rows for v in row], a.field), pivots


def rank(a: ExactMatrix) -> int:
    """Exact rank over the matrix's field."""
    return len(rref(a)[1])


def inverse(a: ExactMatrix) -> ExactMatrix:
    """Inverse of a square matrix; ZeroDivisionError if singular."""
    if not a.is_square:
        raise DimensionMismatch("inverse needs a square matrix")
    n = a.rows
    red, pivots = rref(hstack(a, ExactMatrix.identity(n, a.field)))
    if pivots != list(range(n)):  # the augmented block always has n pivots
        raise ZeroDivisionError("matrix is singular")
    ents = []
    for i in range(n):
        ents.extend(red.row_list(i)[n:])
    return ExactMatrix(n, n, ents, a.field)


def inner_inverse(a: ExactMatrix) -> ExactMatrix:
    """One inner inverse g of a (a*g*a == a) from a single rref of [a | I].

    The right block is an invertible E with E*a == rref(a); g carries row i
    of E at row pivots[i] and zeros elsewhere.  Exists over any field.
    """
    m, n = a.shape
    red, pivots = rref(hstack(a, ExactMatrix.identity(m, a.field)))
    rows = [[a.field.zero] * m for _ in range(n)]
    for i, c in enumerate(pivots):
        if c >= n:
            break
        rows[c] = red.row_list(i)[n:]
    return ExactMatrix(n, m, [v for row in rows for v in row], a.field)


@dataclass(frozen=True)
class RankFactorization:
    """a = F*G with F of full column rank r and G of full row rank r.

    Rank zero is represented by empty factor lists; the m x 0 by 0 x n
    product is the zero matrix by convention.
    """

    f_columns: tuple  # r columns, each a tuple of length m
    g_rows: tuple  # r rows, each a tuple of length n
    r: int
    rows: int
    cols: int
    field: object

    def f_matrix(self) -> Optional[ExactMatrix]:
        if self.r == 0:
            return None
        ents = [self.f_columns[j][i] for i in range(self.rows) for j in range(self.r)]
        return ExactMatrix(self.rows, self.r, ents, self.field)

    def g_matrix(self) -> Optional[ExactMatrix]:
        if self.r == 0:
            return None
        ents = [v for row in self.g_rows for v in row]
        return ExactMatrix(self.r, self.cols, ents, self.field)

    def product(self) -> ExactMatrix:
        if self.r == 0:
            return ExactMatrix.zeros(self.rows, self.cols, self.field)
        return self.f_matrix() * self.g_matrix()


def full_rank_factorize(a: ExactMatrix) -> RankFactorization:
    """Factor a into pivot columns (F) times nonzero RREF rows (G)."""
    red, pivots = rref(a)
    r = len(pivots)
    f_columns = tuple(tuple(a[i, c] for i in range(a.rows)) for c in pivots)
    g_rows = tuple(tuple(red.row_list(i)) for i in range(r))
    fact = RankFactorization(f_columns, g_rows, r, a.rows, a.cols, a.field)
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

    Over the rationals this always succeeds.  Over GF(p) the inverse exists
    exactly when both Gram factors G*G^T and F^T*F are nonsingular; otherwise
    NotMPInvertible is raised.

    Raises:
        NotMPInvertible: no Moore-Penrose inverse exists over this field.
    """
    fact = full_rank_factorize(a)
    if fact.r == 0:
        return ExactMatrix.zeros(a.cols, a.rows, a.field)
    fmat = fact.f_matrix()
    gmat = fact.g_matrix()
    try:
        gg_inv = inverse(gmat * gmat.star)
        ff_inv = inverse(fmat.star * fmat)
    except ZeroDivisionError:
        raise NotMPInvertible(
            f"no Moore-Penrose inverse over {a.field.name}: singular Gram factor"
        ) from None
    x = gmat.star * gg_inv * ff_inv * fmat.star
    if not all(penrose_equations(a, x)):
        raise InternalCheckError("computed Moore-Penrose candidate fails a Penrose equation")
    return x


def is_mp_invertible(a: ExactMatrix) -> bool:
    try:
        mp_inverse(a)
        return True
    except NotMPInvertible:
        return False


# -- row/column space tests ---------------------------------------------------


def column_space_leq(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff every column of a lies in the column space of b.

    Equivalent to the left-annihilator containment of b inside that of a in
    the matrix *-ring.
    """
    if a.field != b.field:
        raise RingMismatch("field mismatch")
    if a.rows != b.rows:
        raise DimensionMismatch("column_space_leq needs equal row counts")
    return rank(hstack(b, a)) == rank(b)


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
    rows = []
    rhs = []
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
                            coeff[u * xc + v] = field.add(
                                coeff[u * xc + v], field.mul(lsu, r_mat[v, t])
                            )
                rows.append(coeff)
                rhs.append(c[s, t])
    if not rows:
        return ExactMatrix.zeros(xr, xc, field)
    aug_ents = []
    for coeff, b in zip(rows, rhs):
        aug_ents.extend(coeff)
        aug_ents.append(b)
    aug = ExactMatrix(len(rows), nunk + 1, aug_ents, field)
    red, pivots = rref(aug)
    if nunk in pivots:
        return None
    sol = [field.zero] * nunk
    for i, c in enumerate(pivots):
        sol[c] = red[i, nunk]
    return ExactMatrix(xr, xc, sol, field)
