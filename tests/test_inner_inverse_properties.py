"""Property tests of the inner-inverse rule behind the matrix order decisions (skipped without hypothesis).

Over the rationals, GF(2), GF(3) and GF(101), for rectangular b of any rank
and g = inner_inverse(b): b*g*t == t exactly when the columns of t lie in the
column space of b, and t*g*b == t exactly when its rows lie in the row space
of b, which is the left containment on stars.  _ann_leq's one matrix route
(one forward elimination of [b | t] in column_space_leq) agrees with those
products, with column_space_leq and row_space_leq called directly, and
with the two-rank definition rank([b | t]) == rank(b).  The nonzero rows of g are the
pivot columns of b, and g's rows there are inner_inverse(F_b) for the pivot
columns F_b of b, which leq_plus's rank stage reads from g instead of
reducing b again.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from starinv import GF, QQ, ExactMatrix, column_space_leq, full_rank_factorize, row_space_leq  # noqa: E402
from starinv.matrix import hstack, inner_inverse, rank, select  # noqa: E402
from starinv.orders import _ann_leq  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)
FIELDS = (QQ, GF(2), GF(3), GF(101))


def _scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, field.p - 1)


def _matrix(draw, field, rows, cols):
    ents = draw(st.lists(_scalars(field), min_size=rows * cols, max_size=rows * cols))
    return ExactMatrix(rows, cols, ents, field)


def _low_rank(draw, field, rows, cols):
    """A rows x cols product through a drawn inner dimension 0..min(rows, cols)."""
    r = draw(st.integers(0, min(rows, cols)))
    if r == 0:
        return ExactMatrix.zeros(rows, cols, field)
    return _matrix(draw, field, rows, r) * _matrix(draw, field, r, cols)


@st.composite
def operands(draw):
    """(b, t_col, t_row): b is m x n of any rank; t_col has m rows and t_row
    n columns, each unrelated, inside b's column (row) space, or that plus a
    perturbation, so both outcomes of each containment occur."""
    field = draw(st.sampled_from(FIELDS))
    m, n, k = (draw(st.integers(1, 4)) for _ in range(3))
    b = _low_rank(draw, field, m, n)
    kind = draw(st.sampled_from(["random", "inside", "perturbed"]))
    if kind == "random":
        return b, _low_rank(draw, field, m, k), _low_rank(draw, field, k, n)
    t_col = b * _matrix(draw, field, n, k)
    t_row = _matrix(draw, field, k, m) * b
    if kind == "perturbed":
        t_col = t_col + _low_rank(draw, field, m, k)
        t_row = t_row + _low_rank(draw, field, k, n)
    return b, t_col, t_row


@SETTINGS
@hypothesis.given(operands())
def test_left_containment_is_b_g_t_equals_t(ops):
    b, t, _ = ops
    g = inner_inverse(b)
    inside = rank(hstack(b, t)) == rank(b)
    routes = [b * g * t == t, column_space_leq(t, b), _ann_leq(b, t)]
    assert routes == [inside] * 3


@SETTINGS
@hypothesis.given(operands())
def test_right_containment_is_t_g_b_equals_t_and_the_left_one_on_stars(ops):
    b, _, t = ops
    g = inner_inverse(b)
    inside = rank(hstack(b.star, t.star)) == rank(b)
    routes = [
        t * g * b == t,
        b.star * g.star * t.star == t.star,
        row_space_leq(t, b),
        _ann_leq(b.star, t.star),
    ]
    assert routes == [inside] * 4


@SETTINGS
@hypothesis.given(operands())
def test_inner_inverse_rows_are_the_pivots_and_the_left_inverse_of_f_b(ops):
    b = ops[0]
    g = inner_inverse(b)
    fact = full_rank_factorize(b)
    m = b.rows
    nonzero = tuple(i for i in range(g.rows) if any(g.nums[i * m : (i + 1) * m]))
    assert nonzero == fact.pivots
    if fact.r:
        assert select(g, fact.pivots, range(m)) == inner_inverse(fact.f)
