"""Property tests of the identities behind the lazy order decisions (skipped without hypothesis).

Over the rationals, GF(2) and GF(5), for square matrices with n <= 4:
is_mp_invertible(a) agrees with whether mp_inverse(a) raises, and wherever
lp(a) and rp(a) exist, lp(a)*b*rp(a) == a holds exactly when
a*star(b)*a == a*star(a)*a, the gate of leq_plus's canonical stage.  For
oblique idempotents e = c*(d^T c)^{-1}*d^T, idempotent_rank(e) is the rank
k of c: from the trace over the rationals and GF(101), by elimination over
GF(2) and GF(3) with n >= p, where the trace is k mod p and can mislead.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from starinv import GF, QQ, ExactMatrix, NotMPInvertible, NotRickart, lp, rp  # noqa: E402
from starinv.matrix import idempotent_rank, inverse, is_mp_invertible, mp_inverse, rank  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)
FIELDS = (QQ, GF(2), GF(5))


def _scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, field.p - 1)


def _matrix(draw, field, rows, cols):
    ents = draw(st.lists(_scalars(field), min_size=rows * cols, max_size=rows * cols))
    return ExactMatrix(rows, cols, ents, field)


@st.composite
def square_matrices(draw, field=None, n=None):
    """An n x n matrix over one of FIELDS, of drawn rank bound r (a product n x r by r x n)."""
    field = field if field is not None else draw(st.sampled_from(FIELDS))
    n = n if n is not None else draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    if r == 0:
        return ExactMatrix.zeros(n, n, field)
    return _matrix(draw, field, n, r) * _matrix(draw, field, r, n)


@SETTINGS
@hypothesis.given(square_matrices())
def test_is_mp_invertible_agrees_with_mp_inverse(a):
    try:
        mp_inverse(a)
        built = True
    except NotMPInvertible:
        built = False
    assert is_mp_invertible(a) == built


@st.composite
def pairs_with_projections(draw):
    """(a, b) where lp(a) and rp(a) exist; b is unrelated, a star-order form
    above a, or a perturbation of one, so both outcomes of the gate occur."""
    a = draw(square_matrices())
    try:
        la, ra = lp(a), rp(a)
    except NotRickart:
        hypothesis.assume(False)
    n, field = a.rows, a.field
    eye = ExactMatrix.identity(n, field)
    u = draw(square_matrices(field, n))
    kind = draw(st.sampled_from(["random", "star", "perturbed"]))
    if kind == "random":
        return a, u, la, ra
    b = a + (eye - la) * u * (eye - ra)
    if kind == "perturbed":
        b = b + draw(square_matrices(field, n))
    return a, b, la, ra


@SETTINGS
@hypothesis.given(pairs_with_projections())
def test_canonical_plus_witness_iff_diamond_product(pair):
    a, b, la, ra = pair
    assert (la * b * ra == a) == (a * b.star * a == a * a.star * a)


@st.composite
def oblique_idempotents(draw):
    """(e, k, field): e = c*(d^T c)^{-1}*d^T for n x k c and d with d^T c invertible."""
    field = draw(st.sampled_from((QQ, GF(101), GF(2), GF(3))))
    n = draw(st.integers(1 if field.characteristic in (0, 101) else field.p, 4))
    k = draw(st.integers(0, n))
    c, d = _matrix(draw, field, n, k), _matrix(draw, field, n, k)
    gram = d.star * c
    hypothesis.assume(rank(gram) == k)
    return c * inverse(gram) * d.star, k, field


@SETTINGS
@hypothesis.given(oblique_idempotents())
def test_idempotent_rank_of_oblique_idempotents(drawn):
    e, k, field = drawn
    assert e * e == e
    assert idempotent_rank(e) == rank(e) == k
    p = field.characteristic
    trace = sum(e[i, i] for i in range(e.rows))
    assert (trace == k) if p == 0 else (trace % p == k % p)
