"""Property tests of the matrix document parser (skipped without hypothesis)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from starinv import GF, QQ, DocumentError, ExactMatrix  # noqa: E402
from starinv.cli import parse_matrix_document, serialize_matrix_document  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)

cells = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-9, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(-99, 99), st.integers(-99, 99), st.sampled_from("eE")).map(
        lambda t: f"{t[0]}{t[2]}{t[1]}"
    ),
    st.tuples(st.integers(-99, 99), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.sampled_from(["1e10000000", "9E99999999", "1.5e3", ".5", "1_000", "-0", "+3", "x"]),
    st.text(alphabet="0123456789/-+.eE_x", min_size=1, max_size=8),
)
field_lines = st.sampled_from(
    ["", "field rational\n", "field gf:2\n", "field gf:101\n", "field gf:4\n", "field gf:x\n"]
)


@st.composite
def documents(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    # the declared shape is sometimes wrong, so count errors are reached too
    declared_rows = draw(st.sampled_from([rows, rows, rows + 1, 0]))
    declared_cols = draw(st.sampled_from([cols, cols, cols - 1]))
    body = "".join(
        " ".join(draw(cells) for _ in range(cols)) + "\n" for _ in range(rows)
    )
    header = draw(field_lines) + f"rows {declared_rows}\ncols {declared_cols}\n"
    return header + body


@SETTINGS
@hypothesis.given(st.one_of(documents(), st.text(max_size=60)))
def test_parser_returns_a_matrix_or_raises_document_error(text):
    try:
        result = parse_matrix_document(text)
    except DocumentError:
        return
    assert isinstance(result, ExactMatrix)


rational_entries = st.fractions(max_denominator=10**9).filter(lambda x: abs(x.numerator) < 10**30)


@st.composite
def canonical_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    field = draw(st.sampled_from([QQ, GF(2), GF(101), GF(10000000000037)]))
    if field is QQ:
        entries = draw(st.lists(rational_entries, min_size=rows * cols, max_size=rows * cols))
    else:
        entries = draw(
            st.lists(st.integers(0, field.p - 1), min_size=rows * cols, max_size=rows * cols)
        )
    return ExactMatrix(rows, cols, entries, field)


@SETTINGS
@hypothesis.given(canonical_matrices())
def test_canonical_documents_round_trip(a):
    text = serialize_matrix_document(a)
    parsed = parse_matrix_document(text)
    assert parsed == a
    assert serialize_matrix_document(parsed) == text
    if a.field is QQ:
        assert all(type(e) is Fraction for e in parsed.entries)
