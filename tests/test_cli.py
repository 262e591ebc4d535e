import json
from fractions import Fraction
from pathlib import Path

import pytest

from starinv import DimensionMismatch, DocumentError, ExactMatrix, GF, QQ, field_by_name
from starinv.cli import (
    main,
    matrix_payload,
    parse_matrix_document,
    serialize_matrix_document,
)

from conftest import M


def write_doc(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(serialize_matrix_document(matrix))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _run_child(*argv):
    """Run `python -m starinv.cli argv` in a child that imports the same starinv as this suite."""
    import os
    import subprocess
    import sys

    import starinv

    src = os.path.dirname(os.path.dirname(starinv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "starinv.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestDocuments:
    def test_round_trip_rational(self):
        a = M([["-7/2", 0], [3, "1/3"]])
        assert parse_matrix_document(serialize_matrix_document(a)) == a

    def test_round_trip_gf(self):
        a = M([[1, 2], [0, 1]], GF(3))
        text = serialize_matrix_document(a)
        assert "field gf:3" in text
        assert parse_matrix_document(text) == a

    def test_canonical_text_is_stable(self):
        a = M([["2/4", "-1"]])
        assert serialize_matrix_document(a) == "field rational\nrows 1\ncols 2\n1/2 -1\n"

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nfield rational\nrows 1\ncols 1\n\n5\n"
        assert parse_matrix_document(text) == M([[5]])

    def test_default_field_applies_when_headerless(self):
        assert parse_matrix_document("rows 1\ncols 1\n4\n", GF(3)) == M([[1]], GF(3))
        assert parse_matrix_document("rows 1\ncols 1\n4\n") == M([[4]])

    def test_error_carries_line(self):
        with pytest.raises(DocumentError) as err:
            parse_matrix_document("field rational\nrows 1\ncols 2\n1 x\n")
        assert err.value.line == 4 and err.value.column == 2

    def test_missing_rows_line(self):
        with pytest.raises(DocumentError):
            parse_matrix_document("field rational\ncols 2\n1 2\n")

    def test_wrong_entry_count(self):
        with pytest.raises(DocumentError):
            parse_matrix_document("rows 1\ncols 3\n1 2\n")

    def test_gf_rejects_fractions(self):
        with pytest.raises(DocumentError):
            parse_matrix_document("field gf:2\nrows 1\ncols 1\n1/2\n")

    @pytest.mark.parametrize(
        "build, arg, error, message",
        [
            (field_by_name, "real", DocumentError, "unknown field tag 'real'"),
            (ExactMatrix.from_rows, [], DimensionMismatch, "a matrix needs at least one row"),
            (ExactMatrix.from_rows, [[1, 2], [3]], DimensionMismatch, "ragged rows"),
            (QQ.of, True, DocumentError, "booleans are not rational scalars"),
            (GF(5).of, True, DocumentError, "booleans are not field scalars"),
            (QQ.of, 1.5, DocumentError, "cannot interpret 1.5 as a rational scalar"),
            (GF(5).of, 1.5, DocumentError, "cannot interpret 1.5 as a GF(5) scalar"),
        ],
        ids=["field-tag", "no-rows", "ragged", "qq-bool", "gf-bool", "qq-float", "gf-float"],
    )
    def test_refused_values_name_the_fault(self, build, arg, error, message):
        with pytest.raises(error) as err:
            build(arg)
        assert str(err.value) == message


class TestCmdMp:
    def test_identity(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.mat", ExactMatrix.identity(2))
        code, rep = run_cli(capsys, "mp", path)
        assert code == 0 and rep["status"] == "ok"
        assert rep["results"]["mp_inverse"]["entries"] == [["1", "0"], ["0", "1"]]
        assert rep["results"]["penrose"] == [True, True, True, True]

    def test_frozen_fraction_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.mat", M([[1, 1], [0, 0]]))
        code, rep = run_cli(capsys, "mp", path)
        assert code == 0
        assert rep["results"]["mp_inverse"]["entries"] == [["1/2", "0"], ["1/2", "0"]]

    def test_gf2_not_invertible(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.mat", M([[1, 1], [1, 1]], GF(2)))
        code, rep = run_cli(capsys, "mp", path)
        assert code == 1 and rep["status"] == "fail"
        assert rep["results"]["mp_inverse"] is None
        assert "Moore-Penrose" in rep["results"]["reason"]

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_matrix_document(M([[2]]))))
        code, rep = run_cli(capsys, "mp", "-")
        assert code == 0
        assert rep["results"]["mp_inverse"]["entries"] == [["1/2"]]


class TestCmdHybrid:
    def test_onemp(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0], [0, 0]]))
        k = write_doc(tmp_path, "k.mat", M([[1, 0], [0, 7]]))
        code, rep = run_cli(capsys, "onemp", a, k)
        assert code == 0
        assert rep["results"]["inverse"]["entries"] == [["1", "0"], ["0", "0"]]
        assert rep["results"]["system"] == [True, True]

    def test_mpone(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0], [0, 0]]))
        k = write_doc(tmp_path, "k.mat", M([[1, 5], [0, 3]]))
        code, rep = run_cli(capsys, "mpone", a, k)
        assert code == 0
        assert rep["results"]["inverse"]["entries"] == [["1", "5"], ["0", "0"]]
        assert rep["results"]["system"] == [True, True]

    def test_not_inner_fails(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0], [0, 0]]))
        k = write_doc(tmp_path, "k.mat", M([[0, 0], [0, 1]]))
        code, rep = run_cli(capsys, "onemp", a, k)
        assert code == 1 and rep["status"] == "fail"
        assert rep["results"]["inverse"] is None


class TestCmdOrder:
    def test_1mp_holds(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0], [0, 0]]))
        b = write_doc(tmp_path, "b.mat", ExactMatrix.identity(2))
        code, rep = run_cli(capsys, "order", "1mp", a, b)
        assert code == 0 and rep["results"]["holds"] is True
        assert rep["results"]["witness"]["x"]["entries"] == [["1", "0"], ["0", "0"]]

    def test_1mp_fails_with_reason(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0], [0, 0]]))
        b = write_doc(tmp_path, "b.mat", M([[1, 1], [0, 1]]))
        code, rep = run_cli(capsys, "order", "1mp", a, b)
        assert code == 1 and rep["status"] == "fail"
        assert rep["results"]["holds"] is False
        assert rep["results"]["reason"] == "dagger(a)*b != dagger(a)*a"

    def test_1mp_without_dagger_fails_with_reason(self, tmp_path, capsys):
        # the row Gram factor of a vanishes over GF(2), so dagger(a) does not exist
        a = write_doc(tmp_path, "a.mat", M([[1, 1], [0, 0]], GF(2)))
        b = write_doc(tmp_path, "b.mat", ExactMatrix.identity(2, GF(2)))
        code, rep = run_cli(capsys, "order", "1mp", a, b)
        assert code == 1 and rep["status"] == "fail"
        assert rep["results"] == {
            "holds": False,
            "reason": "no Moore-Penrose inverse over gf:2: singular Gram factor",
        }

    def test_reflexive_any_relation(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 2], [2, 4]]))
        for relation in ("1mp", "mp1", "minus", "diamond", "plus"):
            code, rep = run_cli(capsys, "order", relation, a, a)
            assert code == 0, relation
            assert rep["results"]["holds"] is True

    def test_embed_rectangular(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0, 0]]))
        b = write_doc(tmp_path, "b.mat", M([[1, 1, 0]]))
        code, rep = run_cli(capsys, "order", "minus", a, b, "--embed-rectangular")
        assert rep["embedded"] == {"rows": 3, "cols": 3}
        assert code == 1  # rank(b - a) == 1 != rank(b) - rank(a) == 0

    def test_embed_rectangular_holds(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0, 0], [0, 0, 0]]))
        b = write_doc(tmp_path, "b.mat", M([[1, 0, 0], [0, 2, 0]]))
        code, rep = run_cli(capsys, "order", "minus", a, b, "--embed-rectangular")
        assert code == 0 and rep["results"]["holds"] is True

    def test_square_required_without_flag(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0, 0]]))
        b = write_doc(tmp_path, "b.mat", M([[1, 1, 0]]))
        code, rep = run_cli(capsys, "order", "minus", a, b)
        assert code == 2 and rep["status"] == "error"
        # with the flag, a 2x3 and a 3x2 operand are still refused
        c = write_doc(tmp_path, "c.mat", M([[1, 0, 0], [0, 0, 0]]))
        d = write_doc(tmp_path, "d.mat", M([[1, 0], [0, 0], [0, 0]]))
        code, rep = run_cli(capsys, "order", "minus", c, d, "--embed-rectangular")
        assert code == 2
        assert rep == {"status": "error", "error": "operands must share a shape before embedding"}


class TestCmdVerify:
    def test_z6_subset(self, capsys):
        code, rep = run_cli(
            capsys, "verify", "--ring", "z6", "--theorems", "one_mp_closure,order_minus_axioms"
        )
        assert code == 0 and rep["status"] == "ok"
        assert [r["theorem"] for r in rep["reports"]] == [
            "one_mp_closure",
            "order_minus_axioms",
        ]
        assert all(r["passed"] for r in rep["reports"])

    def test_unknown_ring(self, capsys):
        code, rep = run_cli(capsys, "verify", "--ring", "octonions")
        assert code == 2 and rep["status"] == "error"

    def test_unknown_theorem(self, capsys):
        code, rep = run_cli(capsys, "verify", "--ring", "z6", "--theorems", "zorn")
        assert code == 2 and rep["status"] == "error"

    @pytest.mark.parametrize("theorems", [",", ""])
    def test_empty_theorem_list(self, capsys, theorems):
        code, rep = run_cli(capsys, "verify", "--ring", "z6", "--theorems", theorems)
        assert code == 2 and rep["status"] == "error"


class TestPlumbing:
    def test_output_file(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1]]))
        out = tmp_path / "report.json"
        code, rep = run_cli(capsys, "mp", a, "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == rep

    def test_field_flag_for_headerless(self, tmp_path, capsys):
        path = tmp_path / "a.mat"
        path.write_text("rows 1\ncols 1\n4\n")
        code, rep = run_cli(capsys, "mp", str(path), "--field", "gf:3")
        assert code == 0
        assert rep["results"]["mp_inverse"]["field"] == "gf:3"
        assert rep["results"]["mp_inverse"]["entries"] == [["1"]]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "a.mat"
        path.write_text("field rational\nrows 1\ncols 1\nbogus\n")
        code, rep = run_cli(capsys, "mp", str(path))
        assert code == 2 and rep["status"] == "error"
        assert "line 4" in rep["error"]
        for text, error in (
            ("field\nrows 1\ncols 1\n1\n", "malformed field line (line 1)"),
            ("rows 1\n", "missing 'cols' line (line 1)"),
        ):
            path.write_text(text)
            code, rep = run_cli(capsys, "mp", str(path))
            assert code == 2 and rep == {"status": "error", "error": error}
        missing = tmp_path / "missing.mat"
        code, rep = run_cli(capsys, "mp", str(missing))
        assert code == 2 and rep["error"].startswith(f"cannot read {missing}:")

    def test_modulus_beyond_exact_primality_exit_2(self, tmp_path, capsys):
        from starinv.fields import PRIME_CHECK_LIMIT

        path = tmp_path / "a.mat"
        path.write_text(f"field gf:{PRIME_CHECK_LIMIT + 2}\nrows 1\ncols 1\n1\n")
        code, rep = run_cli(capsys, "mp", str(path))
        assert code == 2 and rep["status"] == "error"
        assert "too large" in rep["error"]

    def test_exponent_cell_exit_2_fast(self, tmp_path, capsys):
        import time

        path = tmp_path / "a.mat"
        path.write_text("field rational\nrows 1\ncols 2\n1 1e10000000\n")
        start = time.perf_counter()
        code, rep = run_cli(capsys, "mp", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and rep["status"] == "error"
        assert "exponents are not accepted" in rep["error"] and "line 4" in rep["error"]

    @pytest.mark.parametrize("key, line", [("rows", 2), ("cols", 3)])
    def test_dimension_beyond_the_limit_exit_2_before_any_entry(
        self, tmp_path, capsys, key, line
    ):
        from starinv.cli import MAX_DIMENSION

        dims = {"rows": 1, "cols": 1, key: MAX_DIMENSION + 1}
        path = tmp_path / "a.mat"
        # entry rows that would fail to parse: the header is refused first
        body = "x\n" * dims["rows"]
        path.write_text(f"field rational\nrows {dims['rows']}\ncols {dims['cols']}\n{body}")
        code, rep = run_cli(capsys, "mp", str(path))
        assert code == 2 and rep["status"] == "error"
        assert f"'{key}' exceeds the limit of {MAX_DIMENSION}" in rep["error"]
        assert f"line {line}" in rep["error"]

    def test_dimension_at_the_limit_is_accepted(self):
        from starinv.cli import MAX_DIMENSION

        wide = ExactMatrix(1, MAX_DIMENSION, list(range(MAX_DIMENSION)), GF(3))
        for a in (wide, wide.star):
            assert parse_matrix_document(serialize_matrix_document(a)) == a

    def test_ring_beyond_carrier_guard_exit_2_fast(self, capsys):
        import time

        start = time.perf_counter()
        code, rep = run_cli(capsys, "verify", "--ring", "z501")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and rep == {"status": "error", "error": "carrier of z501 has 501 elements"}

    @pytest.mark.parametrize("ring, theorems", [("m3gf2", "nope"), ("z500", ",")])
    def test_bad_theorem_ids_exit_2_before_the_ring_is_built(
        self, capsys, monkeypatch, ring, theorems
    ):
        import time

        def unreachable(name):
            raise AssertionError(f"ring {name} built before the theorem ids were checked")

        monkeypatch.setattr("starinv.finite.ring_by_name", unreachable)
        start = time.perf_counter()
        code, rep = run_cli(capsys, "verify", "--ring", ring, "--theorems", theorems)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and rep["status"] == "error"

    def test_bad_theorem_id_wins_over_bad_ring(self, capsys):
        code, rep = run_cli(capsys, "verify", "--ring", "octonions", "--theorems", "zorn")
        assert code == 2 and rep == {"status": "error", "error": "unknown theorem id 'zorn'"}

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.mat", M([[1, 0], [0, 0]]))
        b = write_doc(tmp_path, "b.mat", ExactMatrix.identity(2))
        out = tmp_path / "missing" / "report.json"
        for argv in (("mp", a), ("order", "minus", a, b), ("order", "1mp", b, a)):
            code, rep = run_cli(capsys, *argv, "--output", str(out))
            assert code == 2, argv
            assert rep["status"] == "error" and rep["error"].startswith(f"cannot write {out}: ")
        assert not out.parent.exists()

    def test_ring_with_non_ascii_size_digit_exit_2(self, capsys):
        code, rep = run_cli(capsys, "verify", "--ring", "m\u00b2gf2")
        assert code == 2 and rep == {"status": "error", "error": "bad ring id 'm\u00b2gf2'"}

    @pytest.mark.parametrize(
        "kind, text, error",
        [
            ("ring", r, f"bad ring id {r!r}")
            for r in ("z1_2", "z+12", "z\u0661\u0662", "z 12", "m2gf\u0663", "m2gf0_3")
        ]
        + [
            ("field", f, f"bad field tag {f!r}")
            for f in ("gf:+3", "gf:\u0663", "gf:0_3", "gf: 3")
        ]
        + [
            ("document", "fieldz gf:3\nrows 1\ncols 1\n1\n", "expected 'rows <n>' (line 1)"),
            ("document", "field gf:\u0663\nrows 1\ncols 1\n1\n", "bad field tag 'gf:\u0663'"),
            ("document", "rows \u0662\ncols 1\n1\n1\n", "bad integer in 'rows' line (line 1)"),
            ("document", "rows 1\ncols 0_2\n1 1\n", "bad integer in 'cols' line (line 2)"),
        ],
    )
    def test_non_canonical_identifier_exit_2(self, tmp_path, capsys, kind, text, error):
        # ids, field tags and sizes are read only in their ASCII spelling str(n)
        path = tmp_path / "a.mat"
        path.write_text(text if kind == "document" else "rows 1\ncols 1\n1\n")
        argv = {
            "ring": ("verify", "--ring", text),
            "field": ("mp", str(path), "--field", text),
            "document": ("mp", str(path)),
        }[kind]
        code, rep = run_cli(capsys, *argv)
        assert code == 2 and rep == {"status": "error", "error": error}

    @pytest.mark.parametrize("field", ["rational", "gf:7"])
    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11", "\u0661\u0662"])
    def test_entry_cell_in_another_integer_spelling_exit_2(self, tmp_path, capsys, field, cell):
        # int() and Fraction() read these as 10, 3, 1 and 12; a cell is read only in ASCII
        path = tmp_path / "a.mat"
        path.write_text(f"field {field}\nrows 1\ncols 2\n3 {cell}\n", encoding="utf-8")
        code, rep = run_cli(capsys, "mp", str(path))
        kind = "rational" if field == "rational" else "GF(7)"
        error = f"bad {kind} literal {cell!r}: '_' and non-ASCII characters are not accepted"
        assert code == 2 and rep == {"status": "error", "error": f"{error} (line 4, column 2)"}

    def test_plain_entry_spellings_still_accepted(self):
        a = parse_matrix_document("rows 1\ncols 5\n-7/2 0.25 .5 +3 -0\n")
        assert a.row_list(0) == [Fraction(-7, 2), Fraction(1, 4), Fraction(1, 2), 3, 0]
        a = parse_matrix_document("field gf:7\nrows 1\ncols 3\n+3 -0 -1\n")
        assert a.row_list(0) == [3, 0, 6]

    def test_failed_self_check_exit_3(self, tmp_path, capsys, monkeypatch):
        from starinv import InternalCheckError

        def broken(*args):
            raise InternalCheckError("a self-check fails")

        # minus and 1MP verify their witnesses, mp and onemp their dagger
        monkeypatch.setattr("starinv.orders._minus_witness", broken)
        monkeypatch.setattr("starinv.orders._one_mp_witness", broken)
        monkeypatch.setattr("starinv.inverses.dagger", broken)
        a = write_doc(tmp_path, "a.mat", M([[1, 0], [0, 0]]))
        b = write_doc(tmp_path, "b.mat", ExactMatrix.identity(2))
        for argv in (("order", "minus", a, b), ("order", "1mp", a, b), ("mp", a), ("onemp", a, a)):
            code, rep = run_cli(capsys, *argv)
            assert code == 3, argv
            assert list(rep) == ["status", "error"]
            assert rep["status"] == "internal-error"

    def test_failed_plus_witness_check_exit_3(self, tmp_path, capsys, monkeypatch):
        # the witness check itself fails: the rank stage's q, scattered from
        # V*G, is doubled, so the pair is not idempotent; no negative verdict
        import starinv.matrix as mx

        scatter = mx.scatter_rows
        monkeypatch.setattr(mx, "scatter_rows", lambda m, rows, n: scatter(m, rows, n) + scatter(m, rows, n))
        a = write_doc(tmp_path, "a.mat", M([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
        b = write_doc(tmp_path, "b.mat", M([[2, 0, 0], [0, 1, 0], [0, 0, 0]]))
        code, rep = run_cli(capsys, "order", "plus", a, b)
        assert code == 3 and rep == {"status": "internal-error", "error": "plus witness pair not idempotent"}

    def test_unexpected_exception_exit_3_without_traceback(self, tmp_path):
        import random

        # entries of 4,000-digit p/q: parsing accepts them, but the dagger and
        # the minus and 1MP witnesses have entries past Python's int-to-str
        # limit, so writing the report raises ValueError, which is no verdict
        rng = random.Random(3)

        def entry():
            return f"{rng.randrange(10**3999, 10**4000)}/{rng.randrange(10**3999, 10**4000)}"

        path = tmp_path / "huge.mat"
        path.write_text("rows 2\ncols 2\n" + "".join(f"{entry()} {entry()}\n" for _ in range(2)))
        for argv, code in (
            (("mp", path), 3),
            (("order", "minus", path, path), 3),
            (("order", "1mp", path, path), 3),
            (("order", "plus", path, path), 0),
        ):
            proc = _run_child(*argv)
            assert proc.returncode == code, (argv, proc.stderr)
            assert proc.stderr == "", argv
            if code == 3:
                assert proc.stdout.count("\n") == 1
                rep = json.loads(proc.stdout)
                assert list(rep) == ["status", "error"]
                assert rep["status"] == "internal-error"
                assert rep["error"].startswith("ValueError: Exceeds the limit")
            else:
                assert json.loads(proc.stdout)["results"]["holds"] is True

    @pytest.mark.parametrize("field", ["rational", "gf:7"])
    def test_long_refused_literal_is_echoed_in_part(self, tmp_path, capsys, field):
        # a 5,000-digit cell is past the int-to-str limit: exit 2, and the
        # report repeats the first 40 characters of its repr and its length
        path = tmp_path / "a.mat"
        path.write_text(f"field {field}\nrows 1\ncols 2\n3 {'7' * 5000}\n")
        code = main(["mp", str(path)])
        out = capsys.readouterr().out
        assert code == 2 and len(out.encode()) < 200
        rep = json.loads(out)
        assert rep["status"] == "error"
        assert f"literal '{'7' * 39}... (5000 characters)" in rep["error"]
        assert rep["error"].endswith("(line 4, column 2)")

    def test_matrix_payload_round(self):
        a = M([["1/2", 3]])
        payload = matrix_payload(a)
        assert payload == {
            "field": "rational",
            "rows": 1,
            "cols": 2,
            "entries": [["1/2", "3"]],
        }

    def test_console_script_subprocess(self, tmp_path):
        path = write_doc(tmp_path, "a.mat", M([[1, 1], [0, 0]]))
        proc = _run_child("mp", path)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["results"]["mp_inverse"]["entries"] == [["1/2", "0"], ["1/2", "0"]]


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenOutput:
    """Exact stdout bytes of the CLI on fixed 3x3 rational documents, and on
    the GF(2) pair t <= i in the plus order, where t has no canonical projections.

    `tests/golden/*.json` holds the reports as written when these documents
    were first decided; a change to the arithmetic kernels must reproduce
    them byte for byte (witnesses, digests, key order and formatting).
    `verify_<ring>.json` pins the theorem reports of z12, m2gf2, m2gf3, m2gf5
    and m3gf2 the same way, with the timings dropped; `verify_m3gf2_axioms.json`
    pins the order-axiom and plus block-form sweeps of m3gf2 on their own.
    """

    @pytest.mark.parametrize(
        "argv, expected_code",
        [
            (("order", "1mp", "a", "b"), 0),
            (("order", "plus", "a", "b"), 0),
            (("order", "plus", "a", "c"), 1),
            (("order", "plus", "r", "s"), 0),
            (("mp", "a"), 0),
            (("onemp", "a", "g"), 0),
            (("order", "minus", "a", "b"), 0),
            (("order", "mp1", "a", "b"), 0),
            (("order", "mp1", "a", "c"), 1),
            (("order", "diamond", "a", "b"), 0),
            (("mpone", "a", "g"), 0),
            (("order", "plus", "t", "i"), 0),
        ],
    )
    def test_stdout_bytes(self, capsys, argv, expected_code):
        command = argv[: 2 if argv[0] == "order" else 1]
        docs = argv[len(command) :]
        code = main([*command, *(str(GOLDEN / f"{d}.mat") for d in docs)])
        out = capsys.readouterr().out
        expected = (GOLDEN / ("_".join(argv) + ".json")).read_text()
        assert code == expected_code
        assert out == expected

    @staticmethod
    def check_verify(capsys, golden, *argv):
        code, rep = run_cli(capsys, "verify", *argv)
        for r in rep["reports"]:
            del r["elapsed_seconds"]
        assert code == 0
        assert json.dumps(rep, indent=2) + "\n" == (GOLDEN / f"verify_{golden}.json").read_text()

    @pytest.mark.parametrize("ring", ["z12", "m2gf2", "m2gf3", "m2gf5", "m3gf2"])
    def test_verify_report(self, capsys, ring):
        self.check_verify(capsys, ring, "--ring", ring)

    def test_verify_m3gf2_axiom_report(self, capsys):
        # every triple of the 281- and 512-element domains, none sampled
        theorems = [f"order_{r}_axioms" for r in ("1mp", "mp1", "minus", "plus")]
        theorems.append("order_plus_block_form")
        self.check_verify(capsys, "m3gf2_axioms", "--ring", "m3gf2", "--theorems", ",".join(theorems))
