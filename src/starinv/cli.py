"""Command-line front end: exact matrix documents in, structured reports out.

Subcommands: mp, onemp, mpone, order, verify.  All numeric I/O is exact
("-7/2", "3"); no floating point appears anywhere.  Reports are JSON with a
fixed key order so diffs stay meaningful.

Exit status: 0 when the computation succeeds / the relation holds / all
theorems pass; 1 for a negative mathematical outcome (no Moore-Penrose
inverse, relation fails, theorem violated, precondition such as inner
inverse not met); 2 for malformed input; 3 when a self-check of the
library fails, which is a bug and never a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import inverses as gi
from .errors import (
    DimensionMismatch,
    DocumentError,
    InternalCheckError,
    RingMismatch,
    StarInvError,
    UnknownTheorem,
)
from .fields import QQ, _canonical_int, field_by_name
from .matrix import ExactMatrix, embed_square

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# The largest `rows` or `cols` a matrix document may declare.  Exact
# arithmetic grows with the dimension: the slowest command, a plus order
# decided by its rank stage, takes 0.4, 0.9 and 3.6 s at 32, 48 and 64 on
# one-digit integers, 0.6, 3.5 and 15 s on one-digit rationals (2-core Xeon).
# Those timings cover one-digit entries only: at 32 x 32, `mp` on random p/q
# entries takes 1.4 s with q < 10**2 and 9.8 s with q < 10**3, and runs
# past 100 s with q < 10**6, since the packed den is the lcm of every q.
MAX_DIMENSION = 32


# -- matrix documents -----------------------------------------------------------


def parse_matrix_document(text: str, default_field=None) -> ExactMatrix:
    """Parse the line-based matrix document format.

    Layout: optional "field <tag>" line, then "rows <m>" and "cols <n>", then
    m whitespace-separated entry rows.  Blank lines and full-line comments
    starting with '#' are ignored.  A dimension above MAX_DIMENSION is
    refused before any entry row is read.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    if not lines:
        raise DocumentError("empty matrix document", line=1)
    pos = 0
    field = default_field
    if lines[pos][1].split()[0] == "field":
        lineno, header = lines[pos]
        parts = header.split()
        if len(parts) != 2:
            raise DocumentError("malformed field line", line=lineno)
        field = field_by_name(parts[1])
        pos += 1
    if field is None:
        field = QQ

    def keyed_int(key):
        nonlocal pos
        if pos >= len(lines):
            raise DocumentError(f"missing '{key}' line", line=lines[-1][0])
        lineno, content = lines[pos]
        parts = content.split()
        if len(parts) != 2 or parts[0] != key:
            raise DocumentError(f"expected '{key} <n>'", line=lineno)
        value = _canonical_int(parts[1])
        if value is None:
            raise DocumentError(f"bad integer in '{key}' line", line=lineno)
        if value <= 0:
            raise DocumentError(f"'{key}' must be positive", line=lineno)
        if value > MAX_DIMENSION:
            raise DocumentError(f"'{key}' exceeds the limit of {MAX_DIMENSION}", line=lineno)
        pos += 1
        return value

    nrows = keyed_int("rows")
    ncols = keyed_int("cols")
    body = lines[pos:]
    if len(body) != nrows:
        where = body[0][0] if body else lines[-1][0]
        raise DocumentError(f"expected {nrows} entry rows, found {len(body)}", line=where)
    rows = []
    for lineno, content in body:
        cells = content.split()
        if len(cells) != ncols:
            raise DocumentError(
                f"expected {ncols} entries, found {len(cells)}", line=lineno
            )
        row = []
        for colno, cell in enumerate(cells, start=1):
            try:
                row.append(field.of(cell))
            except DocumentError as exc:
                raise DocumentError(str(exc), line=lineno, column=colno) from None
        rows.append(row)
    return ExactMatrix(nrows, ncols, [v for row in rows for v in row], field)


def serialize_matrix_document(a: ExactMatrix) -> str:
    """Canonical document text: header lines then single-spaced entry rows."""
    out = [f"field {a.field.name}", f"rows {a.rows}", f"cols {a.cols}"]
    for i in range(a.rows):
        out.append(" ".join(str(v) for v in a.row_list(i)))
    return "\n".join(out) + "\n"


def matrix_payload(a: ExactMatrix) -> dict:
    return {
        "field": a.field.name,
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[str(v) for v in a.row_list(i)] for i in range(a.rows)],
    }


def _input_payload(a: ExactMatrix) -> dict:
    import hashlib  # here, so verify children never load it

    digest = hashlib.sha256(serialize_matrix_document(a).encode()).hexdigest()[:12]
    return {"digest": digest, "field": a.field.name, "rows": a.rows, "cols": a.cols}


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}")


def _load_matrix(path, field_tag):
    default = field_by_name(field_tag) if field_tag else None
    return parse_matrix_document(_read_source(path), default_field=default)


# -- report plumbing -----------------------------------------------------------


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {output}: {exc}") from None
    print(text)


def _witness_payload(witness) -> dict | None:
    if witness is None:
        return None
    return {name: matrix_payload(value) for name, value in zip(witness._fields, witness)}


# -- subcommands -----------------------------------------------------------------


def _outcome(report: dict, output: str | None, refusal: dict, decide) -> int:
    """Report decide()'s (results, holds) and return the exit code: the matrix commands' policy.

    DimensionMismatch and RingMismatch are malformed input (exit 2) and
    InternalCheckError a bug (exit 3); any other StarInvError is a refusal,
    reported as refusal plus its reason (exit 1).
    """
    try:
        results, holds = decide()
    except (DimensionMismatch, RingMismatch) as exc:
        raise DocumentError(str(exc)) from None
    except InternalCheckError:
        raise
    except StarInvError as exc:
        results, holds = {**refusal, "reason": str(exc)}, False
    report["results"] = results
    report["status"] = "ok" if holds else "fail"
    _emit(report, output)
    return EXIT_OK if holds else EXIT_FAIL


def cmd_mp(args) -> int:
    a = _load_matrix(args.matrix, args.field)
    report = {"command": "mp", "inputs": {"a": _input_payload(a)}}

    def decide():
        x = gi.dagger(a)
        penrose = list(gi.penrose_profile(a, x).as_tuple())
        return {"mp_inverse": matrix_payload(x), "penrose": penrose}, True

    return _outcome(report, args.output, {"mp_inverse": None}, decide)


def _hybrid_command(args, kind: str) -> int:
    a = _load_matrix(args.matrix, args.field)
    a_minus = _load_matrix(args.inner, args.field)
    report = {
        "command": kind,
        "inputs": {"a": _input_payload(a), "a_minus": _input_payload(a_minus)},
    }

    def decide():
        x = (gi.one_mp if kind == "onemp" else gi.mp_one)(a, a_minus)
        a_dag = gi.dagger(a)
        system = [x * a * x == x, a * x == a * a_dag if kind == "onemp" else x * a == a_dag * a]
        penrose = list(gi.penrose_profile(a, x).as_tuple())
        return {"inverse": matrix_payload(x), "system": system, "penrose": penrose}, True

    return _outcome(report, args.output, {"inverse": None}, decide)


def cmd_onemp(args) -> int:
    return _hybrid_command(args, "onemp")


def cmd_mpone(args) -> int:
    return _hybrid_command(args, "mpone")


_RELATIONS = ("1mp", "diamond", "minus", "mp1", "plus")


def cmd_order(args) -> int:
    from . import orders as od  # here, so mp/onemp/mpone children never load the order layer

    a = _load_matrix(args.a, args.field)
    b = _load_matrix(args.b, args.field)
    report = {
        "command": "order",
        "relation": args.relation,
        "inputs": {"a": _input_payload(a), "b": _input_payload(b)},
    }
    if args.embed_rectangular and not (a.is_square and b.is_square):
        if a.shape != b.shape:
            raise DocumentError("operands must share a shape before embedding")
        a = embed_square(a)
        b = embed_square(b)
        report["embedded"] = {"rows": a.rows, "cols": a.cols}

    def decide():
        v = getattr(od, f"leq_{args.relation}")(a, b)
        w = _witness_payload(v.witness)
        return {"holds": v.holds, "method": v.method, "witness": w, "reason": v.reason}, v.holds

    return _outcome(report, args.output, {"holds": False}, decide)


def cmd_verify(args) -> int:
    # the oracle loads only for verify; theorem ids are checked before any ring is built
    from .finite import ring_by_name
    from .theorems import theorem_ids, verify_all

    if args.theorems == "all":
        ids = None
    else:
        ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
        if not ids:
            raise UnknownTheorem("no theorem ids given")
        known = set(theorem_ids())
        for tid in ids:
            if tid not in known:
                raise UnknownTheorem(f"unknown theorem id {tid!r}")
    ring = ring_by_name(args.ring)
    reports = verify_all(ring, ids)
    payload = {
        "command": "verify",
        "ring": ring.name,
        "carrier": len(ring.elements),
        "reports": [
            {
                "theorem": r.theorem,
                "checked": r.checked,
                "passed": r.passed,
                "violations": [list(map(str, v)) for v in r.violations],
                "notes": list(r.notes),
                "sampled": r.sampled,
                "elapsed_seconds": round(r.elapsed, 4),
            }
            for r in reports
        ],
    }
    ok = all(r.passed for r in reports)
    payload["status"] = "ok" if ok else "fail"
    _emit(payload, args.output)
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starinv",
        description="Exact generalized inverses and partial orders in *-rings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--field", help="field tag for headerless documents: rational or gf:<p>")
        p.add_argument("--output", help="also write the JSON report to this path")

    p_mp = sub.add_parser("mp", help="Moore-Penrose inverse of a matrix")
    p_mp.add_argument("matrix", help="matrix document path, or - for stdin")
    add_common(p_mp)
    p_mp.set_defaults(func=cmd_mp)

    for name, help_text in (
        ("onemp", "1MP-inverse a_minus * a * dagger(a)"),
        ("mpone", "MP1-inverse dagger(a) * a * a_minus"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("matrix", help="matrix document for a")
        p.add_argument("inner", help="matrix document for an inner inverse of a")
        add_common(p)
        p.set_defaults(func=cmd_onemp if name == "onemp" else cmd_mpone)

    p_order = sub.add_parser("order", help="decide one of the five relations")
    p_order.add_argument("relation", choices=_RELATIONS)
    p_order.add_argument("a")
    p_order.add_argument("b")
    p_order.add_argument(
        "--embed-rectangular",
        action="store_true",
        help="zero-pad rectangular inputs to square before deciding",
    )
    add_common(p_order)
    p_order.set_defaults(func=cmd_order)

    p_verify = sub.add_parser("verify", help="run exhaustive theorem sweeps on a finite ring")
    p_verify.add_argument(
        "--ring", required=True, help="ring id: z<n>, m2gf2, m2gf3, m2gf5, or m3gf2"
    )
    p_verify.add_argument(
        "--theorems",
        default="all",
        help="comma-separated theorem ids, or 'all' (default)",
    )
    p_verify.add_argument("--output", help="also write the JSON report to this path")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(json.dumps({"status": "internal-error", "error": str(exc)}))
        return EXIT_INTERNAL
    except StarInvError as exc:
        print(json.dumps({"status": "error", "error": str(exc)}))
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
