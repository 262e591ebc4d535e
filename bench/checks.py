"""Output checks made from outside the library.

Witnesses are re-checked with plain ExactMatrix products and equality; the
only other tool is `rank` below, an elimination written here so that no
check leans on the library's own rref.  A check returns None when the
output is right and a short reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction


def rank(m) -> int:
    """Rank of an ExactMatrix over its field, by plain Gaussian elimination."""
    p = getattr(m.field, "p", None)
    rows = [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / Fraction(rows[r][c])
        for i in range(r + 1, m.rows):
            f = rows[i][c] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        r += 1
    return r


def _cols_within(x, y) -> bool:
    """Every column of x lies in the column space of y."""
    both = type(y)(y.rows, y.cols + x.cols, _hcat(y, x), y.field)
    return rank(both) == rank(y)


def _hcat(y, x):
    out = []
    for i in range(y.rows):
        out.extend(y.entries[i * y.cols:(i + 1) * y.cols])
        out.extend(x.entries[i * x.cols:(i + 1) * x.cols])
    return out


def _same_cols(x, y) -> bool:
    return _cols_within(x, y) and _cols_within(y, x)


def _containments(a, b) -> bool:
    return _cols_within(a, b) and _cols_within(a.star, b.star)


def _order_equations(x, a, b) -> bool:
    return x * a == x * b and a * x == b * x


def check_witness(relation, a, b, witness):
    """Re-check the witness of a positive verdict for `relation`."""
    if relation == "minus":
        k = witness.inner
        if not (a * k * a == a and k * a == k * b and a * k == b * k):
            return "minus witness k fails a*k*a == a, k*a == k*b, a*k == b*k"
        return None
    if relation in ("1mp", "mp1"):
        x = witness.x
        ax, xa = a * x, x * a
        hermitian = (ax.star == ax) if relation == "1mp" else (xa.star == xa)
        # 1MP-inverses are the {1,2,3}-inverses, MP1-inverses the {1,2,4}-inverses
        if not (ax * a == a and xa * x == x and hermitian):
            return f"{relation} witness x is not in the inverse class"
        if not _order_equations(x, a, b):
            return f"{relation} witness x does not identify a and b"
        return None
    if relation == "diamond":
        if not _containments(a, b):
            return "diamond verdict but a column or row space escapes b"
        if a * b.star * a != a * a.star * a:
            return "diamond verdict but a*star(b)*a != a*star(a)*a"
        if witness is not None:
            left, right = witness
            if not (left * left == left and left.star == left and left * a == a):
                return "diamond left projection is not lp(a)"
            if not (right * right == right and right.star == right and a * right == a):
                return "diamond right projection is not rp(a)"
        return None
    if relation == "plus":
        qt, q = witness.q_tilde, witness.q
        if not (qt * qt == qt and q * q == q):
            return "plus witness pair is not idempotent"
        if not (_same_cols(qt, a) and _same_cols(q.star, a.star)):
            return "plus witness pair does not match the annihilators of a"
        if qt * b * q != a:
            return "plus witness fails a == qt*b*q"
        if not _containments(a, b):
            return "plus verdict but a column or row space escapes b"
        return None
    raise ValueError(f"unknown relation {relation!r}")


def check_verdict(relation, pair, verdict):
    """Compare a verdict with the pair's label and re-check its witness."""
    label = pair.labels[relation]
    if verdict.holds:
        if label is False:
            return f"{relation} holds on a pair built to fail it"
        return check_witness(relation, pair.a, pair.b, verdict.witness)
    if label is True:
        return f"{relation} rejected ({verdict.method}) on a pair built to hold"
    return None


def check_report(report, expected_checked):
    if not report.passed:
        return f"{report.theorem} on {report.ring}: {len(report.violations)} violation(s)"
    if report.checked != expected_checked:
        return (
            f"{report.theorem} on {report.ring}: checked {report.checked}, "
            f"recorded {expected_checked}"
        )
    return None


EXIT_BY_STATUS = {"ok": 0, "fail": 1, "error": 2}


def check_cli_output(returncode, stdout):
    """The exit-status and JSON contract of one CLI child.

    Returns (report, problem): the parsed report (None if unparsable) and a
    reason when the contract is broken.
    """
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return None, f"exit {returncode}: stdout is not one JSON document"
    if not isinstance(report, dict):
        return None, "report is not a JSON object"
    status = report.get("status")
    if EXIT_BY_STATUS.get(status) != returncode:
        return report, f"status {status!r} with exit code {returncode}"
    keys = list(report)
    if keys[0] != "command" or keys[-1] != "status":
        return report, f"key order {keys}"
    if "inputs" in report:
        order = [k for k in keys if k in ("command", "inputs", "results", "status")]
        if order != ["command", "inputs", "results", "status"]:
            return report, f"key order {keys}"
    return report, None
