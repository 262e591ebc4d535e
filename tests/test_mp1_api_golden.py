"""Golden MP1 API: mp_one, is_mp_one, above_mp1, rp_family_member and leq_mp1.

Inputs are built here from a fixed seed: n x n matrices of rank 1 and n - 1
over the rationals, GF(3) and GF(101) with their inner inverses, MP1 corner
data and the block forms above them, 2 x 3 matrices, operands with no
Moore-Penrose inverse or no rp (an isotropic column over GF(101), a row of
three ones over GF(3)), every element of Z_12, and operands from two
different rings.  Each call's value, or its exception type
and message, is compared with tests/golden/mp1_api.json, so the MP1 side
keeps every value and every refusal text.  To regenerate after an intended
change:

    PYTHONPATH=src:tests python tests/test_mp1_api_golden.py > tests/golden/mp1_api.json
"""

import json
import random
import sys
from pathlib import Path

from starinv import (
    GF,
    QQ,
    ExactMatrix,
    NotMPInvertible,
    NotRickart,
    OneMPAboveForm,
    OrderVerdict,
    StarInvError,
    ZnElement,
    above_mp1,
    dagger,
    is_mp_one,
    leq_mp1,
    mp_one,
    one_mp,
    rp,
    rp_family_member,
)
from starinv.matrix import inner_inverse

from conftest import random_rational_matrix

GOLDEN = Path(__file__).parent / "golden" / "mp1_api.json"


def encode(value):
    """A JSON form of a returned value: bools, matrices, Z_n elements, verdicts."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, ExactMatrix):
        return {"field": value.field.name, "rows": [[str(v) for v in r] for r in value.to_rows()]}
    if isinstance(value, ZnElement):
        return repr(value)
    if isinstance(value, OrderVerdict):
        w = value.witness
        return {
            "holds": value.holds,
            "method": value.method,
            "reason": value.reason,
            "witness": None if w is None else {k: encode(v) for k, v in zip(w._fields, w)},
        }
    raise TypeError(f"cannot encode {type(value).__name__}")


def call(fn, *args):
    try:
        return encode(fn(*args))
    except (StarInvError, TypeError) as e:
        return {"raises": type(e).__name__, "message": str(e)}


def _random(rng, field, rows, cols):
    if field is QQ:
        return random_rational_matrix(rng, rows, cols)
    return ExactMatrix(rows, cols, [rng.randrange(field.p) for _ in range(rows * cols)], field)


def _mp_invertible(rng, field, rows, cols, rank):
    """A nonzero rows x cols matrix of rank at most `rank` with a Moore-Penrose inverse."""
    while True:
        a = _random(rng, field, rows, rank) * _random(rng, field, rank, cols)
        if a.is_zero:
            continue
        try:
            return a, dagger(a)
        except NotMPInvertible:
            continue


def _matrix_cases(rng, field, rows, cols, rank, tag):
    """(label, fn, args) for the five calls around one a with a Moore-Penrose inverse."""
    a, a_dag = _mp_invertible(rng, field, rows, cols, rank)
    eye_r, eye_c = ExactMatrix.identity(rows, field), ExactMatrix.identity(cols, field)
    g = inner_inverse(a)
    general = g + (w := _random(rng, field, cols, rows)) - g * a * w * a * g
    out = []
    for name, inner in (("inner", g), ("dagger", a_dag), ("general", general)):
        out.append((f"{tag}:mp_one-{name}", mp_one, (a, inner)))
    out.append((f"{tag}:mp_one-random", mp_one, (a, _random(rng, field, cols, rows))))
    candidates = (
        ("mp1", mp_one(a, general)),
        ("1mp", one_mp(a, general)),
        ("dagger", a_dag),
        ("random", _random(rng, field, cols, rows)),
    )
    for name, x in candidates:
        out.append((f"{tag}:is_mp_one-{name}", is_mp_one, (a, x)))
        out.append((f"{tag}:is_mp_one-{name}-given", is_mp_one, (a, x, a_dag)))
    p, q = a * a_dag, a_dag * a
    b4 = (eye_r - p) * _random(rng, field, rows, cols) * (eye_c - q)
    d = q * _random(rng, field, cols, rows) * (eye_r - p)
    zero_b4, zero_d = ExactMatrix.zeros(rows, cols, field), ExactMatrix.zeros(cols, rows, field)
    for name, form in (
        ("form", OneMPAboveForm(b4, d)),
        ("zero", OneMPAboveForm(zero_b4, zero_d)),
        ("bad-b4", OneMPAboveForm(b4 + a, d)),
        ("bad-d", OneMPAboveForm(b4, d + a_dag)),
        ("bad-both", OneMPAboveForm(b4 + a, d + a_dag)),
    ):
        out.append((f"{tag}:above_mp1-{name}", above_mp1, (a, form)))
    try:
        ra = rp(a)
    except NotRickart:
        ra = None
    if ra is not None:
        q1 = (eye_c - ra) * _random(rng, field, cols, cols) * ra
        for name, value in (("corner", q1), ("zero", q1 - q1), ("bad", q1 + ra)):
            out.append((f"{tag}:rp_family_member-{name}", rp_family_member, (a, value)))
    if rows == cols:
        above = a - a * d * b4 + b4
        for name, b in (
            ("mp1", above),
            ("1mp", a - b4 * (eye_c - q) * _random(rng, field, cols, rows) * p * a + b4),
            ("star", a + b4),
            ("perturbed", above + a),
            ("random", _random(rng, field, rows, cols)),
            ("self", a),
        ):
            out.append((f"{tag}:leq_mp1-{name}", leq_mp1, (a, b)))
    return out


def _refusal_cases():
    gf3, gf101 = GF(3), GF(101)
    iso = ExactMatrix.from_rows([[1, 0, 0], [10, 0, 0], [0, 0, 0]], gf101)
    eye3 = ExactMatrix.identity(3, gf101)
    zero3 = ExactMatrix.zeros(3, 3, gf101)
    ones = ExactMatrix.from_rows([[1, 1, 1], [0, 0, 0], [0, 0, 0]], gf3)
    a_qq = ExactMatrix.from_rows([[1, 2], [2, 4]], QQ)
    a_gf3 = ExactMatrix.from_rows([[1, 2], [2, 1]], gf3)
    return [
        ("iso:mp_one", mp_one, (iso, inner_inverse(iso))),
        ("iso:is_mp_one", is_mp_one, (iso, inner_inverse(iso))),
        ("iso:above_mp1", above_mp1, (iso, OneMPAboveForm(zero3, zero3))),
        ("iso:rp_family_member", rp_family_member, (iso, zero3)),
        ("iso:rp_family_member-transpose", rp_family_member, (iso.star, zero3)),
        ("iso:leq_mp1-self", leq_mp1, (iso, iso)),
        ("iso:leq_mp1-identity", leq_mp1, (iso, eye3)),
        ("iso:leq_mp1-double", leq_mp1, (iso, iso + iso)),
        ("ones:rp_family_member", rp_family_member, (ones, ones - ones)),
        ("ones:rp_family_member-transpose", rp_family_member, (ones.star, ones - ones)),
        ("mixed:mp_one", mp_one, (a_qq, a_gf3)),
        ("mixed:is_mp_one", is_mp_one, (a_qq, a_gf3)),
        ("mixed:above_mp1", above_mp1, (a_qq, OneMPAboveForm(a_gf3, a_gf3))),
        ("mixed:rp_family_member", rp_family_member, (a_qq, a_gf3)),
        ("mixed:leq_mp1", leq_mp1, (a_qq, a_gf3)),
        ("mixed:leq_mp1-shape", leq_mp1, (a_qq, ExactMatrix.identity(3, QQ))),
        ("mixed:leq_mp1-rectangular", leq_mp1, (ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3))),
        ("mixed:leq_mp1-zn", leq_mp1, (a_qq, ZnElement(1, 12))),
        ("mixed:leq_mp1-zn-reversed", leq_mp1, (ZnElement(1, 12), a_qq)),
        ("mixed:leq_mp1-moduli", leq_mp1, (ZnElement(1, 12), ZnElement(1, 6))),
        ("mixed:leq_mp1-int", leq_mp1, (5, 5)),
        ("mixed:leq_mp1-int-b", leq_mp1, (a_qq, 5)),
        ("mixed:rp_family_member-int", rp_family_member, (5, 5)),
        ("mixed:mp_one-zn", mp_one, (ZnElement(1, 12), ZnElement(1, 6))),
    ]


def _zn_cases():
    n = 12
    els = [ZnElement(v, n) for v in range(n)]
    out = []
    for a in els:
        inner = [g for g in els if a * g * a == a]
        for g in inner or els[:1]:
            out.append((f"z12:mp_one-{a.value}-{g.value}", mp_one, (a, g)))
        for x in els:
            out.append((f"z12:is_mp_one-{a.value}-{x.value}", is_mp_one, (a, x)))
            out.append((f"z12:leq_mp1-{a.value}-{x.value}", leq_mp1, (a, x)))
        for b4 in els:
            for d in els[:2]:
                form = OneMPAboveForm(b4, d)
                out.append((f"z12:above_mp1-{a.value}-{b4.value}-{d.value}", above_mp1, (a, form)))
        for q1 in (els[0], els[1], els[3]):
            out.append((f"z12:rp_family_member-{a.value}-{q1.value}", rp_family_member, (a, q1)))
    return out


def seeded_cases():
    rng = random.Random(20261)
    cases = []
    for field in (QQ, GF(3), GF(101)):
        for n in (2, 3):
            for rank in sorted({1, n - 1}):
                tag = f"{field.name}-n{n}r{rank}"
                cases += _matrix_cases(rng, field, n, n, rank, tag)
        cases += _matrix_cases(rng, field, 2, 3, 1, f"{field.name}-2x3")
    return cases + _refusal_cases() + _zn_cases()


def api_records():
    return {label: call(fn, *args) for label, fn, args in seeded_cases()}


def test_mp1_api_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = api_records()
    assert list(actual) == list(expected)
    for key, rec in expected.items():
        assert actual[key] == rec, key


if __name__ == "__main__":
    json.dump(api_records(), sys.stdout, indent=1)
    sys.stdout.write("\n")
