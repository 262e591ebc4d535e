"""Golden decisions over prime fields: verdicts, witnesses and refusals, byte for byte.

Pairs are built here from a fixed seed: GF(101) at n = 3 and 4 (the 1MP,
MP1 and star-order block forms above a, a plus block form, a perturbation
where the minus order fails, and an unrelated b), GF(3) 2x2 pairs drawn at
random and in the same block forms, and GF(101) operands a with no
Moore-Penrose inverse (an isotropic column, 1 + 10^2 = 0 mod 101).  All five
relations are decided on every pair; the holds flag, method, reason and
witness entries, or the exception type and message, are compared with
tests/golden/decisions_prime.json.  To regenerate after an intended change:

    PYTHONPATH=src:tests python tests/test_decisions_prime_golden.py > tests/golden/decisions_prime.json
"""

import json
import random
import sys
from pathlib import Path

from starinv import (
    GF,
    ConditionFailure,
    ExactMatrix,
    NotMPInvertible,
    NotRickart,
    PlusBlockData,
    dagger,
    leq_1mp,
    leq_diamond,
    leq_minus,
    leq_mp1,
    leq_plus,
    lp,
    plus_block_compose,
    rp,
)

from test_decisions_golden import record

GOLDEN = Path(__file__).parent / "golden" / "decisions_prime.json"
RELATIONS = (
    ("minus", leq_minus),
    ("1mp", leq_1mp),
    ("mp1", leq_mp1),
    ("diamond", leq_diamond),
    ("plus", leq_plus),
)


def _random(rng, field, rows, cols):
    return ExactMatrix(rows, cols, [rng.randrange(field.p) for _ in range(rows * cols)], field)


def _base(rng, field, n, rank):
    """A nonzero a of rank at most `rank` with dagger(a), lp(a) and rp(a) defined."""
    while True:
        a = _random(rng, field, n, rank) * _random(rng, field, rank, n)
        if a.is_zero:
            continue
        try:
            return a, dagger(a), lp(a), rp(a)
        except (NotMPInvertible, NotRickart):
            continue


def _block_forms(rng, field, n, rank, tag):
    """(label, a, b) for the 1MP, MP1, star and plus block forms above one a,
    the perturbation b + a of the first (the minus order fails), and a random b."""
    a, a_dag, la, ra = _base(rng, field, n, rank)
    eye = ExactMatrix.identity(n, field)
    p, q = a * a_dag, a_dag * a

    def corner(left, right):
        return left * _random(rng, field, n, n) * right

    b4 = corner(eye - p, eye - q)
    above_1mp = a - b4 * corner(eye - q, p) * a + b4
    out = [
        (f"{tag}-1mp", a, above_1mp),
        (f"{tag}-mp1", a, a - a * corner(q, eye - p) * b4 + b4),
        (f"{tag}-star", a, a + b4),
        (f"{tag}-perturbed", a, above_1mp + a),
        (f"{tag}-random", a, _random(rng, field, n, n)),
    ]
    data = PlusBlockData(
        b22=corner(eye - la, eye - ra),
        y=corner(la, eye - la),
        x=corner(eye - ra, ra),
        w=corner(eye - la, ra),
        z=corner(la, eye - ra),
    )
    try:
        out.append((f"{tag}-plus", a, plus_block_compose(a, data)))
    except ConditionFailure:
        pass
    return out


def seeded_pairs():
    rng = random.Random(20240)
    gf101, gf3 = GF(101), GF(3)
    pairs = []
    for n in (3, 4):
        for rank in (1, n - 1):
            for turn in range(2):
                pairs += _block_forms(rng, gf101, n, rank, f"gf101-n{n}r{rank}t{turn}")
    for turn in range(4):
        pairs += _block_forms(rng, gf3, 2, 1, f"gf3-t{turn}")
    for turn in range(24):
        pairs.append((f"gf3-random{turn}", _random(rng, gf3, 2, 2), _random(rng, gf3, 2, 2)))
    # no Moore-Penrose inverse: the first column is isotropic over GF(101)
    eye3 = ExactMatrix.identity(3, gf101)
    for label, a in (
        ("iso-r1", ExactMatrix.from_rows([[1, 0, 0], [10, 0, 0], [0, 0, 0]], gf101)),
        ("iso-r2", ExactMatrix.from_rows([[1, 0, 0], [10, 0, 0], [0, 0, 1]], gf101)),
    ):
        pairs += [
            (f"{label}-self", a, a),
            (f"{label}-identity", a, eye3),
            (f"{label}-double", a, a + a),
            (f"{label}-random", a, _random(rng, gf101, 3, 3)),
        ]
    return pairs


def decide(relation, a, b):
    try:
        return record(relation(a, b))
    except NotMPInvertible as e:
        return {"raises": type(e).__name__, "message": str(e)}


def decision_records():
    return {
        f"{label}:{name}": decide(relation, a, b)
        for label, a, b in seeded_pairs()
        for name, relation in RELATIONS
    }


def test_prime_decisions_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = decision_records()
    assert list(actual) == list(expected)
    for key, rec in expected.items():
        assert actual[key] == rec, key


if __name__ == "__main__":
    json.dump(decision_records(), sys.stdout, indent=1)
    sys.stdout.write("\n")
