"""Golden decisions on seeded rational pairs: verdicts and witnesses, byte for byte.

Every pair is built here from a fixed seed at n = 2, 3, 4 and 8, and all
five relations are decided on it.  The holds flag, method, reason and the
witness entries (as exact strings) are compared with
tests/golden/decisions_rational.json, so a kernel change that alters a
single witness entry shows.  To regenerate after an intended change:

    PYTHONPATH=src:tests python tests/test_decisions_golden.py > tests/golden/decisions_rational.json
"""

import json
import random
import sys
from pathlib import Path

from starinv import (
    QQ,
    ExactMatrix,
    dagger,
    leq_1mp,
    leq_diamond,
    leq_minus,
    leq_mp1,
    leq_plus,
)

from conftest import random_rational_matrix, random_singular_matrix

GOLDEN = Path(__file__).parent / "golden" / "decisions_rational.json"
SIZES = (2, 3, 4, 8)
RELATIONS = (
    ("minus", leq_minus),
    ("1mp", leq_1mp),
    ("mp1", leq_mp1),
    ("diamond", leq_diamond),
    ("plus", leq_plus),
)


def seeded_pairs():
    """(label, a, b) for each size: the 1MP, MP1 and star-order block forms
    above a, a perturbation of the first, and an unrelated b."""
    rng = random.Random(20221)
    pairs = []
    for n in SIZES:
        for rank in sorted({max(1, n // 2), n - 1}):
            a = random_singular_matrix(rng, n, rank)
            a_dag = dagger(a)
            eye = ExactMatrix.identity(n, QQ)
            p = a * a_dag
            q = a_dag * a
            b4 = (eye - p) * random_rational_matrix(rng, n, n) * (eye - q)
            d_1mp = (eye - q) * random_rational_matrix(rng, n, n) * p
            d_mp1 = q * random_rational_matrix(rng, n, n) * (eye - p)
            above_1mp = a - b4 * d_1mp * a + b4
            tag = f"n{n}r{rank}"
            pairs += [
                (f"{tag}-1mp", a, above_1mp),
                (f"{tag}-mp1", a, a - a * d_mp1 * b4 + b4),
                (f"{tag}-star", a, a + b4),
                (f"{tag}-perturbed", a, above_1mp + a),
                (f"{tag}-random", a, random_rational_matrix(rng, n, n)),
            ]
    return pairs


def record(verdict):
    witness = None
    if verdict.witness is not None:
        witness = {
            name: [str(v) for v in m.entries]
            for name, m in zip(verdict.witness._fields, verdict.witness)
        }
    return {
        "holds": verdict.holds,
        "method": verdict.method,
        "reason": verdict.reason,
        "witness": witness,
    }


def decision_records():
    return {
        f"{label}:{name}": record(relation(a, b))
        for label, a, b in seeded_pairs()
        for name, relation in RELATIONS
    }


def test_decisions_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = decision_records()
    assert list(actual) == list(expected)
    for key, rec in expected.items():
        assert actual[key] == rec, key


if __name__ == "__main__":
    json.dump(decision_records(), sys.stdout, indent=1)
    sys.stdout.write("\n")
