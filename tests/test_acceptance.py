"""Acceptance suite: ten exact criteria, one pass/fail line printed each.

Everything here is exact arithmetic; "tolerance" is equality.  Finite-ring
criteria run the exhaustive oracle sweeps; rational-matrix criteria run
seeded deterministic generators with the seeds frozen below.
"""

import random
import time

from starinv import (
    ExactMatrix,
    OneMPAboveForm,
    above_1mp,
    above_mp1,
    dagger,
    is_member,
    leq_1mp,
    leq_1mp_routes,
    leq_mp1,
    matrix_star_ring,
    mp_inverse,
    mp_one,
    order_axiom_suite,
    ring_by_name,
    verify_theorem,
)
from starinv.matrix import penrose_equations

from conftest import M, random_inner_inverse, random_rational_matrix, random_singular_matrix

FINITE_RINGS = ("z6", "z8", "z12", "m2gf2")
PLUS_RINGS = ("z6", "m2gf2", "m2gf3")


def _announce(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def _nonzero_singular(rng, n):
    while True:
        a = random_singular_matrix(rng, n, rng.randint(1, n - 1))
        if not a.is_zero:
            return a


def test_criterion_01_penrose_exactness():
    """1,000 seeded rational matrices: four Penrose equations and double dagger."""
    rng = random.Random(20260809)
    start = time.perf_counter()
    for _ in range(1000):
        a = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = mp_inverse(a)
        assert penrose_equations(a, x) == (True, True, True, True)
        assert mp_inverse(x) == a
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _announce(1, f"1000 rational matrices, all Penrose equations exact, {elapsed:.1f}s")


def test_criterion_02_one_mp_characterization_exhaustive():
    """Membership == system == {1,2,3} for every (a, x), four finite rings."""
    start = time.perf_counter()
    total = 0
    for name in FINITE_RINGS:
        rep = verify_theorem(ring_by_name(name), "one_mp_characterization")
        assert rep.passed, (name, rep.violations[:3])
        total += rep.checked
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    _announce(2, f"three-way 1MP characterization, {total} instances, zero violations")


def test_criterion_03_family_completeness():
    """The free-parameter family fills the whole {1,2,3} class, exhaustively."""
    total = 0
    for name in FINITE_RINGS:
        rep = verify_theorem(ring_by_name(name), "one_mp_family_completeness")
        assert rep.passed, (name, rep.violations[:3])
        total += rep.checked
    _announce(3, f"family image == inverse class on {len(FINITE_RINGS)} rings, {total} instances")


def test_criterion_04_partial_order_axioms():
    """Reflexivity, antisymmetry, transitivity: 1MP/MP1 on the MP-invertible
    elements everywhere; plus order on the backends where it is total."""
    checked = 0
    for name in FINITE_RINGS:
        ring = ring_by_name(name)
        for relation in ("1mp", "mp1"):
            rep = order_axiom_suite(ring, relation)
            assert rep.passed, (name, relation, rep.violations[:3])
            assert rep.checked > 0
            checked += rep.checked
    for name in PLUS_RINGS:
        rep = order_axiom_suite(ring_by_name(name), "plus")
        assert rep.passed, (name, rep.violations[:3])
        assert rep.checked > 0
        checked += rep.checked
    # rings with elements lacking idempotent annihilator families are
    # excluded from the plus suite with an explicit note
    for name in ("z8", "z12"):
        rep = order_axiom_suite(ring_by_name(name), "plus")
        assert rep.passed and rep.checked == 0
        assert any("undefined" in note for note in rep.notes)
    _announce(4, f"order axioms verified, {checked} instances, zero violations")


def test_criterion_05_decision_route_agreement():
    """Three decision routes for the 1MP order agree: exhaustively on finite
    rings; 500 constructed-holds and 500 perturbed-fails rational pairs."""
    for name in FINITE_RINGS:
        for theorem in ("order_1mp_minus_link", "order_1mp_equivalences"):
            rep = verify_theorem(ring_by_name(name), theorem)
            assert rep.passed, (name, theorem, rep.violations[:3])
    rng = random.Random(115)
    eye_cache = {n: ExactMatrix.identity(n) for n in (2, 3, 4)}
    for i in range(500):
        n = rng.randint(2, 4)
        eye = eye_cache[n]
        a = _nonzero_singular(rng, n)
        d = dagger(a)
        p = a * d
        q = d * a
        b4 = (eye - p) * random_rational_matrix(rng, n, n) * (eye - q)
        dd = (eye - q) * random_rational_matrix(rng, n, n) * p
        b = above_1mp(a, OneMPAboveForm(b4, dd))
        assert leq_1mp(a, b).holds
        # perturbation forces dagger(a)*b != dagger(a)*a
        b_bad = b + a
        assert not leq_1mp(a, b_bad).holds
        if i % 5 == 0:
            # the three independent decision routes cross-checked on a sample
            assert set(leq_1mp_routes(a, b).values()) == {True}
            assert set(leq_1mp_routes(a, b_bad).values()) == {False}
    _announce(5, "route agreement exhaustive on finite rings; 500+500 rational pairs")


def test_criterion_06_structural_completeness_m2gf2():
    """Block forms generate exactly the sets above each element on M2(GF(2))."""
    from starinv import ConditionFailure, NotRickart, PlusBlockData, lp, plus_block_compose, rp

    ring = matrix_star_ring(2)
    for theorem in ("order_1mp_above_form", "order_plus_block_form"):
        rep = verify_theorem(ring, theorem)
        assert rep.passed, (theorem, rep.violations[:3])
        assert not rep.sampled
    # library-side constructions agree with the exhaustive scans
    one = ring.one
    skipped = 0
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        p = a * d
        q = d * a
        image = {
            above_1mp(a, OneMPAboveForm(b4, dd))
            for b4 in ring.corner(one - p, one - q)
            for dd in ring.corner(one - q, p)
        }
        assert image == {b for b in ring.elements if ring.rel_1mp(a, b)}
    for a in ring.elements:
        try:
            la, ra = lp(a), rp(a)
        except NotRickart:
            skipped += 1
            continue
        image = set()
        for b22 in ring.corner(one - la, one - ra):
            for y in ring.corner(la, one - la):
                for x in ring.corner(one - ra, ra):
                    for w in ring.corner(one - la, ra):
                        for zz in ring.corner(la, one - ra):
                            try:
                                image.add(
                                    plus_block_compose(
                                        a, PlusBlockData(b22=b22, y=y, x=x, w=w, z=zz)
                                    )
                                )
                            except ConditionFailure:
                                pass
        assert image == {b for b in ring.elements if ring.rel_plus(a, b)}
    assert skipped == 5  # the m2gf2 elements without canonical projections
    _announce(6, "1MP and plus block images complete on m2gf2 (oracle + library routes)")


def test_criterion_07_duality_transport():
    """Opposite-ring transport on finite rings; 800 rational MP1 cases."""
    for name in FINITE_RINGS + ("m2gf3",):
        rep = verify_theorem(ring_by_name(name), "order_mp1_duality")
        assert rep.passed, (name, rep.violations[:3])
    rng = random.Random(116)
    for _ in range(600):
        n = rng.randint(2, 4)
        a = random_rational_matrix(rng, n, n)
        k = random_inner_inverse(rng, a)
        direct = mp_one(a, k)
        assert direct == dagger(a) * a * k
        assert is_member(a, direct, {1, 2, 4})
    eye_cache = {n: ExactMatrix.identity(n) for n in (2, 3, 4)}
    for _ in range(200):
        n = rng.randint(2, 4)
        eye = eye_cache[n]
        a = _nonzero_singular(rng, n)
        d = dagger(a)
        p = a * d
        q = d * a
        b4 = (eye - p) * random_rational_matrix(rng, n, n) * (eye - q)
        dd = q * random_rational_matrix(rng, n, n) * (eye - p)
        b = above_mp1(a, OneMPAboveForm(b4, dd))
        v = leq_mp1(a, b)
        assert v.holds
        assert is_member(a, v.witness.x, {1, 2, 4})
        b_bad = b + a
        assert not leq_mp1(a, b_bad).holds
        transposed = leq_1mp_routes(a.star, b_bad.star)
        assert set(transposed.values()) == {False}
    _announce(7, "MP1 == transported 1MP: exhaustive finite + 800 rational cases")


def test_criterion_08_inclusion_chain():
    """diamond implies plus, minus implies plus, 1MP implies minus."""
    total = 0
    for name in FINITE_RINGS + ("m2gf3",):
        rep = verify_theorem(ring_by_name(name), "order_inclusions")
        assert rep.passed, (name, rep.violations[:3])
        total += rep.checked
    _announce(8, f"inclusion chain, {total} pairs, zero violations")


def test_criterion_09_seven_conditions():
    """All seven 1MP conditions agree on Z6 and M2(GF(2)), exhaustively."""
    for name in ("z6", "m2gf2"):
        rep = verify_theorem(ring_by_name(name), "one_mp_condition_equivalences")
        assert rep.passed, (name, rep.violations[:3])
    _announce(9, "seven-condition equivalences exhaustive on z6 and m2gf2")


def test_criterion_10_cli_contract(tmp_path, capsys):
    """The tagged CLI examples reproduce bit-exactly with conforming exits."""
    import json

    from starinv.cli import main, serialize_matrix_document
    from starinv.fields import GF

    def doc(name, matrix):
        path = tmp_path / name
        path.write_text(serialize_matrix_document(matrix))
        return str(path)

    def run(*argv):
        code = main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    identity = doc("i.mat", ExactMatrix.identity(2))
    wide = doc("w.mat", M([[1, 1], [0, 0]]))
    gf2bad = doc("g.mat", M([[1, 1], [1, 1]], GF(2)))
    diag = doc("d.mat", M([[1, 0], [0, 0]]))
    upper = doc("u.mat", M([[1, 1], [0, 1]]))

    code, rep = run("mp", identity)
    assert code == 0 and rep["results"]["mp_inverse"]["entries"] == [["1", "0"], ["0", "1"]]

    code, rep = run("mp", wide)
    assert code == 0 and rep["results"]["mp_inverse"]["entries"] == [["1/2", "0"], ["1/2", "0"]]

    code, rep = run("mp", gf2bad)
    assert code == 1 and rep["results"]["mp_inverse"] is None

    code, rep = run("order", "1mp", diag, identity)
    assert code == 0 and rep["results"]["holds"] is True

    code, rep = run("order", "1mp", diag, upper)
    assert code == 1 and rep["results"]["holds"] is False
    assert rep["results"]["reason"] == "dagger(a)*b != dagger(a)*a"

    for relation in ("1mp", "mp1", "minus", "diamond", "plus"):
        code, rep = run("order", relation, wide if relation in ("minus", "diamond") else diag,
                        wide if relation in ("minus", "diamond") else diag)
        assert code == 0 and rep["results"]["holds"] is True

    _announce(10, "CLI mp and order examples bit-exact; exit statuses conform")
