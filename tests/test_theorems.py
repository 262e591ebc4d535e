import itertools
import time

import pytest

from starinv import (
    FiniteStarRing,
    UnknownTheorem,
    matrix_star_ring,
    ring_by_name,
    theorem_ids,
    verify_all,
    verify_theorem,
    zn_ring,
)
from starinv.finite import bit_indices
from starinv.theorems import (
    MAX_STORED_VIOLATIONS,
    _complement,
    _finish,
    _namer,
    _order_axioms,
    _regularity_note,
    order_axiom_suite,
)


class TestRegistry:
    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            verify_theorem(zn_ring(6), "riemann_hypothesis")

    def test_ids_stable(self):
        ids = theorem_ids()
        assert "one_mp_characterization" in ids
        assert "order_plus_block_form" in ids
        assert len(ids) == len(set(ids))


@pytest.mark.parametrize("ring_name", ["z6", "z8", "m2gf2"])
@pytest.mark.parametrize("theorem", sorted(set(theorem_ids())))
def test_every_theorem_passes(ring_name, theorem):
    rep = verify_theorem(ring_by_name(ring_name), theorem)
    assert rep.passed, rep.violations[:5]
    assert rep.theorem == theorem
    assert rep.ring == ring_name


class TestReportNotes:
    def test_intersection_prints_both_readings(self):
        rep = verify_theorem(zn_ring(6), "inverse_class_intersection")
        assert rep.passed
        assert any("verified reading" in n for n in rep.notes)
        assert any("alternative reading" in n for n in rep.notes)

    def test_seven_condition_gap_note_on_m2gf2(self):
        rep = verify_theorem(matrix_star_ring(2), "one_mp_condition_equivalences")
        assert rep.passed
        assert any("ignores the fixed witness" in n for n in rep.notes)

    def test_seven_condition_unique_note_on_z6(self):
        rep = verify_theorem(zn_ring(6), "one_mp_condition_equivalences")
        assert rep.passed
        assert any("unique" in n for n in rep.notes)

    def test_plus_axioms_skipped_on_z8(self):
        rep = verify_theorem(zn_ring(8), "order_plus_axioms")
        assert rep.passed and rep.checked == 0
        assert any("undefined" in n for n in rep.notes)

    def test_existence_hypothesis_note_on_m2gf2(self):
        rep = verify_theorem(matrix_star_ring(2), "one_mp_existence_projections")
        assert rep.passed
        assert any("{1,4}" in n for n in rep.notes)


# MP1 rows and the 1MP rows whose sweeps they run on the opposite ring
MP1_TWINS = {
    "mp_one_characterization": "one_mp_characterization",
    "mp_one_family_completeness": "one_mp_family_completeness",
    "order_mp1_above_form": "order_1mp_above_form",
    "order_mp1_upper_inverses": "order_1mp_upper_inverses",
}
AXIOM_RELATIONS = {
    "order_1mp_axioms": "1mp",
    "order_mp1_axioms": "mp1",
    "order_minus_axioms": "minus",
    "order_plus_axioms": "plus",
}


@pytest.mark.parametrize("ring_name", ["z6", "z12", "m2gf2"])
def test_registry_rows_run_as_declared(ring_name):
    ring = ring_by_name(ring_name)
    reports = verify_all(ring)
    assert [r.theorem for r in reports] == list(theorem_ids())
    by_id = {r.theorem: r for r in reports}
    for tid, twin in MP1_TWINS.items():
        expected = verify_theorem(ring.opposite(), twin)
        assert by_id[tid]._replace(elapsed=0) == expected._replace(theorem=tid, elapsed=0), tid
    for tid, relation in AXIOM_RELATIONS.items():
        expected = order_axiom_suite(ring, relation)._replace(theorem=tid)
        assert by_id[tid]._replace(elapsed=0) == expected._replace(elapsed=0), tid


def test_axiom_rows_store_what_every_row_stores():
    base = zn_ring(30)
    ring = FiniteStarRing(base.name, base.elements, base.zero, base.one)
    # i relates to j when i == j or i + j is odd: neither antisymmetric nor transitive
    rows = tuple(sum(1 << j for j in range(30) if i == j or (i + j) % 2) for i in range(30))
    ring.rel_rows = {"minus": rows}.__getitem__
    stream = list(_order_axioms(ring, "minus")[1])
    assert len(stream) == 30 * 15 + 30 * 15 * 14 == 6750
    suite = order_axiom_suite(ring, "minus")
    got = verify_theorem(ring, "order_minus_axioms")
    assert suite.theorem == "order-axioms-minus"
    assert suite._replace(theorem=got.theorem, elapsed=0) == got._replace(elapsed=0)
    assert got.violations == tuple(stream[:MAX_STORED_VIOLATIONS])
    assert "6750 violations total; first 20 stored" in got.notes


def test_verify_all_subset():
    reports = verify_all(zn_ring(6), ["one_mp_closure", "order_minus_axioms"])
    assert [r.theorem for r in reports] == ["one_mp_closure", "order_minus_axioms"]
    assert all(r.passed for r in reports)


def test_verify_all_empty_list_runs_nothing():
    assert verify_all(zn_ring(6), []) == []


def test_duality_fails_when_the_opposite_is_the_ring_itself(monkeypatch):
    monkeypatch.setattr(FiniteStarRing, "opposite", lambda self: self)
    rep = verify_theorem(matrix_star_ring(2), "order_mp1_duality")
    assert not rep.passed
    assert {v[0] for v in rep.violations} >= {"class transport", "order transport"}


def test_duality_catches_a_faulty_mp1_scan_in_the_full_registry(monkeypatch):
    # The fault is in the scan, not in the cached result, so it only shows if
    # the ring fills its own MP1 cache rather than reading one the opposite
    # ring's 1MP sweeps filled earlier in the run.
    scan = FiniteStarRing.mp_one_i

    def dropping_scan(self, a):
        if self._mp_one[a] is None:
            family = scan(self, a)
            self._mp_one[a] = family - {min(family)} if len(family) > 1 else family
        return self._mp_one[a]

    monkeypatch.setattr(FiniteStarRing, "mp_one_i", dropping_scan)
    base = matrix_star_ring(2)
    ring = FiniteStarRing(base.name, base.elements, base.zero, base.one)
    reports = {r.theorem: r for r in verify_all(ring)}
    duality = reports["order_mp1_duality"]
    assert not duality.passed
    assert {v[0] for v in duality.violations} >= {"family transport", "order transport"}


def test_z4_small_ring_runs():
    rep = verify_theorem(zn_ring(4), "one_mp_characterization")
    assert rep.passed
    assert any("non-regular" in n for n in rep.notes)


@pytest.mark.parametrize("n", [2, 4, 9, 10])
def test_other_moduli_sanity(n):
    # the registry must degrade gracefully on non-squarefree moduli where
    # regularity and the Rickart property both fail for some elements
    ring = zn_ring(n)
    for theorem in (
        "one_mp_characterization",
        "one_mp_existence_projections",
        "order_1mp_minus_link",
        "order_inclusions",
        "order_plus_axioms",
        "projection_family_form",
    ):
        rep = verify_theorem(ring, theorem)
        assert rep.passed, (n, theorem, rep.violations[:3])


def test_flipped_row_bits_show_in_the_pairwise_sweeps():
    # Each sweep compares cached rows with an independent computation, so one
    # corrupted bit in a minus row and one in a 1MP row must surface as exactly
    # these violations, ordered by b and, within b, as the sweep checks them.
    base = matrix_star_ring(3)
    ring = FiniteStarRing(base.name, base.elements, base.zero, base.one)
    n, mul, dagger = ring.n, ring.mul_table, ring.structure().dagger

    def name(i):
        return repr(ring.elements[i])

    a, b1 = next(
        (a, b) for a in ring.structure().mp_invertible if a != ring.zero_i for b in range(n)
        if b != a and ring.rel_1mp_i(a, b)
    )
    d = dagger[a]
    b2 = next(
        b for b in range(n)
        if not ring.rel_minus_i(a, b) and mul[d * n + b] != mul[d * n + a]
    )
    clean = {t: verify_theorem(ring, t) for t in (
        "minus_idempotent_form", "order_1mp_minus_link", "order_inclusions", "order_1mp_equivalences"
    )}
    assert all(rep.passed for rep in clean.values())
    for relation, b in (("minus", b1), ("1mp", b2)):
        rows = list(ring.rel_rows(relation))
        rows[a] ^= 1 << b
        ring._rows[relation] = tuple(rows)

    by_b = {
        "minus_idempotent_form": {b1: [(name(a), name(b1), False, True)]},
        "order_1mp_minus_link": {
            b1: [(name(a), name(b1), True, False, True), ("1mp without minus", name(a), name(b1))],
            b2: [(name(a), name(b2), True, False, False), ("1mp without minus", name(a), name(b2))],
        },
        "order_inclusions": {
            b1: [("1mp->minus", name(a), name(b1))],
            b2: [("1mp->minus", name(a), name(b2))],
        },
        "order_1mp_equivalences": {b2: [(name(a), name(b2), True, False, False)]},
    }
    for theorem, expected in by_b.items():
        rep = verify_theorem(ring, theorem)
        assert list(rep.violations) == [v for b in sorted(expected) for v in expected[b]], theorem
        assert rep.checked == clean[theorem].checked


# -- parity with the plain triple loops ------------------------------------------
#
# The bitset and memoised sweeps below must report exactly what these loops
# report, on clean rings and on rings whose caches were corrupted so that the
# sweeps find violations.  The loops are the per-triple definitions, kept here
# unchanged as the reference.


def _reference_one_mp_characterization(ring, label="one_mp_characterization"):
    start = time.perf_counter()
    s = ring.structure()
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    violations = []
    checked = 0
    notes = _regularity_note(ring)
    for a in s.mp_invertible:
        ad = mul[a * n + s.dagger[a]]
        family = ring.one_mp_i(a)
        klass = ring.inverse_class_i(a, {1, 2, 3})
        for z in range(n):
            checked += 1
            in_family = z in family
            solves = mul[mul[z * n + a] * n + z] == z and mul[a * n + z] == ad
            in_class = z in klass
            if not (in_family == solves == in_class):
                violations.append((name(a), name(z), in_family, solves, in_class))
    return _finish(label, ring.name, checked, violations, start, notes)


def _reference_one_mp_condition_equivalences(ring, label="one_mp_condition_equivalences"):
    start = time.perf_counter()
    s = ring.structure()
    n, mul, star = ring.n, ring.mul_table, ring.star_table
    name = _namer(ring)
    violations = []
    checked = 0
    literal_gap = 0
    gap_example = None
    for a in s.mp_invertible:
        d = s.dagger[a]
        an = a * n
        ad = mul[an + d]
        astar = star[a]
        family = ring.one_mp_i(a)
        inners = [(am, am * n, mul[am * n + a]) for am in ring.inner_i(a)]
        for x in range(n):
            ax = mul[an + x]
            xa = mul[x * n + a]
            axa = mul[ax * n + a]
            xad = mul[xa * n + d]
            asax_ok = mul[astar * n + ax] == astar
            # (7): x*a*x == x and star(a)*a*x == star(a), whatever a_minus is
            c7 = mul[xa * n + x] == x and asax_ok
            rows = []
            for am, amn, ama in inners:
                checked += 1
                x_from_ax = mul[amn + ax] == x
                c1 = x == mul[ama * n + d]
                c2 = ax == ad and x_from_ax
                c3 = asax_ok and x_from_ax
                c4 = xa == ama and x == xad
                c5 = mul[xa * n + am] == mul[ama * n + am] and x == xad
                c6 = axa == a and mul[mul[amn + axa] * n + d] == x
                if not (c1 == c2 == c3 == c4 == c5 == c6):
                    violations.append(("fixed (1)-(6) disagree", name(a), name(am), name(x)))
                if c1 and not c7:
                    violations.append(("(1) without (7)", name(a), name(am), name(x)))
                if c7 and not c1:
                    literal_gap += 1
                    if gap_example is None:
                        gap_example = (name(a), name(am), name(x))
                rows.append((c1, c2, c3, c4, c5, c6))
            exists = {any(column) for column in zip(*rows)}
            if len(exists | {c7, x in family}) != 1:
                violations.append(("quantified readings disagree", name(a), name(x)))
    notes = []
    if literal_gap:
        notes.append(
            f"condition (7) ignores the fixed witness: {literal_gap} triple(s) satisfy (7) "
            f"but not (1), e.g. (a, a_minus, x) = {gap_example}; with the witness "
            f"quantified away all seven agree"
        )
    else:
        notes.append("1MP-inverses are unique here; the fixed and quantified readings coincide")
    return _finish(label, ring.name, checked, violations, start, notes)


def _reference_inner_inverse_block_form(ring, label="inner_inverse_block_form"):
    start = time.perf_counter()
    s = ring.structure()
    n, mul, add = ring.n, ring.mul_table, ring.add_table
    name = _namer(ring)
    co = _complement(ring)
    violations = []
    checked = 0
    for a in s.regular:
        inners = frozenset(ring.inner_i(a))
        for h in inners:
            p = mul[a * n + h]
            q = mul[h * n + a]
            hah = mul[q * n + h] * n
            c12 = ring.corner_i(q, co(p))
            c21 = ring.corner_i(co(q), p)
            c22 = ring.corner_i(co(q), co(p))
            image = set()
            for k12 in c12:
                k12n = k12 * n
                for k21 in c21:
                    base = add[hah + add[k12n + k21]] * n
                    checked += len(c22)
                    image.update(add[base + k22] for k22 in c22)
            if image != inners:
                violations.append((name(a), name(h)))
    return _finish(label, ring.name, checked, violations, start)


def _reference_order_plus_block_form(ring, label="order_plus_block_form"):
    start = time.perf_counter()
    n, mul, add, neg = ring.n, ring.mul_table, ring.add_table, ring.neg_table
    name = _namer(ring)
    co = _complement(ring)
    left, right = ring.left_bits, ring.right_bits
    rows = ring.rel_rows("plus")
    violations = []
    checked = 0
    skipped = 0
    notes = []
    for a in range(n):
        la = ring.lp_i(a)
        ra = ring.rp_i(a)
        if la < 0 or ra < 0:
            skipped += 1
            continue
        nla = co(la)
        nra = co(ra)
        corners = itertools.product(
            sorted(ring.corner_i(nla, nra)),  # b22
            sorted(ring.corner_i(la, nla)),  # y
            sorted(ring.corner_i(nra, ra)),  # x
            sorted(ring.corner_i(nla, ra)),  # w
            sorted(ring.corner_i(la, nra)),  # z
        )
        image = 0
        for b22, y, x, w, z in corners:
            checked += 1
            yn, zn = y * n, z * n
            b21 = add[mul[b22 * n + x] * n + w]
            b12 = add[mul[yn + b22] * n + z]
            b11 = add[a * n + add[mul[yn + b21] * n + mul[zn + x]]]
            b = add[add[b11 * n + b12] * n + add[b21 * n + b22]]
            t_left = add[mul[yn + w] * n + w]
            t_right = add[mul[zn + x] * n + z]
            if left(b) & ~left(t_left):
                continue
            if right(b) & ~right(t_right):
                continue
            qt = add[la * n + neg[y]]
            q = add[ra * n + neg[x]]
            if mul[mul[qt * n + b] * n + q] != a:
                violations.append(("witness identity", name(a), name(b)))
            image |= 1 << b
        for b in bit_indices(rows[a] & ~image):
            violations.append(("missing from image", name(a), name(b)))
        for b in bit_indices(image & ~rows[a]):
            violations.append(("extra in image", name(a), name(b)))
    if skipped:
        notes.append(f"{skipped} element(s) without canonical projections skipped")
    return _finish(label, ring.name, checked, violations, start, notes)


REFERENCES = {
    "one_mp_condition_equivalences": _reference_one_mp_condition_equivalences,
    "inner_inverse_block_form": _reference_inner_inverse_block_form,
    "order_plus_block_form": _reference_order_plus_block_form,
}


def _extra_family_member(ring):
    # one element outside a's 1MP family joins the cached family
    a = next(a for a in ring.structure().mp_invertible if len(ring.one_mp_i(a)) < ring.n)
    family = ring.one_mp_i(a)
    ring._one_mp[a] = family | {min(set(range(ring.n)) - family)}


def _penrose_bit_flipped(ring):
    # the first nonzero MP-invertible a loses its dagger from the cached eq1 bitset
    s = ring.structure()
    a = next(a for a in s.mp_invertible if a != ring.zero_i)
    eq1, eq2, eq3, eq4 = ring.penrose_bits(a)
    ring._penrose_bits[a] = (eq1 ^ 1 << s.dagger[a], eq2, eq3, eq4)


def _zero_in_every_family(ring):
    for a in ring.structure().mp_invertible:
        ring._one_mp[a] = ring.one_mp_i(a) | {ring.zero_i}


def _non_inner_appended(ring):
    # the first MP-invertible a with a non-inner element gets one appended to a{1}
    for a in ring.structure().mp_invertible:
        inners = ring.inner_i(a)
        outside = [x for x in range(ring.n) if x not in inners]
        if outside:
            ring._inner[a] = inners + (outside[len(outside) // 2],)
            return


def _corner_element_dropped(ring):
    # the first block-form corner of a{1}, relative to (ha, ah), with two elements
    n, mul = ring.n, ring.mul_table
    co = _complement(ring)
    for a in ring.structure().regular:
        for h in ring.inner_i(a):
            p, q = mul[a * n + h], mul[h * n + a]
            for left, right in ((q, co(p)), (co(q), p), (co(q), co(p))):
                corner = ring.corner_i(left, right)
                if len(corner) > 1:
                    ring._corners[left * n + right] = corner - {max(corner)}
                    return
    raise AssertionError("no corner with two elements")


def _plus_corner_element_dropped(ring):
    # the b22 corner (1 - lp(a), 1 - rp(a)) of the first a where it has two elements
    co = _complement(ring)
    for a in range(ring.n):
        la, ra = ring.lp_i(a), ring.rp_i(a)
        if la >= 0 and ra >= 0:
            p, q = co(la), co(ra)
            corner = ring.corner_i(p, q)
            if len(corner) > 1:
                ring._corners[p * ring.n + q] = corner - {min(corner)}
                return
    raise AssertionError("no b22 corner with two elements")


def _plus_row_bit_flipped(ring):
    # a with canonical projections: a relates to itself, so the flip drops b == a
    a = next(a for a in range(ring.n) if ring.lp_i(a) >= 0 and ring.rp_i(a) >= 0 and a != ring.zero_i)
    rows = list(ring.rel_rows("plus"))
    rows[a] ^= 1 << a
    ring._rows["plus"] = tuple(rows)


# injection -> (corrupt the ring's caches, sweeps that must then report violations)
INJECTIONS = {
    "clean": (lambda ring: None, ()),
    "extra 1mp member": (_extra_family_member, ("one_mp_condition_equivalences",)),
    "non-inner appended": (
        _non_inner_appended, ("one_mp_condition_equivalences", "inner_inverse_block_form")
    ),
    "corner element dropped": (_corner_element_dropped, ("inner_inverse_block_form",)),
    "plus corner element dropped": (_plus_corner_element_dropped, ("order_plus_block_form",)),
    "plus row bit flipped": (_plus_row_bit_flipped, ("order_plus_block_form",)),
}
# cases with more than MAX_STORED_VIOLATIONS violations: the note and the stored prefix compare too
TRUNCATED = {("m2gf3", "non-inner appended"), ("m2gf3", "corner element dropped")}


@pytest.mark.parametrize("injection", list(INJECTIONS))
@pytest.mark.parametrize("ring_name", ["z12", "m2gf2", "m2gf3"])
def test_sweeps_match_the_triple_loops(ring_name, injection):
    base = ring_by_name(ring_name)
    ring = FiniteStarRing(base.name, base.elements, base.zero, base.one)
    ring.structure()
    inject, targets = INJECTIONS[injection]
    inject(ring)
    for theorem, reference in REFERENCES.items():
        expected = reference(ring)
        got = verify_theorem(ring, theorem)
        assert (got.checked, got.violations, got.notes) == (
            expected.checked, expected.violations, expected.notes
        ), (theorem, injection)
        if theorem in targets:
            assert expected.violations, (theorem, injection)
        if theorem == "inner_inverse_block_form" and (ring_name, injection) in TRUNCATED:
            assert any("violations total" in note for note in expected.notes)


# The 1MP characterization against its pair loop, on its own injections: a
# flipped Penrose bit reaches the bitset condition-equivalence sweep, which
# reads `penrose_bits`, but not its triple loop, which reads the table.
CHARACTERIZATION_INJECTIONS = {
    "clean": lambda ring: None,
    "extra 1mp member": _extra_family_member,
    "penrose bit flipped": _penrose_bit_flipped,
    "zero in every family": _zero_in_every_family,
}


@pytest.mark.parametrize("injection", list(CHARACTERIZATION_INJECTIONS))
@pytest.mark.parametrize("ring_name", ["z12", "m2gf2", "m2gf3"])
def test_one_mp_characterization_matches_the_pair_loop(ring_name, injection):
    base = ring_by_name(ring_name)
    ring = FiniteStarRing(base.name, base.elements, base.zero, base.one)
    ring.structure()
    CHARACTERIZATION_INJECTIONS[injection](ring)
    expected = _reference_one_mp_characterization(ring)
    got = verify_theorem(ring, "one_mp_characterization")
    assert (got.checked, got.violations, got.notes) == (
        expected.checked, expected.violations, expected.notes
    )
    assert bool(expected.violations) == (injection != "clean")
    if (ring_name, injection) == ("m2gf3", "zero in every family"):
        assert f"80 violations total; first {MAX_STORED_VIOLATIONS} stored" in expected.notes
