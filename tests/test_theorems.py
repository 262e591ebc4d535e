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
