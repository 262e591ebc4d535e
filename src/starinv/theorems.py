"""Exhaustive theorem verification over the registered finite *-rings.

Every entry in THEOREMS sweeps one statement over a finite carrier using
nothing but the ring's operation tables, so the checks are independent of
the formula layers in inverses.py and orders.py.  A report lists how many
instances were checked and every counterexample found (expected: none).

MP1-side statements are verified by running the corresponding 1MP sweep
against a reversed-multiplication adapter of the ring; that the adapter is
itself faithful is checked separately by `order_mp1_duality`.
"""

from __future__ import annotations

import time

from .errors import UnknownTheorem
from .finite import FiniteStarRing, TheoremReport, capped_tuples
from .orders import order_axiom_suite

MAX_STORED_VIOLATIONS = 20


def _finish(theorem, ring_name, checked, violations, start, notes=(), sampled=False):
    vs = tuple(violations[:MAX_STORED_VIOLATIONS])
    notes = tuple(notes)
    if len(violations) > MAX_STORED_VIOLATIONS:
        notes = notes + (f"{len(violations)} violations total; first {MAX_STORED_VIOLATIONS} stored",)
    return TheoremReport(theorem, ring_name, checked, vs, time.perf_counter() - start, notes, sampled)


def _regularity_note(ring) -> list:
    ring._build_structure()
    missing = [a for a in ring.elements if a not in set(ring.regular)]
    if missing:
        shown = ", ".join(repr(a) for a in missing[:6])
        more = "..." if len(missing) > 6 else ""
        return [f"{len(missing)} non-regular element(s) excluded from regular-only sweeps: {shown}{more}"]
    return []


class _ReversedRing:
    """The opposite ring of a finite *-ring, exposed through the same surface.

    Multiplication is reversed; annihilator sides, corner orientation, and
    Penrose equations (3) and (4) swap accordingly.  1MP data of this adapter
    is MP1 data of the base ring.
    """

    def __init__(self, ring: FiniteStarRing):
        self.base = ring
        self.name = ring.name
        self.elements = ring.elements
        self.zero = ring.zero
        self.one = ring.one

    def _build_structure(self):
        self.base._build_structure()

    @property
    def mp_invertible(self):
        self.base._build_structure()
        return self.base.mp_invertible

    @property
    def regular(self):
        self.base._build_structure()
        return self.base.regular

    @property
    def idempotents(self):
        self.base._build_structure()
        return self.base.idempotents

    @property
    def projections(self):
        self.base._build_structure()
        return self.base.projections

    def mul(self, a, b):
        return self.base.mul(b, a)

    def mul3(self, a, b, c):
        return self.base.mul3(c, b, a)

    def add(self, a, b):
        return self.base.add(a, b)

    def sub(self, a, b):
        return self.base.sub(a, b)

    def star(self, a):
        return self.base.star(a)

    def left_ann(self, a):
        return self.base.right_ann(a)

    def right_ann(self, a):
        return self.base.left_ann(a)

    def corner(self, p, q):
        return self.base.corner(q, p)

    def dagger_of(self, a):
        return self.base.dagger_of(a)

    def inner_inverses(self, a):
        return self.base.inner_inverses(a)

    def one_mp_set(self, a):
        return self.base.mp_one_set(a)

    def mp_one_set(self, a):
        return self.base.one_mp_set(a)

    def penrose_flags(self, a, x):
        f1, f2, f3, f4 = self.base.penrose_flags(a, x)
        return (f1, f2, f4, f3)

    def inverse_class(self, a, classes):
        swapped = frozenset({1: 1, 2: 2, 3: 4, 4: 3}[c] for c in classes)
        return self.base.inverse_class(a, swapped)

    def rel_1mp(self, a, b):
        return self.base.rel_mp1(a, b)


# -- inverse-class theorems ----------------------------------------------------


def _one_mp_characterization(ring, label="one_mp_characterization"):
    """Membership in the 1MP family == solving its system == {1,2,3}-inverse."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    notes = _regularity_note(ring)
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        ad = ring.mul(a, d)
        family = ring.one_mp_set(a)
        klass = ring.inverse_class(a, {1, 2, 3})
        for z in ring.elements:
            checked += 1
            in_family = z in family
            solves = ring.mul3(z, a, z) == z and ring.mul(a, z) == ad
            in_class = z in klass
            if not (in_family == solves == in_class):
                violations.append((repr(a), repr(z), in_family, solves, in_class))
    return _finish(label, ring.name, checked, violations, start, notes)


def _one_mp_products(ring, label="one_mp_products"):
    """Products a_minus*a*dagger(a) land in {1,2,3} with the fixed marginals."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        ad = ring.mul(a, d)
        klass = ring.inverse_class(a, {1, 2, 3})
        for am in ring.inner_inverses(a):
            checked += 1
            x = ring.mul3(am, a, d)
            ok = (
                x in klass
                and ring.mul(x, a) == ring.mul(am, a)
                and ring.mul(a, x) == ad
                and ring.left_ann(ring.mul(a, x)) == ring.left_ann(a)
                and ring.right_ann(ring.mul(x, a)) == ring.right_ann(a)
            )
            if not ok:
                violations.append((repr(a), repr(am)))
    return _finish(label, ring.name, checked, violations, start)


def _one_mp_family_completeness(ring, label="one_mp_family_completeness"):
    """Sweeping the free parameter from any base member fills the whole family."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    for a in ring.mp_invertible:
        family = ring.one_mp_set(a)
        klass = ring.inverse_class(a, {1, 2, 3})
        if family != klass:
            violations.append((repr(a), "family != class"))
            continue
        for base in family:
            ba = ring.mul(base, a)
            ab = ring.mul(a, base)
            image = set()
            for w in ring.elements:
                checked += 1
                t = ring.mul(w, ab)
                image.add(ring.add(base, ring.sub(t, ring.mul(ba, t))))
            if image != set(family):
                violations.append((repr(a), repr(base)))
    return _finish(label, ring.name, checked, violations, start)


def _seven_condition_flags(ring, a, am, x, d):
    """The seven equational conditions with the fixed inner inverse am."""
    mul, mul3, star = ring.mul, ring.mul3, ring.star
    ax = mul(a, x)
    xa = mul(x, a)
    ad = mul(a, d)
    ama = mul(am, a)
    astar = star(a)
    asax = mul(astar, ax)
    c1 = x == mul3(am, a, d)
    c2 = ax == ad and x == mul(am, ax)
    c3 = asax == astar and x == mul(am, ax)
    c4 = xa == ama and x == mul(xa, d)
    c5 = mul(xa, am) == mul(ama, am) and x == mul(xa, d)
    c6 = mul(ax, a) == a and mul3(am, mul(ax, a), d) == x
    c7 = mul(xa, x) == x and asax == astar
    return (c1, c2, c3, c4, c5, c6, c7)


def _one_mp_condition_equivalences(ring, label="one_mp_condition_equivalences"):
    """The seven 1MP conditions agree.

    Fixed-witness reading: conditions (1)-(6) agree for every (a, a_minus, x)
    and imply (7).  Witness-quantified reading: each of (1)-(6) quantified
    over all inner inverses agrees with (7) and with family membership.  The
    notes record how often the literal (7) holds while the fixed-witness (1)
    fails, which happens exactly when the 1MP-inverse is not unique.
    """
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    literal_gap = 0
    gap_example = None
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        family = ring.one_mp_set(a)
        inners = ring.inner_inverses(a)
        for x in ring.elements:
            exists = [False] * 6
            c7 = None
            for am in inners:
                checked += 1
                flags = _seven_condition_flags(ring, a, am, x, d)
                c7 = flags[6]
                if len(set(flags[:6])) != 1:
                    violations.append(("fixed (1)-(6) disagree", repr(a), repr(am), repr(x)))
                if flags[0] and not flags[6]:
                    violations.append(("(1) without (7)", repr(a), repr(am), repr(x)))
                if flags[6] and not flags[0]:
                    literal_gap += 1
                    if gap_example is None:
                        gap_example = (repr(a), repr(am), repr(x))
                for i in range(6):
                    exists[i] = exists[i] or flags[i]
            membership = x in family
            quantified = set(exists) | {c7, membership}
            if len(quantified) != 1:
                violations.append(("quantified readings disagree", repr(a), repr(x)))
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


def _ideal_generators(ring, a):
    """Projections p with p*R == a*R, and idempotents q with R*q == R*a."""
    right_ideal_a = frozenset(ring.mul(a, u) for u in ring.elements)
    left_ideal_a = frozenset(ring.mul(u, a) for u in ring.elements)
    p_hits = [
        p
        for p in ring.projections
        if frozenset(ring.mul(p, u) for u in ring.elements) == right_ideal_a
    ]
    q_hits = [
        q
        for q in ring.idempotents
        if frozenset(ring.mul(u, q) for u in ring.elements) == left_ideal_a
    ]
    return p_hits, q_hits


def _one_mp_existence_projections(ring, label="one_mp_existence_projections"):
    """1MP-inverses exist iff a projection/idempotent pair matches a's ideals.

    Hypothesis taken as a{1,4} nonempty.  A single-equation reading of the
    hypothesis is vacuous (x == 0 always satisfies the symmetry equation
    alone) and admits counterexamples; the equivalence proof combines the
    {1,3}-inverse produced by the projection with a {1,4}-inverse, which is
    what the hypothesis must supply.
    """
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    skipped = 0
    for a in ring.elements:
        if not ring.inverse_class(a, {1, 4}):
            skipped += 1
            continue
        checked += 1
        nonempty = bool(ring.one_mp_set(a))
        p_hits, q_hits = _ideal_generators(ring, a)
        pair_exists = bool(p_hits) and bool(q_hits)
        if nonempty != pair_exists:
            violations.append(("existence mismatch", repr(a)))
            continue
        if not nonempty:
            continue
        family = ring.one_mp_set(a)
        for p in p_hits:
            for q in q_hits:
                for am in ring.inner_inverses(a):
                    checked += 1
                    if ring.mul3(q, am, p) not in family:
                        violations.append((repr(a), repr(p), repr(q), repr(am)))
    notes = [f"{skipped} element(s) without a {{1,4}}-inverse excluded by hypothesis"] if skipped else []
    return _finish(label, ring.name, checked, violations, start, notes)


def _one_mp_closure(ring, label="one_mp_closure"):
    """x*a*y stays inside the 1MP family."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    for a in ring.mp_invertible:
        family = ring.one_mp_set(a)
        for x in family:
            xa = ring.mul(x, a)
            for y in family:
                checked += 1
                if ring.mul(xa, y) not in family:
                    violations.append((repr(a), repr(x), repr(y)))
    return _finish(label, ring.name, checked, violations, start)


def _partial_isometry_solutions(ring, label="partial_isometry_solutions"):
    """For star(a) == dagger(a): the solution set of (xax == x, ax == a*star(a))."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    isometries = 0
    for a in ring.mp_invertible:
        if ring.dagger_of(a) != ring.star(a):
            continue
        isometries += 1
        aas = ring.mul(a, ring.star(a))
        solutions = frozenset(
            c
            for c in ring.elements
            if ring.mul3(c, a, c) == c and ring.mul(a, c) == aas
        )
        image = set()
        for am in ring.inner_inverses(a):
            ama = ring.mul(am, a)
            base = ring.mul(ama, ring.star(a))
            for w in ring.elements:
                checked += 1
                t = ring.mul(w, aas)
                image.add(ring.add(base, ring.sub(t, ring.mul(ama, t))))
        if image != solutions:
            violations.append((repr(a),))
    return _finish(
        label, ring.name, checked, violations, start,
        [f"{isometries} partial isometr(ies) in the carrier"],
    )


def _inner_inverse_block_form(ring, label="inner_inverse_block_form"):
    """a{1} is exactly h*a*h plus the three free corners relative to (ha, ah)."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    one = ring.one
    for a in ring.regular:
        inners = frozenset(ring.inner_inverses(a))
        for h in inners:
            p = ring.mul(a, h)
            q = ring.mul(h, a)
            hah = ring.mul3(h, a, h)
            c12 = ring.corner(q, ring.sub(one, p))
            c21 = ring.corner(ring.sub(one, q), p)
            c22 = ring.corner(ring.sub(one, q), ring.sub(one, p))
            image = set()
            for k12 in c12:
                for k21 in c21:
                    base = ring.add(hah, ring.add(k12, k21))
                    for k22 in c22:
                        checked += 1
                        image.add(ring.add(base, k22))
            if image != inners:
                violations.append((repr(a), repr(h)))
    return _finish(label, ring.name, checked, violations, start)


def _inverse_class_intersection(ring, label="inverse_class_intersection"):
    """{1,2,3} meets {1,2,4} in exactly the Moore-Penrose inverse."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    full_carrier_reading_fails = 0
    mp_set = frozenset(ring.mp_invertible)
    for a in ring.mp_invertible:
        checked += 1
        meet = ring.inverse_class(a, {1, 2, 3}) & ring.inverse_class(a, {1, 2, 4})
        if meet != frozenset([ring.dagger_of(a)]):
            violations.append((repr(a), "intersection is not {dagger(a)}"))
        if meet != mp_set:
            full_carrier_reading_fails += 1
    notes = [
        "verified reading: a{1,2,3} & a{1,2,4} == {dagger(a)} for every MP-invertible a",
        f"alternative reading '== all MP-invertible elements' fails for "
        f"{full_carrier_reading_fails} of {len(ring.mp_invertible)} element(s)"
        if full_carrier_reading_fails
        else "alternative reading '== all MP-invertible elements' coincides here",
    ]
    return _finish(label, ring.name, checked, violations, start, notes)


# -- 1MP order theorems ----------------------------------------------------------


def _order_1mp_above_form(ring, label="order_1mp_above_form"):
    """{b : a below b} equals the image of (b4, d) |-> a - b4*d*a + b4."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    one = ring.one
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        p = ring.mul(a, d)
        q = ring.mul(d, a)
        above = frozenset(b for b in ring.elements if ring.rel_1mp(a, b))
        image = set()
        for b4 in ring.corner(ring.sub(one, p), ring.sub(one, q)):
            for dd in ring.corner(ring.sub(one, q), p):
                checked += 1
                b = ring.add(ring.sub(a, ring.mul3(b4, dd, a)), b4)
                image.add(b)
        if image != above:
            violations.append((repr(a), "block image differs from the order"))
    return _finish(label, ring.name, checked, violations, start)


def _order_1mp_upper_inverses(ring, label="order_1mp_upper_inverses"):
    """The 1MP family of every b above a, in block coordinates."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    skipped = 0
    one = ring.one
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        p = ring.mul(a, d)
        q = ring.mul(d, a)
        c21 = ring.corner(ring.sub(one, q), p)
        c22b = ring.corner(ring.sub(one, p), ring.sub(one, q))
        for b4 in c22b:
            for dd in c21:
                b = ring.add(ring.sub(a, ring.mul3(b4, dd, a)), b4)
                if ring.dagger_of(b) is None:
                    skipped += 1
                    continue
                family_b = ring.one_mp_set(b)
                b4d = ring.mul(b4, dd)
                image = set()
                for x3 in c21:
                    if ring.mul(b4, x3) != b4d:
                        continue
                    for x4 in ring.corner(ring.sub(one, q), ring.sub(one, p)):
                        b4x4 = ring.mul(b4, x4)
                        if not (
                            ring.mul(b4x4, b4) == b4
                            and ring.mul(x4, b4x4) == x4
                            and ring.star(b4x4) == b4x4
                        ):
                            continue
                        image.add(ring.add(d, ring.add(x3, x4)))
                checked += 1
                if image != family_b:
                    violations.append((repr(a), repr(b)))
    notes = [f"{skipped} composed element(s) above a were not MP-invertible and were skipped"] if skipped else []
    return _finish(label, ring.name, checked, violations, start, notes)


def _order_1mp_equivalences(ring, label="order_1mp_equivalences"):
    """Order membership == split witnesses == the shared-inner-inverse identity."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        ad = ring.mul(a, d)
        family = ring.one_mp_set(a)
        inners = ring.inner_inverses(a)
        for b in ring.elements:
            checked += 1
            r1 = ring.rel_1mp(a, b)
            r2 = any(ring.mul(x, a) == ring.mul(x, b) for x in family) and any(
                ring.mul(a, y) == ring.mul(b, y) for y in family
            )
            r3 = ring.mul(ad, b) == a and any(ring.mul3(b, am, a) == a for am in inners)
            if not (r1 == r2 == r3):
                violations.append((repr(a), repr(b), r1, r2, r3))
    return _finish(label, ring.name, checked, violations, start)


def _order_1mp_projection_form(ring, label="order_1mp_projection_form"):
    """a below b iff a projection/idempotent pair matches a's ideals and pins b.

    Hypothesis taken as a{1,4} nonempty, as in the existence theorem.
    """
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    skipped = 0
    for a in ring.elements:
        if not ring.inverse_class(a, {1, 4}):
            skipped += 1
            continue
        p_hits, q_hits = _ideal_generators(ring, a)
        mp_ok = ring.dagger_of(a) is not None
        for b in ring.elements:
            checked += 1
            lhs = mp_ok and ring.rel_1mp(a, b)
            rhs = any(
                ring.mul(p, b) == a and ring.mul(b, q) == a
                for p in p_hits
                for q in q_hits
            )
            if lhs != rhs:
                violations.append((repr(a), repr(b), lhs, rhs))
    notes = [f"{skipped} element(s) without a {{1,4}}-inverse excluded by hypothesis"] if skipped else []
    return _finish(label, ring.name, checked, violations, start, notes)


def _order_1mp_inverse_inheritance(ring, label="order_1mp_inverse_inheritance"):
    """If a is below b then z*a*y lies in a's family for all y, z above."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    for a in ring.mp_invertible:
        family_a = ring.one_mp_set(a)
        for b in ring.mp_invertible:
            if not ring.rel_1mp(a, b):
                continue
            family_b = ring.one_mp_set(b)
            for z in family_b:
                za = ring.mul(z, a)
                for y in family_b:
                    checked += 1
                    if ring.mul(za, y) not in family_a:
                        violations.append((repr(a), repr(b), repr(z), repr(y)))
    return _finish(label, ring.name, checked, violations, start)


def _order_1mp_minus_link(ring, label="order_1mp_minus_link"):
    """1MP order == minus order plus the dagger(a)*b == dagger(a)*a condition."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        da = ring.mul(d, a)
        inners = ring.inner_inverses(a)
        for b in ring.elements:
            checked += 1
            cond = ring.mul(d, b) == da
            r1 = ring.rel_1mp(a, b)
            r2 = ring.rel_minus(a, b) and cond
            r3 = cond and any(ring.mul(a, am) == ring.mul(b, am) for am in inners)
            if not (r1 == r2 == r3):
                violations.append((repr(a), repr(b), r1, r2, r3))
            if r1 and not ring.rel_minus(a, b):
                violations.append(("1mp without minus", repr(a), repr(b)))
    return _finish(label, ring.name, checked, violations, start)


# -- MP1 side (via the reversed adapter) ------------------------------------------


def _order_mp1_duality(ring, label="order_mp1_duality"):
    """The reversed-ring transport is faithful: classes, products, and orders."""
    start = time.perf_counter()
    ring._build_structure()
    rev = _ReversedRing(ring)
    violations = []
    checked = 0
    for a in ring.elements:
        checked += 1
        if rev.inverse_class(a, {1, 2, 3}) != ring.inverse_class(a, {1, 2, 4}):
            violations.append(("class transport", repr(a)))
    for a in ring.mp_invertible:
        d = ring.dagger_of(a)
        for am in ring.inner_inverses(a):
            checked += 1
            # a_minus *_L a *_L dagger(a) computed in the reversed ring
            transported = rev.mul3(am, a, d)
            if transported != ring.mul3(d, a, am):
                violations.append(("product transport", repr(a), repr(am)))
        if ring.one_mp_set(a) != rev.mp_one_set(a):
            violations.append(("family transport", repr(a)))
        for b in ring.elements:
            checked += 1
            if ring.rel_mp1(a, b) != rev.rel_1mp(a, b):
                violations.append(("order transport", repr(a), repr(b)))
    return _finish(label, ring.name, checked, violations, start)


def _mp_one_characterization(ring):
    return _one_mp_characterization(_ReversedRing(ring), "mp_one_characterization")


def _mp_one_family_completeness(ring):
    return _one_mp_family_completeness(_ReversedRing(ring), "mp_one_family_completeness")


def _order_mp1_above_form(ring):
    return _order_1mp_above_form(_ReversedRing(ring), "order_mp1_above_form")


def _order_mp1_upper_inverses(ring):
    return _order_1mp_upper_inverses(_ReversedRing(ring), "order_mp1_upper_inverses")


# -- minus / diamond / plus -------------------------------------------------------


def _minus_idempotent_form(ring, label="minus_idempotent_form"):
    """Witness form of the minus order: a == p*b and a == b*q for idempotents."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    notes = _regularity_note(ring)
    for a in ring.regular:
        for b in ring.elements:
            checked += 1
            direct = ring.rel_minus(a, b)
            via_idempotents = any(ring.mul(p, b) == a for p in ring.idempotents) and any(
                ring.mul(b, q) == a for q in ring.idempotents
            )
            if direct != via_idempotents:
                violations.append((repr(a), repr(b), direct, via_idempotents))
    return _finish(label, ring.name, checked, violations, start, notes)


def _diamond_factorization(ring, label="diamond_factorization"):
    """a*star(b)*a == a*star(a)*a iff a == lp(a)*b*rp(a), where lp/rp exist."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    skipped = 0
    mismatches = 0
    example = None
    rickart = ring.is_rickart_star
    for a in ring.elements:
        la = ring.lp(a)
        ra = ring.rp(a)
        if la is None or ra is None:
            skipped += 1
            continue
        asa = ring.mul3(a, ring.star(a), a)
        for b in ring.elements:
            checked += 1
            lhs = ring.mul3(a, ring.star(b), a) == asa
            rhs = ring.mul3(la, b, ra) == a
            if lhs != rhs:
                mismatches += 1
                if example is None:
                    example = (repr(a), repr(b))
                if rickart:
                    violations.append((repr(a), repr(b), lhs, rhs))
    notes = []
    if skipped:
        notes.append(f"{skipped} element(s) without canonical projections skipped")
    if mismatches and not rickart:
        notes.append(
            f"non-Rickart backend: factorization equivalence fails for {mismatches} "
            f"pair(s), e.g. {example}; the involution here is not proper, which the "
            f"equivalence requires"
        )
    return _finish(label, ring.name, checked, violations, start, notes)


def _order_inclusions(ring, label="order_inclusions"):
    """1MP implies minus; minus implies plus; diamond implies plus (Rickart)."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    notes = []
    rickart = ring.is_rickart_star
    diamond_gap = 0
    diamond_example = None
    regular = set(ring.regular)
    mp_set = set(ring.mp_invertible)
    for a in ring.elements:
        lp_ok = bool(ring.lp_members(a)) and bool(ring.rp_members(a))
        for b in ring.elements:
            if a in mp_set:
                checked += 1
                if ring.rel_1mp(a, b) and not ring.rel_minus(a, b):
                    violations.append(("1mp->minus", repr(a), repr(b)))
            if a in regular:
                checked += 1
                if ring.rel_minus(a, b) and not ring.rel_plus(a, b):
                    violations.append(("minus->plus", repr(a), repr(b)))
            if lp_ok:
                checked += 1
                if ring.rel_diamond(a, b) and not ring.rel_plus(a, b):
                    if rickart:
                        violations.append(("diamond->plus", repr(a), repr(b)))
                    else:
                        diamond_gap += 1
                        if diamond_example is None:
                            diamond_example = (repr(a), repr(b))
    if diamond_gap:
        notes.append(
            f"non-Rickart backend: diamond->plus fails for {diamond_gap} pair(s) outside "
            f"the theorem's hypotheses, e.g. {diamond_example}"
        )
    return _finish(label, ring.name, checked, violations, start, notes)


def _projection_family_form(ring, label="projection_family_form"):
    """LP(a) == {p + corner} and RP(a) == {q + corner} for any base members."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    skipped = 0
    one = ring.one
    for a in ring.elements:
        lp_set = frozenset(ring.lp_members(a))
        rp_set = frozenset(ring.rp_members(a))
        if not lp_set or not rp_set:
            skipped += 1
            continue
        for p in lp_set:
            checked += 1
            image = frozenset(ring.add(p, p1) for p1 in ring.corner(p, ring.sub(one, p)))
            if image != lp_set:
                violations.append(("LP", repr(a), repr(p)))
        for q in rp_set:
            checked += 1
            image = frozenset(ring.add(q, q1) for q1 in ring.corner(ring.sub(one, q), q))
            if image != rp_set:
                violations.append(("RP", repr(a), repr(q)))
    notes = [f"{skipped} element(s) with empty LP or RP skipped"] if skipped else []
    return _finish(label, ring.name, checked, violations, start, notes)


def _order_plus_block_form(ring, label="order_plus_block_form"):
    """{b : a below b in the plus order} == the block-compose image."""
    start = time.perf_counter()
    ring._build_structure()
    violations = []
    checked = 0
    skipped = 0
    sampled_any = False
    one = ring.one
    notes = []
    for a in ring.elements:
        la = ring.lp(a)
        ra = ring.rp(a)
        if la is None or ra is None:
            skipped += 1
            continue
        above = frozenset(b for b in ring.elements if ring.rel_plus(a, b))
        nla = ring.sub(one, la)
        nra = ring.sub(one, ra)
        pools = [
            sorted(ring.corner(nla, nra), key=repr),  # b22
            sorted(ring.corner(la, nla), key=repr),  # y
            sorted(ring.corner(nra, ra), key=repr),  # x
            sorted(ring.corner(nla, ra), key=repr),  # w
            sorted(ring.corner(la, nra), key=repr),  # z
        ]
        tuples, sampled, _ = capped_tuples(pools)
        sampled_any = sampled_any or sampled
        image = set()
        for b22, y, x, w, z in tuples:
            checked += 1
            b21 = ring.add(ring.mul(b22, x), w)
            b12 = ring.add(ring.mul(y, b22), z)
            b11 = ring.add(a, ring.add(ring.mul(y, b21), ring.mul(z, x)))
            b = ring.add(ring.add(b11, b12), ring.add(b21, b22))
            t_left = ring.add(ring.mul(y, w), w)
            t_right = ring.add(ring.mul(z, x), z)
            if not ring.left_ann(b) <= ring.left_ann(t_left):
                continue
            if not ring.right_ann(b) <= ring.right_ann(t_right):
                continue
            qt = ring.sub(la, y)
            q = ring.sub(ra, x)
            if ring.mul3(qt, b, q) != a:
                violations.append(("witness identity", repr(a), repr(b)))
            image.add(b)
        if not sampled and image != above:
            for b in above - image:
                violations.append(("missing from image", repr(a), repr(b)))
            for b in image - above:
                violations.append(("extra in image", repr(a), repr(b)))
        elif sampled and not image <= above:
            violations.append(("sampled image escapes the order", repr(a)))
    if skipped:
        notes.append(f"{skipped} element(s) without canonical projections skipped")
    if sampled_any:
        notes.append("corner data sampled for at least one element")
    return _finish(label, ring.name, checked, violations, start, notes, sampled_any)


def _order_1mp_axioms(ring):
    return order_axiom_suite(ring, "1mp", "order_1mp_axioms")


def _order_mp1_axioms(ring):
    return order_axiom_suite(ring, "mp1", "order_mp1_axioms")


def _order_minus_axioms(ring):
    return order_axiom_suite(ring, "minus", "order_minus_axioms")


def _order_plus_axioms(ring):
    return order_axiom_suite(ring, "plus", "order_plus_axioms")


THEOREMS = {
    "one_mp_characterization": _one_mp_characterization,
    "one_mp_products": _one_mp_products,
    "one_mp_family_completeness": _one_mp_family_completeness,
    "one_mp_condition_equivalences": _one_mp_condition_equivalences,
    "one_mp_existence_projections": _one_mp_existence_projections,
    "one_mp_closure": _one_mp_closure,
    "partial_isometry_solutions": _partial_isometry_solutions,
    "inner_inverse_block_form": _inner_inverse_block_form,
    "inverse_class_intersection": _inverse_class_intersection,
    "order_1mp_above_form": _order_1mp_above_form,
    "order_1mp_upper_inverses": _order_1mp_upper_inverses,
    "order_1mp_axioms": _order_1mp_axioms,
    "order_1mp_equivalences": _order_1mp_equivalences,
    "order_1mp_projection_form": _order_1mp_projection_form,
    "order_1mp_inverse_inheritance": _order_1mp_inverse_inheritance,
    "order_1mp_minus_link": _order_1mp_minus_link,
    "mp_one_characterization": _mp_one_characterization,
    "mp_one_family_completeness": _mp_one_family_completeness,
    "order_mp1_duality": _order_mp1_duality,
    "order_mp1_above_form": _order_mp1_above_form,
    "order_mp1_upper_inverses": _order_mp1_upper_inverses,
    "order_mp1_axioms": _order_mp1_axioms,
    "order_minus_axioms": _order_minus_axioms,
    "minus_idempotent_form": _minus_idempotent_form,
    "diamond_factorization": _diamond_factorization,
    "order_inclusions": _order_inclusions,
    "projection_family_form": _projection_family_form,
    "order_plus_axioms": _order_plus_axioms,
    "order_plus_block_form": _order_plus_block_form,
}


def theorem_ids() -> tuple:
    return tuple(THEOREMS)


def verify_theorem(ring: FiniteStarRing, theorem_id: str) -> TheoremReport:
    """Run one registered exhaustive sweep; violations empty means pass."""
    if theorem_id not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    return THEOREMS[theorem_id](ring)


def verify_all(ring: FiniteStarRing, ids=None) -> list:
    """Run a list of theorem ids (default: the full registry) on one ring."""
    return [verify_theorem(ring, tid) for tid in (ids or theorem_ids())]
