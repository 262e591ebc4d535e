"""Exhaustive theorem verification over the registered finite *-rings.

Every entry in THEOREMS sweeps one statement over a finite carrier using
nothing but the ring's operation tables, so the checks are independent of
the formula layers in inverses.py and orders.py.  Every sweep enumerates its
whole domain; nothing is sampled.  A report gives how many instances were
checked and how many counterexamples were found (expected: none).

A sweep returns what it found, `(checked, violations, notes)`, and nothing
more; its violations may be any iterable, a generator included.  `_run` is
the one runner: it times the sweep alone, labels the report and hands it to
`_finish`, which stores the first MAX_STORED_VIOLATIONS and counts the rest.
The MP1 rows of THEOREMS run their 1MP twin's sweep on `ring.opposite()`,
and the axiom rows run `_order_axioms` on their relation tag.

Sweeps run on element indices over the ring's flat int tables
(`ring.mul_table`, `ring.add_table`, ...), and name elements by `repr` only
in violations and notes.

A sweep over pairs (a, b) reads the order from `ring.rel_rows`, one bitset of
b per a, and computes its other side as a bitset too: a condition of the form
"some w has w*b == t" is a union of the fibres `ring.fibres()` returns,
keeping the table's bracketing ((b*am)*a == a is the union over c with
c*a == a of {b : b*am == c}).  Violations are the set bits of the XOR of the
two sides, walked upward in b, so a report lists them in the order of a
pairwise loop; `checked` still counts every pair.

Sweeps over triples avoid the per-triple loop the same way.  The seven 1MP
conditions are one bitset over x per (a, a_minus): each condition is an AND
or OR of the fibre rows of a alone ({x : a*x == c} and {x : x*a == c},
`left[a]` and `right[a]` of the ring's cached `fibres()`), and the violations
are walked upward in x and then over a_minus, in the order of the triple
loop.  The inner-inverse block form depends on h only through
(h*a*h, a*h, h*a), so each image is built once per such key in a dict local
to one sweep.  The plus block form keeps its nested loops and computes each
partial sum at the outermost loop where its inputs are fixed.

`ring.opposite()` is the same carrier with a reversed multiplication table.
`order_mp1_duality` checks the transport the MP1 rows rely on: it compares
the inverse classes, the 1MP family, products and order of the opposite
ring, each computed from the opposite's own table, with the MP1 data of the
base ring.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import islice

from .errors import UnknownTheorem
from .finite import FiniteStarRing, TheoremReport, bit_indices

MAX_STORED_VIOLATIONS = 20


def _finish(theorem, ring_name, checked, violations, start, notes=()):
    """The report: the first MAX_STORED_VIOLATIONS of an iterable stored, the rest counted."""
    found = iter(violations)
    vs = tuple(islice(found, MAX_STORED_VIOLATIONS))
    notes = tuple(notes)
    rest = sum(1 for _ in found)
    if rest:
        notes = notes + (f"{len(vs) + rest} violations total; first {MAX_STORED_VIOLATIONS} stored",)
    return TheoremReport(theorem, ring_name, checked, vs, time.perf_counter() - start, notes)


def _run(label, ring, sweep):
    """sweep(ring) timed alone and reported under label through _finish."""
    start = time.perf_counter()
    checked, violations, notes = sweep(ring)
    return _finish(label, ring.name, checked, violations, start, notes)


def _namer(ring):
    """The repr of the element at an index: reports name elements, not indices."""
    els = ring.elements
    return lambda i: repr(els[i])


def _bit(bits, b) -> bool:
    return bool(bits >> b & 1)


def _complement(ring):
    """p |-> 1 - p on indices."""
    n, add, neg = ring.n, ring.add_table, ring.neg_table
    one = ring.one_i * n
    return lambda p: add[one + neg[p]]


def _regularity_note(ring) -> list:
    regular = set(ring.structure().regular)
    missing = [a for a in range(ring.n) if a not in regular]
    if missing:
        shown = ", ".join(repr(ring.elements[a]) for a in missing[:6])
        more = "..." if len(missing) > 6 else ""
        return [f"{len(missing)} non-regular element(s) excluded from regular-only sweeps: {shown}{more}"]
    return []


# -- inverse-class theorems ----------------------------------------------------


def _one_mp_characterization(ring):
    """Membership in the 1MP family == solving its system == {1,2,3}-inverse.

    Each side is a bitset over z, computed on its own; violations are where they differ.
    """
    s = ring.structure()
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    violations = []
    notes = _regularity_note(ring)
    left = ring.fibres()[0]
    for a in s.mp_invertible:
        family = sum(1 << z for z in ring.one_mp_i(a))
        fibre = left[a][mul[a * n + s.dagger[a]]]  # {z : a*z == a*dagger(a)}
        solves = sum(1 << z for z in bit_indices(fibre) if mul[mul[z * n + a] * n + z] == z)
        eq1, eq2, eq3, _ = ring.penrose_bits(a)
        klass = eq1 & eq2 & eq3
        for z in bit_indices((family ^ solves) | (family ^ klass)):
            violations.append((name(a), name(z), _bit(family, z), _bit(solves, z), _bit(klass, z)))
    checked = len(s.mp_invertible) * n
    return checked, violations, notes


def _one_mp_products(ring):
    """Products a_minus*a*dagger(a) land in {1,2,3} with the fixed marginals."""
    s = ring.structure()
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    violations = []
    checked = 0
    for a in s.mp_invertible:
        d = s.dagger[a]
        ad = mul[a * n + d]
        klass = ring.inverse_class_i(a, {1, 2, 3})
        for am in ring.inner_i(a):
            checked += 1
            ama = mul[am * n + a]
            x = mul[ama * n + d]
            ax = mul[a * n + x]
            xa = mul[x * n + a]
            ok = (
                x in klass
                and xa == ama
                and ax == ad
                and ring.left_bits(ax) == ring.left_bits(a)
                and ring.right_bits(xa) == ring.right_bits(a)
            )
            if not ok:
                violations.append((name(a), name(am)))
    return checked, violations, ()


def _one_mp_family_completeness(ring):
    """Sweeping the free parameter from any base member fills the whole family."""
    s = ring.structure()
    n, mul, add, neg = ring.n, ring.mul_table, ring.add_table, ring.neg_table
    name = _namer(ring)
    violations = []
    checked = 0
    for a in s.mp_invertible:
        family = ring.one_mp_i(a)
        if family != ring.inverse_class_i(a, {1, 2, 3}):
            violations.append((name(a), "family != class"))
            continue
        for base in family:
            ba = mul[base * n + a] * n
            ab = mul[a * n + base]
            bn = base * n
            # w enters only through t = w*ab, so each distinct t is mapped once
            checked += n
            image = {add[bn + add[t * n + neg[mul[ba + t]]]] for t in set(mul[ab::n])}
            if image != family:
                violations.append((name(a), name(base)))
    return checked, violations, ()


def _one_mp_condition_equivalences(ring):
    """The seven 1MP conditions agree.

    Fixed-witness reading: conditions (1)-(6) agree for every (a, a_minus, x)
    and imply (7).  Witness-quantified reading: each of (1)-(6) quantified
    over all inner inverses agrees with (7) and with family membership.  The
    notes record how often the literal (7) holds while the fixed-witness (1)
    fails, which happens exactly when the 1MP-inverse is not unique.
    """
    s = ring.structure()
    n, mul, star = ring.n, ring.mul_table, ring.star_table
    name = _namer(ring)
    bits = [1 << x for x in range(n)]
    fibres_left, fibres_right = ring.fibres()
    violations = []
    checked = 0
    literal_gap = 0
    gap_example = None
    for a in s.mp_invertible:
        d = s.dagger[a]
        an = a * n
        astar = star[a]
        asn = astar * n
        left, right = fibres_left[a], fibres_right[a]
        ax_values = [(y, xs) for y, xs in enumerate(left) if xs]
        xa_values = [(v, xs) for v, xs in enumerate(right) if xs]
        axad = left[mul[an + d]]  # a*x == a*dagger(a)
        asax = 0  # star(a)*(a*x) == star(a)
        for y, xs in ax_values:
            if mul[asn + y] == astar:
                asax |= xs
        xad = 0  # (x*a)*dagger(a) == x
        for v, xs in xa_values:
            x = mul[v * n + d]
            if xs >> x & 1:
                xad |= bits[x]
        p1, p2 = ring.penrose_bits(a)[:2]
        c7 = p2 & asax  # (7): x*a*x == x and star(a)*a*x == star(a)
        family = 0
        for x in ring.one_mp_i(a):
            family |= bits[x]
        inners = ring.inner_i(a)
        checked += n * len(inners)
        q1 = q2 = q3 = q4 = q5 = q6 = 0
        marked = []  # (a_minus, fixed-disagreement mask, (1)-without-(7) mask)
        gaps = []
        for am in inners:
            amn = am * n
            ama = mul[amn + a]
            c1 = bits[mul[ama * n + d]]
            x_from_ax = 0  # a_minus*(a*x) == x
            for y, xs in ax_values:
                x = mul[amn + y]
                if xs >> x & 1:
                    x_from_ax |= bits[x]
            target = mul[ama * n + am]
            some_xa = 0  # (x*a)*a_minus == (a_minus*a)*a_minus
            for v, xs in xa_values:
                if mul[v * n + am] == target:
                    some_xa |= xs
            c2 = axad & x_from_ax
            c3 = asax & x_from_ax
            c4 = right[ama] & xad
            c5 = some_xa & xad
            # (a*x)*a == a makes a_minus*((a*x)*a) == a_minus*a, so (6) is (1) there
            c6 = p1 & c1
            q1 |= c1
            q2 |= c2
            q3 |= c3
            q4 |= c4
            q5 |= c5
            q6 |= c6
            fixed = (c1 ^ c2) | (c1 ^ c3) | (c1 ^ c4) | (c1 ^ c5) | (c1 ^ c6)
            without_7 = c1 & ~c7
            if fixed or without_7:
                marked.append((am, fixed, without_7))
            gap = c7 & ~c1
            if gap:
                literal_gap += gap.bit_count()
                gaps.append((am, gap))
        if gaps and gap_example is None:
            x = min((gap & -gap).bit_length() - 1 for _, gap in gaps)
            am = next(am for am, gap in gaps if gap >> x & 1)
            gap_example = (name(a), name(am), name(x))
        quantified = family ^ c7
        if inners:
            quantified |= (q1 ^ c7) | (q2 ^ c7) | (q3 ^ c7) | (q4 ^ c7) | (q5 ^ c7) | (q6 ^ c7)
        flagged = quantified
        for _, fixed, without_7 in marked:
            flagged |= fixed | without_7
        for x in bit_indices(flagged):
            for am, fixed, without_7 in marked:
                if fixed >> x & 1:
                    violations.append(("fixed (1)-(6) disagree", name(a), name(am), name(x)))
                if without_7 >> x & 1:
                    violations.append(("(1) without (7)", name(a), name(am), name(x)))
            if quantified >> x & 1:
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
    return checked, violations, notes


def _ideal_generators(ring):
    """a |-> (projections p with p*R == a*R, idempotents q with R*q == R*a)."""
    s = ring.structure()
    n, mul = ring.n, ring.mul_table

    def right_ideal(a):
        return frozenset(mul[a * n : (a + 1) * n])

    def left_ideal(a):
        return frozenset(mul[a::n])

    p_ideals = [(p, right_ideal(p)) for p in s.projections]
    q_ideals = [(q, left_ideal(q)) for q in s.idempotents]

    def generators(a):
        right, left = right_ideal(a), left_ideal(a)
        return (
            [p for p, ideal in p_ideals if ideal == right],
            [q for q, ideal in q_ideals if ideal == left],
        )

    return generators


def _one_mp_existence_projections(ring):
    """1MP-inverses exist iff a projection/idempotent pair matches a's ideals.

    Hypothesis taken as a{1,4} nonempty.  A single-equation reading of the
    hypothesis is vacuous (x == 0 always satisfies the symmetry equation
    alone) and admits counterexamples; the equivalence proof combines the
    {1,3}-inverse produced by the projection with a {1,4}-inverse, which is
    what the hypothesis must supply.
    """
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    generators = _ideal_generators(ring)
    violations = []
    checked = 0
    skipped = 0
    for a in range(n):
        if not ring.inverse_class_i(a, {1, 4}):
            skipped += 1
            continue
        checked += 1
        family = ring.one_mp_i(a)
        p_hits, q_hits = generators(a)
        if bool(family) != (bool(p_hits) and bool(q_hits)):
            violations.append(("existence mismatch", name(a)))
            continue
        if not family:
            continue
        for p in p_hits:
            for q in q_hits:
                qn = q * n
                for am in ring.inner_i(a):
                    checked += 1
                    if mul[mul[qn + am] * n + p] not in family:
                        violations.append((name(a), name(p), name(q), name(am)))
    notes = [f"{skipped} element(s) without a {{1,4}}-inverse excluded by hypothesis"] if skipped else []
    return checked, violations, notes


def _one_mp_closure(ring):
    """x*a*y stays inside the 1MP family."""
    s = ring.structure()
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    violations = []
    checked = 0
    for a in s.mp_invertible:
        family = ring.one_mp_i(a)
        for x in family:
            xa = mul[x * n + a] * n
            for y in family:
                checked += 1
                if mul[xa + y] not in family:
                    violations.append((name(a), name(x), name(y)))
    return checked, violations, ()


def _partial_isometry_solutions(ring):
    """For star(a) == dagger(a): the solution set of (xax == x, ax == a*star(a))."""
    s = ring.structure()
    n, mul, add = ring.n, ring.mul_table, ring.add_table
    neg, star = ring.neg_table, ring.star_table
    name = _namer(ring)
    violations = []
    checked = 0
    isometries = 0
    for a in s.mp_invertible:
        if s.dagger[a] != star[a]:
            continue
        isometries += 1
        aas = mul[a * n + star[a]]
        solutions = frozenset(
            c for c in range(n) if mul[mul[c * n + a] * n + c] == c and mul[a * n + c] == aas
        )
        image = set()
        products = set(mul[aas::n])  # t = w*aas over all w, each distinct t once
        for am in ring.inner_i(a):
            ama = mul[am * n + a]
            base = mul[ama * n + star[a]] * n
            checked += n
            image.update(add[base + add[t * n + neg[mul[ama * n + t]]]] for t in products)
        if image != solutions:
            violations.append((name(a),))
    return checked, violations, [f"{isometries} partial isometr(ies) in the carrier"]


def _inner_inverse_block_form(ring):
    """a{1} is exactly h*a*h plus the three free corners relative to (ha, ah)."""
    s = ring.structure()
    n, mul, add = ring.n, ring.mul_table, ring.add_table
    name = _namer(ring)
    co = _complement(ring)
    violations = []
    checked = 0
    # The image depends on h only through (hah, p, q), which many h share.
    images = {}
    for a in s.regular:
        inners = frozenset(ring.inner_i(a))
        for h in inners:
            p = mul[a * n + h]
            q = mul[h * n + a]
            hah = mul[q * n + h] * n
            key = (hah, p, q)
            found = images.get(key)
            if found is None:
                c12 = ring.corner_i(q, co(p))
                c21 = ring.corner_i(co(q), p)
                c22 = ring.corner_i(co(q), co(p))
                bases = [add[hah + add[k12 * n + k21]] * n for k12 in c12 for k21 in c21]
                image = {add[base + k22] for base in bases for k22 in c22}
                found = images[key] = (image, len(c12) * len(c21) * len(c22))
            image, count = found
            checked += count
            if image != inners:
                violations.append((name(a), name(h)))
    return checked, violations, ()


def _inverse_class_intersection(ring):
    """{1,2,3} meets {1,2,4} in exactly the Moore-Penrose inverse."""
    s = ring.structure()
    name = _namer(ring)
    violations = []
    checked = 0
    full_carrier_reading_fails = 0
    mp_set = frozenset(s.mp_invertible)
    for a in s.mp_invertible:
        checked += 1
        meet = ring.inverse_class_i(a, {1, 2, 3}) & ring.inverse_class_i(a, {1, 2, 4})
        if meet != frozenset([s.dagger[a]]):
            violations.append((name(a), "intersection is not {dagger(a)}"))
        if meet != mp_set:
            full_carrier_reading_fails += 1
    notes = [
        "verified reading: a{1,2,3} & a{1,2,4} == {dagger(a)} for every MP-invertible a",
        f"alternative reading '== all MP-invertible elements' fails for "
        f"{full_carrier_reading_fails} of {len(s.mp_invertible)} element(s)"
        if full_carrier_reading_fails
        else "alternative reading '== all MP-invertible elements' coincides here",
    ]
    return checked, violations, notes


# -- 1MP order theorems ----------------------------------------------------------


def _order_1mp_above_form(ring):
    """{b : a below b} equals the image of (b4, d) |-> a - b4*d*a + b4."""
    s = ring.structure()
    n, mul, add, neg = ring.n, ring.mul_table, ring.add_table, ring.neg_table
    name = _namer(ring)
    co = _complement(ring)
    rows = ring.rel_rows("1mp")
    violations = []
    checked = 0
    for a in s.mp_invertible:
        d = s.dagger[a]
        p = mul[a * n + d]
        q = mul[d * n + a]
        image = 0
        for b4 in ring.corner_i(co(p), co(q)):
            for dd in ring.corner_i(co(q), p):
                checked += 1
                image |= 1 << add[add[a * n + neg[mul[mul[b4 * n + dd] * n + a]]] * n + b4]
        if image != rows[a]:
            violations.append((name(a), "block image differs from the order"))
    return checked, violations, ()


def _order_1mp_upper_inverses(ring):
    """The 1MP family of every b above a, in block coordinates."""
    s = ring.structure()
    n, mul, add = ring.n, ring.mul_table, ring.add_table
    neg, star = ring.neg_table, ring.star_table
    name = _namer(ring)
    co = _complement(ring)
    violations = []
    checked = 0
    skipped = 0
    for a in s.mp_invertible:
        d = s.dagger[a]
        p = mul[a * n + d]
        q = mul[d * n + a]
        c21 = ring.corner_i(co(q), p)
        c22b = ring.corner_i(co(p), co(q))
        c22 = ring.corner_i(co(q), co(p))
        for b4 in c22b:
            b4n = b4 * n
            for dd in c21:
                b4d = mul[b4n + dd]
                b = add[add[a * n + neg[mul[b4d * n + a]]] * n + b4]
                if s.dagger[b] < 0:
                    skipped += 1
                    continue
                image = set()
                for x3 in c21:
                    if mul[b4n + x3] != b4d:
                        continue
                    for x4 in c22:
                        b4x4 = mul[b4n + x4]
                        if not (
                            mul[b4x4 * n + b4] == b4
                            and mul[x4 * n + b4x4] == x4
                            and star[b4x4] == b4x4
                        ):
                            continue
                        image.add(add[d * n + add[x3 * n + x4]])
                checked += 1
                if image != ring.one_mp_i(b):
                    violations.append((name(a), name(b)))
    notes = [f"{skipped} composed element(s) above a were not MP-invertible and were skipped"] if skipped else []
    return checked, violations, notes


def _order_1mp_equivalences(ring):
    """Order membership == split witnesses == the shared-inner-inverse identity."""
    s = ring.structure()
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    rows = ring.rel_rows("1mp")
    left, right = ring.fibres()
    violations = []
    checked = 0
    for a in s.mp_invertible:
        an = a * n
        ad = mul[an + s.dagger[a]]
        # r2: some x in the family has x*b == x*a, and some y has b*y == a*y
        x_side = y_side = 0
        for x in ring.one_mp_i(a):
            x_side |= left[x][mul[x * n + a]]
            y_side |= right[x][mul[an + x]]
        # r3: ad*b == a, and (b*am)*a == a for some inner inverse am
        fixes_a = tuple(bit_indices(right[a][a]))
        some_am = 0
        for am in ring.inner_i(a):
            right_am = right[am]
            for c in fixes_a:
                some_am |= right_am[c]
        r1s, r2s, r3s = rows[a], x_side & y_side, left[ad][a] & some_am
        checked += n
        for b in bit_indices((r1s ^ r2s) | (r1s ^ r3s)):
            violations.append((name(a), name(b), _bit(r1s, b), _bit(r2s, b), _bit(r3s, b)))
    return checked, violations, ()


def _order_1mp_projection_form(ring):
    """a below b iff a projection/idempotent pair matches a's ideals and pins b.

    Hypothesis taken as a{1,4} nonempty, as in the existence theorem.
    """
    s = ring.structure()
    n = ring.n
    name = _namer(ring)
    generators = _ideal_generators(ring)
    rows = ring.rel_rows("1mp")
    left, right = ring.fibres()
    violations = []
    checked = 0
    skipped = 0
    for a in range(n):
        if not ring.inverse_class_i(a, {1, 4}):
            skipped += 1
            continue
        p_hits, q_hits = generators(a)
        # some p with p*b == a, and some q with b*q == a
        p_side = q_side = 0
        for p in p_hits:
            p_side |= left[p][a]
        for q in q_hits:
            q_side |= right[q][a]
        lhs = rows[a] if s.dagger[a] >= 0 else 0
        rhs = p_side & q_side
        checked += n
        for b in bit_indices(lhs ^ rhs):
            violations.append((name(a), name(b), _bit(lhs, b), _bit(rhs, b)))
    notes = [f"{skipped} element(s) without a {{1,4}}-inverse excluded by hypothesis"] if skipped else []
    return checked, violations, notes


def _order_1mp_inverse_inheritance(ring):
    """If a is below b then z*a*y lies in a's family for all y, z above."""
    s = ring.structure()
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    rows = ring.rel_rows("1mp")
    mp_mask = sum(1 << b for b in s.mp_invertible)
    violations = []
    checked = 0
    for a in s.mp_invertible:
        family_a = ring.one_mp_i(a)
        for b in bit_indices(rows[a] & mp_mask):
            family_b = ring.one_mp_i(b)
            for z in family_b:
                za = mul[z * n + a] * n
                for y in family_b:
                    checked += 1
                    if mul[za + y] not in family_a:
                        violations.append((name(a), name(b), name(z), name(y)))
    return checked, violations, ()


def _order_1mp_minus_link(ring):
    """1MP order == minus order plus the dagger(a)*b == dagger(a)*a condition."""
    s = ring.structure()
    n, mul = ring.n, ring.mul_table
    name = _namer(ring)
    rows_1mp, rows_minus = ring.rel_rows("1mp"), ring.rel_rows("minus")
    left, right = ring.fibres()
    violations = []
    checked = 0
    for a in s.mp_invertible:
        an = a * n
        d = s.dagger[a]
        cond = left[d][mul[d * n + a]]  # dagger(a)*b == dagger(a)*a
        shared = 0  # b*am == a*am for some inner inverse am
        for am in ring.inner_i(a):
            shared |= right[am][mul[an + am]]
        r1s, minus = rows_1mp[a], rows_minus[a]
        r2s, r3s = minus & cond, cond & shared
        checked += n
        # r2 lies inside the minus row, so a 1MP pair outside it is in r1 ^ r2
        for b in bit_indices((r1s ^ r2s) | (r1s ^ r3s)):
            r1, r2, r3 = _bit(r1s, b), _bit(r2s, b), _bit(r3s, b)
            if not (r1 == r2 == r3):
                violations.append((name(a), name(b), r1, r2, r3))
            if r1 and not _bit(minus, b):
                violations.append(("1mp without minus", name(a), name(b)))
    return checked, violations, ()


# -- MP1 side (via the opposite ring) ---------------------------------------------


def _order_mp1_duality(ring):
    """MP1 data of the ring is 1MP data of its opposite: classes, products, and orders."""
    s = ring.structure()
    opp = ring.opposite()
    n, mul, opp_mul = ring.n, ring.mul_table, opp.mul_table
    name = _namer(ring)
    rows, opp_rows = ring.rel_rows("mp1"), opp.rel_rows("1mp")
    violations = []
    checked = 0
    for a in range(n):
        checked += 1
        if opp.inverse_class_i(a, {1, 2, 3}) != ring.inverse_class_i(a, {1, 2, 4}):
            violations.append(("class transport", name(a)))
    for a in s.mp_invertible:
        d = s.dagger[a]
        inners = ring.inner_i(a)
        ad = opp_mul[a * n + d]
        da = mul[d * n + a] * n
        for am in inners:
            checked += 1
            # a_minus * a * dagger(a) computed in the opposite ring
            if opp_mul[am * n + ad] != mul[da + am]:
                violations.append(("product transport", name(a), name(am)))
        if ring.mp_one_i(a) != opp.one_mp_i(a):
            violations.append(("family transport", name(a)))
        checked += n
        for b in bit_indices(rows[a] ^ opp_rows[a]):
            violations.append(("order transport", name(a), name(b)))
    return checked, violations, ()


# -- minus / diamond / plus -------------------------------------------------------


def _minus_idempotent_form(ring):
    """Witness form of the minus order: a == p*b and a == b*q for idempotents."""
    s = ring.structure()
    n = ring.n
    name = _namer(ring)
    rows = ring.rel_rows("minus")
    left, right = ring.fibres()
    violations = []
    checked = 0
    notes = _regularity_note(ring)
    for a in s.regular:
        # some idempotent p has p*b == a, and some idempotent q has b*q == a
        p_side = q_side = 0
        for e in s.idempotents:
            p_side |= left[e][a]
            q_side |= right[e][a]
        direct, via_idempotents = rows[a], p_side & q_side
        checked += n
        for b in bit_indices(direct ^ via_idempotents):
            violations.append((name(a), name(b), _bit(direct, b), _bit(via_idempotents, b)))
    return checked, violations, notes


def _diamond_factorization(ring):
    """a*star(b)*a == a*star(a)*a iff a == lp(a)*b*rp(a), where lp/rp exist."""
    n, mul, star = ring.n, ring.mul_table, ring.star_table
    name = _namer(ring)
    violations = []
    checked = 0
    skipped = 0
    mismatches = 0
    example = None
    rickart = ring.is_rickart_star
    for a in range(n):
        la = ring.lp_i(a)
        ra = ring.rp_i(a)
        if la < 0 or ra < 0:
            skipped += 1
            continue
        an, lan = a * n, la * n
        asa = mul[mul[an + star[a]] * n + a]
        for b in range(n):
            checked += 1
            lhs = mul[mul[an + star[b]] * n + a] == asa
            rhs = mul[mul[lan + b] * n + ra] == a
            if lhs != rhs:
                mismatches += 1
                if example is None:
                    example = (name(a), name(b))
                if rickart:
                    violations.append((name(a), name(b), lhs, rhs))
    notes = []
    if skipped:
        notes.append(f"{skipped} element(s) without canonical projections skipped")
    if mismatches and not rickart:
        notes.append(
            f"non-Rickart backend: factorization equivalence fails for {mismatches} "
            f"pair(s), e.g. {example}; the involution here is not proper, which the "
            f"equivalence requires"
        )
    return checked, violations, notes


def _order_inclusions(ring):
    """1MP implies minus; minus implies plus; diamond implies plus (Rickart)."""
    s = ring.structure()
    n = ring.n
    name = _namer(ring)
    violations = []
    checked = 0
    notes = []
    rickart = ring.is_rickart_star
    diamond_gap = 0
    diamond_example = None
    regular = set(s.regular)
    mp_set = set(s.mp_invertible)
    rows_1mp, rows_minus, rows_diamond, rows_plus = (
        ring.rel_rows(r) for r in ("1mp", "minus", "diamond", "plus")
    )
    for a in range(n):
        lp_ok = bool(ring.lp_members_i(a)) and bool(ring.rp_members_i(a))
        a_mp, a_regular = a in mp_set, a in regular
        checked += n * (a_mp + a_regular + lp_ok)
        minus, plus = rows_minus[a], rows_plus[a]
        mp_minus = rows_1mp[a] & ~minus if a_mp else 0
        minus_plus = minus & ~plus if a_regular else 0
        diamond_plus = rows_diamond[a] & ~plus if lp_ok else 0
        if diamond_plus and not rickart:
            diamond_gap += diamond_plus.bit_count()
            if diamond_example is None:
                diamond_example = (name(a), name(next(bit_indices(diamond_plus))))
            diamond_plus = 0
        for b in bit_indices(mp_minus | minus_plus | diamond_plus):
            if _bit(mp_minus, b):
                violations.append(("1mp->minus", name(a), name(b)))
            if _bit(minus_plus, b):
                violations.append(("minus->plus", name(a), name(b)))
            if _bit(diamond_plus, b):
                violations.append(("diamond->plus", name(a), name(b)))
    if diamond_gap:
        notes.append(
            f"non-Rickart backend: diamond->plus fails for {diamond_gap} pair(s) outside "
            f"the theorem's hypotheses, e.g. {diamond_example}"
        )
    return checked, violations, notes


def _projection_family_form(ring):
    """LP(a) == {p + corner} and RP(a) == {q + corner} for any base members."""
    n, add = ring.n, ring.add_table
    name = _namer(ring)
    co = _complement(ring)
    violations = []
    checked = 0
    skipped = 0
    for a in range(n):
        lp_set = frozenset(ring.lp_members_i(a))
        rp_set = frozenset(ring.rp_members_i(a))
        if not lp_set or not rp_set:
            skipped += 1
            continue
        for p in lp_set:
            checked += 1
            image = frozenset(add[p * n + p1] for p1 in ring.corner_i(p, co(p)))
            if image != lp_set:
                violations.append(("LP", name(a), name(p)))
        for q in rp_set:
            checked += 1
            image = frozenset(add[q * n + q1] for q1 in ring.corner_i(co(q), q))
            if image != rp_set:
                violations.append(("RP", name(a), name(q)))
    notes = [f"{skipped} element(s) with empty LP or RP skipped"] if skipped else []
    return checked, violations, notes


def _order_plus_block_form(ring):
    """{b : a below b in the plus order} == the block-compose image."""
    n, mul, add, neg = ring.n, ring.mul_table, ring.add_table, ring.neg_table
    name = _namer(ring)
    co = _complement(ring)
    left = [ring.left_bits(b) for b in range(n)]
    right = [ring.right_bits(b) for b in range(n)]
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
        an, lan, ran = a * n, la * n, ra * n
        nla = co(la)
        nra = co(ra)
        b22s = sorted(ring.corner_i(nla, nra))
        ys = sorted(ring.corner_i(la, nla))
        xs = sorted(ring.corner_i(nra, ra))
        ws = sorted(ring.corner_i(nla, ra))
        zs = sorted(ring.corner_i(la, nra))
        checked += len(b22s) * len(ys) * len(xs) * len(ws) * len(zs)
        image = 0
        # b22, y, x, w, z with z fastest; each value is computed at the
        # outermost loop where its inputs are fixed
        for b22 in b22s:
            b22n = b22 * n
            for y in ys:
                yn = y * n
                yb22 = mul[yn + b22] * n
                qtn = add[lan + neg[y]] * n
                for x in xs:
                    b22x = mul[b22n + x] * n
                    qx = add[ran + neg[x]]
                    for w in ws:
                        b21 = add[b22x + w]
                        ynb21 = mul[yn + b21] * n
                        b2 = add[b21 * n + b22]
                        not_t_left = ~left[add[mul[yn + w] * n + w]]
                        for z in zs:
                            zx = mul[z * n + x]
                            b12 = add[yb22 + z]
                            b11 = add[an + add[ynb21 + zx]]
                            b = add[add[b11 * n + b12] * n + b2]
                            if left[b] & not_t_left:
                                continue
                            if right[b] & ~right[add[zx * n + z]]:
                                continue
                            if mul[mul[qtn + b] * n + qx] != a:
                                violations.append(("witness identity", name(a), name(b)))
                            image |= 1 << b
        for b in bit_indices(rows[a] & ~image):
            violations.append(("missing from image", name(a), name(b)))
        for b in bit_indices(image & ~rows[a]):
            violations.append(("extra in image", name(a), name(b)))
    if skipped:
        notes.append(f"{skipped} element(s) without canonical projections skipped")
    return checked, violations, notes


def _order_axioms(ring, relation):
    """Exhaustively check reflexivity, antisymmetry, and transitivity.

    Domains: the MP-invertible elements for "1mp"/"mp1", the regular elements
    for "minus", the whole carrier for "plus" and "diamond".  Rings where the
    plus order is undefined for some element (empty LP or RP family) are
    skipped with an explanatory note.  The violations are a generator.
    """
    s = ring.structure()
    domain = {"1mp": s.mp_invertible, "mp1": s.mp_invertible, "minus": s.regular}.get(relation, range(ring.n))
    bad = sum(not ring.lp_members_i(a) or not ring.rp_members_i(a) for a in domain) if relation == "plus" else 0
    if bad:
        return 0, (), [f"plus order undefined for {bad} element(s) with empty LP/RP family; suite skipped"]
    # rows[x] has bit y set when x relates to y, both in the domain.
    mask = sum(1 << x for x in domain)
    rows = [row & mask for row in ring.rel_rows(relation)]  # ValueError on an unknown tag
    m = len(domain)
    return m + m * m + m ** 3, _axiom_violations(ring.elements, domain, rows), []


def _axiom_violations(els, domain, rows):
    """Order-axiom violations of the rows over an ascending domain, in the order of the full product.

    Walking bits upward visits pairs and triples in that order.  The triples
    (x, y, w) that break transitivity are the bits w of rows[y] & ~rows[x]
    for each bit y of rows[x].
    """
    for x in domain:
        if not rows[x] >> x & 1:
            yield ("reflexivity", els[x])
    for x in domain:
        for y in bit_indices(rows[x] & ~(1 << x)):
            if rows[y] >> x & 1:
                yield ("antisymmetry", els[x], els[y])
    for x in domain:
        row = rows[x]
        for y in bit_indices(row):
            broken = rows[y] & ~row
            if broken:
                for w in bit_indices(broken):
                    yield ("transitivity", els[x], els[y], els[w])


def order_axiom_suite(ring: FiniteStarRing, relation: str):
    """The order axioms of one relation tag, reported as order-axioms-<tag>.

    It runs as a registry axiom row does: at most MAX_STORED_VIOLATIONS
    violations are stored, and a note gives the exact total.
    """
    return _run(f"order-axioms-{relation}", ring, partial(_order_axioms, relation=relation))


# Theorem id -> (sweep, whether it runs on ring.opposite()), in report order: an
# MP1 row runs its 1MP twin's sweep, an axiom row _order_axioms on its relation.
THEOREMS = {
    "one_mp_characterization": (_one_mp_characterization, False),
    "one_mp_products": (_one_mp_products, False),
    "one_mp_family_completeness": (_one_mp_family_completeness, False),
    "one_mp_condition_equivalences": (_one_mp_condition_equivalences, False),
    "one_mp_existence_projections": (_one_mp_existence_projections, False),
    "one_mp_closure": (_one_mp_closure, False),
    "partial_isometry_solutions": (_partial_isometry_solutions, False),
    "inner_inverse_block_form": (_inner_inverse_block_form, False),
    "inverse_class_intersection": (_inverse_class_intersection, False),
    "order_1mp_above_form": (_order_1mp_above_form, False),
    "order_1mp_upper_inverses": (_order_1mp_upper_inverses, False),
    "order_1mp_axioms": (partial(_order_axioms, relation="1mp"), False),
    "order_1mp_equivalences": (_order_1mp_equivalences, False),
    "order_1mp_projection_form": (_order_1mp_projection_form, False),
    "order_1mp_inverse_inheritance": (_order_1mp_inverse_inheritance, False),
    "order_1mp_minus_link": (_order_1mp_minus_link, False),
    "mp_one_characterization": (_one_mp_characterization, True),
    "mp_one_family_completeness": (_one_mp_family_completeness, True),
    "order_mp1_duality": (_order_mp1_duality, False),
    "order_mp1_above_form": (_order_1mp_above_form, True),
    "order_mp1_upper_inverses": (_order_1mp_upper_inverses, True),
    "order_mp1_axioms": (partial(_order_axioms, relation="mp1"), False),
    "order_minus_axioms": (partial(_order_axioms, relation="minus"), False),
    "minus_idempotent_form": (_minus_idempotent_form, False),
    "diamond_factorization": (_diamond_factorization, False),
    "order_inclusions": (_order_inclusions, False),
    "projection_family_form": (_projection_family_form, False),
    "order_plus_axioms": (partial(_order_axioms, relation="plus"), False),
    "order_plus_block_form": (_order_plus_block_form, False),
}


def theorem_ids() -> tuple:
    return tuple(THEOREMS)


def verify_theorem(ring: FiniteStarRing, theorem_id: str) -> TheoremReport:
    """Run one registered exhaustive sweep; violations empty means pass.

    The report is labelled with the theorem id, timed over the sweep alone,
    stores at most MAX_STORED_VIOLATIONS violations and notes the exact total.
    """
    if theorem_id not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    sweep, on_opposite = THEOREMS[theorem_id]
    return _run(theorem_id, ring.opposite() if on_opposite else ring, sweep)


def verify_all(ring: FiniteStarRing, ids=None) -> list:
    """Run a list of theorem ids (default: the full registry) on one ring."""
    if ids is None:
        ids = theorem_ids()
    return [verify_theorem(ring, tid) for tid in ids]
