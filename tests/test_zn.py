"""Z_n decisions by gcd closed forms, checked against the brute-force oracle.

The five relations are compared with `ring.rel_rows` on every pair of
z2...z60, including which exception a raises where the oracle puts it outside
the relation's domain.  A modulus far above the oracle's carrier guard is
decided without building any ring.  `ZnElement` arithmetic refuses mixed
moduli.
"""

import time
from math import gcd

import pytest

from starinv import (
    NotMPInvertible,
    NotRegular,
    NotRickart,
    RingMismatch,
    StarInvError,
    ZnElement,
    dagger,
    leq_1mp,
    leq_diamond,
    leq_minus,
    leq_mp1,
    leq_plus,
    lp,
    rp,
    zn_ring,
)
from starinv.finite import CARRIER_GUARD

from conftest import z

DECIDERS = {
    "minus": leq_minus,
    "1mp": leq_1mp,
    "mp1": leq_mp1,
    "diamond": leq_diamond,
    "plus": leq_plus,
}
REFUSALS = {"minus": NotRegular, "1mp": NotMPInvertible, "mp1": NotMPInvertible, "plus": NotRickart}


def _domain(ring, relation):
    """The indices a the oracle decides the relation for."""
    s = ring.structure()
    if relation == "minus":
        return set(s.regular)
    if relation in ("1mp", "mp1"):
        return set(s.mp_invertible)
    if relation == "plus":
        return {a for a in range(ring.n) if ring.lp_members_i(a) and ring.rp_members_i(a)}
    return set(range(ring.n))


@pytest.mark.parametrize("relation", DECIDERS)
def test_every_pair_of_z2_to_z60_matches_the_oracle(relation):
    decide = DECIDERS[relation]
    refusals = 0
    for n in range(2, 61):
        ring = zn_ring(n)
        els = ring.elements
        domain = _domain(ring, relation)
        for a, row in enumerate(ring.rel_rows(relation)):
            x = els[a]
            if a in domain:
                got = sum(1 << b for b, y in enumerate(els) if decide(x, y).holds)
                assert got == row, (relation, x)
                if relation in ("1mp", "mp1"):
                    # the minus order implies dagger(a)*b == dagger(a)*a on Z_n: an
                    # inner inverse k with k*(b - a) == 0 gives a*(b - a) ==
                    # a*a*k*(b - a) == 0, so 1MP and MP1 run the minus test alone
                    for y in els:
                        v = decide(x, y)
                        assert v.holds == leq_minus(x, y).holds, (relation, x, y)
                        assert v.holds or v.reason == "no inner inverse identifies a and b"
                continue
            for y in els:
                with pytest.raises(StarInvError) as info:
                    decide(x, y)
                assert type(info.value) is REFUSALS[relation], (relation, x, y)
                refusals += 1
    # z4, z8, z9, z12, ... have elements outside R-dagger; diamond refuses none
    assert (refusals > 0) == (relation != "diamond")


def test_modulus_far_above_the_carrier_guard():
    p = 2**61 - 1
    n = p * 2**64 * 3**5
    m = p * 3**5  # gcd(a, n) == 2**64 == n // m below
    assert n > 2**129 and n > CARRIER_GUARD

    def zn(v):
        return ZnElement(v % n, n)

    a = zn(5 * 2**64)
    above = zn(5 * 2**64 + 7 * m)  # a*(above - a) == 0
    one = zn(1)
    not_regular = zn(2)  # gcd(2, n) == 2 shares the factor 2 with n // 2
    before = zn_ring.cache_info()
    start = time.perf_counter()

    d = dagger(a)
    assert a * d * a == a and d * a * d == d
    e = lp(a)
    assert e == rp(a) == a * d and e * e == e
    assert gcd(e.value, n) == gcd(a.value, n)  # e has the annihilator of a

    minus = leq_minus(a, above)
    k = minus.witness.inner
    assert minus.holds and minus.method == "dagger" and k == d
    assert a * k * a == a and k * a == k * above and a * k == above * k
    for decide in (leq_1mp, leq_mp1):
        v = decide(a, above)
        x = v.witness.x
        assert v.holds and x == d
        assert x * a * x == x and x * a == x * above and a * x == above * x
    diamond = leq_diamond(a, above)
    assert diamond.holds and tuple(diamond.witness) == (e, e)
    plus = leq_plus(a, above)
    assert plus.holds and plus.method == "canonical"
    qt, q = plus.witness
    assert qt * above * q == a and qt == q == e

    assert not leq_minus(a, one).holds
    assert not leq_1mp(a, one).holds and not leq_mp1(a, one).holds
    assert not leq_diamond(a, one).holds
    v = leq_plus(a, one)
    assert not v.holds and v.method == "canonical"
    assert leq_diamond(not_regular, not_regular).holds
    for decide, error in (
        (leq_minus, NotRegular),
        (leq_1mp, NotMPInvertible),
        (leq_mp1, NotMPInvertible),
        (leq_plus, NotRickart),
    ):
        with pytest.raises(error):
            decide(not_regular, one)

    assert time.perf_counter() - start < 1.0
    assert zn_ring.cache_info() == before


def _outcome(decide, a, b):
    """A verdict, or the type and message of the refusal."""
    try:
        return decide(a, b)
    except StarInvError as exc:
        return type(exc), str(exc)


def test_unreduced_values_are_canonical():
    # every representative of a residue is that residue: ==, hash, dagger, lp, rp and all five relations
    n = 12
    for v in range(n):
        x = ZnElement(v, n)
        for w in (v + n, v - n, v + 5 * n, v - 7 * n):
            y = ZnElement(w, n)
            assert y == x and hash(y) == hash(x) and y.value == v and repr(y) == repr(x)
            for decide in (*DECIDERS.values(), lambda a, b: (dagger(a), lp(a), rp(a))):
                for u in (3, 9 + 2 * n):
                    assert _outcome(decide, y, ZnElement(u, n)) == _outcome(decide, x, ZnElement(u, n))
                    assert _outcome(decide, ZnElement(u, n), y) == _outcome(decide, ZnElement(u, n), x)
    assert ZnElement(7, 5) + ZnElement(4, 5) == ZnElement(1, 5)
    assert -ZnElement(1, 5) == ZnElement(4, 5) and ZnElement(3, 5) * ZnElement(4, 5) == ZnElement(2, 5)


@pytest.mark.parametrize("modulus", [1, 0, -5])
def test_modulus_below_two_refused(modulus):
    with pytest.raises(ValueError, match="modulus n >= 2"):
        ZnElement(1, modulus)


class TestZnElement:
    def test_modulus_mismatch(self):
        with pytest.raises(RingMismatch):
            ZnElement(1, 6) + ZnElement(1, 8)
        with pytest.raises(RingMismatch):
            ZnElement(1, 6) * ZnElement(1, 8)

    def test_star_identity(self):
        assert z(5).star == z(5)
