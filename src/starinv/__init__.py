"""Exact generalized inverses and induced partial orders in *-rings.

Backends: matrices over the rationals or GF(p) with transpose involution,
and enumerable finite *-rings (Z_n, 2x2 matrices over GF(2)/GF(3)/GF(5), 3x3
matrices over GF(2)) that act as brute-force oracles for every identity the
formula layer computes.

Names load on first use: `starinv.dagger` imports `starinv.inverses` when it
is first read, so a program (the CLI among them) pays only for the modules it
touches.  `from starinv import *` and `dir(starinv)` see the whole namespace.
"""

from importlib import import_module as _import_module

# home submodule -> the public names it exports
_EXPORTS = {
    "errors": """
        CarrierTooLarge ConditionFailure CornerViolation DimensionMismatch DocumentError
        InternalCheckError NotA1MPInverse NotInnerInverse
        NotMPInvertible NotPartialIsometry NotRegular NotRickart OrderViolation
        RingMismatch StarInvError UniquenessViolation UnknownRing UnknownTheorem
    """,
    "fields": "GF QQ field_by_name",
    "finite": """
        FiniteStarRing TheoremReport matrix_star_ring ring_by_name zn_ring
    """,
    "forms": """
        OneMPAboveForm PlusBlockData above_1mp above_mp1 b_1mp_inverse_check in_corner
        leq_1mp_routes lp_family_member plus_block_compose rp_family_member
    """,
    "inverses": """
        InverseFamily PenroseProfile ProjectionWitness closure_products dagger
        existence_via_projections family_1mp family_mp1 is_inner_inverse is_member
        is_mp_one is_one_mp is_partial_isometry is_projection mp_one one_mp
        partial_isometry_solutions penrose_profile seven_conditions try_dagger
    """,
    "matrix": """
        ExactMatrix RankFactorization column_space_leq embed_square full_rank_factorize
        is_mp_invertible mp_inverse rank row_space_leq
    """,
    "orders": """
        MinusWitness MP1Witness OneMPWitness OrderVerdict PlusWitness leq_1mp leq_diamond
        leq_minus leq_mp1 leq_plus lp rp
    """,
    "theorems": "order_axiom_suite theorem_ids verify_all verify_theorem",
    "zn": "ZnElement",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
