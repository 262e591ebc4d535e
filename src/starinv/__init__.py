"""Exact generalized inverses and induced partial orders in *-rings.

Backends: matrices over the rationals or GF(p) with transpose involution,
and enumerable finite *-rings (Z_n, 2x2 matrices over GF(2)/GF(3), 3x3
matrices over GF(2)) that act as brute-force oracles for every identity the
formula layer computes.
"""

from .errors import (
    CarrierTooLarge,
    ConditionFailure,
    CornerViolation,
    DimensionMismatch,
    DocumentError,
    IdempotentViolation,
    InternalCheckError,
    NotA1MPInverse,
    NotInnerInverse,
    NotMPInvertible,
    NotPartialIsometry,
    NotRegular,
    NotRickart,
    OrderViolation,
    RingMismatch,
    StarInvError,
    UniquenessViolation,
    UnknownRing,
    UnknownTheorem,
)
from .fields import GF, QQ, field_by_name
from .finite import (
    FiniteStarRing,
    TheoremReport,
    enumerate_class,
    enumerate_dagger,
    enumerate_regular,
    matrix_star_ring,
    ring_by_name,
    zn_ring,
)
from .inverses import (
    InverseFamily,
    PenroseProfile,
    ProjectionWitness,
    closure_products,
    dagger,
    existence_via_projections,
    family_1mp,
    family_mp1,
    is_inner_inverse,
    is_member,
    is_mp_one,
    is_one_mp,
    is_partial_isometry,
    mp_one,
    one_mp,
    partial_isometry_solutions,
    penrose_profile,
    seven_conditions,
    try_dagger,
)
from .matrix import (
    ExactMatrix,
    RankFactorization,
    column_space_leq,
    embed_square,
    full_rank_factorize,
    is_mp_invertible,
    mp_inverse,
    rank,
    row_space_leq,
)
from .orders import (
    MinusWitness,
    MP1Witness,
    OneMPAboveForm,
    OneMPWitness,
    OrderVerdict,
    PlusBlockData,
    PlusWitness,
    above_1mp,
    above_mp1,
    b_1mp_inverse_check,
    leq_1mp,
    leq_1mp_routes,
    leq_diamond,
    leq_minus,
    leq_mp1,
    leq_plus,
    lp,
    lp_family_member,
    plus_block_compose,
    rp,
    rp_family_member,
)
from .ring import (
    IdempotentPair,
    OppositeView,
    PeirceBlocks,
    in_corner,
    is_idempotent,
    is_projection,
    opposite_view,
    peirce_decompose,
    peirce_multiply,
    peirce_recompose,
)
from .theorems import order_axiom_suite, theorem_ids, verify_all, verify_theorem
from .zn import ZnElement

__version__ = "0.1.0"
