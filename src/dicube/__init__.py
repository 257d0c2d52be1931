"""Finite precubical sets, cube chains, double orders, nerves of finite
categories, and exact integral homology, with an exhaustive verification
suite over the small combinatorial models of plane configuration spaces."""

from .errors import ContractError, ResourceCapError, StructuralError, UsageError
from .precubical import (
    PrecubicalComplex,
    PrecubicalMap,
    accessible_part,
    compute_altitude,
    is_non_self_linked,
    length_covering,
    pullback,
    quotient_by_automorphisms,
    serial_wedge,
    validate_complex,
)
from .complexes import (
    CoverCell,
    OrderedCover,
    adjacent_transpositions,
    build_final_complex,
    build_final_covering,
    build_ordered_cover,
    build_standard_cube,
    default_labels,
    permutations_of,
    unique_map_to_final,
)
from .chains import ChainOrder, CubeChain, chain_poset, enumerate_chains, face_swap
from .orders import (
    DoubleOrder,
    chain_to_double_order,
    chain_union,
    double_order_to_chain,
    enumerate_orders,
    poset_leq,
    to_regular,
    union_bar,
)
from .posets import Poset
from .categories import (
    FiniteCategory,
    GroupAction,
    break_functor,
    build_break_category,
    nerve_complex,
    poset_category,
    quotient_category,
    symmetric_order_quotient,
)
from .homology import (
    ChainComplex,
    HomologyGroup,
    euler_characteristic,
    homology,
    homology_signature,
    same_homology,
)
from .cover import point_to_order, u_contains, verify_cover, witness_point
from .suite import REGISTRY, VerificationReport, run_suite

__version__ = "0.1.0"
