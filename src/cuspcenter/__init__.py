"""cuspcenter: exact endomorphism-ring computation for cuspidal mod-l
blocks of GL_n(F_q), with brute-force and character-table oracles.

The center of such a block acts on the projective envelope of its
cuspidal representation through a ring this package computes exactly:
the q-power-invariant subring of W[X]/(X^(l^r) - 1), presented as
W[Y]/(m(Y)) together with integral certificates expressing every
conjugacy-class action in terms of the canonical generator.
"""

from .centermap import (
    BlockVector,
    EndoRingResult,
    case_analysis,
    delta_class,
    express_all_in_gamma,
    express_in_gamma,
    gamma_vector,
    lemma_signs_check,
    reconstruct_gamma,
    reconstruct_scaled_idempotent,
    s_membership,
    verify_endo_ring,
)
from .classes import ClassType, enumerate_classes, group_order
from .cyclotomic import CyclotomicNumber, ell_valuation, is_ell_integral, zeta
from .deformation import (
    CenterPresentation,
    DeformationPoint,
    check_relations,
    deformation_suite,
    emit_center_presentation,
    make_point,
)
from .errors import (
    AssertionFailure,
    CuspCenterError,
    DegenerateBlock,
    IntegralityFailure,
    InvalidPrime,
    NoSolution,
    ParameterError,
    RelationFailure,
    ScaleLimit,
    SupercuspidalCase,
)
from .finitefield import FiniteField, FqPoly, finite_field
from .invariants import InvariantRingData, invariant_ring, orbit_structure
from .params import ParameterSet, reduce_parameters, validate_parameters
from .polynomials import Poly
from .report import SCHEMA_VERSION, TOOL_VERSION

__version__ = TOOL_VERSION

__all__ = [
    "BlockVector",
    "CenterPresentation",
    "ClassType",
    "CuspCenterError",
    "CyclotomicNumber",
    "DeformationPoint",
    "EndoRingResult",
    "FiniteField",
    "FqPoly",
    "InvariantRingData",
    "ParameterSet",
    "Poly",
    "SCHEMA_VERSION",
    "TOOL_VERSION",
    "__version__",
    "case_analysis",
    "check_relations",
    "deformation_suite",
    "delta_class",
    "ell_valuation",
    "emit_center_presentation",
    "enumerate_classes",
    "express_all_in_gamma",
    "express_in_gamma",
    "finite_field",
    "gamma_vector",
    "group_order",
    "invariant_ring",
    "is_ell_integral",
    "lemma_signs_check",
    "make_point",
    "orbit_structure",
    "reconstruct_gamma",
    "reconstruct_scaled_idempotent",
    "reduce_parameters",
    "s_membership",
    "validate_parameters",
    "verify_endo_ring",
    "zeta",
    "AssertionFailure",
    "DegenerateBlock",
    "IntegralityFailure",
    "InvalidPrime",
    "NoSolution",
    "ParameterError",
    "RelationFailure",
    "ScaleLimit",
    "SupercuspidalCase",
]
