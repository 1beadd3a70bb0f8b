"""Finitely presented Mackey functors for a cyclic group of prime order.

The package computes box products of two-tier (Lewis diagram) presentations,
derived fixed-point and quotient constructions, and the classification of
invertible objects under the box product.
"""

from .intlin import IntMatrix, SmithDecomposition, smith_normal_form
from .abgroup import FpAbGroup, AbHom, invariant_factors
from .mackey import (
    MackeyFunctor,
    MackeyMorphism,
    GSet,
    check_axioms,
    verify_morphism,
    is_mackey_isomorphism,
    unit_isomorphism,
    box_product,
    burnside,
    twisted_burnside,
    constant_z,
    zero_functor,
    fixed_point_functor,
    orbit_functor,
    permutation_functor,
)
from .separation import (
    ClassificationResult,
    IsoSearchResult,
    IsotropySequence,
    classify_invertible,
    invert,
    gamma_functor,
    phi_functor,
    isotropy_sequence,
    try_find_isomorphism,
    twisted_iso_criterion,
    twisted_isomorphism,
)
from .document import (
    DocumentError,
    parse_functor,
    render_lewis,
)

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "FpAbGroup",
    "AbHom",
    "invariant_factors",
    "MackeyFunctor",
    "MackeyMorphism",
    "GSet",
    "check_axioms",
    "verify_morphism",
    "is_mackey_isomorphism",
    "unit_isomorphism",
    "box_product",
    "burnside",
    "twisted_burnside",
    "constant_z",
    "zero_functor",
    "fixed_point_functor",
    "orbit_functor",
    "permutation_functor",
    "ClassificationResult",
    "IsoSearchResult",
    "IsotropySequence",
    "classify_invertible",
    "invert",
    "gamma_functor",
    "phi_functor",
    "isotropy_sequence",
    "try_find_isomorphism",
    "twisted_iso_criterion",
    "twisted_isomorphism",
    "DocumentError",
    "parse_functor",
    "render_lewis",
]
