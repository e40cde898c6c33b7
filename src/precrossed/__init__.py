"""Homology of pre-crossed modules via truncated simplicial envelopes.

The envelope pipeline computes the homology of the quotient of the degree-one
skeleton of a pre-crossed module by its base group; the Clauwens monoid, the
classical rack complex, the degree-one coskeleton, and the nerve of a group
provide independent pipelines for the identification theorems the test suite
checks.
"""

from .algebra import (
    AugmentedRack,
    FiniteGroup,
    PreCrossedModule,
    PrecrossedAction,
    Rack,
    conjugation_action,
    conjugation_module,
    conjugation_structure,
    cyclic_group,
    group_from_permutations,
    precrossed_action,
    restrict_to_image,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_augmented_rack,
    validate_group,
    validate_precrossed,
    validate_rack,
)
from .homology import (
    ChainComplex,
    HomologyGroup,
    SparseIntMatrix,
    chain_complex,
    classify_cycle,
    gaussian_rank,
    homology,
    homology_generators,
    induced_map,
    smith_normal_form,
)
from .oracles import (
    group_homology,
    rack_complex,
    tensor_algebra_dims,
)
from .simplicial import (
    SimplicialMap,
    build_clauwens,
    build_coskeleton,
    build_envelope,
    build_nerve,
    canonical_to_coskeleton,
    is_degenerate,
)
from .words import (
    Letter,
    WordMode,
    reduce,
)

__all__ = [
    "AugmentedRack", "FiniteGroup", "PreCrossedModule", "PrecrossedAction", "Rack",
    "conjugation_action", "conjugation_module", "conjugation_structure", "cyclic_group",
    "group_from_permutations", "precrossed_action", "restrict_to_image", "symmetric_group",
    "trivial_action", "trivial_group", "validate_augmented_rack", "validate_group",
    "validate_precrossed", "validate_rack",
    "ChainComplex", "HomologyGroup", "SparseIntMatrix", "chain_complex", "classify_cycle",
    "gaussian_rank", "homology", "homology_generators", "induced_map", "smith_normal_form",
    "group_homology", "rack_complex", "tensor_algebra_dims",
    "SimplicialMap", "build_clauwens", "build_coskeleton", "build_envelope", "build_nerve",
    "canonical_to_coskeleton", "is_degenerate",
    "Letter", "WordMode", "reduce",
]
__version__ = "0.1.0"
