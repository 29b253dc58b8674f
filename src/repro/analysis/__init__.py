"""Descriptive analytics over resolved cuisines.

Recipe-size statistics (Fig 3a), ingredient popularity scaling (Fig 3b),
category composition (Fig 2), plus the paper's discussed extensions:
higher-order n-tuple sharing, the copy-mutate culinary evolution model,
robustness studies and ingredient authenticity.
"""

from .authenticity import (
    authenticity_scores,
    cuisine_similarity,
    ingredient_prevalence,
    most_authentic,
    similarity_matrix,
)
from .categories import (
    CATEGORY_ORDER,
    CategoryComposition,
    category_composition,
    composition_matrix,
    world_composition,
)
from .evolution import (
    EvolutionResult,
    copy_mutate_evolution,
    zipf_fit_exponent,
)
from .ntuples import TupleSharing, cuisine_tuple_sharing, recipe_tuple_sharing
from .robustness import (
    BootstrapResult,
    PerturbationResult,
    bootstrap_pairing_direction,
    perturb_flavor_profiles,
)
from .popularity import (
    PopularityCurve,
    popularity_curve,
    scaling_collapse_error,
)
from .sizes import SizeDistribution, pooled_size_distribution, size_distribution

__all__ = [
    "authenticity_scores",
    "cuisine_similarity",
    "ingredient_prevalence",
    "most_authentic",
    "similarity_matrix",
    "CATEGORY_ORDER",
    "CategoryComposition",
    "category_composition",
    "composition_matrix",
    "world_composition",
    "EvolutionResult",
    "copy_mutate_evolution",
    "zipf_fit_exponent",
    "TupleSharing",
    "BootstrapResult",
    "PerturbationResult",
    "bootstrap_pairing_direction",
    "perturb_flavor_profiles",
    "cuisine_tuple_sharing",
    "recipe_tuple_sharing",
    "PopularityCurve",
    "popularity_curve",
    "scaling_collapse_error",
    "SizeDistribution",
    "pooled_size_distribution",
    "size_distribution",
]
