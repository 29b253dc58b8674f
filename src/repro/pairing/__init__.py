"""Food-pairing analysis: the paper's primary contribution.

The N_s pairing score, cuisine means, the four randomised null models
(uniform-random, frequency-, category-, frequency+category-preserving),
Z-score significance, and leave-one-out ingredient contributions.
"""

from .contribution import (
    IngredientContribution,
    chi_values,
    ingredient_contributions,
    top_contributors,
)
from .models import (
    DEFAULT_CHUNK,
    NullModel,
    sample_model_moments,
    sample_model_recipes,
)
from .moments import StreamingMoments
from .score import (
    BATCH_BLOCK_ELEMENTS,
    batch_scores,
    cuisine_mean_score,
    food_pairing_score,
    recipe_score_from_matrix,
    scores_for_recipes,
    scores_from_view,
)
from .views import CuisineView, assemble_view, build_cuisine_view
from .zscore import (
    PAPER_SAMPLE_COUNT,
    CuisinePairingResult,
    ModelComparison,
    analyze_cuisine,
    analyze_regions,
    compare_to_model,
    comparison_from_moments,
)

__all__ = [
    "IngredientContribution",
    "chi_values",
    "ingredient_contributions",
    "top_contributors",
    "DEFAULT_CHUNK",
    "NullModel",
    "sample_model_moments",
    "sample_model_recipes",
    "StreamingMoments",
    "BATCH_BLOCK_ELEMENTS",
    "batch_scores",
    "cuisine_mean_score",
    "food_pairing_score",
    "recipe_score_from_matrix",
    "scores_for_recipes",
    "scores_from_view",
    "CuisineView",
    "assemble_view",
    "build_cuisine_view",
    "PAPER_SAMPLE_COUNT",
    "CuisinePairingResult",
    "ModelComparison",
    "analyze_cuisine",
    "analyze_regions",
    "compare_to_model",
    "comparison_from_moments",
]
