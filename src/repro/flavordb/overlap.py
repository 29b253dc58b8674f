"""Shared-molecule counts |F_i ∩ F_j| between ingredients.

The corpus assembler, the cuisine views, the retrieval index and the
robustness study's thinned profiles all need the pairwise overlap of
flavor profiles: a binary ingredient × molecule membership matrix times
its transpose. The catalog makes that product once for all its
ingredients (:meth:`IngredientCatalog.shared_molecule_counts`), and the
first three slice it; the robustness study multiplies its own thinned
profiles.
The matmul runs in float32 (BLAS ``sgemm``): the operands are 0/1 and a
count is at most a few hundred, far below 2**24, so every product and
partial sum is exact and callers may cast the result to any integer or
float dtype without changing a value.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..datamodel import Ingredient


def membership_matrix(ingredients: Sequence[Ingredient]) -> np.ndarray:
    """Binary float32 matrix: row per ingredient, column per molecule id.

    The width is one past the largest molecule id any profile holds, so
    column ``m`` is molecule ``m``. Ingredients without a profile get an
    all-zero row.
    """
    width = 1 + max(
        (max(i.flavor_profile) for i in ingredients if i.flavor_profile),
        default=-1,
    )
    membership = np.zeros((len(ingredients), width), dtype=np.float32)
    for row, ingredient in enumerate(ingredients):
        if ingredient.flavor_profile:
            membership[row, list(ingredient.flavor_profile)] = 1.0
    return membership


def shared_molecule_counts(membership: np.ndarray) -> np.ndarray:
    """|F_i ∩ F_j| from a :func:`membership_matrix`, diagonal zeroed.

    Returned as float32; the values are exact integers.
    """
    counts = membership @ membership.T
    np.fill_diagonal(counts, 0.0)
    return counts
