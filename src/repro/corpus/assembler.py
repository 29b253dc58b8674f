"""Recipe assembly: popularity-driven draws with a flavor-affinity tilt.

Recipes are composed the way the paper's copy-mutate evolution literature
(ref [10]) suggests real recipes form: ingredients join a dish according to
how common they are in the cuisine, modulated by how well they blend with
what is already in the pot. The modulation is the cuisine's
``pairing_bias``:

* positive bias (uniform cuisines): candidates sharing flavor molecules
  with the current partial recipe are up-weighted,
* negative bias (contrasting cuisines): they are down-weighted,
* zero bias degenerates to the frequency-preserving null model.

The overlap matrix between all pantry ingredients is precomputed once per
region; assembling one recipe is then a handful of vectorised numpy
operations per ingredient slot.
"""

from __future__ import annotations

import numpy as np

from ..datamodel import Ingredient
from .pantry import RegionPantry

#: Shared-molecule counts are squashed to ``min(overlap, OVERLAP_CAP)`` and
#: scaled by 1/OVERLAP_SCALE inside the exponential tilt, so a single
#: freakishly-overlapping pair cannot dominate the draw.
OVERLAP_CAP = 12.0
OVERLAP_SCALE = 4.0

#: Fraction of draws that ignore the affinity tilt entirely — culinary
#: noise (pantry leftovers, decoration, tradition) the bias cannot explain.
NOISE_RATE = 0.08


def overlap_matrix(ingredients: tuple[Ingredient, ...]) -> np.ndarray:
    """Pairwise shared-molecule counts |F_i ∩ F_j| (diagonal zeroed).

    Computed via a binary ingredient×molecule membership matrix so the
    whole pantry matrix is one matmul. The matmul runs in float64 (BLAS)
    rather than int32 (a naive loop inside numpy) — counts are small
    integers, far below 2**53, so the float products and sums are exact
    and the int32 result is bit-identical to the integer matmul (a test
    keeps the int32 matmul as its oracle).
    """
    if not ingredients:
        return np.zeros((0, 0), dtype=np.int32)
    max_molecule = 0
    for ingredient in ingredients:
        if ingredient.flavor_profile:
            max_molecule = max(max_molecule, max(ingredient.flavor_profile))
    membership = np.zeros(
        (len(ingredients), max_molecule + 1), dtype=np.float64
    )
    for row, ingredient in enumerate(ingredients):
        if ingredient.flavor_profile:
            membership[row, list(ingredient.flavor_profile)] = 1
    matrix = (membership @ membership.T).astype(np.int32)
    np.fill_diagonal(matrix, 0)
    return matrix


class RecipeAssembler:
    """Draws recipes (as pantry-index arrays) for one region."""

    def __init__(self, pantry: RegionPantry) -> None:
        self._pantry = pantry
        self._popularity = pantry.popularity.astype(np.float64)
        self._overlap = overlap_matrix(pantry.ingredients).astype(np.float64)
        np.clip(self._overlap, 0.0, OVERLAP_CAP, out=self._overlap)
        self._bias = pantry.profile.pairing_bias

    @property
    def pantry(self) -> RegionPantry:
        return self._pantry

    @staticmethod
    def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
        """Inlined ``rng.choice(len(p), p=p)``: cumsum + searchsorted.

        ``Generator.choice`` builds the same cdf and consumes exactly one
        ``rng.random()`` — but spends several microseconds per call on
        argument coercion and p-validation (kahan sum, finfo, dtype
        checks), which dominates the whole assembly loop. This inline
        reproduces its draw bit-for-bit (same cdf arithmetic, same
        uniform variate, same ``side="right"`` search) without the
        per-call overhead; a test swaps ``rng.choice`` back in and
        compares whole assemblies.
        """
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))

    def assemble(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw one recipe of ``size`` distinct pantry indices.

        The first ingredient follows popularity alone; each subsequent one
        follows popularity times ``exp(bias * mean_overlap / scale)``
        against the partial recipe, except for a ``NOISE_RATE`` fraction of
        pure-popularity draws.
        """
        size = min(size, self._pantry.size)
        chosen = np.empty(size, dtype=np.int64)
        weights = self._popularity.copy()
        first = self._draw(rng, weights / weights.sum())
        chosen[0] = first
        weights[first] = 0.0
        if size == 1:
            return chosen
        affinity = self._overlap[first].copy()
        for slot in range(1, size):
            if self._bias == 0.0 or rng.random() < NOISE_RATE:
                tilt = weights
            else:
                mean_affinity = affinity / slot
                tilt = weights * np.exp(
                    self._bias * mean_affinity / OVERLAP_SCALE
                )
            total = tilt.sum()
            if total <= 0.0:
                remaining = np.flatnonzero(weights > 0)
                # rng.choice(remaining) draws its index via integers();
                # call it directly to keep the stream identical.
                pick = int(
                    remaining[
                        int(
                            rng.integers(
                                0, remaining.size, size=None, dtype=np.int64
                            )
                        )
                    ]
                )
            else:
                pick = self._draw(rng, tilt / total)
            chosen[slot] = pick
            weights[pick] = 0.0
            affinity += self._overlap[pick]
        return chosen

    def assemble_many(
        self, rng: np.random.Generator, sizes: np.ndarray
    ) -> list[np.ndarray]:
        """Draw one recipe per entry of ``sizes``."""
        return [self.assemble(rng, int(size)) for size in sizes]
