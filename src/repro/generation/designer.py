"""Novel recipe synthesis from culinary fingerprints.

The paper positions its framework as "the basis for synthesis of novel
recipes as well as targeted alterations in existing recipes" (Section I /
abstract). :class:`RecipeDesigner` implements that application on top of
the pairing machinery:

* recipes are grown ingredient-by-ingredient from a cuisine's pantry,
  scoring candidates by popularity *and* by how well they move the
  recipe's pairing score toward the cuisine's own mean — so an
  Italian-style proposal blends similar flavors while a Japanese-style one
  keeps its contrasts;
* a novelty constraint rejects proposals that substantially duplicate an
  existing recipe of the cuisine;
* :meth:`RecipeDesigner.style_score` quantifies how "in style" any recipe
  is (the palatability proxy: distance of its N_s from the cuisine mean,
  in units of the cuisine's N_s spread).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..datamodel import ConfigurationError
from ..pairing.score import recipe_score_from_matrix, scores_from_view
from ..pairing.views import CuisineView
from ..retrieval.index import RetrievalIndex

#: Weight of the style (pairing-alignment) term against log-popularity.
STYLE_WEIGHT = 2.0

#: Index neighbors considered per chosen ingredient when a
#: :class:`RetrievalIndex` drives candidate sourcing.
DESIGNER_NEIGHBORS = 25

#: Maximum fraction of a proposal's ingredients that may coincide with any
#: single existing recipe before it is rejected as derivative.
MAX_OVERLAP_FRACTION = 0.6


@dataclasses.dataclass(frozen=True)
class RecipeProposal:
    """One generated recipe.

    Attributes:
        ingredient_names: proposed ingredients (cuisine-local order).
        local_indices: their indices in the cuisine view.
        pairing_score: the proposal's N_s.
        style_score: closeness to the cuisine's pairing style; 0 is a
            perfect match, 1 means one standard deviation away.
        max_overlap: largest ingredient-set overlap fraction with any
            existing recipe of the cuisine.
    """

    ingredient_names: tuple[str, ...]
    local_indices: np.ndarray
    pairing_score: float
    style_score: float
    max_overlap: float


class RecipeDesigner:
    """Generates in-style, novel recipes for one cuisine.

    Args:
        view: the cuisine to design for.
        index: optional :class:`RetrievalIndex`. When given, each growth
            step sources its candidates from the chosen ingredients'
            precomputed neighbor lists (a pool of at most
            ``neighbors × |chosen|`` entries) instead of re-scoring the
            whole pantry; the full-pantry scan remains the fallback
            whenever the pool is empty.
        neighbors: index neighbors considered per chosen ingredient.
    """

    def __init__(
        self,
        view: CuisineView,
        index: RetrievalIndex | None = None,
        neighbors: int = DESIGNER_NEIGHBORS,
    ) -> None:
        self._view = view
        self._names = tuple(ingredient.name for ingredient in view.ingredients)
        scores = scores_from_view(view)
        self._target_score = float(scores.mean())
        self._score_spread = float(scores.std(ddof=0)) or 1.0
        self._popularity = view.frequencies / view.frequencies.sum()
        self._postings = _recipe_postings(view)
        self._size_pool = view.recipe_sizes()
        self._local_neighbors: tuple[np.ndarray, ...] | None = None
        if index is not None:
            self._local_neighbors = _local_neighbor_pools(
                view, index, neighbors
            )

    @property
    def view(self) -> CuisineView:
        return self._view

    @property
    def target_score(self) -> float:
        """The cuisine's mean N_s — the style target."""
        return self._target_score

    def style_score(self, local_indices: np.ndarray) -> float:
        """Distance of a recipe's N_s from the cuisine mean, in spreads."""
        score = recipe_score_from_matrix(self._view.overlap, local_indices)
        return abs(score - self._target_score) / self._score_spread

    def novelty(self, members: frozenset[int]) -> float:
        """1 minus the largest overlap fraction with an existing recipe."""
        return 1.0 - self._max_overlap(members)

    def _max_overlap(self, members: frozenset[int]) -> float:
        """Largest ``|members ∩ recipe| / |members|`` over the cuisine.

        Counts shared ingredients per recipe from the ingredient postings
        in one ``bincount``; the best count is divided once, which gives
        the same float as dividing every count and taking the largest.
        """
        hits = np.concatenate([self._postings[local] for local in members])
        return int(np.bincount(hits, minlength=1).max()) / len(members)

    def propose(
        self,
        rng: np.random.Generator,
        size: int | None = None,
        max_attempts: int = 40,
    ) -> RecipeProposal:
        """Generate one novel, in-style recipe.

        Args:
            rng: random generator (caller owns seeding).
            size: recipe size; sampled from the cuisine's own sizes when
                omitted.
            max_attempts: proposals to try before giving up on the novelty
                constraint and returning the most novel attempt.

        Raises:
            ConfigurationError: if ``size`` exceeds the pantry.
        """
        if size is not None and size > self._view.ingredient_count:
            raise ConfigurationError(
                f"recipe size {size} exceeds pantry "
                f"{self._view.ingredient_count}"
            )
        best: RecipeProposal | None = None
        for _attempt in range(max_attempts):
            proposal = self._grow_once(rng, size)
            if proposal.max_overlap <= MAX_OVERLAP_FRACTION:
                return proposal
            if best is None or proposal.max_overlap < best.max_overlap:
                best = proposal
        assert best is not None
        return best

    def propose_many(
        self, rng: np.random.Generator, count: int
    ) -> list[RecipeProposal]:
        """Generate several proposals (independent draws)."""
        return [self.propose(rng) for _ in range(count)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grow_once(
        self, rng: np.random.Generator, size: int | None
    ) -> RecipeProposal:
        view = self._view
        if size is None:
            size = int(self._size_pool[rng.integers(len(self._size_pool))])
        size = min(size, view.ingredient_count)
        chosen: list[int] = []
        available = np.ones(view.ingredient_count, dtype=bool)
        first = int(rng.choice(view.ingredient_count, p=self._popularity))
        chosen.append(first)
        available[first] = False
        while len(chosen) < size:
            pick = self._pick_next(rng, chosen, available)
            chosen.append(pick)
            available[pick] = False
        indices = np.asarray(sorted(chosen), dtype=np.int64)
        members = frozenset(chosen)
        score = recipe_score_from_matrix(view.overlap, indices)
        return RecipeProposal(
            ingredient_names=tuple(
                self._names[index] for index in indices.tolist()
            ),
            local_indices=indices,
            pairing_score=score,
            style_score=self.style_score(indices),
            max_overlap=self._max_overlap(members),
        )

    def _candidate_pool(
        self, chosen: list[int], available: np.ndarray
    ) -> np.ndarray | None:
        """Available index-neighbors of the chosen set, or None.

        None means "no index, or the neighbor pool is exhausted" — the
        caller falls back to scoring the full pantry, so pool sourcing
        never changes *which* recipes are reachable, only how many
        candidates each step weighs.
        """
        if self._local_neighbors is None:
            return None
        members: set[int] = set()
        for local in chosen:
            members.update(self._local_neighbors[local])
        pool = [local for local in sorted(members) if available[local]]
        if not pool:
            return None
        return np.asarray(pool, dtype=np.int64)

    def _pick_next(
        self,
        rng: np.random.Generator,
        chosen: list[int],
        available: np.ndarray,
    ) -> int:
        view = self._view
        current = np.asarray(chosen)
        pool = self._candidate_pool(chosen, available)
        if pool is not None:
            pick = self._pick_from_pool(rng, current, pool)
            if pick is not None:
                return pick
        # Mean overlap each candidate would add against the partial recipe.
        added = view.overlap[current].mean(axis=0)
        # Style alignment: prefer candidates keeping the projected recipe
        # score near the cuisine target.
        base = recipe_score_from_matrix(view.overlap, current) if (
            len(current) >= 2
        ) else self._target_score
        n = len(current)
        projected = (base * n * (n - 1) + 2 * added * n) / ((n + 1) * n)
        style = -np.abs(projected - self._target_score) / self._score_spread
        weights = np.exp(
            np.log(self._popularity + 1e-12) + STYLE_WEIGHT * style
        )
        weights[~available] = 0.0
        total = weights.sum()
        if total <= 0:
            candidates = np.flatnonzero(available)
            return int(rng.choice(candidates))
        return int(rng.choice(len(weights), p=weights / total))

    def _pick_from_pool(
        self,
        rng: np.random.Generator,
        current: np.ndarray,
        pool: np.ndarray,
    ) -> int | None:
        """Weighted pick restricted to the index-sourced candidate pool."""
        view = self._view
        added = view.overlap[np.ix_(current, pool)].mean(axis=0)
        base = recipe_score_from_matrix(view.overlap, current) if (
            len(current) >= 2
        ) else self._target_score
        n = len(current)
        projected = (base * n * (n - 1) + 2 * added * n) / ((n + 1) * n)
        style = -np.abs(projected - self._target_score) / self._score_spread
        weights = np.exp(
            np.log(self._popularity[pool] + 1e-12) + STYLE_WEIGHT * style
        )
        total = weights.sum()
        if total <= 0:
            return None
        return int(pool[rng.choice(len(pool), p=weights / total)])


def _recipe_postings(view: CuisineView) -> tuple[np.ndarray, ...]:
    """Per local ingredient, the indices of the recipes that use it."""
    sizes = view.recipe_sizes()
    flat = view.flat_recipes
    owners = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(
        flat[order], np.arange(view.ingredient_count + 1)
    )
    return tuple(
        owners[order[bounds[local] : bounds[local + 1]]]
        for local in range(view.ingredient_count)
    )


def _local_neighbor_pools(
    view: CuisineView, index: RetrievalIndex, neighbors: int
) -> tuple[np.ndarray, ...]:
    """Per local ingredient, its index-neighbors as local indices.

    Neighbors outside the cuisine's pantry are dropped; each pool keeps
    at most ``neighbors`` entries in the index's ``(-shared, name)``
    order.
    """
    ingredient_ids = view.ingredient_ids.tolist()
    local_of = {
        ingredient_id: local
        for local, ingredient_id in enumerate(ingredient_ids)
    }
    pools: list[np.ndarray] = []
    for ingredient_id in ingredient_ids:
        row = index.row_by_id.get(ingredient_id)
        found: list[int] = []
        if row is not None:
            for partner in index.neighbor_rows[row]:
                if partner < 0 or len(found) >= neighbors:
                    break
                local = local_of.get(int(index.ingredient_ids[partner]))
                if local is not None:
                    found.append(local)
        pools.append(np.asarray(found, dtype=np.int64))
    return tuple(pools)
