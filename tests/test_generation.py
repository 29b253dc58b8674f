"""Tests for the food-design layer (recipe synthesis and tweaking)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.datamodel import ConfigurationError
from repro.generation import (
    MAX_OVERLAP_FRACTION,
    RecipeDesigner,
    RecipeTweaker,
)
from repro.pairing import build_cuisine_view


@pytest.fixture(scope="module")
def ita_view(workspace):
    return build_cuisine_view(
        workspace.regional_cuisines()["ITA"], workspace.catalog
    )


@pytest.fixture(scope="module")
def scnd_view(workspace):
    return build_cuisine_view(
        workspace.regional_cuisines()["SCND"], workspace.catalog
    )


class TestRecipeDesigner:
    def test_proposal_structure(self, ita_view, rng):
        designer = RecipeDesigner(ita_view)
        proposal = designer.propose(rng, size=8)
        assert len(proposal.ingredient_names) == 8
        assert len(set(proposal.local_indices.tolist())) == 8
        assert proposal.pairing_score >= 0

    def test_size_sampled_from_cuisine(self, ita_view, rng):
        designer = RecipeDesigner(ita_view)
        sizes = {len(designer.propose(rng).local_indices) for _ in range(10)}
        real_sizes = set(ita_view.recipe_sizes().tolist())
        assert sizes <= real_sizes

    def test_novelty_constraint(self, ita_view, rng):
        designer = RecipeDesigner(ita_view)
        for _ in range(5):
            proposal = designer.propose(rng, size=9)
            # either satisfies the constraint or is the best effort
            assert proposal.max_overlap <= 1.0
        satisfied = [
            designer.propose(rng, size=9).max_overlap
            <= MAX_OVERLAP_FRACTION
            for _ in range(5)
        ]
        assert any(satisfied)

    def test_proposals_track_cuisine_style(self, ita_view, scnd_view):
        """Italian proposals should pair like Italy, Nordic ones like
        Scandinavia — i.e. each designer's proposals sit closer to its own
        cuisine mean than to the other's."""
        rng = np.random.default_rng(7)
        ita_designer = RecipeDesigner(ita_view)
        scnd_designer = RecipeDesigner(scnd_view)
        ita_scores = [
            ita_designer.propose(rng, size=8).pairing_score
            for _ in range(12)
        ]
        scnd_scores = [
            scnd_designer.propose(rng, size=8).pairing_score
            for _ in range(12)
        ]
        assert np.mean(ita_scores) > np.mean(scnd_scores)
        assert abs(np.mean(ita_scores) - ita_designer.target_score) < abs(
            np.mean(ita_scores) - scnd_designer.target_score
        )

    def test_style_score_zero_at_target(self, ita_view):
        designer = RecipeDesigner(ita_view)
        # A real recipe with score near the mean has a small style score.
        from repro.pairing import scores_from_view

        scores = scores_from_view(ita_view)
        closest = int(np.argmin(np.abs(scores - designer.target_score)))
        assert designer.style_score(ita_view.recipes[closest]) < 1.0

    def test_oversized_request_rejected(self, ita_view, rng):
        designer = RecipeDesigner(ita_view)
        with pytest.raises(ConfigurationError):
            designer.propose(rng, size=10_000)

    def test_propose_many(self, ita_view, rng):
        designer = RecipeDesigner(ita_view)
        proposals = designer.propose_many(rng, 4)
        assert len(proposals) == 4


def scan_max_overlap(view, members):
    """Oracle for the designer's novelty: one set intersection per recipe."""
    best = 0.0
    for recipe in view.recipes:
        existing = frozenset(int(local) for local in recipe)
        overlap = len(members & existing) / len(members)
        if overlap > best:
            best = overlap
    return best


@pytest.fixture(scope="module")
def region_designers(workspace):
    return {
        code: RecipeDesigner(view)
        for code, view in sorted(workspace.views().items())
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_postings_overlap_matches_scan(region_designers, data):
    # Counting shared ingredients from postings must give the exact float
    # the per-recipe frozenset scan gives, on every region's view.
    code = data.draw(st.sampled_from(sorted(region_designers)))
    designer = region_designers[code]
    view = designer.view
    members = data.draw(
        st.frozensets(
            st.integers(0, view.ingredient_count - 1),
            min_size=1,
            max_size=12,
        )
    )
    if data.draw(st.booleans()):
        # Add part of a real recipe: high overlaps, ties across recipes.
        row = data.draw(st.integers(0, view.recipe_count - 1))
        members |= data.draw(
            st.frozensets(
                st.sampled_from(view.recipes[row].tolist()), min_size=1
            )
        )
    assert designer._max_overlap(members) == scan_max_overlap(view, members)


class TestIndexBackedDesigner:
    """With a RetrievalIndex, candidates come from neighbor pools."""

    @pytest.fixture(scope="class")
    def indexed_designer(self, ita_view, workspace):
        return RecipeDesigner(ita_view, index=workspace.retrieval())

    def test_proposals_stay_valid(self, indexed_designer, ita_view, rng):
        pantry = {i.name for i in ita_view.ingredients}
        for _ in range(5):
            proposal = indexed_designer.propose(rng, size=7)
            assert len(proposal.ingredient_names) == 7
            assert set(proposal.ingredient_names) <= pantry
            assert proposal.pairing_score >= 0

    def test_deterministic_per_seed(self, indexed_designer):
        first = indexed_designer.propose(
            np.random.default_rng(3), size=8
        )
        second = indexed_designer.propose(
            np.random.default_rng(3), size=8
        )
        assert first.ingredient_names == second.ingredient_names
        assert first.pairing_score == second.pairing_score

    def test_no_index_path_unchanged(self, ita_view):
        """Wiring the index in must not disturb the legacy RNG stream."""
        plain = RecipeDesigner(ita_view)
        proposal = plain.propose(np.random.default_rng(3), size=8)
        again = RecipeDesigner(ita_view).propose(
            np.random.default_rng(3), size=8
        )
        assert proposal.ingredient_names == again.ingredient_names

    def test_candidate_pool_is_neighbor_union(
        self, indexed_designer, ita_view, workspace
    ):
        pool = indexed_designer._candidate_pool(
            [0], np.ones(ita_view.ingredient_count, dtype=bool)
        )
        neighbors = indexed_designer._local_neighbors[0]
        if pool is None:
            assert len(neighbors) == 0
        else:
            assert set(pool.tolist()) == set(neighbors.tolist())


class TestRecipeTweaker:
    def test_suggestions_improve_style(self, ita_view):
        tweaker = RecipeTweaker(ita_view)
        recipe = ita_view.recipes[2].copy()
        suggestions = tweaker.suggest_swaps(recipe, top=3)
        for suggestion in suggestions:
            assert suggestion.style_gain > 0
            assert abs(suggestion.new_score - tweaker.target_score) < abs(
                suggestion.old_score - tweaker.target_score
            )

    def test_ranked_by_gain(self, ita_view):
        tweaker = RecipeTweaker(ita_view)
        suggestions = tweaker.suggest_swaps(ita_view.recipes[5].copy(), top=5)
        gains = [s.style_gain for s in suggestions]
        assert gains == sorted(gains, reverse=True)

    def test_swaps_reference_real_ingredients(self, ita_view):
        tweaker = RecipeTweaker(ita_view)
        names = {ingredient.name for ingredient in ita_view.ingredients}
        for suggestion in tweaker.suggest_swaps(
            ita_view.recipes[0].copy(), top=3
        ):
            assert suggestion.remove_name in names
            assert suggestion.add_name in names

    def test_small_recipe_rejected(self, ita_view):
        tweaker = RecipeTweaker(ita_view)
        with pytest.raises(ConfigurationError):
            tweaker.suggest_swaps(np.asarray([0]))

    def test_pool_validated(self, ita_view):
        with pytest.raises(ConfigurationError):
            RecipeTweaker(ita_view, popular_pool=1)
