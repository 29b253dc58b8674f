"""Tests for the food-pairing score N_s."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.datamodel import Category, Ingredient, ValidationError
from repro.pairing import (
    assemble_view,
    batch_scores,
    chi_values,
    food_pairing_score,
    recipe_score_from_matrix,
    scores_for_recipes,
)
from repro.pairing.score import member_pair_sums


def ing(ingredient_id, molecules):
    return Ingredient(
        ingredient_id=ingredient_id,
        name=f"ing{ingredient_id}",
        category=Category.VEGETABLE,
        flavor_profile=frozenset(molecules),
    )


class TestFoodPairingScore:
    def test_two_ingredients(self):
        # N_s = |F1 ∩ F2| for a pair.
        score = food_pairing_score([ing(1, {1, 2, 3}), ing(2, {2, 3, 4})])
        assert score == pytest.approx(2.0)

    def test_three_ingredients_formula(self):
        # Pairs: (1,2)=2 shared, (1,3)=1, (2,3)=0 -> 2*(3)/(3*2) = 1.0
        score = food_pairing_score(
            [
                ing(1, {1, 2, 3}),
                ing(2, {2, 3, 9}),
                ing(3, {1, 7, 8}),
            ]
        )
        assert score == pytest.approx(1.0)

    def test_disjoint_profiles_score_zero(self):
        score = food_pairing_score([ing(1, {1}), ing(2, {2}), ing(3, {3})])
        assert score == 0.0

    def test_identical_profiles(self):
        molecules = {1, 2, 3, 4, 5}
        score = food_pairing_score([ing(i, molecules) for i in range(4)])
        assert score == pytest.approx(5.0)

    def test_order_invariant(self):
        ingredients = [ing(1, {1, 2}), ing(2, {2, 3}), ing(3, {1, 3})]
        assert food_pairing_score(ingredients) == food_pairing_score(
            ingredients[::-1]
        )

    def test_profile_free_ingredients_excluded(self):
        score = food_pairing_score(
            [ing(1, {1, 2}), ing(2, {1, 2}), ing(3, set())]
        )
        assert score == pytest.approx(2.0)

    def test_fewer_than_two_pairable_raises(self):
        with pytest.raises(ValidationError):
            food_pairing_score([ing(1, {1})])
        with pytest.raises(ValidationError):
            food_pairing_score([ing(1, {1}), ing(2, set())])


class TestMatrixBackend:
    def overlap(self):
        return np.asarray(
            [
                [0, 2, 1],
                [2, 0, 0],
                [1, 0, 0],
            ],
            dtype=np.float64,
        )

    def test_matches_reference(self):
        ingredients = [
            ing(0, {1, 2, 3}),
            ing(1, {2, 3, 9}),
            ing(2, {1, 7, 8}),
        ]
        reference = food_pairing_score(ingredients)
        matrix_score = recipe_score_from_matrix(
            self.overlap(), np.asarray([0, 1, 2])
        )
        assert matrix_score == pytest.approx(reference)

    def test_subset_recipe(self):
        score = recipe_score_from_matrix(self.overlap(), np.asarray([0, 1]))
        assert score == pytest.approx(2.0)

    def test_too_small_raises(self):
        with pytest.raises(ValidationError):
            recipe_score_from_matrix(self.overlap(), np.asarray([0]))

    def test_batch_scores(self):
        batch = np.asarray([[0, 1], [0, 2], [1, 2]])
        scores = batch_scores(self.overlap(), batch)
        assert scores == pytest.approx([2.0, 1.0, 0.0])

    def test_batch_matches_single(self):
        batch = np.asarray([[0, 1, 2], [2, 1, 0]])
        scores = batch_scores(self.overlap(), batch)
        single = recipe_score_from_matrix(
            self.overlap(), np.asarray([0, 1, 2])
        )
        assert scores[0] == pytest.approx(single)
        assert scores[1] == pytest.approx(single)


class TestMatrixEdgeCases:
    def overlap(self):
        return np.asarray(
            [
                [0, 2, 1],
                [2, 0, 0],
                [1, 0, 0],
            ],
            dtype=np.float64,
        )

    def test_batch_single_column_raises(self):
        with pytest.raises(ValidationError):
            batch_scores(self.overlap(), np.asarray([[0], [1], [2]]))

    def test_empty_indices_raise(self):
        with pytest.raises(ValidationError):
            recipe_score_from_matrix(self.overlap(), np.asarray([], dtype=int))

    def test_empty_batch_of_pairs_scores_nothing(self):
        scores = batch_scores(
            self.overlap(), np.empty((0, 2), dtype=np.int64)
        )
        assert scores.shape == (0,)

    def test_duplicate_indices_count_each_mention(self):
        # Duplicates are legal local indices: the zero diagonal keeps the
        # self-pairs out of the numerator, but n counts every mention, so
        # [0, 0, 1] averages the four (0,1) cross terms over 3*2 pairs.
        score = recipe_score_from_matrix(
            self.overlap(), np.asarray([0, 0, 1])
        )
        assert score == pytest.approx(4 * 2 / 6)

    def test_batch_duplicate_indices_match_single(self):
        indices = np.asarray([0, 0, 1])
        batch = np.stack([indices, indices])
        single = recipe_score_from_matrix(self.overlap(), indices)
        assert batch_scores(self.overlap(), batch) == pytest.approx(
            [single, single]
        )

    def test_fully_duplicated_recipe_scores_zero(self):
        assert recipe_score_from_matrix(
            self.overlap(), np.asarray([1, 1, 1])
        ) == pytest.approx(0.0)

    def test_batch_agrees_with_set_reference_on_random_recipes(self):
        """The vectorised batch backend must equal the readable
        set-based reference on arbitrary random recipes."""
        rng = np.random.default_rng(20180417)
        profiles = [
            frozenset(rng.choice(60, size=rng.integers(1, 12), replace=False))
            for _ in range(20)
        ]
        ingredients = [ing(i, p) for i, p in enumerate(profiles)]
        matrix = np.zeros((20, 20))
        for i in range(20):
            for j in range(20):
                if i != j:
                    matrix[i, j] = len(profiles[i] & profiles[j])
        for size in (2, 3, 5, 8):
            batch = np.stack(
                [
                    rng.choice(20, size=size, replace=False)
                    for _ in range(25)
                ]
            )
            scores = batch_scores(matrix, batch)
            for row, indices in enumerate(batch):
                reference = food_pairing_score(
                    [ingredients[index] for index in indices]
                )
                assert scores[row] == pytest.approx(reference)


class TestScoresForRecipes:
    """The vectorised ragged scorer (size-grouped) vs the per-recipe loop."""

    def _random_matrix(self, rng, n=18):
        raw = rng.integers(0, 9, size=(n, n)).astype(np.float64)
        matrix = (raw + raw.T) / 2
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def test_matches_per_recipe_reference(self):
        rng = np.random.default_rng(20180417)
        matrix = self._random_matrix(rng)
        recipes = tuple(
            rng.choice(18, size=size, replace=False)
            for size in (2, 5, 3, 2, 7, 3, 4, 2, 5)
        )
        grouped = scores_for_recipes(matrix, recipes)
        reference = np.asarray(
            [
                recipe_score_from_matrix(matrix, recipe)
                for recipe in recipes
            ]
        )
        assert grouped == pytest.approx(reference)

    def test_preserves_recipe_order(self):
        rng = np.random.default_rng(7)
        matrix = self._random_matrix(rng)
        # Alternate sizes so the size-grouping must scatter back.
        recipes = tuple(
            rng.choice(18, size=2 + (index % 3), replace=False)
            for index in range(12)
        )
        scores = scores_for_recipes(matrix, recipes)
        for index, recipe in enumerate(recipes):
            assert scores[index] == pytest.approx(
                recipe_score_from_matrix(matrix, recipe)
            )

    def test_empty_recipe_tuple(self):
        matrix = self._random_matrix(np.random.default_rng(1))
        assert scores_for_recipes(matrix, ()).shape == (0,)

    def test_undersized_recipe_raises(self):
        matrix = self._random_matrix(np.random.default_rng(1))
        with pytest.raises(ValidationError):
            scores_for_recipes(matrix, (np.asarray([0]),))

    def test_view_scorer_matches_reference_loop(self, workspace):
        from repro.pairing import build_cuisine_view, scores_from_view

        cuisine = workspace.regional_cuisines()["ITA"]
        view = build_cuisine_view(cuisine, workspace.catalog)
        per_recipe = [
            recipe_score_from_matrix(view.overlap, recipe)
            for recipe in view.recipes
        ]
        assert scores_from_view(view) == pytest.approx(per_recipe)


class TestBatchChunking:
    """batch_scores gathers in bounded row chunks (satellite b)."""

    def test_chunked_equals_unchunked(self, monkeypatch):
        from repro.pairing import score as score_module

        rng = np.random.default_rng(3)
        raw = rng.integers(0, 6, size=(30, 30)).astype(np.float64)
        matrix = (raw + raw.T) / 2
        np.fill_diagonal(matrix, 0.0)
        batch = np.stack(
            [rng.choice(30, size=6, replace=False) for _ in range(64)]
        )
        full = batch_scores(matrix, batch)
        # Force many tiny chunks: one row of 30x30 gathers at a time.
        monkeypatch.setattr(
            score_module, "BATCH_BLOCK_ELEMENTS", 30 * 30
        )
        chunked = batch_scores(matrix, batch)
        assert chunked == pytest.approx(full, rel=1e-15)

    def test_chunk_boundary_exact_multiple(self, monkeypatch):
        from repro.pairing import score as score_module

        rng = np.random.default_rng(5)
        matrix = np.zeros((10, 10))
        matrix[0, 1] = matrix[1, 0] = 4.0
        batch = np.stack(
            [rng.permutation(10)[:4] for _ in range(8)]
        )
        full = batch_scores(matrix, batch)
        # 2 rows per chunk, 8 rows total: exercises the exact-multiple
        # boundary (no ragged final chunk).
        monkeypatch.setattr(
            score_module, "BATCH_BLOCK_ELEMENTS", 2 * 10 * 10
        )
        assert batch_scores(matrix, batch) == pytest.approx(full)


def synthetic_counts(dtype, n=40, seed=11):
    """Symmetric counts with a zero diagonal, up to 1,000 or the
    dtype's largest value."""
    high = min(1000, np.iinfo(dtype).max)
    upper = np.triu(
        np.random.default_rng(seed).integers(0, high + 1, size=(n, n)), 1
    )
    counts = np.maximum(upper, upper.T).astype(dtype)
    assert counts.max() >= high - 1
    return counts


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
class TestCountDtypes:
    """Views store counts as narrow unsigned integers; every scorer gives
    the bits it gives on the float64 copy of the same counts."""

    def batches(self):
        rng = np.random.default_rng(5)
        return [
            np.stack(
                [rng.choice(40, size=size, replace=False) for _ in range(64)]
            )
            for size in (2, 3, 7, 15)
        ]

    def test_batch_scores(self, dtype):
        counts = synthetic_counts(dtype)
        for batch in self.batches():
            assert batch_scores(counts, batch).tobytes() == batch_scores(
                counts.astype(np.float64), batch
            ).tobytes()

    def test_member_pair_sums(self, dtype):
        counts = synthetic_counts(dtype)
        for batch in self.batches():
            narrow = member_pair_sums(counts, batch)
            assert narrow.dtype == np.float64
            assert narrow.tobytes() == member_pair_sums(
                counts.astype(np.float64), batch
            ).tobytes()

    def test_recipe_score_from_matrix(self, dtype):
        counts = synthetic_counts(dtype)
        wide = counts.astype(np.float64)
        for batch in self.batches():
            for recipe in batch:
                narrow = recipe_score_from_matrix(counts, recipe)
                assert type(narrow) is float
                assert narrow == recipe_score_from_matrix(wide, recipe)

    def test_chi_values(self, dtype):
        counts = synthetic_counts(dtype)
        rng = np.random.default_rng(9)
        rows = [
            np.sort(rng.choice(40, size=size, replace=False))
            for size in rng.integers(2, 9, size=120)
        ]
        flat = np.concatenate(rows)

        def view(overlap):
            return assemble_view(
                region_code="TST",
                ingredient_ids=np.arange(40),
                overlap=overlap,
                frequencies=np.bincount(flat, minlength=40) + 1.0,
                categories=("herb",) * 40,
                recipe_offsets=np.cumsum([0] + [len(row) for row in rows]),
                flat_recipes=flat,
            )

        assert chi_values(view(counts)).tobytes() == chi_values(
            view(counts.astype(np.float64))
        ).tobytes()


profile_strategy = st.frozensets(
    st.integers(min_value=0, max_value=40), min_size=1, max_size=15
)


@settings(max_examples=80, deadline=None)
@given(st.lists(profile_strategy, min_size=2, max_size=8))
def test_property_score_bounds(profiles):
    """N_s is bounded by the largest pairwise intersection and below by 0."""
    ingredients = [ing(i, p) for i, p in enumerate(profiles)]
    score = food_pairing_score(ingredients)
    max_pair = max(
        len(a & b)
        for i, a in enumerate(profiles)
        for b in profiles[i + 1 :]
    )
    assert 0.0 <= score <= max_pair


@settings(max_examples=60, deadline=None)
@given(st.lists(profile_strategy, min_size=2, max_size=7))
def test_property_matrix_matches_sets(profiles):
    """The matrix backend always agrees with the set-based reference."""
    ingredients = [ing(i, p) for i, p in enumerate(profiles)]
    n = len(ingredients)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                matrix[i, j] = len(profiles[i] & profiles[j])
    reference = food_pairing_score(ingredients)
    via_matrix = recipe_score_from_matrix(matrix, np.arange(n))
    assert via_matrix == pytest.approx(reference)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(profile_strategy, min_size=2, max_size=6),
    st.integers(min_value=0, max_value=40),
)
def test_property_adding_shared_molecule_never_decreases_score(
    profiles, molecule
):
    """Adding one molecule to every profile can only increase N_s."""
    ingredients = [ing(i, p) for i, p in enumerate(profiles)]
    enriched = [ing(i, set(p) | {molecule}) for i, p in enumerate(profiles)]
    assert food_pairing_score(enriched) >= food_pairing_score(ingredients)
