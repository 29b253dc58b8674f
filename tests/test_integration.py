"""End-to-end integration: generate -> alias -> database -> analyses.

Exercises the full pipeline exactly the way the paper's Fig 1 describes
it, on the shared reduced-scale corpus, checking cross-module consistency
at every hand-off.
"""

import pytest

from repro.aliasing import MatchKind
from repro.culinarydb import CulinaryDB, build_culinarydb
from repro.pairing import NullModel, analyze_cuisine, build_cuisine_view
from repro.pairing import cuisine_mean_score, food_pairing_score


class TestAliasingFidelity:
    def test_resolved_recipes_match_generator_intent(self, workspace):
        """Every raw recipe aliases back to exactly the canonical
        ingredient set it was rendered from — the property that makes
        Table 1's ingredient counts exact."""
        intended = workspace.corpus.intended_ingredients
        resolved = {
            recipe.recipe_id: recipe.ingredient_ids
            for recipe in workspace.recipes
        }
        assert len(resolved) == len(workspace.corpus.raw_recipes)
        mismatches = [
            recipe_id
            for recipe_id, ingredient_ids in resolved.items()
            if intended[recipe_id] != ingredient_ids
        ]
        assert mismatches == []

    def test_aliasing_report_is_clean(self, workspace):
        report = workspace.report
        assert report.exact_rate() == pytest.approx(1.0)
        assert report.phrase_counts[MatchKind.UNRECOGNIZED] == 0
        assert report.recipes_resolved == report.recipes_total


class TestCrossModuleConsistency:
    def test_view_mean_matches_reference_scores(self, workspace):
        """The vectorised cuisine mean equals the set-based N_s reference
        averaged over recipes."""
        cuisine = workspace.regional_cuisines()["KOR"]
        view = build_cuisine_view(cuisine, workspace.catalog)
        via_view = cuisine_mean_score(view)

        reference_scores = []
        for recipe in cuisine:
            ingredients = [
                workspace.catalog.by_id(ingredient_id)
                for ingredient_id in recipe.ingredient_ids
            ]
            pairable = [i for i in ingredients if i.has_flavor_profile]
            if len(pairable) >= 2:
                reference_scores.append(food_pairing_score(pairable))
        reference = sum(reference_scores) / len(reference_scores)
        assert via_view == pytest.approx(reference)

    def test_database_agrees_with_cuisines(self, workspace):
        database = build_culinarydb(
            workspace.recipes,
            workspace.catalog,
            instructions=workspace.corpus.raw_recipes.instructions,
        )
        culinary = CulinaryDB(database)
        stats = {
            row["region_code"]: row for row in culinary.table1_statistics()
        }
        for code, cuisine in workspace.cuisines.items():
            assert stats[code]["recipes"] == len(cuisine), code
            assert stats[code]["ingredients"] == len(
                cuisine.ingredient_ids
            ), code

    def test_pairing_analysis_runs_end_to_end(self, workspace):
        cuisine = workspace.regional_cuisines()["SCND"]
        result = analyze_cuisine(
            cuisine,
            workspace.catalog,
            models=(NullModel.RANDOM, NullModel.FREQUENCY),
            n_samples=1500,
        )
        assert result.direction == "contrasting"
        assert abs(result.z(NullModel.FREQUENCY)) < abs(
            result.z(NullModel.RANDOM)
        )


class TestDeterminism:
    def test_workspace_rebuild_is_identical(self, workspace):
        # Run the stage builders directly: any engine lookup could return
        # the session workspace's own artifacts from the memory tier.
        from repro.engine import RunConfig, get_stage

        config = RunConfig(recipe_scale=workspace.recipe_scale)
        corpus = get_stage("corpus").build(config, {})
        rebuilt = get_stage("aliasing").build(config, {"corpus": corpus})
        assert corpus.raw_recipes == workspace.corpus.raw_recipes
        assert rebuilt.recipes == workspace.recipes
        assert not any(
            left is right
            for left, right in zip(rebuilt.recipes, workspace.recipes)
        )
