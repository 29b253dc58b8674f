"""Tests for the experiment harness — the paper's tables and figures.

These run on the shared reduced-scale workspace; the shape claims they
assert are the ones EXPERIMENTS.md reports at full scale.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.datamodel import REGIONS, PairingKind
from repro.experiments import (
    EXPERIMENTS,
    run_fig2,
    run_fig3a,
    run_fig3b,
    run_fig4,
    run_fig5,
    run_table1,
)
from repro.pairing import NullModel

FIG4_TEST_SAMPLES = 3000


@pytest.fixture(scope="module")
def fig4_result(request):
    workspace = request.getfixturevalue("workspace")
    return run_fig4(workspace, n_samples=FIG4_TEST_SAMPLES)


class TestTable1:
    def test_ingredient_counts_exact_at_any_scale(self, workspace):
        result = run_table1(workspace)
        for row in result.rows:
            assert row.ingredients == row.published_ingredients, row.code

    def test_all_22_regions_reported(self, workspace):
        result = run_table1(workspace)
        assert {row.code for row in result.rows} == {
            region.code for region in REGIONS
        }

    def test_recipe_counts_scale_with_factor(self, workspace):
        result = run_table1(workspace)
        for row in result.rows:
            expected = row.published_recipes * workspace.recipe_scale
            # coverage floors inflate small regions; large ones track.
            if row.published_recipes > 2000:
                assert abs(row.recipes - expected) / expected < 0.05

    def test_render_mentions_totals(self, workspace):
        text = run_table1(workspace).render()
        assert "45772" in text
        assert "Italy" in text


class TestFig2:
    def test_world_leaders_match_paper(self, workspace):
        assert run_fig2(workspace).world_leaders_match

    def test_dairy_forward_regions(self, workspace):
        result = run_fig2(workspace)
        assert result.dairy_forward_ok == {
            "BRI": True, "FRA": True, "SCND": True,
        }

    def test_spice_forward_regions(self, workspace):
        result = run_fig2(workspace)
        assert result.spice_forward_ok == {
            "AFR": True, "CBN": True, "INSC": True, "ME": True,
        }

    def test_heatmap_dimensions(self, workspace):
        result = run_fig2(workspace)
        assert result.shares.shape == (23, 21)

    def test_render(self, workspace):
        text = run_fig2(workspace).render()
        assert "WORLD" in text


class TestFig3:
    def test_mean_recipe_size_near_nine(self, workspace):
        result = run_fig3a(workspace)
        assert result.mean_close_to_paper
        assert abs(result.world_mean - 9.0) < 1.0

    def test_bounded_thin_tail(self, workspace):
        assert run_fig3a(workspace).bounded_thin_tail

    def test_all_regions_have_distributions(self, workspace):
        result = run_fig3a(workspace)
        assert len(result.distributions) == 22

    def test_popularity_scaling_consistent(self, workspace):
        result = run_fig3b(workspace)
        assert result.collapse_error < 0.15

    def test_top_shares_substantial(self, workspace):
        result = run_fig3b(workspace)
        for code in ("ITA", "USA", "KOR"):
            assert result.top_share(code, 20) > 0.25

    def test_renders(self, workspace):
        assert "collapse error" in run_fig3b(workspace).render()
        assert "WORLD" in run_fig3a(workspace).render()


class TestFig4:
    def test_all_22_signs_match_paper(self, fig4_result):
        mismatches = [
            row.code for row in fig4_result.rows if not row.sign_matches_paper
        ]
        assert mismatches == []

    def test_16_uniform_6_contrasting(self, fig4_result):
        assert fig4_result.uniform_count == 16
        assert fig4_result.contrasting_count == 6

    def test_no_cuisine_indistinguishable_from_random(self, fig4_result):
        # Paper: "none of the cuisines shows food pairing that is
        # indistinguishable from its random counterpart".
        for row in fig4_result.rows:
            assert abs(row.z_random) > 2.0, row.code

    def test_frequency_model_explains_pattern(self, fig4_result):
        assert fig4_result.frequency_explains_everywhere
        for row in fig4_result.rows:
            assert abs(row.z_frequency) < abs(row.z_random) * 0.6, row.code

    def test_category_model_does_not_explain(self, fig4_result):
        mean_cat = sum(abs(r.z_category) for r in fig4_result.rows) / 22
        mean_freq = sum(abs(r.z_frequency) for r in fig4_result.rows) / 22
        assert mean_cat > mean_freq

    def test_italy_among_strongest_uniform(self, fig4_result):
        ordered = sorted(fig4_result.rows, key=lambda row: -row.z_random)
        top_codes = [row.code for row in ordered[:8]]
        assert "ITA" in top_codes

    def test_details_available(self, fig4_result):
        assert set(fig4_result.details) == {r.code for r in REGIONS}
        ita = fig4_result.details["ITA"]
        assert set(ita.comparisons) == set(NullModel)

    def test_render(self, fig4_result):
        text = fig4_result.render()
        assert "uniform: 16" in text
        assert "contrasting: 6" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5_result(self, request):
        workspace = request.getfixturevalue("workspace")
        return run_fig5(workspace)

    def test_three_contributors_per_region(self, fig5_result):
        for row in fig5_result.rows:
            assert len(row.top) == 3

    def test_contribution_signs_consistent(self, fig5_result):
        assert fig5_result.all_signs_consistent

    def test_groups_partition_regions(self, fig5_result):
        assert len(fig5_result.positive_rows()) == 16
        assert len(fig5_result.negative_rows()) == 6

    def test_expected_pairing_kinds(self, fig5_result):
        by_code = {row.code: row for row in fig5_result.rows}
        assert by_code["ITA"].pairing is PairingKind.UNIFORM
        assert by_code["SCND"].pairing is PairingKind.CONTRASTING

    def test_render(self, fig5_result):
        text = fig5_result.render()
        assert "Top 3 contributors" in text


class TestRegistry:
    def test_six_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig2", "fig3a", "fig3b", "fig4", "fig5",
        }

    def test_descriptions_nonempty(self):
        for _runner, description in EXPERIMENTS.values():
            assert description


class TestFig4Ordering:
    def test_positive_order_spearman_in_range(self, fig4_result):
        rho = fig4_result.positive_order_spearman()
        assert -1.0 <= rho <= 1.0

    def test_positive_ordering_positively_correlated_with_paper(
        self, fig4_result
    ):
        """Our Z ordering of the uniform group should agree with the
        paper's listing order more than chance (rho > 0)."""
        assert fig4_result.positive_order_spearman() > 0.0

    def test_positive_order_spearman_matches_scipy(self, fig4_result):
        from scipy import stats

        from repro.experiments.fig4 import PAPER_UNIFORM_ORDER

        by_code = {row.code: row for row in fig4_result.rows}
        observed = [-by_code[code].z_random for code in PAPER_UNIFORM_ORDER]
        expected = stats.spearmanr(range(len(observed)), observed).statistic
        assert fig4_result.positive_order_spearman() == pytest.approx(
            expected, abs=1e-12
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from([-1.5, 0.0, 0.5, 2.0, 7.25])),
        min_size=2,
        max_size=40,
    )
)
def test_spearman_rho_matches_scipy_with_ties(pairs):
    from scipy import stats

    from repro.experiments.fig4 import spearman_rho

    x, y = zip(*pairs)
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    assert spearman_rho(x, y) == pytest.approx(
        stats.spearmanr(x, y).statistic, abs=1e-12
    )


class TestWorkspaceCache:
    def test_cache_returns_same_object(self, workspace):
        from repro.experiments import build_workspace

        again = build_workspace(recipe_scale=workspace.recipe_scale)
        assert again is workspace

    def test_cache_bypass(self, workspace):
        from repro.experiments import build_workspace

        fresh = build_workspace(
            recipe_scale=workspace.recipe_scale, use_cache=False
        )
        assert fresh is not workspace
        assert len(fresh.recipes) == len(workspace.recipes)

    def test_regional_cuisines_excludes_world_only(self, workspace):
        regional = workspace.regional_cuisines()
        assert len(regional) == 22
        assert "Portugal" not in regional
        assert "Portugal" in workspace.cuisines
