"""Property-based tests for the retrieval kernels.

The headline property: adding an ingredient to a partial recipe never
*lowers* the completion rank of any ingredient whose flavor profile
contains the added one. Compound ingredients pool their constituents'
profiles (``F_constituent ⊆ F_compound``), so every
(constituent, compound) pair is a witness: the compound gains the full
``|F_constituent|`` shared molecules — at least as much as any
competitor — and ties still break by name.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments import build_workspace
from repro.flavordb import default_catalog
from repro.retrieval import complete_recipe, similar_ingredients

_CATALOG = default_catalog()
_PAIRABLE = list(_CATALOG.pairable_ingredients())
_PAIRABLE_NAMES = [ingredient.name for ingredient in _PAIRABLE]

#: (constituent, compound) pairs with a nonempty shared profile — the
#: subset witnesses for the rank-monotonicity property.
_SUBSET_PAIRS = [
    (constituent, compound)
    for compound in _CATALOG.compound_ingredients()
    if compound.has_flavor_profile
    for name in compound.constituents
    for constituent in [_CATALOG.resolve(name)]
    if constituent is not None
    and constituent.has_flavor_profile
    and constituent.flavor_profile <= compound.flavor_profile
]


@pytest.fixture(scope="module")
def index():
    return build_workspace(recipe_scale=0.25).retrieval()


def _rank_of(completions, ingredient_id):
    for position, completion in enumerate(completions):
        if completion.ingredient_id == ingredient_id:
            return position
    return len(completions)  # absent ranks below every present entry


class TestRankMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(
        pair=st.sampled_from(_SUBSET_PAIRS),
        partial_names=st.lists(
            st.sampled_from(_PAIRABLE_NAMES),
            min_size=2,
            max_size=4,
            unique=True,
        ),
    )
    def test_adding_subset_ingredient_never_lowers_superset_rank(
        self, index, pair, partial_names
    ):
        constituent, compound = pair
        partial = [
            _CATALOG.get(name)
            for name in partial_names
            if name not in (constituent.name, compound.name)
        ]
        if not partial:
            return
        k = index.size
        before = complete_recipe(index, partial, k)
        after = complete_recipe(index, partial + [constituent], k)
        assert _rank_of(after, compound.ingredient_id) <= _rank_of(
            before, compound.ingredient_id
        )


class TestPrefixConsistency:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(_PAIRABLE_NAMES),
        k_small=st.integers(min_value=1, max_value=20),
        k_extra=st.integers(min_value=0, max_value=30),
    )
    def test_similar_topk_is_a_prefix(self, index, name, k_small, k_extra):
        """A smaller k is always a prefix of a larger k's ranking."""
        large = similar_ingredients(
            index, _CATALOG, name, k_small + k_extra
        )
        small = similar_ingredients(index, _CATALOG, name, k_small)
        assert [(m.name, m.shared_molecules) for m in small] == [
            (m.name, m.shared_molecules) for m in large
        ][:k_small]

    @settings(max_examples=20, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from(_PAIRABLE_NAMES),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        k_small=st.integers(min_value=1, max_value=10),
        k_extra=st.integers(min_value=0, max_value=20),
    )
    def test_complete_topk_is_a_prefix(
        self, index, names, k_small, k_extra
    ):
        partial = [_CATALOG.get(name) for name in names]
        large = complete_recipe(index, partial, k_small + k_extra)
        small = complete_recipe(index, partial, k_small)
        assert [(c.name, c.shared_total) for c in small] == [
            (c.name, c.shared_total) for c in large
        ][:k_small]
