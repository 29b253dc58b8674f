"""The staged build graph:
corpus → aliasing → cuisines → pairing_views → retrieval_index.

What used to be one monolithic ``_build()`` is now five declarative stages,
each a pure function of ``(RunConfig, upstream artifacts)`` registered
here with an explicit dependency list, a code version tag and the set of
RunConfig fields it reads. The engine content-addresses each output from
exactly those ingredients, so stage artifacts are first-class, reusable
units: a recipe-scale change rebuilds everything, a ``pairing_views``
logic change rebuilds only the views, and an unrelated parameter
(worker count, sample count) rebuilds nothing.

Bump a stage's ``version`` whenever its build logic (or the layout of
its output) changes — that is what keeps stale disk artifacts from ever
being loaded by newer code.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping
from typing import Any

from ..aliasing import AliasingPipeline, AliasingResult
from ..corpus import CorpusGenerator, GeneratedCorpus
from ..datamodel import Cuisine, build_cuisines, region_codes
from ..flavordb import default_catalog
from ..obs import span
from ..pairing.views import CuisineView, build_cuisine_view
from ..retrieval.index import RetrievalIndex, build_retrieval_index
from .config import RunConfig

__all__ = [
    "STAGE_ORDER",
    "STAGES",
    "Stage",
    "get_stage",
]


@dataclasses.dataclass(frozen=True)
class Stage:
    """One node of the build graph.

    Attributes:
        name: stage id (also the artifact-file prefix).
        version: code version tag; part of the fingerprint.
        deps: upstream stage names whose artifacts the build receives.
        config_fields: RunConfig attribute names the build reads — the
            only config values that enter the fingerprint.
        build: pure build function ``(config, inputs) -> artifact``
            where ``inputs`` maps each dep name to its artifact.
    """

    name: str
    version: str
    deps: tuple[str, ...]
    config_fields: tuple[str, ...]
    build: Callable[[RunConfig, Mapping[str, Any]], Any]


def _build_corpus(
    config: RunConfig, inputs: Mapping[str, Any]
) -> GeneratedCorpus:
    return CorpusGenerator(
        seed=config.corpus_seed,
        recipe_scale=config.recipe_scale,
        include_world_only=config.include_world_only,
    ).generate()


def _build_aliasing(
    config: RunConfig, inputs: Mapping[str, Any]
) -> AliasingResult:
    corpus: GeneratedCorpus = inputs["corpus"]
    return AliasingPipeline(default_catalog()).resolve_corpus(
        corpus.raw_recipes
    )


def _build_cuisines(
    config: RunConfig, inputs: Mapping[str, Any]
) -> dict[str, Cuisine]:
    aliasing: AliasingResult = inputs["aliasing"]
    with span("workspace.cuisines"):
        return build_cuisines(aliasing.recipes)


def _build_pairing_views(
    config: RunConfig, inputs: Mapping[str, Any]
) -> dict[str, CuisineView]:
    """Numeric pairing views for the 22 Table 1 regions.

    Each view carries its recipe rows and template specs as arrays and
    its cuisine's mean score, so a warm load hands fig4/fig5 (and the
    service) views that are ready to sample and to compare against
    their null models: a served ``/montecarlo`` request re-scores no
    recipe of the cuisine.
    """
    cuisines: Mapping[str, Cuisine] = inputs["cuisines"]
    catalog = default_catalog()
    regional = set(region_codes())
    with span("engine.pairing_views", regions=len(regional)):
        views: dict[str, CuisineView] = {}
        for code, cuisine in cuisines.items():
            if code not in regional:
                continue
            view = build_cuisine_view(cuisine, catalog)
            # Cache the mean score so it rides along in the artifact.
            view.mean_score()
            views[code] = view
        return views


def _build_retrieval_index(
    config: RunConfig, inputs: Mapping[str, Any]
) -> RetrievalIndex:
    """The retrieval index over the molecule universe (fifth stage).

    Depends on ``pairing_views`` (which regions are view-ready defines
    the cuisine-vector coverage) and ``cuisines`` (prevalence counts).
    """
    cuisines: Mapping[str, Cuisine] = inputs["cuisines"]
    views: Mapping[str, CuisineView] = inputs["pairing_views"]
    regional = {code: cuisines[code] for code in sorted(views)}
    with span("engine.retrieval_index", regions=len(regional)):
        index = build_retrieval_index(default_catalog(), regional)
        # Materialise the cached lookup tables so they ride along in the
        # persisted artifact (mirroring the pairing-view samplers).
        index.row_by_id
        index.name_rank
        index.cuisine_row
        return index


#: The registered stages, dependency order.
STAGES: dict[str, Stage] = {
    stage.name: stage
    for stage in (
        Stage(
            name="corpus",
            version="2",
            deps=(),
            config_fields=(
                "corpus_seed",
                "recipe_scale",
                "include_world_only",
            ),
            build=_build_corpus,
        ),
        Stage(
            name="aliasing",
            version="2",
            deps=("corpus",),
            config_fields=(),
            build=_build_aliasing,
        ),
        Stage(
            name="cuisines",
            version="2",
            deps=("aliasing",),
            config_fields=(),
            build=_build_cuisines,
        ),
        Stage(
            name="pairing_views",
            version="4",
            deps=("cuisines",),
            config_fields=(),
            build=_build_pairing_views,
        ),
        Stage(
            name="retrieval_index",
            version="1",
            deps=("cuisines", "pairing_views"),
            config_fields=(),
            build=_build_retrieval_index,
        ),
    )
}

#: Stage names in topological (build) order.
STAGE_ORDER: tuple[str, ...] = tuple(STAGES)


def get_stage(name: str) -> Stage:
    """The registered stage, or a KeyError naming the known stages."""
    try:
        return STAGES[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r} (known: {', '.join(STAGES)})"
        ) from None
