"""Shared experiment workspace: a façade over the staged artifact engine.

Every experiment consumes the same pipeline output (generated raw corpus,
aliased recipes, cuisines grouped by region, numeric pairing views).
Those are no longer built monolithically: :mod:`repro.engine` resolves
them as five content-addressed stage artifacts (``corpus → aliasing →
cuisines → pairing_views → retrieval_index``), each cached in the
engine's shared in-memory tier and — when the
:class:`~repro.engine.RunConfig` enables it — a checksummed disk store,
so a second process warm-loads in seconds.

:class:`ExperimentWorkspace` remains the object every call site holds: a
thin immutable bundle assembled from the stage artifacts. Assembling one
is five memory-tier lookups once the stages are resolved, so workspaces
are not cached themselves; concurrent callers share the engine's single
build of each stage.
"""

from __future__ import annotations

import dataclasses
import time

from ..aliasing import MatchReport
from ..corpus import DEFAULT_SEED, GeneratedCorpus
from ..datamodel import Cuisine, RecipeTable, region_codes
from ..engine import Engine, RunConfig
from ..flavordb import IngredientCatalog, default_catalog
from ..obs import get_logger, span
from ..pairing.views import CuisineView
from ..retrieval.index import RetrievalIndex

_LOG = get_logger("repro.workspace")


@dataclasses.dataclass(frozen=True)
class ExperimentWorkspace:
    """Everything the experiments need, assembled from stage artifacts.

    Attributes:
        corpus: the generated raw corpus.
        recipes: aliased (resolved) recipes, as the aliasing stage's
            table; iterating it builds :class:`~repro.datamodel.Recipe`
            objects on access.
        report: the aliasing curation report.
        cuisines: region code -> cuisine (includes WORLD-only mini-regions
            when generated).
        catalog: the ingredient catalog used throughout.
        seed: generation seed.
        recipe_scale: recipe-count scale factor used.
        pairing_views: numeric pairing views for the 22 Table 1 regions
            (the ``pairing_views`` stage artifact).
        retrieval_index: the top-k retrieval index (the
            ``retrieval_index`` stage artifact).
    """

    corpus: GeneratedCorpus
    recipes: RecipeTable
    report: MatchReport
    cuisines: dict[str, Cuisine]
    catalog: IngredientCatalog
    seed: int
    recipe_scale: float
    pairing_views: dict[str, CuisineView] = dataclasses.field(
        repr=False, compare=False
    )
    retrieval_index: RetrievalIndex = dataclasses.field(
        repr=False, compare=False
    )

    def regional_cuisines(self) -> dict[str, Cuisine]:
        """Only the 22 Table 1 regions (no WORLD-only mini-regions)."""
        codes = set(region_codes())
        return {
            code: cuisine
            for code, cuisine in self.cuisines.items()
            if code in codes
        }

    def views(self) -> dict[str, CuisineView]:
        """Region code -> numeric pairing view (22 Table 1 regions)."""
        return self.pairing_views

    def retrieval(self) -> RetrievalIndex:
        """The top-k retrieval index over the molecule universe."""
        return self.retrieval_index


def workspace_for(config: RunConfig) -> ExperimentWorkspace:
    """Assemble the workspace one :class:`RunConfig` describes.

    This is the single parameter path: argparse, the HTTP service and
    the full-experiment script all construct a RunConfig and call here.
    Each stage artifact comes from the engine, which builds it at most
    once however many threads ask.
    """
    engine = Engine(config)
    with span(
        "workspace.build",
        seed=config.corpus_seed,
        recipe_scale=config.recipe_scale,
    ) as trace:
        started = time.perf_counter()
        corpus = engine.artifact("corpus")
        aliasing = engine.artifact("aliasing")
        cuisines = engine.artifact("cuisines")
        views = engine.artifact("pairing_views")
        retrieval = engine.artifact("retrieval_index")
        trace.incr("recipes", len(aliasing.recipes))
        trace.incr("cuisines", len(cuisines))
        _LOG.info(
            "workspace.built",
            seed=config.corpus_seed,
            recipe_scale=config.recipe_scale,
            recipes=len(aliasing.recipes),
            cuisines=len(cuisines),
            exact_rate=round(aliasing.report.exact_rate(), 4),
            seconds=round(time.perf_counter() - started, 3),
        )
        return ExperimentWorkspace(
            corpus=corpus,
            recipes=aliasing.recipes,
            report=aliasing.report,
            cuisines=cuisines,
            catalog=default_catalog(),
            seed=config.corpus_seed,
            recipe_scale=config.recipe_scale,
            pairing_views=views,
            retrieval_index=retrieval,
        )


def build_workspace(
    seed: int = DEFAULT_SEED,
    recipe_scale: float = 1.0,
    include_world_only: bool = True,
) -> ExperimentWorkspace:
    """Legacy keyword entry point; delegates to :func:`workspace_for`.

    Direct callers (tests, examples) get the in-memory tier only; disk
    caching is opted into through a RunConfig (``--cache-dir`` or
    ``$REPRO_CACHE_DIR``).
    """
    config = RunConfig(
        seed=seed,
        recipe_scale=recipe_scale,
        include_world_only=include_world_only,
    )
    return workspace_for(config)
