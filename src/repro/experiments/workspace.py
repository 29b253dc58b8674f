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

import numpy as np

from ..aliasing import MatchReport
from ..corpus import DEFAULT_SEED, GeneratedCorpus
from ..datamodel import Cuisine, Recipe, region_codes
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
        recipes: aliased (resolved) recipes.
        report: the aliasing curation report.
        cuisines: region code -> cuisine (includes WORLD-only mini-regions
            when generated).
        catalog: the ingredient catalog used throughout.
        seed: generation seed.
        recipe_scale: recipe-count scale factor used.
        pairing_views: numeric pairing views for the 22 Table 1 regions
            (the ``pairing_views`` stage artifact); built lazily when a
            workspace is constructed by hand.
        retrieval_index: the top-k retrieval index (the
            ``retrieval_index`` stage artifact); built lazily when a
            workspace is constructed by hand.
    """

    corpus: GeneratedCorpus
    recipes: tuple[Recipe, ...]
    report: MatchReport
    cuisines: dict[str, Cuisine]
    catalog: IngredientCatalog
    seed: int
    recipe_scale: float
    pairing_views: dict[str, CuisineView] | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    retrieval_index: RetrievalIndex | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _similarity: tuple[list[str], np.ndarray] | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
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
        """Region code -> numeric pairing view (22 Table 1 regions).

        Engine-built workspaces carry the ``pairing_views`` stage
        artifact; hand-assembled ones (tests, ad-hoc scripts) build the
        views on first call and memoise them.
        """
        if self.pairing_views is None:
            from ..pairing import build_cuisine_view

            views = {
                code: build_cuisine_view(cuisine, self.catalog)
                for code, cuisine in self.regional_cuisines().items()
            }
            object.__setattr__(self, "pairing_views", views)
        assert self.pairing_views is not None
        return self.pairing_views

    def retrieval(self) -> RetrievalIndex:
        """The top-k retrieval index over the molecule universe.

        Engine-built workspaces carry the ``retrieval_index`` stage
        artifact; hand-assembled ones build it on first call and
        memoise it.
        """
        if self.retrieval_index is None:
            from ..retrieval import build_retrieval_index

            index = build_retrieval_index(
                self.catalog, self.regional_cuisines()
            )
            object.__setattr__(self, "retrieval_index", index)
        assert self.retrieval_index is not None
        return self.retrieval_index

    def similarity(self) -> tuple[list[str], np.ndarray]:
        """Cached ``(codes, matrix)`` cuisine-similarity pair.

        :func:`repro.analysis.authenticity.similarity_matrix` is O(n²)
        pairwise prevalence cosines; callers used to recompute it per
        call. The workspace computes it once and every consumer —
        including the ``nearest_cuisines`` reference path — shares the
        result.
        """
        if self._similarity is None:
            from ..analysis.authenticity import similarity_matrix

            object.__setattr__(
                self,
                "_similarity",
                similarity_matrix(self.regional_cuisines()),
            )
        assert self._similarity is not None
        return self._similarity


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
