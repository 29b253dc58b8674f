"""Typed request handlers over a warm experiment workspace.

:class:`QueryService` is the transport-independent core of the serving
layer: each ``handle_*`` method takes a decoded JSON payload, receives it
parsed against its endpoint's spec (:mod:`repro.service.requests`), and
returns a JSON-ready dict, raising :class:`RequestError` for anything the
client got wrong. Heavy derived artefacts (the aliasing pipeline, the
cuisine classifier, the CulinaryDB instance, each region's recipe
designer) are built lazily on first use and shared across all server
threads. Each is built in its own single flight, so a request that needs
one artefact never waits for another's build.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..aliasing import AliasingPipeline
from ..culinarydb import build_culinarydb
from ..datamodel import REGIONS, Ingredient, ReproError
from ..db import Database
from ..db.errors import SqlSyntaxError
from ..engine import RunConfig
from ..experiments import ExperimentWorkspace
from ..generation import CuisineClassifier, RecipeDesigner
from ..lru import MISSING, ResultCache
from ..obs import get_logger
from ..pairing import CuisineView, food_pairing_score
from ..retrieval import (
    RetrievalIndex,
    complete_recipe,
    nearest_cuisines,
    similar_ingredients,
)
from .requests import (
    AliasRequest,
    ClassifyRequest,
    CompleteRequest,
    MonteCarloRequest,
    PairingsRequest,
    ProfileRequest,
    RecommendRequest,
    RequestError,
    ScoreRequest,
    SimilarRequest,
    SqlRequest,
    parses,
    payload_dict,
)

_LOG = get_logger("repro.service")

#: How many nearest cuisines ride along in a ``/recommend`` response.
RECOMMEND_NEAR_CUISINES = 5


class QueryService:
    """Request handlers bound to one :class:`ExperimentWorkspace`.

    Args:
        workspace: the warm workspace to serve.
        config: the run configuration the workspace was built from;
            request-scoped Monte Carlo parameters are derived from it
            via :meth:`RunConfig.replace`, keeping the service on the
            same single parameter flow as the CLI.
    """

    def __init__(
        self,
        workspace: ExperimentWorkspace,
        config: RunConfig | None = None,
    ) -> None:
        self._workspace = workspace
        self._config = config if config is not None else RunConfig()
        # Two aliasing pipelines, the classifier, the database and one
        # designer per region view: room for all, so none is evicted.
        self._artifacts = ResultCache(capacity=4 + len(REGIONS))
        self._preloaded = False

    @property
    def workspace(self) -> ExperimentWorkspace:
        return self._workspace

    # ------------------------------------------------------------------
    # lazily-built shared artefacts
    # ------------------------------------------------------------------
    def _artifact(self, key: Any, build: Callable[[], Any]) -> Any:
        """The artefact ``key``, built once by ``build()`` on first use.

        Concurrent first callers share one build; callers of other keys
        never wait for it.
        """
        return self._artifacts.get_or_compute(key, build)[0]

    def _built(self, key: Any) -> bool:
        """Whether the artefact ``key`` exists, without building it."""
        return self._artifacts.probe(key) is not MISSING

    def _pipeline(self, fuzzy: bool) -> AliasingPipeline:
        return self._artifact(
            ("pipeline", fuzzy),
            lambda: AliasingPipeline(self._workspace.catalog, fuzzy=fuzzy),
        )

    def classifier(self) -> CuisineClassifier:
        """The naive-Bayes classifier, trained once on first use."""
        return self._artifact(
            "classifier",
            lambda: CuisineClassifier(
                self._workspace.regional_cuisines(),
                vocabulary_size=len(self._workspace.catalog),
            ),
        )

    def database(self) -> Database:
        """CulinaryDB over the workspace corpus, built once on first use."""
        return self._artifact(
            "database",
            lambda: build_culinarydb(
                self._workspace.recipes,
                self._workspace.catalog,
                instructions=self._workspace.corpus.raw_recipes.instructions,
            ),
        )

    def cuisine_view(self, region_code: str) -> CuisineView:
        """The pairing view of one region (the stage artifact).

        Raises:
            RequestError: 404 for a region code outside the workspace.
        """
        views = self._workspace.views()
        view = views.get(region_code)
        if view is None:
            raise RequestError(
                404,
                "unknown_region",
                f"no such region {region_code!r} "
                f"(known: {', '.join(sorted(views))})",
            )
        return view

    def retrieval(self) -> RetrievalIndex:
        """The workspace's retrieval index (the stage artifact)."""
        return self._workspace.retrieval()

    def designer(self, region_code: str) -> RecipeDesigner:
        """The index-backed recipe designer of one region, built once.

        Raises:
            RequestError: 404 for a region code outside the workspace.
        """
        view = self.cuisine_view(region_code)
        index = self.retrieval()
        return self._artifact(
            ("designer", region_code),
            lambda: RecipeDesigner(view, index=index),
        )

    def warm(self) -> None:
        """Pre-build every lazy artefact (used at server start-up)."""
        self._pipeline(fuzzy=False)
        self.classifier()
        self.database()

    def preload(self) -> None:
        """Fully warm the service before it binds its socket.

        ``repro serve --preload`` calls this, so the first request of
        any kind is served from warm state. The region views and the
        retrieval index are stage artifacts the workspace already holds.
        """
        self.warm()
        self._preloaded = True
        _LOG.info(
            "service.preloaded",
            regions=len(self._workspace.views()),
            recipes=len(self._workspace.recipes),
        )

    # ------------------------------------------------------------------
    # ingredient resolution shared by score/classify/pairings and the
    # retrieval endpoints (similar/complete/recommend)
    # ------------------------------------------------------------------
    def _resolve_names(
        self, names: list[str], fuzzy: bool
    ) -> list[Ingredient]:
        """Map raw phrases to distinct catalog ingredients, order-preserving.

        Raises:
            RequestError: 404 when any phrase resolves to nothing.
        """
        pipeline = self._pipeline(fuzzy)
        resolved = []
        seen: set[int] = set()
        unresolved: list[str] = []
        for name in names:
            resolution = pipeline.resolve_phrase(name)
            if not resolution.ingredients:
                unresolved.append(name)
                continue
            for ingredient in resolution.ingredients:
                if ingredient.ingredient_id not in seen:
                    seen.add(ingredient.ingredient_id)
                    resolved.append(ingredient)
        if unresolved:
            raise RequestError(
                404,
                "unknown_ingredient",
                "unrecognised ingredient(s): "
                + ", ".join(repr(name) for name in unresolved),
            )
        return resolved

    def _pairable(self, name: str, fuzzy: bool) -> Ingredient:
        """The first ingredient ``name`` resolves to; 422 if unpairable."""
        target = self._resolve_names([name], fuzzy)[0]
        if not target.has_flavor_profile:
            raise RequestError(
                422,
                "not_pairable",
                f"{target.name!r} has no flavor profile to pair on",
            )
        return target

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def handle_healthz(self, payload: Any) -> dict[str, Any]:
        """Liveness: workspace identity and corpus size."""
        payload_dict(payload)
        workspace = self._workspace
        return {
            "status": "ok",
            "seed": workspace.seed,
            "recipe_scale": workspace.recipe_scale,
            "recipes": len(workspace.recipes),
            "regions": len(workspace.regional_cuisines()),
        }

    def handle_readyz(self, payload: Any) -> dict[str, Any]:
        """Readiness: lazy-component state plus per-stage cache tiers.

        ``ready`` flips true once every lazily-built shared artefact
        (aliasing pipeline, classifier, CulinaryDB) exists — exactly
        what :meth:`warm` builds, so a ``--no-warm`` server reports
        unready until its first requests have paid those builds. The
        app layer maps an unready body to HTTP 503.

        ``stages`` reports each engine stage's fingerprint and warmest
        cache tier (``memory``/``disk``/``cold``) without resolving
        anything, so polling this endpoint never triggers a build.
        """
        from ..engine import Engine

        payload_dict(payload)
        components = {
            "aliasing_pipeline": self._built(("pipeline", False))
            or self._built(("pipeline", True)),
            "classifier": self._built("classifier"),
            "database": self._built("database"),
        }
        return {
            "ready": all(components.values()),
            "preloaded": self._preloaded,
            "components": components,
            "views_cached": len(self._workspace.views()),
            "stages": Engine(self._config).cache_states(),
        }

    @parses(ProfileRequest)
    def handle_debug_profile(self, request: ProfileRequest) -> dict[str, Any]:
        """Sample this process for N seconds; respond with speedscope JSON.

        The request thread blocks while the profiler samples every
        *other* server thread — the ones actually serving traffic.
        Exactly one capture runs at a time (409 otherwise).
        """
        from ..obs.profile import ProfileBusyError, capture_profile

        seconds = request.seconds
        try:
            profiler = capture_profile(seconds)
        except ProfileBusyError as error:
            raise RequestError(409, "profile_busy", str(error)) from error
        return profiler.to_speedscope(name=f"repro service {seconds:g}s")

    @parses(AliasRequest)
    def handle_alias(self, request: AliasRequest) -> dict[str, Any]:
        """Resolve one raw ingredient phrase against the catalog."""
        resolution = self._pipeline(request.fuzzy).resolve_phrase(
            request.phrase
        )
        return {
            "phrase": request.phrase,
            "kind": resolution.kind.value,
            "ingredients": [
                {
                    "ingredient_id": ingredient.ingredient_id,
                    "name": ingredient.name,
                    "category": ingredient.category.value,
                }
                for ingredient in resolution.ingredients
            ],
            "leftover_tokens": list(resolution.leftover_tokens),
        }

    @parses(ScoreRequest)
    def handle_score(self, request: ScoreRequest) -> dict[str, Any]:
        """Food-pairing N_s for an ad-hoc ingredient list."""
        ingredients = self._resolve_names(request.ingredients, request.fuzzy)
        pairable = [i for i in ingredients if i.has_flavor_profile]
        if len(pairable) < 2:
            raise RequestError(
                422,
                "not_pairable",
                "food pairing needs at least two resolved ingredients "
                f"with flavor profiles, got {len(pairable)}",
            )
        return {
            "score": food_pairing_score(ingredients),
            "resolved": [ingredient.name for ingredient in ingredients],
            "pairable": len(pairable),
        }

    @parses(ClassifyRequest)
    def handle_classify(self, request: ClassifyRequest) -> dict[str, Any]:
        """Cuisine prediction for an ad-hoc ingredient list."""
        ingredients = self._resolve_names(request.ingredients, request.fuzzy)
        prediction = self.classifier().predict(
            [ingredient.ingredient_id for ingredient in ingredients]
        )
        return {
            "region_code": prediction.region_code,
            "resolved": [ingredient.name for ingredient in ingredients],
            "ranking": [
                {"region_code": code, "log_likelihood": round(value, 4)}
                for code, value in prediction.ranking()[: request.top]
            ],
        }

    @parses(PairingsRequest)
    def handle_pairings(self, request: PairingsRequest) -> dict[str, Any]:
        """Top molecule-sharing partners for one ingredient.

        The ranking is ``/similar``'s: a slice of the retrieval index's
        precomputed neighbor list.
        """
        target = self._pairable(request.ingredient, request.fuzzy)
        catalog = self._workspace.catalog
        matches = similar_ingredients(
            self.retrieval(), catalog, target, request.limit
        )
        return {
            "ingredient": target.name,
            "profile_size": len(target.flavor_profile),
            "partners": [
                {
                    "name": match.name,
                    "category": catalog.by_id(
                        match.ingredient_id
                    ).category.value,
                    "shared_molecules": match.shared_molecules,
                }
                for match in matches
            ],
        }

    @parses(SimilarRequest)
    def handle_similar(self, request: SimilarRequest) -> dict[str, Any]:
        """Top-k nearest neighbors of one ingredient — or one cuisine.

        Exactly one of ``ingredient`` / ``cuisine`` must be given; the
        answer comes off the retrieval index (precomputed neighbor lists
        / prevalence-vector cosines).
        """
        k = request.k
        index = self.retrieval()
        if request.ingredient is not None:
            target = self._pairable(request.ingredient, request.fuzzy)
            matches = similar_ingredients(
                index, self._workspace.catalog, target, k
            )
            return {
                "ingredient": target.name,
                "k": k,
                "matches": [
                    {
                        "ingredient_id": match.ingredient_id,
                        "name": match.name,
                        "shared_molecules": match.shared_molecules,
                    }
                    for match in matches
                ],
            }
        code = request.cuisine
        if code not in index.cuisine_row:
            known = ", ".join(index.cuisine_codes)
            raise RequestError(
                404,
                "unknown_region",
                f"no such region {code!r} (known: {known})",
            )
        cuisine_matches = nearest_cuisines(index, code, k)
        return {
            "cuisine": code,
            "k": k,
            "matches": [
                {
                    "region_code": match.region_code,
                    "similarity": match.similarity,
                }
                for match in cuisine_matches
            ],
        }

    @parses(CompleteRequest)
    def handle_complete(self, request: CompleteRequest) -> dict[str, Any]:
        """Best pairing completions for a partial ingredient list."""
        ingredients = self._resolve_names(request.ingredients, request.fuzzy)
        pairable = [i for i in ingredients if i.has_flavor_profile]
        if not pairable:
            raise RequestError(
                422,
                "not_pairable",
                "recipe completion needs at least one resolved "
                "ingredient with a flavor profile",
            )
        completions = complete_recipe(self.retrieval(), ingredients, request.k)
        return {
            "resolved": [ingredient.name for ingredient in ingredients],
            "pairable": len(pairable),
            "k": request.k,
            "completions": [
                {
                    "ingredient_id": completion.ingredient_id,
                    "name": completion.name,
                    "shared_molecules": completion.shared_total,
                    "score": round(completion.score, 4),
                    "delta": round(completion.delta, 4),
                }
                for completion in completions
            ],
        }

    @parses(RecommendRequest)
    def handle_recommend(self, request: RecommendRequest) -> dict[str, Any]:
        """Novel in-style recipe proposals for one region.

        The designer sources candidates from the retrieval index; the
        RNG is seeded from the request (default 0), so the response is a
        pure function of the payload and safely cacheable.
        """
        region_code = request.region
        designer = self.designer(region_code)
        rng = np.random.default_rng(request.seed)
        proposals = [
            designer.propose(rng, size=request.size)
            for _ in range(request.count)
        ]
        index = self.retrieval()
        neighbors = (
            nearest_cuisines(index, region_code, RECOMMEND_NEAR_CUISINES)
            if region_code in index.cuisine_row
            else []
        )
        return {
            "region": region_code,
            "seed": request.seed,
            "proposals": [
                {
                    "ingredients": list(proposal.ingredient_names),
                    "pairing_score": round(proposal.pairing_score, 4),
                    "style_score": round(proposal.style_score, 4),
                    "novelty": round(1.0 - proposal.max_overlap, 4),
                }
                for proposal in proposals
            ],
            "similar_cuisines": [
                {
                    "region_code": match.region_code,
                    "similarity": match.similarity,
                }
                for match in neighbors
            ],
        }

    def handle_regions(self, payload: Any) -> dict[str, Any]:
        """Table 1-style per-region summary of the workspace corpus."""
        payload_dict(payload)
        cuisines = self._workspace.regional_cuisines()
        rows = []
        for region in REGIONS:
            cuisine = cuisines.get(region.code)
            rows.append(
                {
                    "code": region.code,
                    "name": region.name,
                    "pairing": region.pairing.value,
                    "recipes": len(cuisine) if cuisine else 0,
                    "ingredients": (
                        len(cuisine.ingredient_ids) if cuisine else 0
                    ),
                    "published_recipes": region.recipe_count,
                    "published_ingredients": region.ingredient_count,
                }
            )
        return {"regions": rows}

    def handle_stats(self, payload: Any) -> dict[str, Any]:
        """Aggregate corpus and aliasing statistics."""
        payload_dict(payload)
        workspace = self._workspace
        report = workspace.report
        sizes = workspace.recipes.sizes()
        return {
            "recipes": len(workspace.recipes),
            "regions": len(workspace.regional_cuisines()),
            "catalog_ingredients": len(workspace.catalog),
            "mean_recipe_size": (
                round(int(sizes.sum()) / len(sizes), 3) if len(sizes) else 0.0
            ),
            "aliasing": {
                "phrases": report.phrases_total,
                "exact_rate": round(report.exact_rate(), 4),
                "recipes_resolved": report.recipes_resolved,
                "recipes_total": report.recipes_total,
            },
        }

    @parses(SqlRequest)
    def handle_sql(self, request: SqlRequest) -> dict[str, Any]:
        """Read-only SELECT against the in-memory CulinaryDB.

        Statements go through the per-database plan cache, so repeated
        queries (including parameterised ``?`` templates bound from
        ``params``) skip tokenizing and parsing. ``reference=true`` pins
        the row-at-a-time executor for ablations. The columnar executor
        builds only the ``max_rows`` rows a response carries;
        ``row_count`` and ``truncated`` describe the whole result.
        """
        database = self.database()
        try:
            plan = database.prepare(request.sql or request.query)
        except SqlSyntaxError as error:
            raise RequestError(400, "sql_syntax", str(error)) from error
        if plan.kind != "select":
            raise RequestError(
                403,
                "read_only",
                "only SELECT statements are served; DML is not allowed",
            )
        execution: dict[str, Any] = {}
        try:
            rows = plan.execute(
                database,
                request.params,
                reference=request.reference,
                info_out=execution,
                max_rows=request.max_rows,
            )
        except ReproError as error:
            raise RequestError(400, "sql_error", str(error)) from error
        row_count = execution["row_count"]
        response = {
            "rows": rows,
            "row_count": row_count,
            "truncated": row_count > request.max_rows,
            "executor": execution.get("executor", "reference"),
        }
        if execution.get("reason_family"):
            response["fallback"] = execution["reason_family"]
        return response

    @parses(MonteCarloRequest)
    def handle_montecarlo(self, request: MonteCarloRequest) -> dict[str, Any]:
        """Null-model Z-score for one region and model.

        One cell is one Monte Carlo task, sampled on the resident view in
        the handler's thread from the same stream ``fig4`` draws for that
        cell at any ``--workers``. The response depends only on
        ``(region, model, n_samples, seed)`` and is therefore safely
        cacheable.
        """
        from ..pairing import compare_to_model

        comparison = compare_to_model(
            self.cuisine_view(request.region),
            request.model,
            request.n_samples,
            seed=self._config.replace(seed=request.seed).sampling_seed,
        )
        return {
            "region": request.region,
            "model": request.model.value,
            "n_samples": request.n_samples,
            "cuisine_mean": comparison.cuisine_mean,
            "random_mean": comparison.random_mean,
            "random_std": comparison.random_std,
            "z_score": comparison.z_score,
            "effect_size": comparison.effect_size,
            "direction": comparison.direction,
        }
