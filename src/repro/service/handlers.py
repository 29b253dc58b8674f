"""Typed request handlers over a warm experiment workspace.

:class:`QueryService` is the transport-independent core of the serving
layer: each ``handle_*`` method takes a decoded JSON payload (a dict) and
returns a JSON-ready dict, raising :class:`RequestError` for anything the
client got wrong. Heavy derived artefacts (the aliasing pipeline, the
cuisine classifier, the CulinaryDB instance) are built lazily on first
use and shared across all server threads behind a lock.
"""

from __future__ import annotations

import threading
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
from ..obs import get_logger
from ..pairing import CuisineView, food_pairing_score
from ..retrieval import (
    DEFAULT_TOPK,
    MAX_TOPK,
    RetrievalIndex,
    complete_recipe,
    nearest_cuisines,
    similar_ingredients,
)

_LOG = get_logger("repro.service")

#: Hard ceiling on rows returned by ``/sql`` (and default row cap).
MAX_SQL_ROWS = 1000
DEFAULT_SQL_ROWS = 200

#: Default / maximum pairing partners returned by ``/pairings``.
DEFAULT_PAIRING_LIMIT = 10
MAX_PAIRING_LIMIT = 50

#: ``/recommend`` bounds: proposals per request, allowed recipe sizes,
#: and how many nearest cuisines ride along in the response.
DEFAULT_RECOMMEND_COUNT = 3
MAX_RECOMMEND_COUNT = 10
MIN_RECOMMEND_SIZE = 2
MAX_RECOMMEND_SIZE = 20
RECOMMEND_NEAR_CUISINES = 5
MAX_RECOMMEND_SEED = 2**31 - 1

#: ``/montecarlo`` sampling bounds — generous enough for real estimates,
#: tight enough that one request cannot monopolise the server.
DEFAULT_MC_SAMPLES = 10_000
MIN_MC_SAMPLES = 100
MAX_MC_SAMPLES = 50_000
MAX_MC_WORKERS = 8
DEFAULT_MC_SHARD_SIZE = 5_000
MIN_MC_SHARD_SIZE = 100
MAX_MC_SHARD_SIZE = 25_000

#: ``/debug/profile`` capture bounds: long enough to catch a slow
#: endpoint in the act, short enough that the request thread (which
#: blocks for the duration) frees up promptly.
DEFAULT_PROFILE_SECONDS = 2.0
MIN_PROFILE_SECONDS = 0.01
MAX_PROFILE_SECONDS = 30.0


class RequestError(ReproError):
    """A request the service refuses; carries an HTTP status and a code.

    Attributes:
        status: HTTP status to respond with (4xx).
        code: stable machine-readable error code for the envelope.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _payload_dict(payload: Any) -> dict[str, Any]:
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise RequestError(
            400, "invalid_payload", "request body must be a JSON object"
        )
    return payload


def _reject_unknown(payload: dict[str, Any], allowed: frozenset[str]) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise RequestError(
            400,
            "unknown_field",
            f"unknown field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})",
        )


def _string_field(payload: dict[str, Any], name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value.strip():
        raise RequestError(
            400, "invalid_field", f"{name!r} must be a non-empty string"
        )
    return value.strip()


def _string_list_field(payload: dict[str, Any], name: str) -> list[str]:
    value = payload.get(name)
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(item, str) and item.strip() for item in value)
    ):
        raise RequestError(
            400,
            "invalid_field",
            f"{name!r} must be a non-empty list of non-empty strings",
        )
    return [item.strip() for item in value]


def _int_field(
    payload: dict[str, Any],
    name: str,
    default: int,
    minimum: int,
    maximum: int,
) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(
            400, "invalid_field", f"{name!r} must be an integer"
        )
    if not minimum <= value <= maximum:
        raise RequestError(
            400,
            "invalid_field",
            f"{name!r} must be between {minimum} and {maximum}, got {value}",
        )
    return value


def _bool_field(payload: dict[str, Any], name: str, default: bool) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise RequestError(
            400, "invalid_field", f"{name!r} must be a boolean"
        )
    return value


def _float_field(
    payload: dict[str, Any],
    name: str,
    default: float,
    minimum: float,
    maximum: float,
) -> float:
    """A bounded float field; accepts numeric strings (query params)."""
    value = payload.get(name, default)
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise RequestError(
                400, "invalid_field", f"{name!r} must be a number"
            ) from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            400, "invalid_field", f"{name!r} must be a number"
        )
    if not minimum <= value <= maximum:
        raise RequestError(
            400,
            "invalid_field",
            f"{name!r} must be between {minimum:g} and {maximum:g}, "
            f"got {value:g}",
        )
    return float(value)


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
        self._lock = threading.Lock()
        self._pipelines: dict[bool, AliasingPipeline] = {}
        self._classifier: CuisineClassifier | None = None
        self._database: Database | None = None
        self._designers: dict[str, RecipeDesigner] = {}
        self._preloaded = False
        # Engine-built workspaces already carry the pairing_views stage
        # artifact; seed the per-region view cache from it so the first
        # /montecarlo request never rebuilds a view.
        self._views: dict[str, CuisineView] = dict(
            workspace.pairing_views or {}
        )

    @property
    def workspace(self) -> ExperimentWorkspace:
        return self._workspace

    # ------------------------------------------------------------------
    # lazily-built shared artefacts
    # ------------------------------------------------------------------
    def _pipeline(self, fuzzy: bool) -> AliasingPipeline:
        with self._lock:
            pipeline = self._pipelines.get(fuzzy)
            if pipeline is None:
                pipeline = AliasingPipeline(
                    self._workspace.catalog, fuzzy=fuzzy
                )
                self._pipelines[fuzzy] = pipeline
            return pipeline

    def classifier(self) -> CuisineClassifier:
        """The naive-Bayes classifier, trained once on first use."""
        with self._lock:
            if self._classifier is None:
                self._classifier = CuisineClassifier(
                    self._workspace.regional_cuisines(),
                    vocabulary_size=len(self._workspace.catalog),
                )
            return self._classifier

    def database(self) -> Database:
        """CulinaryDB over the workspace corpus, built once on first use."""
        with self._lock:
            if self._database is None:
                self._database = build_culinarydb(
                    self._workspace.recipes,
                    self._workspace.catalog,
                    raw_recipes=self._workspace.corpus.raw_recipes,
                )
            return self._database

    def cuisine_view(self, region_code: str) -> CuisineView:
        """The pairing view of one region, built once on first use.

        Raises:
            RequestError: 404 for a region code outside the workspace.
        """
        from ..pairing import build_cuisine_view

        with self._lock:
            view = self._views.get(region_code)
            if view is None:
                cuisine = self._workspace.regional_cuisines().get(
                    region_code
                )
                if cuisine is None:
                    known = ", ".join(
                        sorted(self._workspace.regional_cuisines())
                    )
                    raise RequestError(
                        404,
                        "unknown_region",
                        f"no such region {region_code!r} "
                        f"(known: {known})",
                    )
                view = build_cuisine_view(cuisine, self._workspace.catalog)
                self._views[region_code] = view
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
        with self._lock:
            designer = self._designers.get(region_code)
            if designer is None:
                designer = RecipeDesigner(view, index=index)
                self._designers[region_code] = designer
            return designer

    def warm(self) -> None:
        """Pre-build every lazy artefact (used at server start-up)."""
        self._pipeline(fuzzy=False)
        self.classifier()
        self.database()

    def preload(self) -> None:
        """Fully warm the service: lazy artefacts plus every region view.

        ``repro serve --preload`` calls this before binding the socket,
        so the first request of any kind is served from warm state.
        """
        self.warm()
        self._workspace.retrieval()
        self._workspace.similarity()
        views = self._workspace.views()
        with self._lock:
            for code, view in views.items():
                self._views.setdefault(code, view)
            self._preloaded = True
        _LOG.info(
            "service.preloaded",
            regions=len(views),
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

    def _ingredient_from(
        self, body: dict[str, Any], fuzzy: bool, field: str = "ingredient"
    ) -> Ingredient:
        """One resolved ingredient from a request field.

        Validates the field (non-empty string) and resolves it through
        the aliasing pipeline; the single resolution path every
        one-ingredient endpoint shares.
        """
        name = _string_field(body, field)
        return self._resolve_names([name], fuzzy)[0]

    def _ingredients_from(
        self, body: dict[str, Any], fuzzy: bool, field: str = "ingredients"
    ) -> list[Ingredient]:
        """Distinct resolved ingredients from a request list field."""
        names = _string_list_field(body, field)
        return self._resolve_names(names, fuzzy)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def handle_healthz(self, payload: Any) -> dict[str, Any]:
        """Liveness: workspace identity and corpus size."""
        _payload_dict(payload)
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

        _payload_dict(payload)
        with self._lock:
            components = {
                "aliasing_pipeline": bool(self._pipelines),
                "classifier": self._classifier is not None,
                "database": self._database is not None,
            }
            preloaded = self._preloaded
            views_cached = len(self._views)
        return {
            "ready": all(components.values()),
            "preloaded": preloaded,
            "components": components,
            "views_cached": views_cached,
            "stages": Engine(self._config).cache_states(),
        }

    def handle_debug_profile(self, payload: Any) -> dict[str, Any]:
        """Sample this process for N seconds; respond with speedscope JSON.

        The request thread blocks while the profiler samples every
        *other* server thread — the ones actually serving traffic.
        Exactly one capture runs at a time (409 otherwise).
        """
        from ..obs.profile import ProfileBusyError, capture_profile

        body = _payload_dict(payload)
        _reject_unknown(body, frozenset({"seconds"}))
        seconds = _float_field(
            body,
            "seconds",
            default=DEFAULT_PROFILE_SECONDS,
            minimum=MIN_PROFILE_SECONDS,
            maximum=MAX_PROFILE_SECONDS,
        )
        try:
            profiler = capture_profile(seconds)
        except ProfileBusyError as error:
            raise RequestError(409, "profile_busy", str(error)) from error
        return profiler.to_speedscope(name=f"repro service {seconds:g}s")

    def handle_alias(self, payload: Any) -> dict[str, Any]:
        """Resolve one raw ingredient phrase against the catalog."""
        body = _payload_dict(payload)
        _reject_unknown(body, frozenset({"phrase", "fuzzy"}))
        phrase = _string_field(body, "phrase")
        fuzzy = _bool_field(body, "fuzzy", default=False)
        resolution = self._pipeline(fuzzy).resolve_phrase(phrase)
        return {
            "phrase": phrase,
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

    def handle_score(self, payload: Any) -> dict[str, Any]:
        """Food-pairing N_s for an ad-hoc ingredient list."""
        body = _payload_dict(payload)
        _reject_unknown(body, frozenset({"ingredients", "fuzzy"}))
        fuzzy = _bool_field(body, "fuzzy", default=False)
        ingredients = self._ingredients_from(body, fuzzy)
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

    def handle_classify(self, payload: Any) -> dict[str, Any]:
        """Cuisine prediction for an ad-hoc ingredient list."""
        body = _payload_dict(payload)
        _reject_unknown(body, frozenset({"ingredients", "fuzzy", "top"}))
        fuzzy = _bool_field(body, "fuzzy", default=False)
        top = _int_field(body, "top", default=5, minimum=1, maximum=22)
        ingredients = self._ingredients_from(body, fuzzy)
        prediction = self.classifier().predict(
            [ingredient.ingredient_id for ingredient in ingredients]
        )
        return {
            "region_code": prediction.region_code,
            "resolved": [ingredient.name for ingredient in ingredients],
            "ranking": [
                {"region_code": code, "log_likelihood": round(value, 4)}
                for code, value in prediction.ranking()[:top]
            ],
        }

    def handle_pairings(self, payload: Any) -> dict[str, Any]:
        """Top molecule-sharing partners for one ingredient."""
        body = _payload_dict(payload)
        _reject_unknown(body, frozenset({"ingredient", "fuzzy", "limit"}))
        fuzzy = _bool_field(body, "fuzzy", default=False)
        limit = _int_field(
            body,
            "limit",
            default=DEFAULT_PAIRING_LIMIT,
            minimum=1,
            maximum=MAX_PAIRING_LIMIT,
        )
        target = self._ingredient_from(body, fuzzy)
        if not target.has_flavor_profile:
            raise RequestError(
                422,
                "not_pairable",
                f"{target.name!r} has no flavor profile to pair on",
            )
        catalog = self._workspace.catalog
        partners = sorted(
            (
                (target.shared_molecules(other), other)
                for other in catalog.pairable_ingredients()
                if other.ingredient_id != target.ingredient_id
            ),
            key=lambda pair: (-pair[0], pair[1].name),
        )
        return {
            "ingredient": target.name,
            "profile_size": len(target.flavor_profile),
            "partners": [
                {
                    "name": other.name,
                    "category": other.category.value,
                    "shared_molecules": shared,
                }
                for shared, other in partners[:limit]
                if shared > 0
            ],
        }

    def handle_similar(self, payload: Any) -> dict[str, Any]:
        """Top-k nearest neighbors of one ingredient — or one cuisine.

        Exactly one of ``ingredient`` / ``cuisine`` must be given; the
        answer comes off the retrieval index (precomputed neighbor lists
        / prevalence-vector cosines).
        """
        body = _payload_dict(payload)
        _reject_unknown(
            body, frozenset({"ingredient", "cuisine", "k", "fuzzy"})
        )
        has_ingredient = "ingredient" in body
        has_cuisine = "cuisine" in body
        if has_ingredient == has_cuisine:
            raise RequestError(
                400,
                "invalid_field",
                "provide exactly one of 'ingredient' or 'cuisine'",
            )
        k = _int_field(
            body, "k", default=DEFAULT_TOPK, minimum=1, maximum=MAX_TOPK
        )
        fuzzy = _bool_field(body, "fuzzy", default=False)
        index = self.retrieval()
        if has_ingredient:
            target = self._ingredient_from(body, fuzzy)
            if not target.has_flavor_profile:
                raise RequestError(
                    422,
                    "not_pairable",
                    f"{target.name!r} has no flavor profile to pair on",
                )
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
        code = _string_field(body, "cuisine").upper()
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

    def handle_complete(self, payload: Any) -> dict[str, Any]:
        """Best pairing completions for a partial ingredient list."""
        body = _payload_dict(payload)
        _reject_unknown(body, frozenset({"ingredients", "k", "fuzzy"}))
        k = _int_field(
            body, "k", default=DEFAULT_TOPK, minimum=1, maximum=MAX_TOPK
        )
        fuzzy = _bool_field(body, "fuzzy", default=False)
        ingredients = self._ingredients_from(body, fuzzy)
        pairable = [i for i in ingredients if i.has_flavor_profile]
        if not pairable:
            raise RequestError(
                422,
                "not_pairable",
                "recipe completion needs at least one resolved "
                "ingredient with a flavor profile",
            )
        completions = complete_recipe(
            self.retrieval(), self._workspace.catalog, ingredients, k
        )
        return {
            "resolved": [ingredient.name for ingredient in ingredients],
            "pairable": len(pairable),
            "k": k,
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

    def handle_recommend(self, payload: Any) -> dict[str, Any]:
        """Novel in-style recipe proposals for one region.

        The designer sources candidates from the retrieval index; the
        RNG is seeded from the request (default 0), so the response is a
        pure function of the payload and safely cacheable.
        """
        body = _payload_dict(payload)
        _reject_unknown(body, frozenset({"region", "count", "size", "seed"}))
        region_code = _string_field(body, "region").upper()
        count = _int_field(
            body,
            "count",
            default=DEFAULT_RECOMMEND_COUNT,
            minimum=1,
            maximum=MAX_RECOMMEND_COUNT,
        )
        size = None
        if body.get("size") is not None:
            size = _int_field(
                body,
                "size",
                default=MIN_RECOMMEND_SIZE,
                minimum=MIN_RECOMMEND_SIZE,
                maximum=MAX_RECOMMEND_SIZE,
            )
        seed = _int_field(
            body, "seed", default=0, minimum=0, maximum=MAX_RECOMMEND_SEED
        )
        designer = self.designer(region_code)
        rng = np.random.default_rng(seed)
        proposals = [designer.propose(rng, size=size) for _ in range(count)]
        index = self.retrieval()
        neighbors = (
            nearest_cuisines(index, region_code, RECOMMEND_NEAR_CUISINES)
            if region_code in index.cuisine_row
            else []
        )
        return {
            "region": region_code,
            "seed": seed,
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
        _payload_dict(payload)
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
        _payload_dict(payload)
        workspace = self._workspace
        report = workspace.report
        sizes = [recipe.size for recipe in workspace.recipes]
        return {
            "recipes": len(workspace.recipes),
            "regions": len(workspace.regional_cuisines()),
            "catalog_ingredients": len(workspace.catalog),
            "mean_recipe_size": (
                round(sum(sizes) / len(sizes), 3) if sizes else 0.0
            ),
            "aliasing": {
                "phrases": report.phrases_total,
                "exact_rate": round(report.exact_rate(), 4),
                "recipes_resolved": report.recipes_resolved,
                "recipes_total": report.recipes_total,
            },
        }

    def handle_sql(self, payload: Any) -> dict[str, Any]:
        """Read-only SELECT against the in-memory CulinaryDB.

        Statements go through the per-database plan cache, so repeated
        queries (including parameterised ``?`` templates bound from
        ``params``) skip tokenizing and parsing. ``reference=true`` pins
        the row-at-a-time executor for ablations.
        """
        body = _payload_dict(payload)
        _reject_unknown(
            body,
            frozenset({"sql", "query", "params", "max_rows", "reference"}),
        )
        if ("sql" in body) == ("query" in body):
            raise RequestError(
                400,
                "invalid_field",
                "provide exactly one of 'sql' or 'query'",
            )
        field = "sql" if "sql" in body else "query"
        query = _string_field(body, field)
        params = body.get("params", [])
        if not isinstance(params, list):
            raise RequestError(
                400,
                "invalid_field",
                f"field 'params' must be a list, got "
                f"{type(params).__name__}",
            )
        reference = _bool_field(body, "reference", default=False)
        max_rows = _int_field(
            body,
            "max_rows",
            default=DEFAULT_SQL_ROWS,
            minimum=1,
            maximum=MAX_SQL_ROWS,
        )
        database = self.database()
        try:
            plan = database.prepare(query)
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
                database, params, reference=reference, info_out=execution
            )
        except ReproError as error:
            raise RequestError(400, "sql_error", str(error)) from error
        response = {
            "rows": rows[:max_rows],
            "row_count": len(rows),
            "truncated": len(rows) > max_rows,
            "executor": execution.get("executor", "reference"),
        }
        if execution.get("reason_family"):
            response["fallback"] = execution["reason_family"]
        return response

    def handle_montecarlo(self, payload: Any) -> dict[str, Any]:
        """Null-model Z-score for one region through the parallel engine.

        Runs the same sharded Monte Carlo engine as ``fig4 --workers``
        (spawned per-shard RNGs, streaming moment reduction; shards run on
        the resident view unless they go to a pool), so the response
        depends only on ``(region, model, n_samples, seed, shard_size)``
        — never on ``workers`` — and is therefore safely cacheable.
        """
        from ..pairing import NullModel, compare_to_model
        from ..parallel import resolve_workers

        body = _payload_dict(payload)
        _reject_unknown(
            body,
            frozenset(
                {"region", "model", "n_samples", "workers",
                 "shard_size", "seed"}
            ),
        )
        region_code = _string_field(body, "region").upper()
        model_value = body.get("model", NullModel.RANDOM.value)
        try:
            model = NullModel(model_value)
        except ValueError:
            known = ", ".join(item.value for item in NullModel)
            raise RequestError(
                400,
                "invalid_field",
                f"unknown null model {model_value!r} (known: {known})",
            ) from None
        n_samples = _int_field(
            body,
            "n_samples",
            default=DEFAULT_MC_SAMPLES,
            minimum=MIN_MC_SAMPLES,
            maximum=MAX_MC_SAMPLES,
        )
        workers = _int_field(
            body, "workers", default=1, minimum=1, maximum=MAX_MC_WORKERS
        )
        shard_size = _int_field(
            body,
            "shard_size",
            default=DEFAULT_MC_SHARD_SIZE,
            minimum=MIN_MC_SHARD_SIZE,
            maximum=MAX_MC_SHARD_SIZE,
        )
        seed = body.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int)
        ):
            raise RequestError(
                400, "invalid_field", "'seed' must be an integer"
            )
        view = self.cuisine_view(region_code)
        request_config = self._config.replace(
            n_samples=n_samples,
            workers=workers,
            shard_size=shard_size,
            seed=seed,
        )
        comparison = compare_to_model(
            view,
            model,
            request_config.n_samples,
            parallel=request_config.parallel(cap=resolve_workers(None)),
            seed=request_config.sampling_seed,
        )
        return {
            "region": region_code,
            "model": model.value,
            "n_samples": n_samples,
            "shard_size": shard_size,
            "cuisine_mean": comparison.cuisine_mean,
            "random_mean": comparison.random_mean,
            "random_std": comparison.random_std,
            "z_score": comparison.z_score,
            "effect_size": comparison.effect_size,
            "direction": comparison.direction,
        }
