"""Tests for the service handlers and app dispatch (no HTTP transport)."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import QueryService, ResultCache, ServiceApp
from repro.service.handlers import RequestError


@pytest.fixture(scope="module")
def service(workspace):
    return QueryService(workspace)


@pytest.fixture()
def app(service):
    # Fresh cache/metrics per test; the heavy service state is shared.
    return ServiceApp(service, cache=ResultCache(capacity=64))


class TestAlias:
    def test_exact_phrase(self, app):
        status, body = app.dispatch(
            "POST", "/alias", {"phrase": "2 cloves garlic, minced"}
        )
        assert status == 200
        assert body["kind"] == "exact"
        assert body["ingredients"][0]["name"] == "garlic"

    def test_fuzzy_recovers_typo(self, app):
        status, body = app.dispatch(
            "POST", "/alias", {"phrase": "1 tbsp oregeno", "fuzzy": True}
        )
        assert status == 200
        assert [i["name"] for i in body["ingredients"]] == ["oregano"]

    def test_unrecognized_phrase(self, app):
        status, body = app.dispatch("POST", "/alias", {"phrase": "moon dust"})
        assert status == 200
        assert body["kind"] == "unrecognized"
        assert body["ingredients"] == []

    def test_missing_phrase_is_400(self, app):
        status, body = app.dispatch("POST", "/alias", {})
        assert status == 400
        assert body["error"]["code"] == "invalid_field"

    def test_unknown_field_is_400(self, app):
        status, body = app.dispatch(
            "POST", "/alias", {"phrase": "garlic", "bogus": 1}
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_field"


class TestScore:
    def test_scores_known_recipe(self, app):
        status, body = app.dispatch(
            "POST", "/score", {"ingredients": ["garlic", "onion", "tomato"]}
        )
        assert status == 200
        assert body["score"] >= 0.0
        assert body["pairable"] == 3
        assert body["resolved"] == ["garlic", "onion", "tomato"]

    def test_agrees_with_reference_implementation(self, app, catalog):
        from repro.pairing import food_pairing_score

        names = ["garlic", "onion", "tomato", "basil"]
        _, body = app.dispatch("POST", "/score", {"ingredients": names})
        expected = food_pairing_score([catalog.get(name) for name in names])
        assert body["score"] == pytest.approx(expected)

    def test_unknown_ingredient_is_404(self, app):
        status, body = app.dispatch(
            "POST", "/score", {"ingredients": ["garlic", "kryptonite"]}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_ingredient"
        assert "kryptonite" in body["error"]["message"]

    def test_single_ingredient_is_422(self, app):
        status, body = app.dispatch(
            "POST", "/score", {"ingredients": ["garlic"]}
        )
        assert status == 422
        assert body["error"]["code"] == "not_pairable"

    def test_empty_list_is_400(self, app):
        status, _ = app.dispatch("POST", "/score", {"ingredients": []})
        assert status == 400

    def test_duplicate_phrases_collapse(self, app):
        _, body = app.dispatch(
            "POST", "/score", {"ingredients": ["garlic", "garlic", "onion"]}
        )
        assert body["resolved"] == ["garlic", "onion"]


class TestClassify:
    def test_predicts_a_trained_region(self, app, workspace):
        status, body = app.dispatch(
            "POST",
            "/classify",
            {"ingredients": ["soy sauce", "ginger", "rice"], "top": 3},
        )
        assert status == 200
        assert body["region_code"] in workspace.regional_cuisines()
        assert len(body["ranking"]) == 3
        assert body["ranking"][0]["region_code"] == body["region_code"]
        scores = [entry["log_likelihood"] for entry in body["ranking"]]
        assert scores == sorted(scores, reverse=True)

    def test_invalid_top_is_400(self, app):
        status, _ = app.dispatch(
            "POST", "/classify", {"ingredients": ["garlic"], "top": 0}
        )
        assert status == 400


class TestPairings:
    def test_partners_sorted_by_shared_molecules(self, app):
        status, body = app.dispatch(
            "POST", "/pairings", {"ingredient": "garlic", "limit": 5}
        )
        assert status == 200
        assert body["ingredient"] == "garlic"
        shared = [p["shared_molecules"] for p in body["partners"]]
        assert shared == sorted(shared, reverse=True)
        assert len(shared) <= 5
        assert all(count > 0 for count in shared)

    def test_profile_free_ingredient_is_422(self, app):
        status, body = app.dispatch(
            "POST", "/pairings", {"ingredient": "food coloring"}
        )
        assert status == 422
        assert body["error"]["code"] == "not_pairable"

    def test_limit_out_of_range_is_400(self, app):
        status, _ = app.dispatch(
            "POST", "/pairings", {"ingredient": "garlic", "limit": 999}
        )
        assert status == 400


class TestRegionsAndStats:
    def test_regions_lists_all_22(self, app):
        status, body = app.dispatch("GET", "/regions")
        assert status == 200
        assert len(body["regions"]) == 22
        codes = {row["code"] for row in body["regions"]}
        assert {"ITA", "USA", "JPN"} <= codes
        for row in body["regions"]:
            assert row["recipes"] > 0

    def test_stats_reports_corpus(self, app, workspace):
        status, body = app.dispatch("GET", "/stats")
        assert status == 200
        assert body["recipes"] == len(workspace.recipes)
        assert 0.0 <= body["aliasing"]["exact_rate"] <= 1.0


class TestSql:
    def test_select_rows(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {
                "query": (
                    "SELECT region_code, COUNT(*) AS n FROM recipes "
                    "GROUP BY region_code ORDER BY n DESC LIMIT 3"
                )
            },
        )
        assert status == 200
        assert len(body["rows"]) == 3
        assert body["rows"][0]["n"] >= body["rows"][1]["n"]
        assert body["executor"] == "columnar"
        assert "fallback" not in body

    def test_reference_pin_reported(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {
                "query": "SELECT COUNT(*) AS n FROM recipes",
                "reference": True,
            },
        )
        assert status == 200
        assert body["executor"] == "reference"
        assert body["fallback"] == "pinned"

    def test_fallback_reason_reported(self, app):
        # Self-joins are the one join shape still outside the columnar
        # engine, so they exercise the transparent reference fallback.
        status, body = app.dispatch(
            "POST",
            "/sql",
            {
                "query": (
                    "SELECT recipe_id FROM recipes "
                    "JOIN recipes ON recipe_id = recipes.recipe_id "
                    "LIMIT 2"
                )
            },
        )
        assert status == 200
        assert body["executor"] == "reference"
        assert body["fallback"] == "join"

    def test_dml_rejected_with_403(self, app):
        for statement in (
            "DELETE FROM recipes",
            "INSERT INTO regions (code) VALUES ('XX')",
            "UPDATE recipes SET title = 'x'",
        ):
            status, body = app.dispatch("POST", "/sql", {"query": statement})
            assert status == 403
            assert body["error"]["code"] == "read_only"

    def test_syntax_error_is_400(self, app):
        status, body = app.dispatch(
            "POST", "/sql", {"query": "SELECT ~~~ garbage"}
        )
        assert status == 400
        assert body["error"]["code"] == "sql_syntax"

    def test_unknown_table_is_400(self, app):
        status, body = app.dispatch(
            "POST", "/sql", {"query": "SELECT * FROM nonexistent"}
        )
        assert status == 400
        assert body["error"]["code"] == "sql_error"

    def test_max_rows_truncates(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {"query": "SELECT recipe_id FROM recipes", "max_rows": 5},
        )
        assert status == 200
        assert len(body["rows"]) == 5
        assert body["truncated"] is True
        assert body["row_count"] > 5

    def test_sql_key_is_an_alias_for_query(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {"sql": "SELECT COUNT(*) AS n FROM recipes"},
        )
        assert status == 200
        assert body["rows"][0]["n"] > 0

    def test_exactly_one_of_sql_and_query(self, app):
        for payload in (
            {},
            {"sql": "SELECT 1 AS x FROM recipes",
             "query": "SELECT 1 AS x FROM recipes"},
        ):
            status, body = app.dispatch("POST", "/sql", payload)
            assert status == 400
            assert body["error"]["code"] == "invalid_field"
            assert "exactly one" in body["error"]["message"]

    def test_parameterised_statement(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {
                "sql": (
                    "SELECT COUNT(*) AS n FROM recipes "
                    "WHERE region_code = ?"
                ),
                "params": ["ITA"],
            },
        )
        assert status == 200
        assert body["rows"][0]["n"] > 0

    def test_param_count_mismatch_is_sql_error(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {"sql": "SELECT * FROM recipes WHERE region_code = ?"},
        )
        assert status == 400
        assert body["error"]["code"] == "sql_error"
        assert "parameter" in body["error"]["message"]

    def test_params_must_be_a_list(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {
                "sql": "SELECT * FROM recipes WHERE region_code = ?",
                "params": "ITA",
            },
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_field"

    def test_reference_executor_agrees(self, app):
        sql = (
            "SELECT region_code, COUNT(*) AS n FROM recipes "
            "GROUP BY region_code ORDER BY region_code"
        )
        _, columnar_body = app.dispatch("POST", "/sql", {"sql": sql})
        _, reference_body = app.dispatch(
            "POST", "/sql", {"sql": sql, "reference": True}
        )
        assert columnar_body["rows"] == reference_body["rows"]

    def test_parameterised_dml_still_403(self, app):
        status, body = app.dispatch(
            "POST",
            "/sql",
            {"sql": "DELETE FROM recipes WHERE recipe_id = ?",
             "params": [1]},
        )
        assert status == 403
        assert body["error"]["code"] == "read_only"


class TestDispatchEnvelope:
    def test_unknown_path_is_404(self, app):
        status, body = app.dispatch("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown_path"

    def test_wrong_method_is_405(self, app):
        status, body = app.dispatch("GET", "/score")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_non_dict_payload_is_400(self, app):
        status, body = app.dispatch("POST", "/score", [1, 2, 3])
        assert status == 400
        assert body["error"]["code"] == "invalid_payload"

    def test_healthz(self, app, workspace):
        status, body = app.dispatch("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["recipes"] == len(workspace.recipes)

    def test_errors_are_counted_not_cached(self, app):
        app.dispatch("POST", "/score", {"ingredients": ["kryptonite", "x"]})
        app.dispatch("POST", "/score", {"ingredients": ["kryptonite", "x"]})
        _, metrics = app.dispatch("GET", "/metrics")
        score = metrics["endpoints"]["score"]
        assert score["errors"] == 2
        assert score["cache_hits"] == 0


class TestCaching:
    def test_repeat_request_hits_cache(self, app):
        payload = {"ingredients": ["garlic", "onion", "tomato"]}
        _, first = app.dispatch("POST", "/score", payload)
        _, second = app.dispatch("POST", "/score", payload)
        # Cached bodies are identical apart from the per-response
        # correlation id, which must be fresh even on a cache hit.
        assert first.pop("request_id") != second.pop("request_id")
        assert first == second
        _, metrics = app.dispatch("GET", "/metrics")
        assert metrics["endpoints"]["score"]["cache_hits"] == 1
        assert metrics["cache"]["hits"] == 1

    def test_payload_key_order_shares_the_entry(self, app):
        app.dispatch(
            "POST", "/classify", {"ingredients": ["garlic"], "top": 2}
        )
        app.dispatch(
            "POST", "/classify", {"top": 2, "ingredients": ["garlic"]}
        )
        _, metrics = app.dispatch("GET", "/metrics")
        assert metrics["endpoints"]["classify"]["cache_hits"] == 1

    def test_metrics_endpoint_is_never_cached(self, app):
        app.dispatch("GET", "/metrics")
        app.dispatch("GET", "/metrics")
        _, metrics = app.dispatch("GET", "/metrics")
        assert metrics["endpoints"]["metrics"]["cache_hits"] == 0


class TestRequestError:
    def test_carries_status_and_code(self):
        error = RequestError(418, "teapot", "short and stout")
        assert error.status == 418
        assert error.code == "teapot"
        assert "stout" in str(error)


class TestPrometheusMetrics:
    def test_prometheus_format_returns_plain_text(self, app):
        from repro.service import PlainTextResponse

        app.dispatch("POST", "/score", {"ingredients": ["garlic", "onion"]})
        status, body = app.dispatch(
            "GET", "/metrics", {"format": "prometheus"}
        )
        assert status == 200
        assert isinstance(body, PlainTextResponse)
        assert body.content_type.startswith("text/plain")
        assert 'repro_requests_total{endpoint="score"} 1' in body.text
        assert "# TYPE repro_request_seconds histogram" in body.text
        assert 'le="+Inf"' in body.text
        assert "repro_cache_hit_rate" in body.text

    def test_json_remains_the_default(self, app):
        status, body = app.dispatch("GET", "/metrics")
        assert status == 200
        assert isinstance(body, dict)
        assert "endpoints" in body

    def test_explicit_json_format(self, app):
        status, body = app.dispatch("GET", "/metrics", {"format": "json"})
        assert status == 200
        assert isinstance(body, dict)

    def test_unknown_format_is_400(self, app):
        status, body = app.dispatch("GET", "/metrics", {"format": "xml"})
        assert status == 400
        assert body["error"]["code"] == "invalid_field"


class TestDispatchTracing:
    def test_dispatch_span_tags_endpoint_and_cache_hit(self, app):
        from repro.obs import configure_tracing, get_tracer

        tracer = configure_tracing(True)
        tracer.reset()
        try:
            payload = {"ingredients": ["garlic", "onion", "tomato"]}
            app.dispatch("POST", "/score", payload)
            app.dispatch("POST", "/score", payload)
        finally:
            configure_tracing(False)
        spans = [
            s for s in tracer.finished_spans()
            if s.name == "service.dispatch"
        ]
        tracer.reset()
        assert len(spans) == 2
        assert all(s.attrs["endpoint"] == "score" for s in spans)
        assert [s.attrs["cache_hit"] for s in spans] == [False, True]
        assert all(s.attrs["status"] == 200 for s in spans)


class TestMonteCarlo:
    """The /montecarlo endpoint samples one cell on fig4's stream."""

    PAYLOAD = {
        "region": "ITA",
        "model": "random",
        "n_samples": 400,
    }

    def test_returns_comparison_fields(self, app):
        status, body = app.dispatch("POST", "/montecarlo", dict(self.PAYLOAD))
        assert status == 200
        assert body["region"] == "ITA"
        assert body["model"] == "random"
        assert body["n_samples"] == 400
        assert body["direction"] in ("uniform", "contrasting", "neutral")
        assert body["random_std"] > 0.0
        assert body["z_score"] == pytest.approx(
            (body["cuisine_mean"] - body["random_mean"])
            / (body["random_std"] / 400**0.5)
        )

    @pytest.mark.parametrize(
        "model", ["random", "frequency", "category", "frequency_category"]
    )
    def test_answer_is_the_cells_sweep_stream(self, app, service, model):
        from repro.pairing import NullModel
        from repro.parallel import ParallelConfig, sweep_pairing_moments

        views = {code: service.cuisine_view(code) for code in ("ITA", "KOR")}
        pooled = sweep_pairing_moments(
            views, (NullModel(model),), 400, ParallelConfig(workers=2)
        )[("ITA", NullModel(model))]
        _, body = app.dispatch(
            "POST", "/montecarlo", dict(self.PAYLOAD, model=model)
        )
        assert "shard_size" not in body
        assert body["random_mean"] == pooled.mean
        assert body["random_std"] == pooled.std()

    def test_region_codes_are_case_insensitive(self, app):
        _, upper = app.dispatch("POST", "/montecarlo", dict(self.PAYLOAD))
        _, lower = app.dispatch(
            "POST", "/montecarlo", dict(self.PAYLOAD, region="ita")
        )
        assert lower["z_score"] == upper["z_score"]

    def test_unknown_region_is_404(self, app):
        status, body = app.dispatch(
            "POST", "/montecarlo", {"region": "ATLANTIS"}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_region"

    def test_unknown_model_is_400(self, app):
        status, body = app.dispatch(
            "POST", "/montecarlo", {"region": "ITA", "model": "bogus"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_field"
        assert "frequency_category" in body["error"]["message"]

    def test_sample_bounds_enforced(self, app):
        status, body = app.dispatch(
            "POST", "/montecarlo", {"region": "ITA", "n_samples": 10}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_field"
        status, _ = app.dispatch(
            "POST", "/montecarlo", {"region": "ITA", "n_samples": 10**9}
        )
        assert status == 400

    def test_category_requests_sample_the_resident_view(self, app, service):
        view = service.cuisine_view("ITA")
        specs = view.spec_counts
        for seed in (1, 2):
            status, body = app.dispatch(
                "POST",
                "/montecarlo",
                {"region": "ITA", "model": "category", "n_samples": 400,
                 "seed": seed},
            )
            assert status == 200, body
        assert service.cuisine_view("ITA").spec_counts is specs

    @pytest.mark.parametrize("name", ["workers", "shard_size"])
    def test_fan_out_fields_are_unknown(self, app, name):
        status, body = app.dispatch(
            "POST", "/montecarlo", dict(self.PAYLOAD, **{name: 1})
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_field"

    def test_seed_must_be_an_integer(self, app):
        status, body = app.dispatch(
            "POST", "/montecarlo", dict(self.PAYLOAD, seed="abc")
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_field"

    def test_unknown_field_rejected(self, app):
        status, body = app.dispatch(
            "POST", "/montecarlo", dict(self.PAYLOAD, bogus=1)
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_field"

    def test_responses_are_cached(self, app):
        payload = dict(self.PAYLOAD, seed=5)
        app.dispatch("POST", "/montecarlo", payload)
        app.dispatch("POST", "/montecarlo", payload)
        _, metrics = app.dispatch("GET", "/metrics")
        assert metrics["endpoints"]["montecarlo"]["cache_hits"] == 1


class TestRequestId:
    def test_generated_when_absent(self, app):
        _, body = app.dispatch("GET", "/healthz")
        assert body["request_id"]
        _, second = app.dispatch("GET", "/healthz")
        assert second["request_id"] != body["request_id"]

    def test_supplied_id_echoed(self, app):
        _, body = app.dispatch(
            "GET", "/healthz", request_id="client-id.42"
        )
        assert body["request_id"] == "client-id.42"

    def test_invalid_supplied_id_replaced(self, app):
        for bad in ("has spaces", "x" * 129, "", 7, None):
            _, body = app.dispatch("GET", "/healthz", request_id=bad)
            assert body["request_id"] != bad
            assert body["request_id"]

    def test_error_envelope_carries_request_id(self, app):
        status, body = app.dispatch(
            "GET", "/nope", request_id="err-trace-1"
        )
        assert status == 404
        assert body["request_id"] == "err-trace-1"
        status, body = app.dispatch(
            "POST", "/alias", {}, request_id="err-trace-2"
        )
        assert status == 400
        assert body["request_id"] == "err-trace-2"

    def test_request_id_bound_to_log_lines(self, app, monkeypatch):
        import io
        import json as json_module

        from repro.obs import configure_logging, get_logger

        stream = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=stream)
        try:
            logger = get_logger("repro.test.rid")

            def logging_healthz(payload):
                logger.info("handling.request")
                return {"status": "ok"}

            monkeypatch.setattr(
                app.service, "handle_healthz", logging_healthz
            )
            _, body = app.dispatch(
                "GET", "/healthz", request_id="log-correl-1"
            )
        finally:
            configure_logging(level="info", json_mode=False, stream=None)
        row = json_module.loads(stream.getvalue().strip())
        assert row["event"] == "handling.request"
        assert row["request_id"] == "log-correl-1"
        assert body["request_id"] == "log-correl-1"

    def test_traced_dispatch_tags_span(self, app):
        from repro.obs import configure_tracing, get_tracer

        tracer = configure_tracing(True)
        tracer.reset()
        try:
            app.dispatch("GET", "/healthz", request_id="span-tag-1")
        finally:
            configure_tracing(False)
        spans = {s.name: s for s in tracer.spans_since(0)}
        tracer.reset()
        assert spans["service.dispatch"].attrs["request_id"] == "span-tag-1"


class TestReadyz:
    def test_cold_service_reports_503(self, workspace):
        from repro.service import QueryService, ServiceApp

        cold_app = ServiceApp(QueryService(workspace))
        status, body = cold_app.dispatch("GET", "/readyz")
        assert status == 503
        assert body["ready"] is False
        assert body["preloaded"] is False
        assert set(body["components"]) == {
            "aliasing_pipeline",
            "classifier",
            "database",
        }

    def test_warm_service_reports_ready(self, workspace):
        from repro.engine import RunConfig
        from repro.engine.stages import STAGE_ORDER
        from repro.service import QueryService, ServiceApp

        service = QueryService(
            workspace,
            RunConfig(recipe_scale=workspace.recipe_scale),
        )
        service.warm()
        warm_app = ServiceApp(service)
        status, body = warm_app.dispatch("GET", "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert all(body["components"].values())
        stages = body["stages"]
        assert [entry["stage"] for entry in stages] == list(STAGE_ORDER)
        for entry in stages:
            assert entry["tier"] in ("memory", "disk", "cold")
            assert entry["warm"] == (entry["tier"] != "cold")
            assert len(entry["fingerprint"]) >= 16

    def test_readyz_never_triggers_builds(self, workspace):
        from repro.obs import get_registry
        from repro.service import QueryService, ServiceApp

        registry = get_registry()

        def builds():
            return {
                tuple(series.labels.items()): series.metric.value
                for series in registry.collect()
                if series.name == "engine_stage_build_total"
            }

        before = builds()
        cold_app = ServiceApp(QueryService(workspace))
        cold_app.dispatch("GET", "/readyz")
        assert builds() == before


class TestLazyArtefacts:
    """Each lazily built artefact is built in its own single flight."""

    def test_score_does_not_wait_for_a_designer_build(
        self, workspace, monkeypatch
    ):
        from repro.service import handlers

        building = threading.Event()
        release = threading.Event()
        real = handlers.RecipeDesigner

        def held_open(*args, **kwargs):
            building.set()
            release.wait(60)
            return real(*args, **kwargs)

        monkeypatch.setattr(handlers, "RecipeDesigner", held_open)
        service = QueryService(workspace)
        designer = threading.Thread(target=service.designer, args=("ITA",))
        designer.start()
        try:
            assert building.wait(60)
            scored = []
            scorer = threading.Thread(
                target=lambda: scored.append(
                    service.handle_score({"ingredients": ["garlic", "onion"]})
                )
            )
            scorer.start()
            scorer.join(30)
            assert not scorer.is_alive()
            assert scored and scored[0]["pairable"] == 2
            assert designer.is_alive()
        finally:
            release.set()
            designer.join(60)
        assert not designer.is_alive()

    def test_concurrent_first_designer_calls_build_once(
        self, workspace, monkeypatch
    ):
        from repro.service import handlers

        builds = []
        real = handlers.RecipeDesigner

        def counted(*args, **kwargs):
            builds.append(threading.get_ident())
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(handlers, "RecipeDesigner", counted)
        service = QueryService(workspace)
        start = threading.Barrier(8)

        def first_call(_):
            start.wait(60)
            return service.designer("ITA")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                designers = list(pool.map(first_call, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 1
        assert all(designer is designers[0] for designer in designers)


class TestDebugProfile:
    def test_returns_speedscope_document(self, app):
        status, body = app.dispatch(
            "GET", "/debug/profile", {"seconds": "0.05"}
        )
        assert status == 200
        assert body["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert "frames" in body["shared"]
        assert isinstance(body["profiles"], list)
        assert body["request_id"]

    def test_numeric_payload_accepted(self, app):
        status, body = app.dispatch(
            "GET", "/debug/profile", {"seconds": 0.05}
        )
        assert status == 200

    def test_rejects_out_of_range_seconds(self, app):
        for bad in ("0", "31", "-1", "abc", True):
            status, body = app.dispatch(
                "GET", "/debug/profile", {"seconds": bad}
            )
            assert status == 400, bad
            assert body["error"]["code"] == "invalid_field"

    def test_rejects_unknown_fields(self, app):
        status, body = app.dispatch(
            "GET", "/debug/profile", {"minutes": 1}
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_field"

    def test_busy_capture_is_409(self, app):
        from repro.obs import profile as profile_module

        assert profile_module._CAPTURE_LOCK.acquire(blocking=False)
        try:
            status, body = app.dispatch(
                "GET", "/debug/profile", {"seconds": 0.05}
            )
        finally:
            profile_module._CAPTURE_LOCK.release()
        assert status == 409
        assert body["error"]["code"] == "profile_busy"
