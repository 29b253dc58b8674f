"""Integration tests: the service driven over real HTTP, in-process.

An ``AsyncServiceServer`` is bound to an ephemeral port and exercised
with ``urllib`` from many client threads — the acceptance path for
``repro serve``: concurrent requests to ``/alias``, ``/score``,
``/classify`` and ``/sql`` return correct JSON, and a repeated identical
request is served from the LRU cache (visible in ``/metrics``).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    QueryService,
    ResultCache,
    ServiceApp,
    serve_async_in_thread,
)


@pytest.fixture(scope="module")
def server(workspace):
    app = ServiceApp(QueryService(workspace), cache=ResultCache(capacity=256))
    handle = serve_async_in_thread(app)
    yield handle.server
    handle.stop()


def request(server, method, path, payload=None):
    """One HTTP round-trip; returns (status, decoded JSON body)."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        server.url + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpointsOverHttp:
    def test_healthz(self, server, workspace):
        status, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["recipes"] == len(workspace.recipes)

    def test_alias(self, server):
        status, body = request(
            server, "POST", "/alias", {"phrase": "3 ripe tomatoes, diced"}
        )
        assert status == 200
        assert body["kind"] == "exact"
        assert body["ingredients"][0]["name"] == "tomato"

    def test_score(self, server):
        status, body = request(
            server,
            "POST",
            "/score",
            {"ingredients": ["garlic", "onion", "tomato"]},
        )
        assert status == 200
        assert isinstance(body["score"], float)
        assert body["pairable"] == 3

    def test_classify(self, server):
        status, body = request(
            server,
            "POST",
            "/classify",
            {"ingredients": ["soy sauce", "ginger", "rice"]},
        )
        assert status == 200
        assert len(body["region_code"]) >= 3

    def test_sql(self, server):
        status, body = request(
            server,
            "POST",
            "/sql",
            {"query": "SELECT COUNT(*) AS n FROM recipes"},
        )
        assert status == 200
        assert body["rows"][0]["n"] > 0

    def test_error_envelope_over_http(self, server):
        status, body = request(
            server, "POST", "/score", {"ingredients": ["kryptonite", "x"]}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_ingredient"

    def test_invalid_json_body(self, server):
        req = urllib.request.Request(
            server.url + "/score",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == (
            "invalid_json"
        )

    def test_unknown_path(self, server):
        status, body = request(server, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown_path"


class TestConcurrencyAndCaching:
    def test_concurrent_mixed_requests(self, server):
        """8 threads x 5 rounds across four endpoints, all must succeed."""
        failures = []

        def worker(worker_id):
            calls = [
                ("POST", "/alias", {"phrase": f"{worker_id} cups flour"}),
                (
                    "POST",
                    "/score",
                    {"ingredients": ["garlic", "onion", "basil"]},
                ),
                (
                    "POST",
                    "/classify",
                    {"ingredients": ["soy sauce", "rice"], "top": 2},
                ),
                (
                    "POST",
                    "/sql",
                    {
                        "query": (
                            "SELECT region_code FROM recipes "
                            f"LIMIT {1 + worker_id}"
                        )
                    },
                ),
            ]
            try:
                for _ in range(5):
                    for method, path, payload in calls:
                        status, body = request(server, method, path, payload)
                        if status != 200 or "error" in body:
                            failures.append((path, status, body))
            except Exception as error:  # pragma: no cover - failure path
                failures.append(("exception", str(error), None))

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_repeated_request_served_from_cache(self, server):
        payload = {"ingredients": ["garlic", "oregano", "tomato"]}
        _, before = request(server, "GET", "/metrics")
        hits_before = (
            before["endpoints"].get("score", {}).get("cache_hits", 0)
        )
        _, first = request(server, "POST", "/score", payload)
        _, second = request(server, "POST", "/score", payload)
        # Same cached result, fresh correlation id per response.
        assert first.pop("request_id") != second.pop("request_id")
        assert first == second
        _, after = request(server, "GET", "/metrics")
        assert (
            after["endpoints"]["score"]["cache_hits"] >= hits_before + 1
        )
        assert after["cache"]["hits"] >= 1

    def test_metrics_latency_fields(self, server):
        request(server, "GET", "/healthz")
        _, body = request(server, "GET", "/metrics")
        healthz = body["endpoints"]["healthz"]
        assert healthz["requests"] >= 1
        latency = healthz["latency"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]

    def test_metrics_prometheus_over_http(self, server):
        request(server, "GET", "/healthz")
        req = urllib.request.Request(
            server.url + "/metrics?format=prometheus", method="GET"
        )
        with urllib.request.urlopen(req, timeout=30) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="healthz"}' in text
        # Exposition sanity: no blank interior lines, samples parse.
        for line in text.strip().splitlines():
            assert line
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_metrics_query_string_json_still_works(self, server):
        status, body = request(server, "GET", "/metrics?format=json")
        assert status == 200
        assert "endpoints" in body


class TestRequestIdOverHttp:
    @staticmethod
    def _raw(server, path, headers=None, method="GET"):
        req = urllib.request.Request(
            server.url + path, headers=headers or {}, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return (
                    response.status,
                    response.headers,
                    json.loads(response.read()),
                )
        except urllib.error.HTTPError as error:
            return error.code, error.headers, json.loads(error.read())

    def test_header_generated_when_absent(self, server):
        status, headers, body = self._raw(server, "/healthz")
        assert status == 200
        rid = headers["X-Request-Id"]
        assert rid
        assert body["request_id"] == rid

    def test_supplied_header_echoed(self, server):
        status, headers, body = self._raw(
            server, "/healthz", {"X-Request-Id": "curl-abc.1"}
        )
        assert status == 200
        assert headers["X-Request-Id"] == "curl-abc.1"
        assert body["request_id"] == "curl-abc.1"

    def test_invalid_header_replaced_not_echoed(self, server):
        status, headers, body = self._raw(
            server, "/healthz", {"X-Request-Id": "bad id with spaces"}
        )
        assert status == 200
        assert headers["X-Request-Id"] != "bad id with spaces"
        assert body["request_id"] == headers["X-Request-Id"]

    def test_error_response_carries_header(self, server):
        status, headers, body = self._raw(
            server, "/nope", {"X-Request-Id": "err-http-1"}
        )
        assert status == 404
        assert headers["X-Request-Id"] == "err-http-1"
        assert body["request_id"] == "err-http-1"

    def test_parse_error_carries_header(self, server):
        req = urllib.request.Request(
            server.url + "/score",
            data=b"{broken",
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": "parse-err-1",
            },
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["request_id"] == "parse-err-1"
        assert excinfo.value.headers["X-Request-Id"] == "parse-err-1"


class TestReadyzOverHttp:
    def test_warmed_server_is_ready(self, server):
        # The module fixture serves real traffic before this test runs,
        # so all lazy artefacts are built by now.
        server.app.service.warm()
        status, body = request(server, "GET", "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["components"]["database"] is True
