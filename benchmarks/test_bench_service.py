"""Throughput benches for the serving layer.

Measures the request path the HTTP transport sits on: cold handler
dispatch (cache bypassed), cached dispatch (the LRU hit path a warm
server serves most traffic from), and the result-cache primitive itself.
The cold/cached gap is the speedup the cache buys on repeated queries.
"""

import pytest

from repro.lru import MISSING
from repro.service import QueryService, ResultCache, ServiceApp


@pytest.fixture(scope="module")
def service(workspace):
    svc = QueryService(workspace)
    svc.warm()  # build the classifier and CulinaryDB outside the timings
    return svc


SCORE_PAYLOAD = {"ingredients": ["garlic", "onion", "tomato", "basil"]}
SQL_PAYLOAD = {
    "query": (
        "SELECT region_code, COUNT(*) AS n FROM recipes "
        "GROUP BY region_code ORDER BY n DESC LIMIT 5"
    )
}


class TestBenchDispatch:
    def test_bench_score_cold(self, benchmark, service):
        app = ServiceApp(service)

        def run():
            # Clearing the cache each call keeps this on the cold path:
            # phrase resolution + N_s scoring end to end.
            status, _ = app.dispatch("POST", "/score", SCORE_PAYLOAD)
            app.cache.clear()
            return status

        assert benchmark(run) == 200

    def test_bench_score_cached(self, benchmark, service):
        app = ServiceApp(service)
        app.dispatch("POST", "/score", SCORE_PAYLOAD)  # prime

        def run():
            status, body = app.dispatch("POST", "/score", SCORE_PAYLOAD)
            return status

        assert benchmark(run) == 200
        assert app.cache.stats().hits > 0

    def test_bench_classify_cold(self, benchmark, service):
        app = ServiceApp(service)
        payload = {"ingredients": ["soy sauce", "ginger", "rice"], "top": 3}

        def run():
            status, _ = app.dispatch("POST", "/classify", payload)
            app.cache.clear()
            return status

        assert benchmark(run) == 200

    def test_bench_sql_cold(self, benchmark, service):
        app = ServiceApp(service)

        def run():
            status, _ = app.dispatch("POST", "/sql", SQL_PAYLOAD)
            app.cache.clear()
            return status

        assert benchmark(run) == 200

    def test_bench_alias_cold(self, benchmark, service):
        app = ServiceApp(service)
        payload = {"phrase": "2 ripe jalapeno peppers, roasted and slit"}

        def run():
            status, _ = app.dispatch("POST", "/alias", payload)
            app.cache.clear()
            return status

        assert benchmark(run) == 200


class TestBenchCachePrimitive:
    def test_bench_cache_hit(self, benchmark):
        cache = ResultCache(capacity=1024)
        cache.put("hot", {"score": 1.0})

        def run():
            return cache.get("hot")

        assert benchmark(run) == {"score": 1.0}

    def test_bench_cache_churn(self, benchmark):
        cache = ResultCache(capacity=256)

        def run():
            for index in range(512):
                key = f"k{index}"
                if cache.get(key) is MISSING:
                    cache.put(key, index)
            return len(cache)

        assert benchmark(run) == 256
