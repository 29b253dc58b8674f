"""Tests for request coalescing through ``ServiceApp.dispatch``.

The contract: N identical in-flight cacheable requests trigger exactly
one handler computation; the other N-1 receive the leader's result and
are counted in ``repro_service_coalesced_total``. Distinct payloads must
never coalesce. Coalescing is the result cache's single flight (tested
on its own in ``tests/test_service_cache.py``); these tests prove it
through dispatch under real thread concurrency with a counting stub
service.
"""

import threading

from repro.service import ServiceApp
from repro.service.handlers import RequestError
from repro.service.metrics import COALESCED
from tests.test_service_cache import SignallingCache


class CountingService:
    """A /score stub that counts invocations and blocks on a gate.

    The gate holds the leader inside the handler until the test has
    seen every concurrent caller take its role in the result cache — no
    sleep-based timing, so the coalesce-vs-recompute split is
    deterministic.
    """

    def __init__(self):
        self.calls = 0
        self.gate = threading.Event()
        self._lock = threading.Lock()

    def handle_score(self, payload):
        with self._lock:
            self.calls += 1
        assert self.gate.wait(timeout=10), "test gate never opened"
        return {"score": 1.0, "ingredients": sorted(payload["ingredients"])}


class FailingService(CountingService):
    def handle_score(self, payload):
        with self._lock:
            self.calls += 1
        assert self.gate.wait(timeout=10)
        raise RequestError(404, "unknown_ingredient", "no such ingredient")


def _app_with(service):
    cache = SignallingCache(capacity=16)
    return ServiceApp(service, cache=cache), cache


def _coalesced(app):
    return app.metrics.registry.counter(COALESCED, endpoint="score").value


def _fire_concurrently(app, payloads):
    """Dispatch each payload on its own thread; returns threads+slots."""
    results = [None] * len(payloads)

    def call(index, payload):
        results[index] = app.dispatch("POST", "/score", payload)

    threads = [
        threading.Thread(target=call, args=(i, p))
        for i, p in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    return threads, results


class TestCoalescingThroughDispatch:
    N = 8

    def test_identical_cold_requests_invoke_handler_once(self):
        service = CountingService()
        app, cache = _app_with(service)
        payload = {"ingredients": ["garlic", "onion"]}
        threads, results = _fire_concurrently(
            app, [dict(payload) for _ in range(self.N)]
        )
        cache.await_entries(self.N)
        service.gate.set()
        for thread in threads:
            thread.join(timeout=10)

        assert service.calls == 1
        assert _coalesced(app) == self.N - 1
        assert (
            app.metrics.registry.counter(
                "repro_service_handler_calls_total", endpoint="score"
            ).value
            == 1
        )
        bodies = []
        for status, body in results:
            assert status == 200
            body = dict(body)
            assert body.pop("request_id")
            bodies.append(body)
        assert all(body == bodies[0] for body in bodies)

    def test_distinct_payloads_never_coalesce(self):
        service = CountingService()
        app, cache = _app_with(service)
        payloads = [
            {"ingredients": ["garlic", f"item-{n}"]} for n in range(4)
        ]
        threads, results = _fire_concurrently(app, payloads)
        cache.await_entries(len(payloads))
        service.gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert service.calls == len(payloads)
        assert _coalesced(app) == 0
        assert {status for status, _ in results} == {200}

    def test_followers_share_the_leaders_error_envelope(self):
        service = FailingService()
        app, cache = _app_with(service)
        payload = {"ingredients": ["kryptonite"]}
        threads, results = _fire_concurrently(
            app, [dict(payload) for _ in range(4)]
        )
        cache.await_entries(4)
        service.gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert service.calls == 1
        assert _coalesced(app) == 3
        for status, body in results:
            assert status == 404
            assert body["error"]["code"] == "unknown_ingredient"

    def test_sequential_requests_hit_cache_not_coalescer(self):
        service = CountingService()
        service.gate.set()
        app, cache = _app_with(service)
        payload = {"ingredients": ["garlic"]}
        app.dispatch("POST", "/score", payload)
        app.dispatch("POST", "/score", payload)
        assert service.calls == 1
        assert _coalesced(app) == 0
