"""Load bench for the serving stack: throughput, plus coalescing.

Boots the asyncio server in-process over one warmed ``QueryService`` and
drives it with the keep-alive load client from
:mod:`repro.service.loadtest`:

* **Throughput** — the ``spread`` mix (rotating ``/score`` payloads, all
  cacheable) at many keep-alive connections.
* **Compute reduction** — the ``hot`` mix (one identical ``/score``
  payload) against a cold-cache async app. Coalescing folds the opening
  burst into one handler run and the cache serves the rest, so
  ``requests / handler_calls`` must be at least ``MIN_COMPUTE_REDUCTION``
  (the coalesced counter from ``repro_service_coalesced_total`` is
  recorded alongside).

Numbers land in ``BENCH_service_load.json``; ``repro obs check`` gates
``requests_per_sec``/``p50_ms``/``p99_ms``/``*_speedup`` drift against
the committed baseline. ``REPRO_BENCH_SMOKE=1`` shrinks the connection
and request counts (CI smoke on small runners).
"""

import json
import os
from pathlib import Path

import pytest

from repro.service import (
    QueryService,
    ResultCache,
    ServiceApp,
    run_loadtest,
    serve_async_in_thread,
)
from repro.service.metrics import HANDLER_CALLS

#: Where the load table lands (repo root by default).
BENCH_OUT = Path(
    os.environ.get("REPRO_BENCH_OUT", "BENCH_service_load.json")
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Keep-alive connections per measured mix.
CONNECTIONS = 32 if SMOKE else 256

#: Requests per measured mix.
REQUESTS = 1_000 if SMOKE else 4_000

#: Hot-key mix must fold ≥ 5x of its compute into one handler run.
MIN_COMPUTE_REDUCTION = 5.0


@pytest.fixture(scope="module")
def service(workspace):
    svc = QueryService(workspace)
    svc.warm()  # artefacts built outside the timings
    return svc


def _drive_async(service, mix, connections, requests):
    app = ServiceApp(service, cache=ResultCache(capacity=1024))
    handle = serve_async_in_thread(app, max_connections=connections + 16)
    try:
        return app, run_loadtest(
            handle.server.url,
            mix=mix,
            connections=connections,
            requests=requests,
        )
    finally:
        assert handle.stop(), "async server failed to drain cleanly"


def _handler_calls(app, endpoint):
    for series in app.metrics.registry.collect():
        if (
            series.name == HANDLER_CALLS
            and series.labels.get("endpoint") == endpoint
        ):
            return int(series.metric.value)
    return 0


def test_bench_service_load(service):
    _, asynced = _drive_async(service, "spread", CONNECTIONS, REQUESTS)
    assert asynced.errors == 0, asynced.status_counts

    # Hot-key mix against a cold cache: the opening burst coalesces into
    # one computation, the cache serves everything after it.
    hot_app, hot = _drive_async(service, "hot", CONNECTIONS, REQUESTS)
    assert hot.errors == 0, hot.status_counts
    handler_calls = _handler_calls(hot_app, "score")
    assert handler_calls >= 1
    serving = hot_app.metrics.serving_snapshot()
    coalesced = serving["coalesced"].get("score", 0)
    reduction = hot.requests / handler_calls

    payload = {
        "benchmark": "service_load",
        "connections": CONNECTIONS,
        "requests_per_mix": REQUESTS,
        # The "_async" suffixes predate the single transport; renaming
        # the keys would drop them from the committed baseline's gate.
        "mixes": {
            "spread_async": asynced.as_dict(),
            "hot_async": hot.as_dict(),
        },
        "coalescing": {
            "requests": hot.requests,
            "handler_calls": handler_calls,
            "coalesced_requests": coalesced,
            "compute_reduction_speedup": round(reduction, 2),
        },
        "smoke": SMOKE,
    }
    BENCH_OUT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    # p99 sanity: keep-alive pipelines must not wedge behind the pool.
    assert asynced.p99_ms < 60_000
    assert reduction >= MIN_COMPUTE_REDUCTION, (
        f"hot-key mix only reduced compute {reduction:.1f}x "
        f"({handler_calls} handler calls for {hot.requests} requests)"
    )
