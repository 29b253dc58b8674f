"""Query-serving subsystem: the repo's capabilities behind an HTTP JSON API.

The analyses, the aliasing pipeline, the cuisine classifier and the SQL
engine are all built for batch experiment runs; this package wraps a warm
:class:`~repro.experiments.ExperimentWorkspace` behind a request/response
API so the same capabilities serve interactive, query-driven workloads
("Kissing Cuisines" and the world-cuisine evolution papers both treat
recipe analytics as an online service).

The serving stack is layered; requests flow top to bottom:

* **transport** — :mod:`repro.service.aio`, the asyncio HTTP/1.1 front
  door (keep-alive, pipelining, Content-Length framing, connection
  limits, graceful drain).
* **admission** — :mod:`repro.service.admission`: bounded per-endpoint
  queues; sheds load with structured ``429``/``503`` envelopes.
* **dispatch** — :mod:`repro.service.app`: routing, caching, metrics,
  error envelopes; the sync core the transport calls, and that answers
  in-process without HTTP. Cacheable requests go through the result
  cache's single flight (:class:`~repro.lru.ResultCache`), so N
  identical in-flight requests trigger one handler computation.

Below dispatch sit :mod:`repro.service.handlers` (typed handlers over a
warm :class:`~repro.experiments.ExperimentWorkspace`),
:mod:`repro.service.requests` (one request spec per endpoint),
:mod:`repro.service.cache` (result-cache keys) and
:mod:`repro.service.metrics` (per-endpoint counters/latency plus the
serving gauges). :mod:`repro.service.loadtest` is the matching load
harness (``repro loadtest``).

``repro serve`` (see :mod:`repro.cli`) builds the workspace once and
serves it until interrupted; SIGTERM drains gracefully.
"""

from ..lru import CacheStats, ResultCache
from .admission import AdmissionController, AdmissionLimits, AdmissionReject
from .aio import AsyncServerHandle, AsyncServiceServer, serve_async_in_thread
from .app import (
    ROUTES,
    PlainTextResponse,
    ServiceApp,
    generate_request_id,
    resolve_request_id,
)
from .cache import canonical_key
from .handlers import QueryService, RequestError
from .loadtest import LoadClient, LoadReport, run_loadtest
from .metrics import LatencyStats, ServiceMetrics

__all__ = [
    "ROUTES",
    "AdmissionController",
    "AdmissionLimits",
    "AdmissionReject",
    "AsyncServerHandle",
    "AsyncServiceServer",
    "PlainTextResponse",
    "ServiceApp",
    "CacheStats",
    "LoadClient",
    "LoadReport",
    "ResultCache",
    "canonical_key",
    "QueryService",
    "RequestError",
    "LatencyStats",
    "ServiceMetrics",
    "generate_request_id",
    "resolve_request_id",
    "run_loadtest",
    "serve_async_in_thread",
]
