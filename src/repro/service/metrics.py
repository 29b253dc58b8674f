"""Per-endpoint request metrics: counters and latency percentiles.

Since the ``repro.obs`` observability layer landed, this module is a thin
wrapper: the ring-buffer reservoir and percentile code that used to live
here was generalised into :mod:`repro.obs.metrics`, and
:class:`ServiceMetrics` now just maintains a conventional set of series
in a :class:`~repro.obs.metrics.MetricsRegistry`:

* ``repro_requests_total{endpoint=...}`` — requests dispatched,
* ``repro_request_errors_total{endpoint=...}`` — 4xx/5xx responses,
* ``repro_cache_hits_total{endpoint=...}`` — responses from the cache,
* ``repro_request_seconds{endpoint=...}`` — latency histogram
  (sliding-window p50/p95/p99 over the most recent
  :data:`~repro.obs.metrics.RESERVOIR_SIZE` samples).

The JSON ``/metrics`` body, the ``--stats`` shutdown table and the
Prometheus exposition (``/metrics?format=prometheus``) all derive from
the same registry.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..obs.metrics import MetricsRegistry

REQUESTS = "repro_requests_total"
ERRORS = "repro_request_errors_total"
CACHE_HITS = "repro_cache_hits_total"
LATENCY = "repro_request_seconds"

# Serving-layer series (admission + coalescing + dispatch). The names
# live here so every layer registers into the same conventional set and
# ``/metrics`` can enumerate them without creating empty series.
#: Gauge: requests currently executing, per endpoint.
INFLIGHT = "repro_service_inflight"
#: Gauge: requests waiting in the admission queue, per endpoint.
QUEUE_DEPTH = "repro_service_queue_depth"
#: Counter: requests rejected by admission, per endpoint and reason.
REJECTED = "repro_service_rejected_total"
#: Counter: responses served from another request's in-flight
#: computation (the result cache's single flight).
COALESCED = "repro_service_coalesced_total"
#: Counter: actual handler invocations, per endpoint — requests minus
#: cache hits minus coalesced responses; the load test's compute proof.
HANDLER_CALLS = "repro_service_handler_calls_total"


@dataclasses.dataclass(frozen=True)
class LatencyStats:
    """Summary of one endpoint's latency window (seconds).

    Attributes:
        count: total requests observed (beyond the window).
        mean: mean latency over the window.
        p50/p95/p99: percentiles over the window; 0.0 when empty.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean_ms": round(self.mean * 1000, 3),
            "p50_ms": round(self.p50 * 1000, 3),
            "p95_ms": round(self.p95 * 1000, 3),
            "p99_ms": round(self.p99 * 1000, 3),
        }


class ServiceMetrics:
    """Thread-safe registry of per-endpoint metrics.

    Each instance owns its own :class:`MetricsRegistry` by default, so
    tests and embedded apps never share state; pass a registry to
    aggregate several apps into one exposition.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def observe(
        self,
        endpoint: str,
        seconds: float,
        error: bool = False,
        cache_hit: bool = False,
    ) -> None:
        """Record one request against ``endpoint``."""
        registry = self._registry
        registry.counter(REQUESTS, endpoint=endpoint).incr()
        if error:
            registry.counter(ERRORS, endpoint=endpoint).incr()
        if cache_hit:
            registry.counter(CACHE_HITS, endpoint=endpoint).incr()
        registry.histogram(LATENCY, endpoint=endpoint).observe(seconds)

    def handler_call(self, endpoint: str) -> None:
        """Record one actual handler invocation against ``endpoint``."""
        self._registry.counter(HANDLER_CALLS, endpoint=endpoint).incr()

    def endpoint_names(self) -> tuple[str, ...]:
        return self._registry.label_values(REQUESTS, "endpoint")

    def serving_snapshot(self) -> dict[str, Any]:
        """The serving-layer gauges/counters, JSON-ready.

        Enumerates existing series only (never creates empty ones), so
        a freshly-started server reports empty maps rather than zeros
        for endpoints it has not seen.
        """
        body: dict[str, Any] = {
            "inflight": {},
            "queue_depth": {},
            "coalesced": {},
            "handler_calls": {},
            "rejected": {},
        }
        keyed = {
            INFLIGHT: "inflight",
            QUEUE_DEPTH: "queue_depth",
            COALESCED: "coalesced",
            HANDLER_CALLS: "handler_calls",
        }
        for series in self._registry.collect():
            key = keyed.get(series.name)
            endpoint = series.labels.get("endpoint", "(unknown)")
            if key is not None:
                body[key][endpoint] = int(series.metric.value)
            elif series.name == REJECTED:
                reason = series.labels.get("reason", "(unknown)")
                body["rejected"].setdefault(endpoint, {})[reason] = int(
                    series.metric.value
                )
        return body

    def _count(self, name: str, endpoint: str) -> int:
        return int(self._registry.counter(name, endpoint=endpoint).value)

    def snapshot(self) -> dict[str, Any]:
        """All endpoints' counters and latency summaries, JSON-ready."""
        body: dict[str, Any] = {}
        for endpoint in self.endpoint_names():
            requests = self._count(REQUESTS, endpoint)
            cache_hits = self._count(CACHE_HITS, endpoint)
            stats = self._registry.histogram(LATENCY, endpoint=endpoint).stats()
            latency = LatencyStats(
                count=requests,
                mean=stats.mean,
                p50=stats.p50,
                p95=stats.p95,
                p99=stats.p99,
            )
            body[endpoint] = {
                "requests": requests,
                "errors": self._count(ERRORS, endpoint),
                "cache_hits": cache_hits,
                "hit_rate": round(cache_hits / requests, 4) if requests else 0.0,
                "latency": latency.as_dict(),
            }
        return body

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of this app's series."""
        return self._registry.render_prometheus()

    def render_summary(self) -> str:
        """Aligned text table of the snapshot (the ``--stats`` summary)."""
        snapshot = self.snapshot()
        if not snapshot:
            return "(no requests served)"
        headers = [
            "endpoint", "requests", "errors", "cache_hits", "hit_rate",
            "mean_ms", "p50_ms", "p95_ms", "p99_ms",
        ]
        rows = [
            [
                name,
                str(stats["requests"]),
                str(stats["errors"]),
                str(stats["cache_hits"]),
                f"{stats['hit_rate']:.2%}",
                f"{stats['latency']['mean_ms']:.3f}",
                f"{stats['latency']['p50_ms']:.3f}",
                f"{stats['latency']['p95_ms']:.3f}",
                f"{stats['latency']['p99_ms']:.3f}",
            ]
            for name, stats in snapshot.items()
        ]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows))
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(header.ljust(width) for header, width in zip(headers, widths))
        ]
        for row in rows:
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)
