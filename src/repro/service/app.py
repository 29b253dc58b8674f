"""The service application: routing, caching, metrics and error envelopes.

:class:`ServiceApp` maps ``(method, path, payload)`` to a
``(status, body)`` pair. It owns the shared :class:`ResultCache` and
:class:`ServiceMetrics`; callers (the asyncio transport, tests, or a
future batching front-end) only ever call :meth:`ServiceApp.dispatch`.
Cacheable requests go through the cache's single flight, so N identical
in-flight requests run the handler once and the other N-1 share its
``(status, body)``, counted in ``repro_service_coalesced_total``.

Error responses use one structured envelope::

    {"error": {"code": "unknown_ingredient", "message": "..."},
     "status": 404, "request_id": "..."}

Every response — success or failure, cached or fresh — carries a
``request_id``: the validated ``X-Request-Id`` the client supplied, or a
generated one. The same id is bound to the dispatch span and to every
structured log line emitted while the request is being served, so one
grep correlates a client-reported failure across logs, trace and body.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import re
import time
import traceback
from typing import Any, Callable

from ..datamodel import ReproError
from ..obs import NOOP_SPAN, bound_log_fields, get_registry, get_tracer, span

#: The tracer singleton, bound once: ``configure_tracing`` mutates its
#: ``enabled`` flag in place, so dispatch can check one attribute.
_TRACER = get_tracer()
from ..lru import MISSING, ResultCache
from .cache import canonical_key
from .handlers import QueryService, RequestError
from .metrics import COALESCED, ServiceMetrics


@dataclasses.dataclass(frozen=True)
class Route:
    """One endpoint: its method, handler name and cache policy.

    Attributes:
        method: HTTP method (``GET`` or ``POST``).
        handler: ``QueryService`` method name serving the route.
        cacheable: whether responses may be served from the result cache
            (introspection endpoints must always be recomputed).
    """

    method: str
    handler: str
    cacheable: bool


#: path -> route table. POST endpoints take a JSON body; GET endpoints
#: ignore any body.
ROUTES: dict[str, Route] = {
    "/healthz": Route("GET", "handle_healthz", cacheable=False),
    "/readyz": Route("GET", "handle_readyz", cacheable=False),
    "/metrics": Route("GET", "handle_metrics", cacheable=False),
    "/debug/profile": Route("GET", "handle_debug_profile", cacheable=False),
    "/regions": Route("GET", "handle_regions", cacheable=True),
    "/stats": Route("GET", "handle_stats", cacheable=True),
    "/alias": Route("POST", "handle_alias", cacheable=True),
    "/score": Route("POST", "handle_score", cacheable=True),
    "/classify": Route("POST", "handle_classify", cacheable=True),
    "/pairings": Route("POST", "handle_pairings", cacheable=True),
    "/similar": Route("POST", "handle_similar", cacheable=True),
    "/complete": Route("POST", "handle_complete", cacheable=True),
    "/recommend": Route("POST", "handle_recommend", cacheable=True),
    "/sql": Route("POST", "handle_sql", cacheable=True),
    "/montecarlo": Route("POST", "handle_montecarlo", cacheable=True),
}


def error_body(status: int, code: str, message: str) -> dict[str, Any]:
    """The structured error envelope every failure path uses."""
    return {"error": {"code": code, "message": message}, "status": status}


def _succeeded(response: tuple[int, Any]) -> bool:
    """Whether a computed ``(status, body)`` may enter the result cache."""
    return response[0] == 200


#: Client-supplied request ids must be short and log-safe; anything else
#: is discarded and replaced (never echoed — that would be log injection).
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

#: Generated ids: one random process prefix plus a counter. Two orders
#: of magnitude cheaper than uuid4 — this runs on every request even
#: with all observability off.
_RID_PREFIX = f"{os.getpid():x}-{os.urandom(4).hex()}"
_RID_COUNTER = itertools.count(1)


def generate_request_id() -> str:
    """A fresh process-unique request id (``<pid>-<rand>-<seq>``)."""
    return f"{_RID_PREFIX}-{next(_RID_COUNTER):06x}"


def resolve_request_id(supplied: Any) -> str:
    """The id to serve a request under: the client's when valid, else new.

    Idempotent — resolving an already-resolved id returns it unchanged,
    so transport and app layers can both call it safely.
    """
    if isinstance(supplied, str) and _REQUEST_ID_RE.match(supplied):
        return supplied
    return generate_request_id()


@dataclasses.dataclass(frozen=True)
class PlainTextResponse:
    """A non-JSON response body (Prometheus exposition text).

    The transport checks for this type and sends ``text`` verbatim with
    ``content_type`` instead of JSON-encoding the body.
    """

    text: str
    content_type: str = "text/plain; version=0.0.4; charset=utf-8"


class ServiceApp:
    """Dispatches requests to a :class:`QueryService` with caching/metrics."""

    def __init__(
        self,
        service: QueryService,
        cache: ResultCache | None = None,
        metrics: ServiceMetrics | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.service = service
        self.cache = cache if cache is not None else ResultCache()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._clock = clock

    def dispatch(
        self,
        method: str,
        path: str,
        payload: Any = None,
        request_id: str | None = None,
        _trace: Any = NOOP_SPAN,
    ) -> tuple[int, dict[str, Any] | PlainTextResponse]:
        """Serve one request; never raises.

        Returns:
            ``(http status, JSON-ready body)`` — or, for
            ``/metrics?format=prometheus``, a :class:`PlainTextResponse`.
            Dict bodies always carry the request's ``request_id``
            (supplied and valid, or generated here).
        """
        # With tracing disabled (the default) this costs two identity
        # checks — no span object, no kwargs dict, no extra call frame.
        # When enabled, open the dispatch span and re-enter with it bound.
        traced = _trace is not NOOP_SPAN
        if not traced and _TRACER.enabled:
            with span("service.dispatch", method=method, path=path) as open_span:
                return self.dispatch(
                    method, path, payload, request_id, _trace=open_span
                )
        rid = resolve_request_id(request_id)
        if traced:
            _trace.set("request_id", rid)
        with bound_log_fields(request_id=rid):
            status, body = self._dispatch_request(
                method, path, payload, _trace, traced
            )
        if isinstance(body, dict):
            # Shallow copy: the cache holds the id-free body, every
            # response gets its own correlation id.
            body = {**body, "request_id": rid}
        return status, body

    def _dispatch_request(
        self,
        method: str,
        path: str,
        payload: Any,
        _trace: Any,
        traced: bool,
    ) -> tuple[int, dict[str, Any] | PlainTextResponse]:
        trace = _trace
        started = self._clock()
        route = ROUTES.get(path)
        if route is None:
            status, body = 404, error_body(
                404, "unknown_path", f"no such endpoint: {path}"
            )
            if traced:
                trace.set("status", status)
            self.metrics.observe(
                "(unknown)", self._clock() - started, error=True
            )
            return status, body
        endpoint = path.lstrip("/")
        if traced:
            trace.set("endpoint", endpoint)
        if method != route.method:
            status, body = 405, error_body(
                405,
                "method_not_allowed",
                f"{path} requires {route.method}, got {method}",
            )
            if traced:
                trace.set("status", status)
            self.metrics.observe(
                endpoint, self._clock() - started, error=True
            )
            return status, body

        cache_hit = False
        coalesced = False
        body: dict[str, Any] | PlainTextResponse
        try:
            if route.handler == "handle_metrics":
                status, body = self._dispatch_metrics(payload)
            elif route.cacheable:
                # Only successes are stored; followers of a failed leader
                # still share its error envelope.
                (status, body), source = self.cache.get_or_compute(
                    canonical_key(endpoint, payload),
                    lambda: self._invoke(route, endpoint, payload),
                    keep=_succeeded,
                )
                cache_hit = source == "hit"
                coalesced = source == "shared"
                if coalesced:
                    self.metrics.registry.counter(
                        COALESCED, endpoint=endpoint
                    ).incr()
            else:
                status, body = self._invoke(route, endpoint, payload)
                if (
                    route.handler == "handle_readyz"
                    and isinstance(body, dict)
                    and not body.get("ready", True)
                ):
                    # Not an error envelope: the body carries the full
                    # per-stage state; 503 tells load balancers to wait.
                    status = 503
        except Exception as error:  # noqa: BLE001 - must not die
            traceback.print_exc()
            status, body = 500, error_body(
                500, "internal_error", f"{type(error).__name__}: {error}"
            )
        if traced:
            trace.set("status", status)
            trace.set("cache_hit", cache_hit)
            trace.set("coalesced", coalesced)
        self.metrics.observe(
            endpoint,
            self._clock() - started,
            error=status >= 400,
            cache_hit=cache_hit,
        )
        return status, body

    def _invoke(
        self, route: Route, endpoint: str, payload: Any
    ) -> tuple[int, dict[str, Any]]:
        """Run one handler with error-envelope mapping; never raises.

        This is the single compute core both the cacheable (coalesced)
        and non-cacheable paths share; the handler-calls counter makes
        actual compute distinguishable from cache/coalesce traffic.
        """
        self.metrics.handler_call(endpoint)
        try:
            return 200, getattr(self.service, route.handler)(payload)
        except RequestError as error:
            return error.status, error_body(
                error.status, error.code, str(error)
            )
        except ReproError as error:
            return 400, error_body(
                400, type(error).__name__.lower(), str(error)
            )
        except Exception as error:  # noqa: BLE001 - must not die
            traceback.print_exc()
            return 500, error_body(
                500, "internal_error", f"{type(error).__name__}: {error}"
            )

    def dispatch_cached(
        self,
        method: str,
        path: str,
        payload: Any = None,
        request_id: str | None = None,
    ) -> tuple[int, dict[str, Any]] | None:
        """Serve a request *only* if it is a clean result-cache hit.

        The asyncio transport probes this on the event loop before
        paying the executor handoff: a hit costs one lock acquisition
        and a dict copy, so serving it inline is faster than descending
        into the thread pool. Anything else — uncached, non-cacheable,
        wrong method, tracing enabled (spans must stay complete) —
        returns ``None`` and the caller falls back to full dispatch.
        The probe counts no miss: that dispatch looks the key up again
        and counts it there, so each request is one hit or one miss.
        """
        if _TRACER.enabled:
            return None
        route = ROUTES.get(path)
        if route is None or not route.cacheable or method != route.method:
            return None
        started = self._clock()
        endpoint = path.lstrip("/")
        cached = self.cache.probe(canonical_key(endpoint, payload))
        if cached is MISSING:
            return None
        status, body = cached
        rid = resolve_request_id(request_id)
        self.metrics.observe(
            endpoint, self._clock() - started, cache_hit=True
        )
        return status, {**body, "request_id": rid}

    def _dispatch_metrics(
        self, payload: Any
    ) -> tuple[int, dict[str, Any] | PlainTextResponse]:
        """Serve ``/metrics``: JSON by default, ``?format=prometheus`` text."""
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt in (None, "json"):
            return 200, self._metrics_body()
        if fmt == "prometheus":
            return 200, PlainTextResponse(self._prometheus_body())
        return 400, error_body(
            400,
            "invalid_field",
            f"unknown metrics format {fmt!r} (expected json or prometheus)",
        )

    def _metrics_body(self) -> dict[str, Any]:
        return {
            "endpoints": self.metrics.snapshot(),
            "serving": self.metrics.serving_snapshot(),
            "cache": self.cache.stats().as_dict(),
        }

    def _prometheus_body(self) -> str:
        """Exposition text: this app's series, cache gauges, global registry."""
        parts = [self.metrics.render_prometheus()]
        cache = self.cache.stats()
        cache_lines = [
            "# TYPE repro_cache_entries gauge",
            f"repro_cache_entries {cache.size}",
            "# TYPE repro_cache_hits gauge",
            f"repro_cache_hits {cache.hits}",
            "# TYPE repro_cache_misses gauge",
            f"repro_cache_misses {cache.misses}",
            "# TYPE repro_cache_evictions gauge",
            f"repro_cache_evictions {cache.evictions}",
            "# TYPE repro_cache_hit_rate gauge",
            f"repro_cache_hit_rate {round(cache.hit_rate, 4)}",
        ]
        parts.append("\n".join(cache_lines) + "\n")
        global_registry = get_registry()
        if global_registry is not self.metrics.registry:
            parts.append(global_registry.render_prometheus())
        return "".join(part for part in parts if part)
