"""``repro.obs`` — the unified observability layer: tracing, metrics, logs.

Every layer of the reproduction (corpus generation, aliasing, workspace
assembly, null-model sampling, the HTTP service) reports into this one
package, so a full-scale run is no longer a black box. Three primitives:

**Tracing** (:mod:`repro.obs.trace`)
    Nested spans with wall *and* CPU time, attributes and counters::

        from repro.obs import span, configure_tracing, get_tracer

        configure_tracing(True)
        with span("aliasing.match_recipe", region="ITA") as sp:
            ...
            sp.incr("phrases_exact", 12)

        tracer = get_tracer()
        print(tracer.render_tree())      # human-readable timing tree
        tracer.write("trace.jsonl")      # one JSON object per span
        tracer.write("trace.json")       # chrome://tracing / Perfetto

    Tracing is off by default; instrumented hot paths then execute a
    single attribute check (the span object is a shared no-op). The
    ``repro`` CLI exposes it as ``--trace`` (print the tree) and
    ``--trace-out PATH`` (write the artifact; format by suffix).

    Reading the tree: each line is ``name  wall_ms (cpu cpu_ms)
    key=value ...``, children indented under their parent. Wall >> CPU
    means the span waited (locks, I/O); counters such as ``recipes`` or
    ``samples_per_sec`` quantify the work done inside it.

**Metrics** (:mod:`repro.obs.metrics`)
    A process-global registry of named counters, gauges and ring-buffer
    histograms (sliding-window percentiles, O(1) memory)::

        from repro.obs import get_registry

        registry = get_registry()
        registry.counter("repro_aliasing_phrases_total", kind="exact").incr()
        registry.histogram("repro_request_seconds", endpoint="score").observe(dt)
        print(registry.render_prometheus())   # text exposition format

    The service's per-endpoint metrics (``repro.service.metrics``) are a
    thin wrapper over this registry; ``GET /metrics?format=prometheus``
    serves the exposition text.

**Structured logging** (:mod:`repro.obs.logs`)
    ``get_logger(name)`` emits ``key=value`` lines (or JSON lines with
    ``--log-json``) carrying ``trace_id``/``span`` correlation ids when a
    span is open — so a log record can be tied back to its place in the
    span tree. ``--log-level debug`` surfaces the per-chunk sampling
    heartbeats of the 100k-sample null-model loops.
"""

from .logs import StructLogger, bound_log_fields, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    PERCENTILES,
    RESERVOIR_SIZE,
    Counter,
    Gauge,
    Histogram,
    HistogramStats,
    MetricsRegistry,
    get_registry,
    percentile,
    render_prometheus,
)
from .profile import ProfileBusyError, SamplingProfiler
from .snapshot import (
    TelemetrySnapshot,
    TraceContext,
    begin_worker_capture,
    capture_context,
    finish_worker_capture,
    merge_snapshot,
    merge_snapshots,
)
from .trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    configure_tracing,
    current_span,
    get_tracer,
    span,
    traced,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "PERCENTILES",
    "RESERVOIR_SIZE",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ProfileBusyError",
    "SamplingProfiler",
    "Span",
    "StructLogger",
    "TelemetrySnapshot",
    "TraceContext",
    "Tracer",
    "begin_worker_capture",
    "bound_log_fields",
    "capture_context",
    "configure_logging",
    "configure_tracing",
    "current_span",
    "finish_worker_capture",
    "get_logger",
    "get_registry",
    "get_tracer",
    "merge_snapshot",
    "merge_snapshots",
    "percentile",
    "render_prometheus",
    "span",
    "traced",
]
