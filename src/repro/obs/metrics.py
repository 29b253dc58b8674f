"""Process-wide metrics: named counters, gauges and histograms.

The registry generalises what ``repro.service.metrics`` used to keep
private: monotonic counters, point-in-time gauges, and histograms backed
by a fixed-size latency reservoir (the most recent
:data:`RESERVOIR_SIZE` observations) from which percentiles derive — a
sliding-window view that stays O(1) memory no matter the request volume.

Series are keyed by ``(name, labels)``, Prometheus-style::

    registry = get_registry()
    registry.counter("repro_requests_total", endpoint="score").incr()
    registry.histogram("repro_request_seconds", endpoint="score").observe(dt)
    print(registry.render_prometheus())

:meth:`MetricsRegistry.render_prometheus` emits the text exposition
format (``# TYPE`` headers, escaped label values, cumulative
``_bucket``/``_sum``/``_count`` lines for histograms) served by
``GET /metrics?format=prometheus``.

The registry is per process and nothing merges registries across the
process pool: a pooled task returns what it counted in its result, and
the caller records it (see :mod:`repro.obs.snapshot`).
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import re
import threading
from typing import Any

__all__ = [
    "DEFAULT_BUCKETS",
    "PERCENTILES",
    "RESERVOIR_SIZE",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "MetricSeries",
    "MetricsRegistry",
    "get_registry",
    "percentile",
    "render_prometheus",
]

#: Observations retained per histogram (a sliding window).
RESERVOIR_SIZE = 2048

#: Percentiles exposed by snapshots, as fractions.
PERCENTILES = (0.50, 0.95, 0.99)

#: Default histogram bucket upper bounds. Deliberately wide (sub-ms
#: request latencies in seconds up through multi-second stage builds in
#: milliseconds share one registry); ``+Inf`` is implicit.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0,
)


def percentile(sorted_samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sample list."""
    if not sorted_samples:
        return 0.0
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = fraction * (len(sorted_samples) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_samples[low]
    weight = rank - low
    return sorted_samples[low] * (1 - weight) + sorted_samples[high] * weight


class Counter:
    """A monotonically-increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0

    def incr(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclasses.dataclass(frozen=True)
class HistogramStats:
    """Summary of one histogram.

    Attributes:
        count: total observations ever (beyond the window).
        total: sum of all observations ever.
        mean: mean over the retained window.
        p50/p95/p99: percentiles over the retained window; 0.0 when empty.
    """

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, Any]:
        """The window in the unit the histogram observes, which its
        name's suffix states (``*_seconds``, ``*_ms``)."""
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "p50": round(self.p50, 6),
            "p95": round(self.p95, 6),
            "p99": round(self.p99, 6),
        }


class Histogram:
    """Ring-buffer reservoir of the most recent observations.

    Total count, sum and per-bucket counts are exact for the process
    lifetime; mean and percentiles are computed over the retained window
    only. Bucket bounds (:data:`DEFAULT_BUCKETS` unless overridden at
    registration) back the cumulative ``_bucket`` lines of the
    Prometheus histogram exposition.
    """

    __slots__ = (
        "_lock", "_samples", "_next_slot", "_count", "_total", "_size",
        "_bounds", "_bucket_counts",
    )

    def __init__(
        self,
        reservoir_size: int = RESERVOIR_SIZE,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._next_slot = 0
        self._count = 0
        self._total = 0.0
        self._size = reservoir_size
        self._bounds = tuple(sorted(buckets))
        # One slot per bound plus the +Inf overflow slot; non-cumulative
        # here, accumulated into "le" form only at render time.
        self._bucket_counts = [0] * (len(self._bounds) + 1)

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._total += value
            self._bucket_counts[bisect.bisect_left(self._bounds, value)] += 1
            if len(self._samples) < self._size:
                self._samples.append(value)
            else:  # overwrite the oldest sample (ring buffer)
                self._samples[self._next_slot] = value
                self._next_slot = (self._next_slot + 1) % self._size

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket observation counts (non-cumulative; last is +Inf)."""
        with self._lock:
            return tuple(self._bucket_counts)

    def stats(self) -> HistogramStats:
        with self._lock:
            window = sorted(self._samples)
            count, total = self._count, self._total
        mean = sum(window) / len(window) if window else 0.0
        p50, p95, p99 = (percentile(window, f) for f in PERCENTILES)
        return HistogramStats(
            count=count, total=total, mean=mean, p50=p50, p95=p95, p99=p99
        )


@dataclasses.dataclass(frozen=True)
class MetricSeries:
    """One (name, labels) series as returned by :meth:`collect`."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: dict[str, str]
    metric: Counter | Gauge | Histogram


_LabelKey = tuple[tuple[str, str], ...]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _sanitize_name(name: str) -> str:
    if _NAME_OK.match(name):
        return name
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """Thread-safe get-or-create registry of metric series.

    A metric name is bound to one kind on first use; asking for the same
    name with a different kind raises ``ValueError`` (mixed-kind series
    would make the exposition ambiguous).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        self._series: dict[tuple[str, _LabelKey], MetricSeries] = {}

    def _get_or_create(
        self, name: str, kind: str, labels: dict[str, Any], factory: Any
    ) -> Any:
        name = _sanitize_name(name)
        key = (name, _label_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing_kind}, not {kind}"
                )
            series = self._series.get(key)
            if series is None:
                self._kinds[name] = kind
                series = MetricSeries(
                    name=name,
                    kind=kind,
                    labels={k: str(v) for k, v in labels.items()},
                    metric=factory(),
                )
                self._series[key] = series
            return series.metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, "gauge", labels, Gauge)

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        factory = (
            Histogram
            if buckets is None
            else (lambda: Histogram(buckets=tuple(buckets)))
        )
        return self._get_or_create(name, "histogram", labels, factory)

    def collect(self) -> list[MetricSeries]:
        """All series, sorted by (name, labels) for stable output."""
        with self._lock:
            return [
                self._series[key] for key in sorted(self._series)
            ]

    def label_values(self, name: str, label: str) -> tuple[str, ...]:
        """Distinct values one label takes across a metric's series."""
        name = _sanitize_name(name)
        values = {
            series.labels[label]
            for series in self.collect()
            if series.name == name and label in series.labels
        }
        return tuple(sorted(values))

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump of every series (debugging / tests)."""
        body: dict[str, Any] = {}
        for series in self.collect():
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(series.labels.items())
            )
            key = f"{series.name}{{{label_text}}}" if label_text else series.name
            if isinstance(series.metric, Histogram):
                body[key] = series.metric.stats().as_dict()
            else:
                body[key] = series.metric.value
        return body

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format for every series."""
        return render_prometheus(self.collect())


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format spec."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    return _format_value(bound)


def render_prometheus(series_list: list[MetricSeries]) -> str:
    """Render collected series as Prometheus text exposition.

    Histograms use the native histogram exposition: cumulative
    ``_bucket{le="..."}`` lines (``+Inf`` equal to ``_count``), an exact
    lifetime ``_sum`` and ``_count`` — not summary quantiles, so series
    from several processes can be aggregated server-side.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for series in series_list:
        if series.name not in seen_types:
            lines.append(f"# TYPE {series.name} {series.kind}")
            seen_types.add(series.name)
        if isinstance(series.metric, Histogram):
            stats = series.metric.stats()
            cumulative = 0
            for bound, bucket_count in zip(
                series.metric.bounds + (math.inf,),
                series.metric.bucket_counts(),
            ):
                cumulative += bucket_count
                labels = dict(series.labels)
                labels["le"] = _format_bound(bound)
                lines.append(
                    f"{series.name}_bucket{_format_labels(labels)} "
                    f"{cumulative}"
                )
            suffix_labels = _format_labels(series.labels)
            lines.append(
                f"{series.name}_sum{suffix_labels} "
                f"{_format_value(stats.total)}"
            )
            lines.append(
                f"{series.name}_count{suffix_labels} {stats.count}"
            )
        else:
            lines.append(
                f"{series.name}{_format_labels(series.labels)} "
                f"{_format_value(series.metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry pipeline instrumentation reports into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY
