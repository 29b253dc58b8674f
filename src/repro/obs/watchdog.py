"""Perf-regression watchdog over committed ``BENCH_*.json`` baselines.

Every optimisation PR in this repo commits a ``BENCH_<name>.json``
snapshot of its benchmark results. This module turns those files from
documentation into a gate: :func:`check_benchmarks` flattens a fresh
results file and its committed baseline into dotted metric paths,
classifies each metric's *direction* from its name (``*_seconds`` —
lower is better; ``*speedup*`` — higher is better; counts and sizes are
configuration, not performance, and are ignored), and fails when a
metric moved the wrong way by more than its tolerance.

The CLI front-end is ``repro obs check``; CI runs it against freshly
produced results and publishes the machine-readable verdict JSON.
Tolerances are deliberately generous by default (30%) — shared CI boxes
are noisy, and the watchdog's job is catching the 2x cliff nobody
noticed, not flagging scheduler jitter.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
from collections.abc import Mapping
from typing import Any

__all__ = [
    "DEFAULT_TOLERANCE",
    "BenchComparison",
    "MetricVerdict",
    "WatchdogReport",
    "check_benchmarks",
    "classify_direction",
    "compare_documents",
    "flatten_metrics",
]

#: Allowed relative slip in the bad direction before a metric fails.
DEFAULT_TOLERANCE = 0.30

#: Guards against division blow-ups on near-zero baselines: metrics
#: whose baseline is below this many units are compared absolutely (a
#: move in the good direction never fails; a move in the bad direction
#: fails beyond the tolerance, read in the metric's own units).
_ABS_FLOOR = 1e-6

_LOWER_BETTER_MARKERS = (
    "seconds",
    "elapsed",
    "latency",
    "overhead",
    "_ms",
    "bytes_per_sample",
)
_HIGHER_BETTER_MARKERS = (
    "speedup",
    "per_sec",
    "per_second",
    "throughput",
    "rate",
)


def classify_direction(path: str) -> str | None:
    """``"lower"``/``"higher"`` if ``path`` names a perf metric, else None.

    Classification is by the *leaf* name, so ``similar.indexed_seconds``
    is lower-better and ``similar.speedup`` higher-better while plain
    configuration echoes (``k``, ``partials``, ``ingredients``) fall
    through to ``None`` and are not gated.
    """
    leaf = path.rsplit(".", 1)[-1].lower()
    for marker in _HIGHER_BETTER_MARKERS:
        if marker in leaf:
            return "higher"
    for marker in _LOWER_BETTER_MARKERS:
        if marker in leaf:
            return "lower"
    return None


def flatten_metrics(doc: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a (nested) bench document as dotted paths."""
    flat: dict[str, float] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, path))
        elif isinstance(value, bool):
            continue  # `smoke` flags etc. are not metrics
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
    return flat


@dataclasses.dataclass(frozen=True)
class MetricVerdict:
    """One gated metric's comparison outcome."""

    path: str
    direction: str
    baseline: float
    current: float
    tolerance: float
    #: Change in the *bad* direction (negative means improved),
    #: relative to the baseline, or absolute against a near-zero one.
    regression: float
    ok: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "direction": self.direction,
            "baseline": self.baseline,
            "current": self.current,
            "tolerance": self.tolerance,
            "regression": round(self.regression, 4),
            "ok": self.ok,
        }


def _resolve_tolerance(
    path: str, default: float, overrides: Mapping[str, float]
) -> float:
    """Most specific override wins: exact path, then leaf name."""
    if path in overrides:
        return overrides[path]
    leaf = path.rsplit(".", 1)[-1]
    return overrides.get(leaf, default)


def compare_documents(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    overrides: Mapping[str, float] | None = None,
) -> list[MetricVerdict]:
    """Verdicts for every gated metric present in both documents.

    A metric present only on one side is simply skipped — benchmarks
    grow fields over time, and the gate compares what is comparable.
    """
    overrides = overrides or {}
    base_flat = flatten_metrics(baseline)
    curr_flat = flatten_metrics(current)
    verdicts: list[MetricVerdict] = []
    for path in sorted(base_flat.keys() & curr_flat.keys()):
        direction = classify_direction(path)
        if direction is None:
            continue
        base_value, curr_value = base_flat[path], curr_flat[path]
        # Signed slip in the bad direction, relative to the baseline.
        if direction == "lower":
            delta = curr_value - base_value
        else:
            delta = base_value - curr_value
        if abs(base_value) < _ABS_FLOOR:
            regression = delta
        else:
            regression = delta / abs(base_value)
        limit = _resolve_tolerance(path, tolerance, overrides)
        verdicts.append(
            MetricVerdict(
                path=path,
                direction=direction,
                baseline=base_value,
                current=curr_value,
                tolerance=limit,
                regression=regression,
                ok=regression <= limit,
            )
        )
    return verdicts


@dataclasses.dataclass(frozen=True)
class BenchComparison:
    """One benchmark file's gate result."""

    name: str
    baseline_path: str
    results_path: str
    verdicts: tuple[MetricVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    @property
    def failures(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.ok)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "baseline": self.baseline_path,
            "results": self.results_path,
            "ok": self.ok,
            "metrics": [verdict.to_json() for verdict in self.verdicts],
        }


@dataclasses.dataclass(frozen=True)
class WatchdogReport:
    """The whole run: every benchmark compared, plus skips."""

    comparisons: tuple[BenchComparison, ...]
    missing_results: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(comparison.ok for comparison in self.comparisons)

    @property
    def gated_metrics(self) -> int:
        return sum(len(c.verdicts) for c in self.comparisons)

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "benchmarks": [c.to_json() for c in self.comparisons],
            "gated_metrics": self.gated_metrics,
            "missing_results": list(self.missing_results),
        }

    def render(self) -> str:
        """The human-facing verdict table ``repro obs check`` prints."""
        lines = []
        for comparison in self.comparisons:
            flag = "ok" if comparison.ok else "REGRESSED"
            lines.append(
                f"{comparison.name}: {flag} "
                f"({len(comparison.verdicts)} gated metrics)"
            )
            for verdict in comparison.verdicts:
                arrow = "<=" if verdict.direction == "lower" else ">="
                status = "ok" if verdict.ok else "FAIL"
                lines.append(
                    f"  [{status}] {verdict.path}: {verdict.current:g} "
                    f"(baseline {verdict.baseline:g}, want {arrow} within "
                    f"{verdict.tolerance:.0%}, slip {verdict.regression:+.1%})"
                )
        for name in self.missing_results:
            lines.append(f"{name}: skipped (no fresh results file)")
        if not self.comparisons:
            lines.append("no benchmark baselines found")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"watchdog: {verdict} "
            f"({len(self.comparisons)} benchmarks, "
            f"{self.gated_metrics} metrics gated)"
        )
        return "\n".join(lines)


def check_benchmarks(
    baseline_dir: str = ".",
    results_dir: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    overrides: Mapping[str, float] | None = None,
    pattern: str = "BENCH_*.json",
) -> WatchdogReport:
    """Compare every baseline in ``baseline_dir`` against fresh results.

    ``results_dir`` defaults to the baseline directory itself, in which
    case each file is compared to itself and trivially passes — the
    useful configuration points it at a directory of freshly produced
    ``BENCH_*.json`` files (as the CI obs job does). A baseline without
    a matching fresh file is reported as skipped, not failed.
    """
    results_dir = baseline_dir if results_dir is None else results_dir
    comparisons: list[BenchComparison] = []
    missing: list[str] = []
    for baseline_path in sorted(
        glob.glob(os.path.join(baseline_dir, pattern))
    ):
        name = os.path.basename(baseline_path)
        results_path = os.path.join(results_dir, name)
        if not os.path.exists(results_path):
            missing.append(name)
            continue
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(results_path, encoding="utf-8") as handle:
            current = json.load(handle)
        comparisons.append(
            BenchComparison(
                name=name,
                baseline_path=baseline_path,
                results_path=results_path,
                verdicts=tuple(
                    compare_documents(
                        baseline, current, tolerance, overrides
                    )
                ),
            )
        )
    return WatchdogReport(
        comparisons=tuple(comparisons), missing_results=tuple(missing)
    )
