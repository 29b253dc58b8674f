"""Order statistics and the host-speed calibration the harness shares."""

from __future__ import annotations

import math
import statistics
import time
from collections.abc import Sequence

#: Candidate tail percentiles, highest first. A tail is only reported at
#: a percentile that leaves at least :data:`MIN_BEYOND` samples above it.
TAIL_PERCENTILES: tuple[float, ...] = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, interpolating between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when even the median leaves fewer than ten samples above it.
    """
    for pct in TAIL_PERCENTILES:
        if count - math.ceil(count * pct / 100.0) >= MIN_BEYOND:
            return pct
    return None


def tail(values: Sequence[float]) -> tuple[float, float | None]:
    """``(value, percentile)`` of the tail; the maximum when too few samples."""
    pct = tail_percentile(len(values))
    if pct is None:
        return max(values), None
    return percentile(values, pct), pct


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median and quartiles, the quartiles as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(median) if median else 0.0,
    }


def _spin(iterations: int) -> int:
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return total


def calibrate(rounds: int = 3, iterations: int = 1_500_000) -> float:
    """Seconds a fixed pure-Python loop takes: the median of ``rounds``.

    Runs before every workload run, so a results set can tell a slower
    host apart from a slower program.
    """
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        _spin(iterations)
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)
