"""Streaming moment reduction for the Monte Carlo score distributions.

The null-model analyses only ever need four summary statistics of the
sampled scores — count, mean, standard deviation, and the range — so no
sampling run materializes the 100,000-float score vector. Each shard,
sharded or the one shard of an unsharded run, folds its samples into a
:class:`StreamingMoments` (count, sum, sum of squares, min/max) and the
parent merges the shards. Merging is a plain sum of the accumulators, so
for a fixed shard decomposition the result is bit-identical regardless of
how many workers produced the shards — only the (deterministic) merge
order matters, never the scheduling order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass
class StreamingMoments:
    """Running (count, sum, sum-of-squares, min, max) of a sample stream.

    Attributes:
        count: number of values folded in.
        total: sum of the values.
        sum_squares: sum of the squared values.
        minimum: smallest value seen (``+inf`` when empty).
        maximum: largest value seen (``-inf`` when empty).
    """

    count: int = 0
    total: float = 0.0
    sum_squares: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    @classmethod
    def from_array(cls, values: np.ndarray) -> "StreamingMoments":
        """Moments of one shard of samples."""
        moments = cls()
        moments.update(values)
        return moments

    def update(self, values: np.ndarray) -> None:
        """Fold a chunk of samples into the accumulators in place."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.sum_squares += float(np.square(values).sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two shards exactly; returns a new instance.

        The combination is a plain sum of the accumulators, so folding a
        fixed shard sequence left-to-right yields bit-identical results
        no matter which processes computed the shards.
        """
        return StreamingMoments(
            count=self.count + other.count,
            total=self.total + other.total,
            sum_squares=self.sum_squares + other.sum_squares,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def variance(self, ddof: int = 1) -> float:
        """Sample variance; 0.0 when fewer than ``ddof + 1`` values."""
        if self.count <= ddof:
            return 0.0
        centered = self.sum_squares - self.total * self.total / self.count
        return max(0.0, centered) / (self.count - ddof)

    def std(self, ddof: int = 1) -> float:
        return math.sqrt(self.variance(ddof))

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready summary (service and benchmark artifacts)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std(),
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }
