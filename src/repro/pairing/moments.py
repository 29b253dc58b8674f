"""Streaming moment reduction for the Monte Carlo score distributions.

The null-model analyses only ever need four summary statistics of the
sampled scores — count, mean, standard deviation, and the range — so no
sampling run materializes the 100,000-float score vector. Each
(region, model) cell folds its samples, chunk by chunk in draw order,
into one :class:`StreamingMoments` (count, sum, sum of squares,
min/max). A cell is drawn by one task from one stream, so its moments
are the same whichever process ran it.
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
        """Moments of one array of samples."""
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
