"""Experiment ``fig4``: food-pairing Z-scores against the four null models.

Regenerates the paper's central result: every cuisine deviates from its
random counterpart — 16 regions toward uniform pairing (positive Z), 6
toward contrasting pairing (negative Z); preserving ingredient frequency
reproduces the pattern to a large extent (|Z| collapses), while preserving
category composition does not.
"""

from __future__ import annotations

import dataclasses

from typing import TYPE_CHECKING

import numpy as np

from ..datamodel import REGIONS, PairingKind
from ..pairing import (
    PAPER_SAMPLE_COUNT,
    CuisinePairingResult,
    NullModel,
    analyze_regions,
)
from ..reporting.tables import render_table
from .workspace import ExperimentWorkspace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel import ParallelConfig


@dataclasses.dataclass(frozen=True, slots=True)
class Fig4Row:
    code: str
    expected: PairingKind
    z_random: float
    z_frequency: float
    z_category: float
    z_frequency_category: float
    effect_size: float

    @property
    def direction(self) -> PairingKind:
        return (
            PairingKind.UNIFORM
            if self.z_random > 0
            else PairingKind.CONTRASTING
        )

    @property
    def sign_matches_paper(self) -> bool:
        return self.direction is self.expected

    @property
    def frequency_explains(self) -> bool:
        """Frequency model collapses the deviation (paper's key finding)."""
        return abs(self.z_frequency) < abs(self.z_random)

    @property
    def category_does_not_explain(self) -> bool:
        """Category model leaves most of the deviation unexplained."""
        return abs(self.z_category) > abs(self.z_frequency)


#: Order in which Section II.C lists the uniform regions ("Italy, Africa,
#: Caribbean, ..."), presumed strongest-first.
PAPER_UNIFORM_ORDER: tuple[str, ...] = (
    "ITA", "AFR", "CBN", "GRC", "ESP", "USA", "INSC", "ME", "MEX", "ANZ",
    "SAM", "FRA", "THA", "CHN", "SEA", "CAN",
)

#: Order in which Section II.C lists the contrasting regions.
PAPER_CONTRASTING_ORDER: tuple[str, ...] = (
    "SCND", "JPN", "DACH", "BRI", "KOR", "EE",
)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman's rank correlation: Pearson's r of the average ranks."""
    ranks_x = _average_ranks(np.asarray(x, dtype=np.float64))
    ranks_y = _average_ranks(np.asarray(y, dtype=np.float64))
    return float(np.corrcoef(ranks_x, ranks_y)[0, 1])


@dataclasses.dataclass(frozen=True)
class Fig4Result:
    rows: tuple[Fig4Row, ...]
    n_samples: int
    details: dict[str, CuisinePairingResult]

    @property
    def all_signs_match(self) -> bool:
        return all(row.sign_matches_paper for row in self.rows)

    @property
    def uniform_count(self) -> int:
        return sum(
            1 for row in self.rows if row.direction is PairingKind.UNIFORM
        )

    @property
    def contrasting_count(self) -> int:
        return sum(
            1
            for row in self.rows
            if row.direction is PairingKind.CONTRASTING
        )

    @property
    def frequency_explains_everywhere(self) -> bool:
        return all(row.frequency_explains for row in self.rows)

    def positive_order_spearman(self) -> float:
        """Spearman correlation between our positive-group Z ordering and
        the order Section II.C lists the uniform regions in (presumed
        strongest-first). 1.0 = identical ordering."""
        by_code = {row.code: row for row in self.rows}
        observed = [-by_code[code].z_random for code in PAPER_UNIFORM_ORDER]
        listed = list(range(len(PAPER_UNIFORM_ORDER)))
        return spearman_rho(listed, observed)

    def render(self) -> str:
        ordered = sorted(self.rows, key=lambda row: -row.z_random)
        body = [
            [
                row.code,
                row.expected.value,
                row.z_random,
                row.z_frequency,
                row.z_category,
                row.z_frequency_category,
                row.sign_matches_paper,
            ]
            for row in ordered
        ]
        table = render_table(
            [
                "Region", "Paper", "Z(random)", "Z(freq)", "Z(cat)",
                "Z(freq+cat)", "Sign OK",
            ],
            body,
        )
        return (
            f"{table}\n\nuniform: {self.uniform_count}, "
            f"contrasting: {self.contrasting_count} "
            f"(paper: 16 / 6); samples per model: {self.n_samples}"
        )


def run_fig4(
    workspace: ExperimentWorkspace,
    n_samples: int = PAPER_SAMPLE_COUNT,
    models: tuple[NullModel, ...] = tuple(NullModel),
    parallel: "ParallelConfig | None" = None,
    seed: int | None = None,
) -> Fig4Result:
    """Food-pairing analysis of all 22 regions.

    Args:
        workspace: shared experiment workspace.
        n_samples: random recipes per model (paper: 100,000).
        models: null models to evaluate.
        parallel: when set, the (region, model) sampling tasks fan out
            through one shared process pool; ``None`` runs them in this
            process. Both draw the same stream per cell, so results are
            bit-identical (see :mod:`repro.parallel`).
        seed: extra seed mixed into the sampling generators; ``None``
            selects the deterministic default streams.
    """
    # One sweep over every region's view (the engine's pairing_views
    # artifact): slow regions' cells interleave with fast ones.
    results = analyze_regions(
        workspace.regional_cuisines(),
        workspace.views(),
        models,
        n_samples,
        parallel,
        seed,
    )
    rows: list[Fig4Row] = []
    details: dict[str, CuisinePairingResult] = {}
    for region in REGIONS:
        result = details[region.code] = results[region.code]

        def z_of(model: NullModel) -> float:
            comparison = result.comparisons.get(model)
            return comparison.z_score if comparison is not None else 0.0

        rows.append(
            Fig4Row(
                code=region.code,
                expected=region.pairing,
                z_random=z_of(NullModel.RANDOM),
                z_frequency=z_of(NullModel.FREQUENCY),
                z_category=z_of(NullModel.CATEGORY),
                z_frequency_category=z_of(NullModel.FREQUENCY_CATEGORY),
                effect_size=result.comparisons[NullModel.RANDOM].effect_size,
            )
        )
    return Fig4Result(rows=tuple(rows), n_samples=n_samples, details=details)
