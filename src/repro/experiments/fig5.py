"""Experiment ``fig5``: top contributing ingredients per cuisine.

Regenerates Fig 5: for every cuisine, the three ingredients contributing
the most to its observed food-pairing character, measured as the
percentage change of the cuisine's mean pairing score when the ingredient
is removed (Section IV.C). For uniform cuisines the top contributors are
those whose removal lowers the score most; for contrasting cuisines,
those whose removal raises it most.

Every region's sweep runs in the calling process: it is exact, and a
process pool did not make the 22 scale-1.0 sweeps faster (0.3–0.4 s
either way on a 2-core host).
"""

from __future__ import annotations

import dataclasses

from typing import TYPE_CHECKING

from ..datamodel import REGIONS, PairingKind
from ..pairing import IngredientContribution, top_contributors
from ..reporting.tables import render_table
from .workspace import ExperimentWorkspace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel import ParallelConfig


@dataclasses.dataclass(frozen=True)
class Fig5Row:
    code: str
    pairing: PairingKind
    top: tuple[IngredientContribution, ...]

    @property
    def contributions_have_expected_sign(self) -> bool:
        """Uniform cuisines: removal of top contributors lowers the score
        (chi < 0); contrasting cuisines: raises it (chi > 0)."""
        if self.pairing is PairingKind.UNIFORM:
            return all(item.chi_percent < 0 for item in self.top)
        return all(item.chi_percent > 0 for item in self.top)


@dataclasses.dataclass(frozen=True)
class Fig5Result:
    rows: tuple[Fig5Row, ...]

    def positive_rows(self) -> tuple[Fig5Row, ...]:
        return tuple(
            row for row in self.rows if row.pairing is PairingKind.UNIFORM
        )

    def negative_rows(self) -> tuple[Fig5Row, ...]:
        return tuple(
            row
            for row in self.rows
            if row.pairing is PairingKind.CONTRASTING
        )

    @property
    def all_signs_consistent(self) -> bool:
        return all(row.contributions_have_expected_sign for row in self.rows)

    def render(self) -> str:
        body = []
        for row in self.rows:
            names = ", ".join(
                f"{item.ingredient_name} ({item.chi_percent:+.1f}%)"
                for item in row.top
            )
            body.append([row.code, row.pairing.value, names])
        return render_table(["Region", "Pairing", "Top 3 contributors"], body)


def run_fig5(
    workspace: ExperimentWorkspace,
    top: int = 3,
    parallel: "ParallelConfig | None" = None,
) -> Fig5Result:
    """Top contributing ingredients for every region.

    Each region's leave-one-out chi sweep runs in this process.
    ``parallel`` changes nothing; it is still accepted because
    ``bench/layers.py`` passes it.
    """
    views = workspace.views()  # the engine's pairing_views artifact
    rows: list[Fig5Row] = []
    for region in REGIONS:
        contributors = top_contributors(
            views[region.code],
            count=top,
            positive_pairing=region.pairing is PairingKind.UNIFORM,
        )
        rows.append(
            Fig5Row(
                code=region.code,
                pairing=region.pairing,
                top=tuple(contributors),
            )
        )
    return Fig5Result(rows=tuple(rows))
