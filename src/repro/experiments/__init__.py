"""Experiment harness: one runner per paper table/figure.

The registry in :data:`EXPERIMENTS` maps experiment ids to their runners;
``python -m repro run <id>`` executes one and prints its rendering.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .fig2 import Fig2Result, run_fig2
from .fig3 import Fig3aResult, Fig3bResult, run_fig3a, run_fig3b
from .fig4 import Fig4Result, Fig4Row, run_fig4
from .fig5 import Fig5Result, Fig5Row, run_fig5
from .table1 import Table1Result, Table1Row, run_table1
from .workspace import (
    ExperimentWorkspace,
    build_workspace,
    workspace_for,
)

#: Experiment id -> (runner, description). Runners take a workspace and
#: return a result object with a ``render()`` method.
EXPERIMENTS: dict[str, tuple[Callable[..., Any], str]] = {
    "table1": (run_table1, "Recipes and unique ingredients per region"),
    "fig2": (run_fig2, "Category-composition heat-map"),
    "fig3a": (run_fig3a, "Recipe size distribution"),
    "fig3b": (run_fig3b, "Ingredient popularity scaling"),
    "fig4": (run_fig4, "Food-pairing Z-scores vs four null models"),
    "fig5": (run_fig5, "Top contributing ingredients per cuisine"),
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentWorkspace",
    "build_workspace",
    "workspace_for",
    "Fig2Result",
    "Fig3aResult",
    "Fig3bResult",
    "Fig4Result",
    "Fig4Row",
    "Fig5Result",
    "Fig5Row",
    "Table1Result",
    "Table1Row",
    "run_fig2",
    "run_fig3a",
    "run_fig3b",
    "run_fig4",
    "run_fig5",
    "run_table1",
]
