"""Persist analysis results into CulinaryDB.

The paper's public artefact is a queryable database; this module stores
the analysis outputs next to the data so a CulinaryDB snapshot is
self-describing:

* ``pairing_results`` — one row per (region, null model): cuisine mean
  N_s, the model's mean/std, Z-score and effect size (Fig 4);
* ``ingredient_contributions`` — one row per (region, ingredient):
  usage and leave-one-out chi (Fig 5's underlying data).

Both tables are created on demand and can be rebuilt idempotently.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..db import Column, ColumnType, Database, ForeignKey, Schema
from ..pairing import CuisinePairingResult, IngredientContribution


def ensure_analysis_tables(db: Database) -> None:
    """Create the analysis tables when missing (idempotent)."""
    if "pairing_results" not in db:
        db.create_table(
            "pairing_results",
            Schema(
                [
                    Column("result_id", ColumnType.INT, primary_key=True),
                    Column(
                        "region_code",
                        ColumnType.TEXT,
                        indexed=True,
                        foreign_key=ForeignKey("regions", "code"),
                    ),
                    Column("model", ColumnType.TEXT, indexed=True),
                    Column("cuisine_mean", ColumnType.FLOAT),
                    Column("random_mean", ColumnType.FLOAT),
                    Column("random_std", ColumnType.FLOAT),
                    Column("n_samples", ColumnType.INT),
                    Column("z_score", ColumnType.FLOAT),
                    Column("effect_size", ColumnType.FLOAT),
                    Column("direction", ColumnType.TEXT),
                ]
            ),
        )
    if "ingredient_contributions" not in db:
        db.create_table(
            "ingredient_contributions",
            Schema(
                [
                    Column("contribution_id", ColumnType.INT, primary_key=True),
                    Column(
                        "region_code",
                        ColumnType.TEXT,
                        indexed=True,
                        foreign_key=ForeignKey("regions", "code"),
                    ),
                    Column(
                        "ingredient_id",
                        ColumnType.INT,
                        indexed=True,
                        foreign_key=ForeignKey("ingredients", "ingredient_id"),
                    ),
                    Column("usage", ColumnType.INT),
                    Column("chi_percent", ColumnType.FLOAT),
                ]
            ),
        )


def store_pairing_results(
    db: Database, results: Mapping[str, CuisinePairingResult]
) -> int:
    """Replace ``pairing_results`` with the given per-region analyses.

    Returns:
        Number of rows written.
    """
    ensure_analysis_tables(db)
    table = db.table("pairing_results")
    table.delete()
    table.compact()
    result_id = 1
    for region_code in sorted(results):
        result = results[region_code]
        for model, comparison in result.comparisons.items():
            table.insert(
                {
                    "result_id": result_id,
                    "region_code": region_code,
                    "model": model.value,
                    "cuisine_mean": comparison.cuisine_mean,
                    "random_mean": comparison.random_mean,
                    "random_std": comparison.random_std,
                    "n_samples": comparison.n_samples,
                    "z_score": comparison.z_score,
                    "effect_size": comparison.effect_size,
                    "direction": comparison.direction,
                }
            )
            result_id += 1
    return result_id - 1


def store_contributions(
    db: Database,
    region_code: str,
    contributions: list[IngredientContribution],
    name_to_id: Mapping[str, int],
) -> int:
    """Append one region's ingredient contributions; returns rows written.

    Args:
        db: the CulinaryDB database.
        region_code: the region the contributions belong to.
        contributions: output of
            :func:`repro.pairing.ingredient_contributions`.
        name_to_id: ingredient name -> catalog id mapping.
    """
    ensure_analysis_tables(db)
    table = db.table("ingredient_contributions")
    # Clear any previous rows for this region (idempotent refresh).
    from ..db import col

    if table.delete(col("region_code") == region_code):
        table.compact()
    # Other regions' rows keep their ids, so continue after the largest.
    next_id = max(table.column_values("contribution_id"), default=0) + 1
    written = 0
    for contribution in contributions:
        table.insert(
            {
                "contribution_id": next_id,
                "region_code": region_code,
                "ingredient_id": name_to_id[contribution.ingredient_name],
                "usage": contribution.usage,
                "chi_percent": contribution.chi_percent,
            }
        )
        next_id += 1
        written += 1
    return written
