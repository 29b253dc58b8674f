"""Bench the SQL engine: columnar executor vs the row-at-a-time reference.

Builds a synthetic ``recipes`` table (200k rows at scale 1.0, shaped like
the CulinaryDB recipe catalog) and sweeps Table-1-style aggregation
queries — filter, group by region, COUNT/SUM/AVG/MIN/MAX, order, limit —
through one prepared statement with varying parameter bindings, once per
executor. A recipe→ingredient hash-join sweep filtered on the joined
table, the served join shape (``WHERE ingredient_id = ?`` on the base
table, grouped by a joined column, so the filter runs before the join),
a grouped-tail sweep (STDDEV/VARIANCE + HAVING + grouped ORDER BY), a
point-lookup filter sweep, and a prepared-vs-reparse loop ride along.
Numbers land in ``BENCH_sql.json``::

    {"rows": ..., "aggregation": {"reference_seconds": ...,
     "columnar_seconds": ..., "speedup": ...},
     "join": {...}, "join_filtered": {...}, "grouped_tail": {...},
     "filter": {...}, "prepare": {"reparse_seconds": ...,
     "prepared_seconds": ..., "speedup": ...}}

The columnar aggregation sweep must beat the reference executor by at
least 10x (``MIN_AGG_SPEEDUP``), the join sweep by at least 5x
(``MIN_JOIN_SPEEDUP``) and the filtered join sweep by at least 10x
(``MIN_JOIN_FILTERED_SPEEDUP``); set ``REPRO_BENCH_SMOKE=1`` to keep the
measurements but skip the speedup assertions (CI smoke mode on small
runners). ``REPRO_BENCH_SCALE`` scales the row count as for the other
benches.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.db import Column, ColumnType, Database, Schema

#: Where the timing table lands (repo root by default).
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_sql.json"))

#: Required advantage of the vectorised executor on the aggregation sweep.
MIN_AGG_SPEEDUP = 10.0

#: Required advantage of the columnar hash join on the join sweep.
MIN_JOIN_SPEEDUP = 5.0

#: Required advantage on the served join shape, whose base-table filter
#: the columnar executor applies before joining.
MIN_JOIN_FILTERED_SPEEDUP = 10.0

#: Synthetic catalog size at scale 1.0.
BASE_ROWS = 200_000

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

REGIONS = [
    "african", "american", "asian", "brazilian", "british", "cajun",
    "canadian", "caribbean", "chinese", "eastern_euro", "french", "german",
    "greek", "indian", "irish", "italian", "japanese", "korean", "mexican",
    "nordic", "spanish", "thai",
]

AGG_SQL = (
    "SELECT region_code, COUNT(*) AS recipes, "
    "SUM(n_ingredients) AS ingredients, AVG(n_ingredients) AS mean_size, "
    "MIN(n_ingredients) AS smallest, MAX(n_ingredients) AS largest "
    "FROM recipes WHERE n_ingredients >= ? "
    "GROUP BY region_code ORDER BY recipes DESC, region_code"
)

FILTER_SQL = (
    "SELECT recipe_id, title FROM recipes "
    "WHERE region_code = ? AND n_ingredients > ? "
    "ORDER BY recipe_id LIMIT 100"
)

JOIN_SQL = (
    "SELECT recipe_id, title, ingredient, grams FROM recipes "
    "JOIN recipe_ingredients ON recipe_id = recipe_ingredients.recipe_id "
    "WHERE grams > ? ORDER BY recipe_id LIMIT 500"
)

#: The served ``/sql`` join: one ingredient's uses per region.
JOIN_FILTERED_SQL = (
    "SELECT region_code, COUNT(*) AS uses FROM recipe_ingredients "
    "JOIN recipes ON recipe_id = recipes.recipe_id WHERE ingredient_id = ? "
    "GROUP BY region_code ORDER BY uses DESC, region_code"
)

GROUPED_SQL = (
    "SELECT region_code, COUNT(*) AS recipes, "
    "STDDEV(n_ingredients) AS spread, VARIANCE(n_ingredients) AS var_size, "
    "AVG(rating) AS mean_rating "
    "FROM recipes WHERE n_ingredients >= ? GROUP BY region_code "
    "HAVING recipes > ? ORDER BY spread DESC, region_code LIMIT 10"
)

AGG_THRESHOLDS = list(range(2, 13))
AGG_ROUNDS = 3

#: The reference executor re-joins the full catalog per query, so the
#: join sweep stays short; ratios are per-sweep over identical params.
JOIN_BOUNDS = [25, 100, 250, 400]

GROUPED_PARAMS = [[t, t * 10] for t in range(2, 13)] * AGG_ROUNDS

INGREDIENTS = [
    "onion", "garlic", "tomato", "butter", "olive_oil", "cumin", "ginger",
    "soy_sauce", "rice", "flour", "egg", "milk", "cilantro", "basil",
    "chili", "lime", "fish_sauce", "paprika", "oregano", "coconut_milk",
]


def build_catalog(n_rows):
    rng = random.Random(20260807)
    database = Database("bench")
    database.create_table(
        "recipes",
        Schema(
            [
                Column("recipe_id", ColumnType.INT, primary_key=True),
                Column("title", ColumnType.TEXT),
                Column("region_code", ColumnType.TEXT, indexed=True),
                Column("n_ingredients", ColumnType.INT),
                Column("rating", ColumnType.FLOAT, nullable=True),
            ]
        ),
    )
    database.table("recipes").bulk_insert(
        [
            {
                "recipe_id": index,
                "title": f"recipe-{index}",
                "region_code": rng.choice(REGIONS),
                "n_ingredients": rng.randint(2, 18),
                "rating": round(rng.uniform(1.0, 5.0), 2)
                if rng.random() > 0.1
                else None,
            }
            for index in range(n_rows)
        ]
    )
    database.create_table(
        "recipe_ingredients",
        Schema(
            [
                Column("recipe_id", ColumnType.INT),
                Column("ingredient_id", ColumnType.INT),
                Column("ingredient", ColumnType.TEXT),
                Column("grams", ColumnType.INT),
            ]
        ),
    )
    links = []
    for index in range(n_rows):
        for _ in range(4):
            ingredient = rng.choice(INGREDIENTS)
            links.append(
                {
                    "recipe_id": index,
                    "ingredient_id": INGREDIENTS.index(ingredient),
                    "ingredient": ingredient,
                    "grams": rng.randint(1, 500),
                }
            )
    database.table("recipe_ingredients").bulk_insert(links)
    return database


def _sweep(plan, database, param_sets, reference):
    started = time.perf_counter()
    for params in param_sets:
        plan.execute(database, params, reference=reference)
    return time.perf_counter() - started


def test_bench_sql():
    n_rows = max(1000, int(BASE_ROWS * SCALE))
    database = build_catalog(n_rows)

    agg_plan = database.prepare(AGG_SQL)
    agg_params = [[t] for t in AGG_THRESHOLDS] * AGG_ROUNDS
    # Warm both paths (column blocks build lazily on first touch).
    agg_plan.execute(database, [2])
    agg_plan.execute(database, [2], reference=True)
    reference_agg = _sweep(agg_plan, database, agg_params, True)
    columnar_agg = _sweep(agg_plan, database, agg_params, False)

    join_plan = database.prepare(JOIN_SQL)
    join_params = [[bound] for bound in JOIN_BOUNDS]
    join_plan.execute(database, [JOIN_BOUNDS[0]])  # warm ingredient blocks
    reference_join = _sweep(join_plan, database, join_params, True)
    columnar_join = _sweep(join_plan, database, join_params, False)

    filtered_plan = database.prepare(JOIN_FILTERED_SQL)
    filtered_params = [[ingredient] for ingredient in range(len(INGREDIENTS))]
    filtered_plan.execute(database, [0])  # warm the key and group blocks
    reference_filtered = _sweep(
        filtered_plan, database, filtered_params, True
    )
    columnar_filtered = _sweep(
        filtered_plan, database, filtered_params, False
    )

    grouped_plan = database.prepare(GROUPED_SQL)
    reference_grouped = _sweep(grouped_plan, database, GROUPED_PARAMS, True)
    columnar_grouped = _sweep(grouped_plan, database, GROUPED_PARAMS, False)

    filter_plan = database.prepare(FILTER_SQL)
    filter_params = [
        [region, bound] for region in REGIONS for bound in (5, 10, 15)
    ]
    reference_filter = _sweep(filter_plan, database, filter_params, True)
    columnar_filter = _sweep(filter_plan, database, filter_params, False)

    # Equivalence spot-checks on the bench corpus itself.
    assert agg_plan.execute(database, [8]) == agg_plan.execute(
        database, [8], reference=True
    )
    assert join_plan.execute(database, [200]) == join_plan.execute(
        database, [200], reference=True
    )
    assert grouped_plan.execute(database, [5, 40]) == grouped_plan.execute(
        database, [5, 40], reference=True
    )
    assert filtered_plan.execute(database, [3]) == filtered_plan.execute(
        database, [3], reference=True
    )
    assert database.explain(JOIN_FILTERED_SQL, [3])["pushed_below_join"] == 1

    # Prepared-statement reuse vs re-tokenizing + re-parsing every call.
    from repro.db.sql import parse_select

    reparse_rounds = 2000
    started = time.perf_counter()
    for _ in range(reparse_rounds):
        parse_select(AGG_SQL)
    reparse_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(reparse_rounds):
        database.prepare(AGG_SQL)
    prepared_seconds = time.perf_counter() - started

    def ratio(reference, fast):
        return round(reference / fast, 2) if fast > 0 else 0.0

    payload = {
        "benchmark": "sql_engine",
        "rows": n_rows,
        "ingredient_rows": n_rows * 4,
        "agg_queries": len(agg_params),
        "join_queries": len(join_params),
        "join_filtered_queries": len(filtered_params),
        "grouped_queries": len(GROUPED_PARAMS),
        "filter_queries": len(filter_params),
        "aggregation": {
            "reference_seconds": round(reference_agg, 4),
            "columnar_seconds": round(columnar_agg, 4),
            "speedup": ratio(reference_agg, columnar_agg),
        },
        "join": {
            "reference_seconds": round(reference_join, 4),
            "columnar_seconds": round(columnar_join, 4),
            "speedup": ratio(reference_join, columnar_join),
        },
        "join_filtered": {
            "reference_seconds": round(reference_filtered, 4),
            "columnar_seconds": round(columnar_filtered, 4),
            "speedup": ratio(reference_filtered, columnar_filtered),
        },
        "grouped_tail": {
            "reference_seconds": round(reference_grouped, 4),
            "columnar_seconds": round(columnar_grouped, 4),
            "speedup": ratio(reference_grouped, columnar_grouped),
        },
        "filter": {
            "reference_seconds": round(reference_filter, 4),
            "columnar_seconds": round(columnar_filter, 4),
            "speedup": ratio(reference_filter, columnar_filter),
        },
        "prepare": {
            "rounds": reparse_rounds,
            "reparse_seconds": round(reparse_seconds, 4),
            "prepared_seconds": round(prepared_seconds, 4),
            "speedup": ratio(reparse_seconds, prepared_seconds),
        },
        "smoke": SMOKE,
    }
    BENCH_OUT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    assert columnar_agg < reference_agg
    assert columnar_join < reference_join
    assert columnar_filtered < reference_filtered
    assert columnar_grouped < reference_grouped
    assert prepared_seconds < reparse_seconds
    if not SMOKE:
        assert payload["aggregation"]["speedup"] >= MIN_AGG_SPEEDUP, (
            f"columnar aggregation sweep only "
            f"{payload['aggregation']['speedup']}x faster than the "
            f"reference executor"
        )
        assert payload["join"]["speedup"] >= MIN_JOIN_SPEEDUP, (
            f"columnar join sweep only {payload['join']['speedup']}x "
            f"faster than the reference executor"
        )
        assert (
            payload["join_filtered"]["speedup"] >= MIN_JOIN_FILTERED_SPEEDUP
        ), (
            f"columnar filtered join sweep only "
            f"{payload['join_filtered']['speedup']}x faster than the "
            f"reference executor"
        )
