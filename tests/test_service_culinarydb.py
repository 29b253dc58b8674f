"""The served CulinaryDB: a warm server builds no index that nothing it
serves reads, and ``/sql`` builds only the rows a response carries."""

import json

import pytest

from bench.workloads import AGG_SQL, JOIN_SQL
from repro.engine import RunConfig
from repro.experiments import workspace_for
from repro.service import QueryService, ServiceApp
from repro.service.app import ROUTES
from repro.service.loadtest import REGION_PLACEHOLDER, smoke_mix

SCALE = 0.02


@pytest.fixture(scope="module")
def workspace():
    return workspace_for(RunConfig(recipe_scale=SCALE))


def served_requests(region: str, ingredient_id: int):
    """One request per served endpoint, plus both benchmark SQL
    templates."""
    requests = [
        (
            method,
            path,
            {**payload, "region": region}
            if isinstance(payload, dict)
            and payload.get("region") == REGION_PLACEHOLDER
            else payload,
        )
        for method, path, payload in smoke_mix()
    ]
    requests.append(("POST", "/sql", {"query": AGG_SQL, "params": [3]}))
    requests.append(
        ("POST", "/sql", {"query": JOIN_SQL, "params": [ingredient_id]})
    )
    return requests


def test_served_endpoints_build_no_link_table_index(workspace):
    service = QueryService(workspace)
    service.preload()
    app = ServiceApp(service)
    region = next(
        code for code, cuisine in workspace.regional_cuisines().items()
        if len(cuisine)
    )
    ingredient_id = int(workspace.recipes.ingredient_ids[0])
    requests = served_requests(region, ingredient_id)
    assert {path for _method, path, _payload in requests} == (
        set(ROUTES) - {"/debug/profile"}
    )
    for method, path, payload in requests:
        status, body = app.dispatch(method, path, payload)
        assert status == 200, (path, body)
    stats = service.database().stats()
    # Not even the parents the load's foreign-key checks probed.
    assert {name: entry["built"] for name, entry in stats.items()} == (
        dict.fromkeys(stats, [])
    )
    assert stats["recipe_ingredients"]["indexed"] == [
        "ingredient_id", "link_id", "recipe_id",
    ]
    # A reference-executor probe of the link table builds just its index.
    status, _body = app.dispatch(
        "POST",
        "/sql",
        {
            "sql": "SELECT link_id FROM recipe_ingredients "
            "WHERE ingredient_id = ?",
            "params": [ingredient_id],
            "reference": True,
        },
    )
    assert status == 200
    assert service.database().stats()["recipe_ingredients"]["built"] == [
        "ingredient_id"
    ]


#: (sql, params) over every tail shape the columnar window serves.
SHAPES = [
    ("SELECT recipe_id, title FROM recipes WHERE n_ingredients >= ?", [8]),
    (
        "SELECT recipe_id, n_ingredients FROM recipes "
        "ORDER BY n_ingredients DESC, recipe_id",
        [],
    ),
    ("SELECT DISTINCT region_code FROM recipes", []),
    (
        "SELECT region_code, COUNT(*) AS n FROM recipes "
        "GROUP BY region_code ORDER BY n DESC, region_code",
        [],
    ),
    (
        "SELECT link_id, ingredient_id FROM recipe_ingredients "
        "ORDER BY ingredient_id, link_id LIMIT 40 OFFSET 7",
        [],
    ),
    ("SELECT recipe_id FROM recipes LIMIT 5 OFFSET 100000", []),
    ("SELECT 1 AS one, recipe_id FROM recipes WHERE recipe_id < ?", [400]),
    ("SELECT COUNT(*) AS n FROM recipes WHERE n_ingredients > 1000", []),
    ("SELECT * FROM recipe_ingredients", []),
    (AGG_SQL, [2]),
    (AGG_SQL, [1000]),  # GROUP BY over zero rows
    (JOIN_SQL, None),
]


def old_body(database, sql, params, reference, max_rows):
    """The ``/sql`` body as it was built before the cap reached the
    executor: every row, then a slice."""
    execution = {}
    rows = database.prepare(sql).execute(
        database, params, reference=reference, info_out=execution
    )
    body = {
        "rows": rows[:max_rows],
        "row_count": len(rows),
        "truncated": len(rows) > max_rows,
        "executor": execution.get("executor", "reference"),
    }
    if execution.get("reason_family"):
        body["fallback"] = execution["reason_family"]
    return body


@pytest.mark.parametrize("reference", [False, True], ids=["columnar", "reference"])
@pytest.mark.parametrize("shape", range(len(SHAPES)))
def test_capped_body_equals_the_sliced_full_result(workspace, shape, reference):
    service = QueryService(workspace)
    database = service.database()
    sql, params = SHAPES[shape]
    if params is None:
        params = [int(workspace.recipes.ingredient_ids[0])]
    full = database.sql(sql, params)
    caps = {1, len(full) - 1, len(full), len(full) + 1, 1000}
    for max_rows in sorted(cap for cap in caps if 1 <= cap <= 1000):
        payload = {
            "sql": sql,
            "params": params,
            "reference": reference,
            "max_rows": max_rows,
        }
        body = service.handle_sql(payload)
        expected = old_body(database, sql, params, reference, max_rows)
        assert json.dumps(body) == json.dumps(expected), max_rows
        assert body["executor"] == ("reference" if reference else "columnar")
