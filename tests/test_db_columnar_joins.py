"""Golden and equivalence tests for columnar hash joins.

Covers the shapes the join gather kernel must get exactly right —
NULL keys (matching nothing on either executor), duplicate right keys
(row-order fan-out), empty right tables, left-join null padding,
colliding column qualification, chained joins, joins feeding the
grouped tail, and WHERE conjuncts pushed below the join — plus the
fallback shapes that stay on the reference executor. Every engaged
query is asserted equal to the reference pipeline row for row.
"""

import pytest

from repro.db import (
    Column,
    ColumnType,
    Database,
    Schema,
    avg,
    col,
    columnar,
    count,
    stddev,
    sum_,
)


def make_db():
    database = Database()
    database.create_table(
        "recipes",
        Schema(
            [
                Column("recipe_id", ColumnType.INT, primary_key=True),
                Column("region", ColumnType.TEXT, nullable=True),
                Column("size", ColumnType.INT, nullable=True),
            ]
        ),
    )
    database.create_table(
        "regions",
        Schema(
            [
                Column("code", ColumnType.TEXT, nullable=True),
                Column("name", ColumnType.TEXT, nullable=True),
            ]
        ),
    )
    database.table("recipes").bulk_insert(
        [
            {"recipe_id": 1, "region": "ITA", "size": 5},
            {"recipe_id": 2, "region": "JPN", "size": 9},
            {"recipe_id": 3, "region": None, "size": 7},
            {"recipe_id": 4, "region": "XXX", "size": None},
            {"recipe_id": 5, "region": "ITA", "size": 11},
        ]
    )
    database.table("regions").bulk_insert(
        [
            {"code": "ITA", "name": "Italy"},
            {"code": "JPN", "name": "Japan"},
            {"code": None, "name": "Nowhere"},
            {"code": "ITA", "name": "Italia"},  # duplicate key: fan-out
        ]
    )
    return database


def assert_equivalent(query, *, engaged=True):
    if engaged:
        assert columnar.execute(query) is not None, "columnar did not engage"
    assert query.all() == query.reference().all()


class TestGoldenNullKeys:
    """NULL join keys must match nothing — on BOTH executors."""

    def test_inner_join_drops_null_keys(self):
        db = make_db()
        query = db.query("recipes").join("regions", on=("region", "code"))
        for rows in (query.all(), query.reference().all()):
            ids = [row["recipe_id"] for row in rows]
            # recipe 3 (NULL region) must not pair with the NULL-code
            # region row; recipe 4 has no match at all.
            assert ids == [1, 1, 2, 5, 5]
            assert all(row["code"] is not None for row in rows)
        assert_equivalent(query)

    def test_left_join_pads_null_keys(self):
        db = make_db()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"), how="left")
        )
        for rows in (query.all(), query.reference().all()):
            by_id = {}
            for row in rows:
                by_id.setdefault(row["recipe_id"], []).append(row)
            # NULL key: exactly one null-padded row, not a NULL=NULL match.
            assert len(by_id[3]) == 1
            assert by_id[3][0]["name"] is None
            assert len(by_id[4]) == 1
            assert by_id[4][0]["name"] is None
            assert [row["name"] for row in by_id[1]] == ["Italy", "Italia"]
        assert_equivalent(query)

    def test_null_right_rows_never_bucketed(self):
        # Even a right row whose key is NULL but whose payload is real
        # ("Nowhere") must be invisible to the probe side.
        db = make_db()
        rows = (
            db.query("recipes")
            .join("regions", on=("region", "code"), how="left")
            .all()
        )
        assert all(row["name"] != "Nowhere" for row in rows)


class TestJoinShapes:
    def test_duplicate_keys_fan_out_in_row_order(self):
        db = make_db()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"))
            .where(col("region") == "ITA")
        )
        assert_equivalent(query)
        names = [row["name"] for row in query.all()]
        assert names == ["Italy", "Italia", "Italy", "Italia"]

    def test_empty_right_table_inner(self):
        db = make_db()
        db.table("regions").delete()
        query = db.query("recipes").join("regions", on=("region", "code"))
        assert_equivalent(query)
        assert query.all() == []

    def test_empty_right_table_left(self):
        db = make_db()
        db.table("regions").delete()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"), how="left")
            .order_by("recipe_id")
        )
        assert_equivalent(query)
        rows = query.all()
        assert len(rows) == 5
        assert all(row["name"] is None and row["code"] is None for row in rows)

    def test_empty_left_table(self):
        db = make_db()
        db.table("recipes").delete()
        for how in ("inner", "left"):
            query = db.query("recipes").join(
                "regions", on=("region", "code"), how=how
            )
            assert_equivalent(query)
            assert query.all() == []

    def test_colliding_columns_get_qualified(self):
        db = make_db()
        db.create_table(
            "notes",
            Schema(
                [
                    Column("code", ColumnType.TEXT),
                    Column("name", ColumnType.TEXT),
                ]
            ),
        )
        db.table("notes").insert({"code": "ITA", "name": "note"})
        query = db.query("regions").join("notes", on=("code", "code"))
        assert_equivalent(query)
        rows = query.all()
        assert rows[0]["name"] == "Italy"
        assert rows[0]["notes.name"] == "note"
        assert rows[0]["notes.code"] == "ITA"

    def test_chained_joins(self):
        db = make_db()
        db.create_table(
            "continents",
            Schema(
                [
                    Column("region_name", ColumnType.TEXT),
                    Column("continent", ColumnType.TEXT),
                ]
            ),
        )
        db.table("continents").bulk_insert(
            [
                {"region_name": "Italy", "continent": "europe"},
                {"region_name": "Japan", "continent": "asia"},
            ]
        )
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"))
            .join("continents", on=("name", "region_name"), how="left")
            .order_by("recipe_id", ("continent", "desc"))
        )
        assert_equivalent(query)
        rows = query.all()
        assert {row["continent"] for row in rows} == {"europe", "asia", None}

    def test_int_key_join(self):
        db = make_db()
        db.create_table(
            "sizes",
            Schema(
                [
                    Column("size", ColumnType.INT, nullable=True),
                    Column("label", ColumnType.TEXT),
                ]
            ),
        )
        db.table("sizes").bulk_insert(
            [
                {"size": 5, "label": "small"},
                {"size": 9, "label": "medium"},
                {"size": None, "label": "unknown"},
            ]
        )
        for how in ("inner", "left"):
            query = db.query("recipes").join(
                "sizes", on=("size", "size"), how=how
            )
            assert_equivalent(query)

    def test_join_then_filter_project_order_limit(self):
        db = make_db()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"), how="left")
            .where((col("size") > 4) | col("name").is_null())
            .select("recipe_id", "name", (col("size") * 2, "double"))
            .order_by(("double", "desc"), "recipe_id")
            .limit(4, offset=1)
        )
        assert_equivalent(query)

    def test_join_then_group_having_order(self):
        db = make_db()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"))
            .group_by(
                "name",
                n=count(),
                total=sum_("size"),
                spread=stddev("size"),
                mean=avg("size"),
            )
            .having(col("n") >= 1)
            .order_by(("total", "desc"), "name")
        )
        assert_equivalent(query)

    def test_join_distinct(self):
        db = make_db()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"))
            .select("region")
            .distinct()
        )
        assert_equivalent(query)

    def test_qualified_left_column(self):
        db = make_db()
        query = db.query("recipes").join(
            "regions", on=("recipes.region", "code")
        )
        assert_equivalent(query)


class TestJoinFallbacks:
    def test_self_join_falls_back_but_matches(self):
        db = make_db()
        query = db.query("recipes").join(
            "recipes", on=("recipe_id", "recipe_id")
        )
        assert columnar.execute(query) is None
        assert query.all() == query.reference().all()
        assert query.last_execution["executor"] == "reference"
        assert query.last_execution["reason_family"] == "join"

    def test_float_key_join_matches(self):
        db = make_db()
        db.create_table(
            "weights",
            Schema(
                [
                    Column("weight", ColumnType.FLOAT, nullable=True),
                    Column("label", ColumnType.TEXT),
                ]
            ),
        )
        db.table("weights").bulk_insert(
            [
                {"weight": 5.0, "label": "five"},
                {"weight": 7.5, "label": "seven-and-a-half"},
                {"weight": None, "label": "none"},
            ]
        )
        # int column joined against float column: exact-domain cast.
        query = db.query("recipes").join(
            "weights", on=("size", "weight"), how="left"
        )
        assert_equivalent(query)

    def test_mismatched_type_join_yields_no_matches(self):
        db = make_db()
        # text key against int key: structurally disjoint, zero matches
        # inner, all-padded left — same as the reference dict probe.
        inner = db.query("recipes").join("regions", on=("size", "code"))
        assert_equivalent(inner)
        assert inner.all() == []
        left = db.query("recipes").join(
            "regions", on=("size", "code"), how="left"
        )
        assert_equivalent(left)
        assert len(left.all()) == 5


class TestSqlJoins:
    def test_sql_join_runs_columnar(self):
        db = make_db()
        sql = (
            "SELECT recipe_id, name FROM recipes "
            "JOIN regions ON region = regions.code "
            "WHERE size > 4 ORDER BY recipe_id"
        )
        assert db.sql(sql) == db.sql(sql, reference=True)
        plan = db.explain(sql)
        assert plan["executor"] == "columnar"
        assert plan["joins"] == [{"table": "regions", "how": "inner"}]

    def test_sql_left_join_grouped(self):
        db = make_db()
        sql = (
            "SELECT name, COUNT(*) AS n, STDDEV(size) AS spread "
            "FROM recipes LEFT JOIN regions ON region = regions.code "
            "GROUP BY name HAVING n >= 1 "
            "ORDER BY n DESC, name LIMIT 5"
        )
        assert db.sql(sql) == db.sql(sql, reference=True)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_all_null_key_columns(how):
    db = make_db()
    db.table("recipes").update({"region": None})
    query = db.query("recipes").join("regions", on=("region", "code"), how=how)
    assert_equivalent(query)
    expected = 0 if how == "inner" else 5
    assert len(query.all()) == expected


def add_notes(db):
    """A table whose columns collide with ``regions``' (code, name)."""
    db.create_table(
        "notes",
        Schema(
            [
                Column("code", ColumnType.TEXT, nullable=True),
                Column("name", ColumnType.TEXT, nullable=True),
            ]
        ),
    )
    db.table("notes").bulk_insert(
        [
            {"code": "ITA", "name": "note"},
            {"code": "JPN", "name": "Japan"},
            {"code": "ITA", "name": "Italy"},
        ]
    )


def add_continents(db):
    db.create_table(
        "continents",
        Schema(
            [
                Column("region_name", ColumnType.TEXT),
                Column("continent", ColumnType.TEXT),
            ]
        ),
    )
    db.table("continents").insert(
        {"region_name": "Italy", "continent": "europe"}
    )


def assert_pushdown(db, sql, pushed):
    """Columnar rows equal the reference's; EXPLAIN reports ``pushed``."""
    info = {}
    rows = db.prepare(sql).execute(db, info_out=info)
    assert rows == db.sql(sql, reference=True)
    assert info["executor"] == "columnar"
    plan = db.explain(sql)
    assert plan["executor"] == "columnar"
    assert plan["pushed_below_join"] == pushed
    return rows


class TestWherePushdown:
    """Base-table WHERE conjuncts are masked before the first join."""

    @pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN"])
    def test_base_conjunct_pushed(self, join):
        db = make_db()
        rows = assert_pushdown(
            db,
            f"SELECT recipe_id, name FROM recipes {join} regions "
            "ON region = regions.code WHERE size > 6 ORDER BY recipe_id",
            1,
        )
        assert [row["recipe_id"] for row in rows] == (
            [2, 5, 5] if join == "JOIN" else [2, 3, 5, 5]
        )

    def test_joined_null_anti_join_not_pushed(self):
        db = make_db()
        rows = assert_pushdown(
            db,
            "SELECT recipe_id FROM recipes LEFT JOIN regions "
            "ON region = regions.code WHERE name IS NULL",
            0,
        )
        assert [row["recipe_id"] for row in rows] == [3, 4]

    def test_and_of_base_and_joined(self):
        db = make_db()
        rows = assert_pushdown(
            db,
            "SELECT recipe_id, name FROM recipes LEFT JOIN regions "
            "ON region = regions.code WHERE size > 6 AND name = 'Italia'",
            1,
        )
        assert rows == [{"recipe_id": 5, "name": "Italia"}]

    def test_or_across_both_sides_not_pushed(self):
        db = make_db()
        assert_pushdown(
            db,
            "SELECT recipe_id, name FROM recipes LEFT JOIN regions "
            "ON region = regions.code WHERE size > 10 OR name = 'Japan'",
            0,
        )

    def test_qualified_base_name_pushed(self):
        db = make_db()
        assert_pushdown(
            db,
            "SELECT recipe_id, name FROM recipes JOIN regions "
            "ON region = regions.code WHERE recipes.size >= 9",
            1,
        )

    def test_bare_name_colliding_with_joined_column(self):
        # ``name`` is regions' own column; the joined one is notes.name.
        db = make_db()
        add_notes(db)
        base = assert_pushdown(
            db,
            "SELECT code, name, notes.name AS note FROM regions "
            "JOIN notes ON code = notes.code WHERE name = 'Italy'",
            1,
        )
        assert [row["note"] for row in base] == ["note", "Italy"]
        joined = assert_pushdown(
            db,
            "SELECT code, name FROM regions JOIN notes "
            "ON code = notes.code WHERE notes.name = 'Italy'",
            0,
        )
        assert [row["name"] for row in joined] == ["Italy", "Italia"]

    def test_chained_joins(self):
        db = make_db()
        add_continents(db)
        rows = assert_pushdown(
            db,
            "SELECT recipe_id, continent FROM recipes "
            "JOIN regions ON region = regions.code "
            "LEFT JOIN continents ON name = continents.region_name "
            "WHERE size < 11 AND continent IS NULL AND recipe_id > 1",
            2,
        )
        assert rows == [{"recipe_id": 2, "continent": None}]

    def test_query_builder_join_pushes_base_conjuncts(self):
        db = make_db()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"), how="left")
            .where(col("size") > 4)
            .where(col("name").is_not_null())
        )
        assert_equivalent(query)
        assert columnar.analyze(query)["pushed_below_join"] == 1

    def test_unresolved_name_falls_back_with_same_family(self):
        db = make_db()
        sql = (
            "SELECT recipe_id FROM recipes JOIN regions "
            "ON region = regions.code WHERE size > 4 AND nosuch = 1"
        )
        plan = db.explain(sql)
        assert plan["executor"] == "reference"
        assert plan["reason_family"] == "unknown_column"
        assert plan["pushed_below_join"] == 0
        query = (
            db.query("recipes")
            .join("regions", on=("region", "code"))
            .where((col("size") > 4) & (col("nosuch") == 1))
        )
        assert columnar.execute(query) is None
        assert query._fallback_family == "unknown_column"

    def test_unmaskable_base_conjunct_keeps_join_reason(self):
        # Base conjuncts that cannot be masked send the query down the
        # unsplit plan, so the join's own check still names the reason.
        db = make_db()
        query = (
            db.query("recipes")
            .join("regions", on=("region", "nosuch"))
            .where(col("size") < "abc")
        )
        assert columnar.analyze(query)["reason_family"] == "join"
        assert columnar.execute(query) is None
        assert query._fallback_family == "join"

    @pytest.mark.parametrize(
        "source", ["recipes", "recipes JOIN regions ON region = regions.code"]
    )
    def test_unmaskable_where_still_lists_touched_columns(self, source):
        plan = make_db().explain(
            f"SELECT recipe_id FROM {source} WHERE size < 'abc'"
        )
        assert plan["executor"] == "reference"
        assert plan["reason_family"] == "ordering"
        assert plan["columns"] == ["size"]
        assert plan["pushed_below_join"] == 0

    def test_ambiguous_name_stays_residual(self):
        # Column and table names carry no dots, so a join's own output
        # names never make a bare name ambiguous; the split is checked
        # on a hand-built naming where two joined keys share a suffix.
        columns = {
            "size": (0, "size"),
            "a.code": (1, "code"),
            "b.code": (2, "code"),
        }
        pushed, residual = columnar._split_where(
            (col("size") > 4) & (col("code") == "ITA"), columns
        )
        assert [repr(part) for part in pushed] == [repr(col("size") > 4)]
        assert [repr(part) for part in residual] == [
            repr(col("code") == "ITA")
        ]
        with pytest.raises(columnar.Unsupported) as raised:
            columnar._resolve_output_name("code", columns)
        assert columnar.fallback_family(str(raised.value)) == (
            "unknown_column"
        )

    def test_non_join_query_reports_zero(self):
        db = make_db()
        plan = db.explain("SELECT recipe_id FROM recipes WHERE size > 4")
        assert plan["pushed_below_join"] == 0
