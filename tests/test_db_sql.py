"""Tests for the SQL dialect: tokenizer, parser and planner."""

import pytest

from repro.db import (
    Column,
    ColumnType,
    Database,
    QueryError,
    Schema,
    SqlSyntaxError,
)
from repro.db.sql import parse_select, tokenize
from repro.db.sql.parser import AggregateCall


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_lowercased(self):
        tokens = tokenize("Recipes.Region_Code")
        assert tokens[0].kind == "IDENT"
        assert tokens[0].value == "recipes.region_code"

    def test_numbers(self):
        tokens = tokenize("42 3.14 1e3")
        assert tokens[0].value == 42
        assert tokens[1].value == pytest.approx(3.14)
        assert tokens[2].value == pytest.approx(1000.0)

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_operators(self):
        tokens = tokenize("<= >= != <> = < >")
        assert [t.value for t in tokens[:-1]] == [
            "<=", ">=", "!=", "!=", "=", "<", ">",
        ]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "EOF"


class TestParser:
    def test_star(self):
        statement = parse_select("SELECT * FROM recipes")
        assert statement.star
        assert statement.table == "recipes"

    def test_projection_aliases(self):
        statement = parse_select(
            "SELECT title, size AS n, size * 2 AS twice FROM recipes"
        )
        aliases = [item.alias for item in statement.items]
        assert aliases == ["title", "n", "twice"]

    def test_computed_item_requires_alias(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT size * 2 FROM recipes")

    def test_where_precedence(self):
        statement = parse_select(
            "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3"
        )
        # AND binds tighter than OR.
        assert statement.where.op == "or"

    def test_join_clause(self):
        statement = parse_select(
            "SELECT * FROM a JOIN b ON a.x = b.y"
        )
        join = statement.joins[0]
        assert join.table == "b"
        assert join.left_column == "a.x"
        assert join.right_column == "y"
        assert join.how == "inner"

    def test_join_condition_either_order(self):
        statement = parse_select("SELECT * FROM a JOIN b ON b.y = a.x")
        join = statement.joins[0]
        assert join.left_column == "a.x"
        assert join.right_column == "y"

    def test_left_join(self):
        statement = parse_select("SELECT * FROM a LEFT JOIN b ON x = b.y")
        assert statement.joins[0].how == "left"

    def test_aggregates_detected(self):
        statement = parse_select(
            "SELECT region, COUNT(*) AS n, AVG(size) AS m FROM t GROUP BY region"
        )
        kinds = [
            isinstance(item.expr, AggregateCall) for item in statement.items
        ]
        assert kinds == [False, True, True]

    def test_count_distinct(self):
        statement = parse_select("SELECT COUNT(DISTINCT x) AS n FROM t")
        call = statement.items[0].expr
        assert isinstance(call, AggregateCall)
        assert call.distinct

    def test_star_only_for_count(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT SUM(*) AS s FROM t")

    def test_order_limit_offset(self):
        statement = parse_select(
            "SELECT * FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2"
        )
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending
        assert statement.limit == 5
        assert statement.offset == 2

    def test_in_and_not_in(self):
        parse_select("SELECT * FROM t WHERE x IN (1, 2, 3)")
        parse_select("SELECT * FROM t WHERE x NOT IN ('a', 'b')")

    def test_is_null(self):
        parse_select("SELECT * FROM t WHERE x IS NULL AND y IS NOT NULL")

    def test_like_requires_string(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT * FROM t WHERE x LIKE 5")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT * FROM t garbage extra ,")

    def test_unary_minus(self):
        statement = parse_select("SELECT * FROM t WHERE x > -5")
        assert statement.where is not None


@pytest.fixture()
def db():
    database = Database()
    database.create_table(
        "regions",
        Schema(
            [
                Column("code", ColumnType.TEXT, primary_key=True),
                Column("name", ColumnType.TEXT),
            ]
        ),
    )
    database.create_table(
        "recipes",
        Schema(
            [
                Column("recipe_id", ColumnType.INT, primary_key=True),
                Column("region", ColumnType.TEXT, indexed=True),
                Column("size", ColumnType.INT),
                Column("title", ColumnType.TEXT, nullable=True),
            ]
        ),
    )
    database.table("regions").bulk_insert(
        [{"code": "ITA", "name": "Italy"}, {"code": "JPN", "name": "Japan"}]
    )
    database.table("recipes").bulk_insert(
        [
            {"recipe_id": 1, "region": "ITA", "size": 5, "title": "pasta"},
            {"recipe_id": 2, "region": "ITA", "size": 9, "title": "pizza"},
            {"recipe_id": 3, "region": "JPN", "size": 7, "title": "ramen"},
            {"recipe_id": 4, "region": "JPN", "size": 3, "title": None},
        ]
    )
    return database


class TestPlanner:
    def test_select_star(self, db):
        rows = db.sql("SELECT * FROM recipes ORDER BY recipe_id LIMIT 1")
        assert rows[0]["title"] == "pasta"

    def test_where_filters(self, db):
        rows = db.sql("SELECT recipe_id FROM recipes WHERE size >= 7")
        assert {row["recipe_id"] for row in rows} == {2, 3}

    def test_join_and_projection(self, db):
        rows = db.sql(
            "SELECT title, name FROM recipes "
            "JOIN regions ON region = regions.code "
            "WHERE name = 'Italy' ORDER BY title"
        )
        assert rows == [
            {"title": "pasta", "name": "Italy"},
            {"title": "pizza", "name": "Italy"},
        ]

    def test_group_by_having_order(self, db):
        rows = db.sql(
            "SELECT region, COUNT(*) AS n, AVG(size) AS mean FROM recipes "
            "GROUP BY region HAVING n >= 2 ORDER BY mean DESC"
        )
        assert rows[0]["region"] == "ITA"
        assert rows[0]["mean"] == pytest.approx(7.0)

    def test_aggregate_without_group_by(self, db):
        rows = db.sql("SELECT COUNT(*) AS n, MAX(size) AS biggest FROM recipes")
        assert rows == [{"n": 4, "biggest": 9}]

    def test_count_distinct(self, db):
        rows = db.sql("SELECT COUNT(DISTINCT region) AS n FROM recipes")
        assert rows == [{"n": 2}]

    def test_ungrouped_column_rejected(self, db):
        with pytest.raises(QueryError):
            db.sql("SELECT title, COUNT(*) AS n FROM recipes GROUP BY region")

    def test_having_without_aggregation_rejected(self, db):
        with pytest.raises(QueryError):
            db.sql("SELECT * FROM recipes HAVING size > 2")

    def test_star_with_aggregation_rejected(self, db):
        with pytest.raises(QueryError):
            db.sql("SELECT * FROM recipes GROUP BY region")

    def test_is_null(self, db):
        rows = db.sql("SELECT recipe_id FROM recipes WHERE title IS NULL")
        assert rows == [{"recipe_id": 4}]

    def test_like(self, db):
        rows = db.sql("SELECT title FROM recipes WHERE title LIKE 'p%'")
        assert {row["title"] for row in rows} == {"pasta", "pizza"}

    def test_in_list(self, db):
        rows = db.sql(
            "SELECT recipe_id FROM recipes WHERE region IN ('JPN') "
            "ORDER BY recipe_id"
        )
        assert [row["recipe_id"] for row in rows] == [3, 4]

    def test_not_in(self, db):
        rows = db.sql(
            "SELECT recipe_id FROM recipes WHERE region NOT IN ('JPN')"
        )
        assert {row["recipe_id"] for row in rows} == {1, 2}

    def test_computed_projection(self, db):
        rows = db.sql(
            "SELECT recipe_id, size * 2 + 1 AS odd FROM recipes "
            "WHERE recipe_id = 1"
        )
        assert rows == [{"recipe_id": 1, "odd": 11}]

    def test_distinct(self, db):
        rows = db.sql("SELECT DISTINCT region FROM recipes")
        assert len(rows) == 2

    def test_offset_without_limit(self, db):
        rows = db.sql(
            "SELECT recipe_id FROM recipes ORDER BY recipe_id "
            "LIMIT 100 OFFSET 3"
        )
        assert [row["recipe_id"] for row in rows] == [4]

    def test_sql_matches_fluent_api(self, db):
        from repro.db import col, count

        sql_rows = db.sql(
            "SELECT region, COUNT(*) AS n FROM recipes "
            "WHERE size > 3 GROUP BY region ORDER BY region"
        )
        fluent_rows = (
            db.query("recipes")
            .where(col("size") > 3)
            .group_by("region", n=count())
            .order_by("region")
            .all()
        )
        assert sql_rows == fluent_rows


@pytest.fixture()
def sparse():
    """``t(id INT PRIMARY KEY, x FLOAT NULL)``, empty."""
    database = Database()
    database.create_table(
        "t",
        Schema(
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("x", ColumnType.FLOAT, nullable=True),
            ]
        ),
    )
    return database


@pytest.mark.parametrize(
    "reference", [False, True], ids=["columnar", "reference"]
)
class TestAggregatesOverZeroRows:
    """An ungrouped aggregate is one row, even when no row reaches it:
    ``COUNT`` gives 0 and every other aggregate NULL."""

    @staticmethod
    def _sql(db, text, reference):
        info = {}
        rows = db.prepare(text).execute(
            db, reference=reference, info_out=info
        )
        assert info["executor"] == ("reference" if reference else "columnar")
        return rows

    def test_count_of_empty_table(self, sparse, reference):
        rows = self._sql(sparse, "SELECT COUNT(*) AS n FROM t", reference)
        assert rows == [{"n": 0}]

    def test_every_aggregate_of_empty_table(self, sparse, reference):
        rows = self._sql(
            sparse,
            "SELECT COUNT(*) AS n, COUNT(x) AS c, COUNT(DISTINCT x) AS d, "
            "SUM(x) AS s, AVG(x) AS a, MIN(x) AS lo, MAX(x) AS hi, "
            "STDDEV(x) AS sd, VARIANCE(x) AS v FROM t",
            reference,
        )
        assert rows == [
            {
                "n": 0, "c": 0, "d": 0, "s": None, "a": None,
                "lo": None, "hi": None, "sd": None, "v": None,
            }
        ]

    def test_fully_filtered_count(self, sparse, reference):
        sparse.table("t").insert({"id": 1, "x": 2.0})
        rows = self._sql(
            sparse, "SELECT COUNT(*) AS n FROM t WHERE id > 5", reference
        )
        assert rows == [{"n": 0}]

    def test_having_can_drop_the_row(self, sparse, reference):
        rows = self._sql(
            sparse, "SELECT COUNT(*) AS n FROM t HAVING n > 0", reference
        )
        assert rows == []

    def test_group_by_over_zero_rows_has_no_rows(self, sparse, reference):
        rows = self._sql(
            sparse, "SELECT id, COUNT(*) AS n FROM t GROUP BY id", reference
        )
        assert rows == []
