"""Tests for ``Table.load_columns``: whole-column loads that must leave
exactly what per-row ``Table.insert`` calls leave, or fail the same way."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.db import (
    Column,
    ColumnType,
    ConstraintViolation,
    Database,
    ForeignKey,
    Schema,
    SchemaError,
    col,
    transaction,
)
from tests.oracles import table_state

KINDS = ("fruit", "herb", "root")

ITEM_COLUMNS = (
    "item_id", "code", "kind", "weight", "count", "fresh", "parent_id",
)


def make_db() -> Database:
    """``kinds`` (filled) and an empty ``items`` table with a primary key,
    a nullable unique key, an indexed foreign key, a self-reference and
    one column of each scalar type."""
    db = Database("demo")
    db.create_table(
        "kinds", Schema([Column("kind", ColumnType.TEXT, primary_key=True)])
    )
    db.table("kinds").bulk_insert({"kind": kind} for kind in KINDS)
    db.create_table(
        "items",
        Schema(
            [
                Column("item_id", ColumnType.INT, primary_key=True),
                Column("code", ColumnType.TEXT, unique=True, nullable=True),
                Column(
                    "kind",
                    ColumnType.TEXT,
                    indexed=True,
                    foreign_key=ForeignKey("kinds", "kind"),
                ),
                Column("weight", ColumnType.FLOAT),
                Column("count", ColumnType.INT, indexed=True),
                Column("fresh", ColumnType.BOOL),
                Column(
                    "parent_id",
                    ColumnType.INT,
                    nullable=True,
                    foreign_key=ForeignKey("items", "item_id"),
                ),
            ]
        ),
    )
    return db


def rows_to_columns(rows):
    return {name: [row[name] for row in rows] for name in ITEM_COLUMNS}


ROWS = [
    {"item_id": 10, "code": "a", "kind": "fruit", "weight": 1.5,
     "count": 3, "fresh": True, "parent_id": None},
    {"item_id": 11, "code": None, "kind": "herb", "weight": 2,
     "count": 3, "fresh": False, "parent_id": 10},
    {"item_id": 12, "code": "c", "kind": "fruit", "weight": 0.25,
     "count": 5, "fresh": True, "parent_id": 11},
]


def per_row(rows):
    db = make_db()
    db.table("items").bulk_insert(rows)
    return db.table("items")


def assert_empty(table):
    assert len(table) == 0
    assert table._live == []
    assert all(values == [] for values in table._columns.values())
    assert all(not index for index in table._unique_indexes.values())
    assert all(not index for index in table._secondary_indexes.values())


class TestLoad:
    def test_matches_per_row_inserts(self):
        table = make_db().table("items")
        assert table.load_columns(rows_to_columns(ROWS)) == 3
        assert table_state(table) == table_state(per_row(ROWS))

    def test_int_widens_to_float(self):
        table = make_db().table("items")
        table.load_columns(rows_to_columns(ROWS))
        assert table.get(11)["weight"] == 2.0
        assert type(table.get(11)["weight"]) is float

    def test_numpy_columns_store_python_objects(self):
        table = make_db().table("items")
        columns = rows_to_columns(ROWS)
        columns["item_id"] = np.array([10, 11, 12], dtype=np.int64)
        columns["weight"] = np.array([1.5, 2.0, 0.25])
        columns["fresh"] = np.array([True, False, True])
        columns["kind"] = np.array(["fruit", "herb", "fruit"])
        table.load_columns(columns)
        assert table_state(table) == table_state(per_row(ROWS))

    def test_tuples_accepted(self):
        table = make_db().table("items")
        table.load_columns(
            {name: tuple(values) for name, values in rows_to_columns(ROWS).items()}
        )
        assert table_state(table) == table_state(per_row(ROWS))

    def test_missing_nullable_column_is_null(self):
        table = make_db().table("items")
        columns = rows_to_columns(ROWS)
        del columns["code"], columns["parent_id"]
        table.load_columns(columns)
        assert table.column_values("code") == [None, None, None]

    def test_zero_rows(self):
        table = make_db().table("items")
        assert table.load_columns({name: [] for name in ITEM_COLUMNS}) == 0
        assert_empty(table)

    def test_version_bumped_once_and_blocks_rebuilt(self):
        db = make_db()
        table = db.table("items")
        before = table.version
        table.load_columns(rows_to_columns(ROWS))
        assert table.version == before + 1
        query = "SELECT kind, SUM(weight) AS w FROM items GROUP BY kind ORDER BY kind"
        expected = [{"kind": "fruit", "w": 1.75}, {"kind": "herb", "w": 2.0}]
        assert db.sql(query) == expected
        assert db.sql(query, reference=True) == expected

    def test_later_writes_see_loaded_rows(self):
        table = make_db().table("items")
        table.load_columns(rows_to_columns(ROWS))
        with pytest.raises(ConstraintViolation, match="primary key"):
            table.insert(dict(ROWS[0], code="z"))
        table.insert(dict(ROWS[0], item_id=13, code="d", parent_id=12))
        assert [row["item_id"] for row in table.lookup("kind", "fruit")] == [
            10, 12, 13,
        ]
        assert table.delete(col("count") == 3) == 3
        assert table.compact() == 3
        assert table.get(12)["code"] == "c"


class TestRejects:
    def test_non_empty_table(self):
        table = make_db().table("items")
        table.insert(ROWS[0])
        with pytest.raises(SchemaError, match="empty table"):
            table.load_columns(rows_to_columns(ROWS[1:]))

    def test_tombstoned_table(self):
        table = make_db().table("items")
        table.insert(ROWS[0])
        table.delete()
        with pytest.raises(SchemaError, match="empty table"):
            table.load_columns(rows_to_columns(ROWS[1:]))

    def test_unequal_lengths(self):
        table = make_db().table("items")
        columns = rows_to_columns(ROWS)
        columns["weight"].pop()
        with pytest.raises(SchemaError, match="unequal length"):
            table.load_columns(columns)
        assert_empty(table)

    def test_unknown_column(self):
        table = make_db().table("items")
        with pytest.raises(SchemaError, match="unknown columns in row"):
            table.load_columns(dict(rows_to_columns(ROWS), extra=[1, 2, 3]))

    def test_missing_column(self):
        table = make_db().table("items")
        columns = rows_to_columns(ROWS)
        del columns["weight"]
        with pytest.raises(SchemaError, match="missing value for column 'weight'"):
            table.load_columns(columns)

    def test_two_dimensional_array(self):
        table = make_db().table("items")
        columns = rows_to_columns(ROWS)
        columns["count"] = np.ones((3, 1), dtype=np.int64)
        with pytest.raises(SchemaError, match="one-dimensional"):
            table.load_columns(columns)

    def test_self_reference_to_own_row(self):
        table = make_db().table("items")
        rows = [dict(ROWS[0], parent_id=10)]
        with pytest.raises(ConstraintViolation, match="items.parent_id=10"):
            table.load_columns(rows_to_columns(rows))
        assert_empty(table)


class TestTransaction:
    def test_rolled_back_when_the_block_raises(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with transaction(db):
                db.table("items").load_columns(rows_to_columns(ROWS))
                assert len(db.table("items")) == 3
                raise RuntimeError("boom")
        table = db.table("items")
        assert_empty(table)
        assert db.sql("SELECT item_id FROM items") == []
        # The rolled-back table is empty again, so it loads.
        table.load_columns(rows_to_columns(ROWS))
        assert table_state(table) == table_state(per_row(ROWS))

    def test_kept_when_the_block_succeeds(self):
        db = make_db()
        with transaction(db):
            db.table("items").load_columns(rows_to_columns(ROWS))
        assert len(db.table("items")) == 3


# ----------------------------------------------------------------------
# differential: one load against per-row inserts, zero or one defect
# ----------------------------------------------------------------------
DEFECTS = (
    "none", "wrong_type", "bool_in_int", "bool_in_float", "null",
    "duplicate_primary_key", "duplicate_unique", "dangling_foreign_key",
    "self_reference_to_later_row",
)


WRONG_TYPES = (
    ("item_id", 2.0), ("count", "7"), ("count", 7.5), ("weight", "x"),
    ("fresh", 1), ("fresh", "yes"), ("code", 7), ("kind", b"fruit"),
)
NOT_NULLABLE = ("item_id", "kind", "weight", "count", "fresh")


@st.composite
def tables_with_one_defect(draw):
    n = draw(st.integers(0, 10))
    ids = draw(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True)
    )
    codes = draw(
        st.lists(
            st.one_of(st.none(), st.text("abc", min_size=1, max_size=3)),
            min_size=n,
            max_size=n,
            unique_by=lambda code: code if code is not None else object(),
        )
    )
    rows = []
    for position, item_id in enumerate(ids):
        parent = draw(
            st.one_of(st.none(), st.sampled_from(ids[:position]))
            if position
            else st.none()
        )
        rows.append(
            {
                "item_id": item_id,
                "code": codes[position],
                "kind": draw(st.sampled_from(KINDS)),
                "weight": draw(
                    st.one_of(
                        st.integers(-5, 5),
                        st.floats(allow_nan=False, allow_infinity=False),
                    )
                ),
                "count": draw(st.integers(0, 3)),
                "fresh": draw(st.booleans()),
                "parent_id": parent,
            }
        )
    defect = draw(st.sampled_from(DEFECTS))
    needs_two = defect in (
        "duplicate_primary_key", "duplicate_unique",
        "self_reference_to_later_row",
    )
    if defect == "none" or n == 0 or (needs_two and n == 1):
        return rows, "none"
    row = rows[draw(st.integers(0, n - 1))]
    if defect == "wrong_type":
        name, value = draw(st.sampled_from(WRONG_TYPES))
        row[name] = value
    elif defect == "bool_in_int":
        row["count"] = draw(st.booleans())
    elif defect == "bool_in_float":
        row["weight"] = draw(st.booleans())
    elif defect == "null":
        row[draw(st.sampled_from(NOT_NULLABLE))] = None
    elif defect == "dangling_foreign_key":
        row["kind"] = "stone"
    else:
        earlier, later = sorted(
            draw(
                st.lists(
                    st.integers(0, n - 1), min_size=2, max_size=2, unique=True
                )
            )
        )
        if defect == "duplicate_primary_key":
            # Drop references to the id that disappears, so the
            # duplicate stays the only defect.
            lost = rows[later]["item_id"]
            for other in rows:
                if other["parent_id"] == lost:
                    other["parent_id"] = None
            rows[later]["item_id"] = rows[earlier]["item_id"]
        elif defect == "duplicate_unique":
            rows[earlier]["code"] = rows[later]["code"] = "dup"
        else:
            offset = draw(st.integers(0, later - earlier))
            rows[earlier]["parent_id"] = rows[earlier + offset]["item_id"]
    return rows, defect


def outcome(action):
    try:
        action()
    except (SchemaError, ConstraintViolation) as error:
        return type(error), str(error)
    return None


@settings(max_examples=400, deadline=None)
@given(tables_with_one_defect(), st.booleans())
def test_load_fails_exactly_when_per_row_inserts_fail(case, as_tuples):
    rows, defect = case
    inserted = make_db().table("items")
    expected = outcome(lambda: inserted.bulk_insert(rows))
    loaded = make_db().table("items")
    columns = rows_to_columns(rows)
    if as_tuples:
        columns = {name: tuple(values) for name, values in columns.items()}
    assert outcome(lambda: loaded.load_columns(columns)) == expected, defect
    if defect == "none":
        assert expected is None
        assert table_state(loaded) == table_state(inserted)
    else:
        assert expected is not None, f"insert accepted {defect}"
        assert_empty(loaded)
