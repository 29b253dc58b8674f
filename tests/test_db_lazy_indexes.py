"""Tests for lazily built indexes: every unique and secondary index of a
``Table`` is a cache of its columns, built on the first read that needs
it, and a table whose indexes were built late answers exactly as one
whose indexes were maintained row by row."""

import sys
import threading

import hypothesis.strategies as st
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
from repro.db.table import INDEX_BUILDS_TOTAL
from repro.obs import configure_tracing, get_registry, get_tracer
from tests.oracles import table_state

KINDS = ("fruit", "herb", "root")
ITEM_COLUMNS = ("item_id", "code", "kind", "weight", "count")


def make_db() -> Database:
    """An empty ``kinds`` parent and an empty ``items`` child with a
    primary key, a nullable unique key, two secondary indexes (one a
    foreign key) and one unindexed column."""
    db = Database("lazy")
    db.create_table(
        "kinds", Schema([Column("kind", ColumnType.TEXT, primary_key=True)])
    )
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
            ]
        ),
    )
    return db


def loaded_db(rows) -> Database:
    """Both tables filled by ``load_columns``: no index is built."""
    db = make_db()
    db.table("kinds").load_columns({"kind": list(KINDS)})
    db.table("items").load_columns(
        {name: [row[name] for row in rows] for name in ITEM_COLUMNS}
    )
    return db


def inserted_db(rows) -> Database:
    """Both tables filled row by row: every index built and maintained."""
    db = make_db()
    db.table("kinds").bulk_insert({"kind": kind} for kind in KINDS)
    db.table("items").bulk_insert(rows)
    return db


def build_count(table: str, column: str) -> float:
    return get_registry().counter(
        INDEX_BUILDS_TOTAL, table=table, column=column
    ).value


ROWS = [
    {"item_id": 10, "code": "a", "kind": "fruit", "weight": 1.5, "count": 3},
    {"item_id": 11, "code": None, "kind": "herb", "weight": 2.0, "count": 3},
    {"item_id": 12, "code": "c", "kind": "fruit", "weight": 0.25, "count": 5},
]


class TestBucketOrder:
    """An index-served lookup returns rows in row order, as every other
    read path does, after an update moves a row out and back in."""

    def city_table(self):
        db = Database()
        db.create_table(
            "people",
            Schema(
                [
                    Column("pid", ColumnType.INT, primary_key=True),
                    Column("city", ColumnType.TEXT, indexed=True),
                ]
            ),
        )
        table = db.table("people")
        table.bulk_insert({"pid": pid, "city": "a"} for pid in range(3))
        table.update({"city": "b"}, col("pid") == 0)
        table.update({"city": "a"}, col("pid") == 0)
        return db, table

    def test_lookup_keeps_row_order_after_update(self):
        db, table = self.city_table()
        expected = [0, 1, 2]
        assert [row["pid"] for row in table.lookup("city", "a")] == expected
        assert [row["pid"] for row in table.scan(col("city") == "a")] == (
            expected
        )
        assert [
            row["pid"] for row in db.query("people").where(col("city") == "a")
        ] == expected
        for reference in (False, True):
            rows = db.sql(
                "SELECT pid FROM people WHERE city = 'a'", reference=reference
            )
            assert [row["pid"] for row in rows] == expected

    def test_maintained_bucket_equals_a_fresh_build(self):
        _db, table = self.city_table()
        maintained = dict(table._secondary_indexes["city"])
        table._invalidate_indexes()
        assert table._index("city") == maintained == {"a": [0, 1, 2]}


class TestLoadKeepsNoIndex:
    def test_load_leaves_every_index_unbuilt(self):
        db = make_db()
        items = db.table("items")
        db.table("kinds").load_columns({"kind": list(KINDS)})
        assert db.table("kinds").built_indexes() == frozenset()
        items.load_columns(
            {name: [row[name] for row in ROWS] for name in ITEM_COLUMNS}
        )
        # The foreign-key check probed a transient set of the parent's
        # keys, so the parent's key index is still unbuilt.
        assert db.table("kinds").built_indexes() == frozenset()
        assert items.built_indexes() == frozenset()
        assert items.indexed_columns() == {"item_id", "code", "kind", "count"}
        stats = db.stats()["items"]
        assert stats["indexed"] == ["code", "count", "item_id", "kind"]
        assert stats["built"] == []

    def test_each_read_builds_only_its_index(self):
        db = loaded_db(ROWS)
        items = db.table("items")
        assert [row["item_id"] for row in items.lookup("count", 3)] == [10, 11]
        assert items.built_indexes() == {"count"}
        assert items.get(12)["code"] == "c"
        assert items.built_indexes() == {"count", "item_id"}
        assert items.contains_value("kind", "herb")
        assert items.built_indexes() == {"count", "item_id", "kind"}
        assert db.stats()["items"]["built"] == [
            "count", "item_id", "kind",
        ]

    def test_unindexed_reads_and_sql_build_nothing(self):
        db = loaded_db(ROWS)
        items = db.table("items")
        assert items.lookup("weight", 2.0)[0]["item_id"] == 11
        assert items.column_values("kind") == ["fruit", "herb", "fruit"]
        assert db.sql(
            "SELECT item_id FROM items WHERE kind = ? ORDER BY item_id",
            ["fruit"],
        ) == [{"item_id": 10}, {"item_id": 12}]
        assert items.built_indexes() == frozenset()

    def test_version_not_bumped_by_a_build(self):
        db = loaded_db(ROWS)
        items = db.table("items")
        before = items.version
        items.lookup("kind", "fruit")
        assert items.version == before

    def test_insert_builds_the_unique_indexes_it_checks(self):
        db = loaded_db(ROWS)
        items = db.table("items")
        with pytest.raises(ConstraintViolation, match="primary key"):
            items.insert(dict(ROWS[0], code="z"))
        # The check stops at the first violation, before ``code``.
        assert items.built_indexes() == {"item_id"}
        items.insert(dict(ROWS[0], item_id=13, code="d"))
        assert items.built_indexes() == {"item_id", "code"}
        assert items.get(13)["code"] == "d"

    def test_fresh_table_starts_built(self):
        items = make_db().table("items")
        assert items.built_indexes() == items.indexed_columns()

    def test_compact_create_index_and_rollback_leave_indexes_unbuilt(self):
        db = inserted_db(ROWS)
        items = db.table("items")
        items.delete(col("item_id") == 11)
        items.compact()
        assert items.built_indexes() == frozenset()
        items.create_index("weight")
        assert "weight" in items.indexed_columns()
        assert "weight" not in items.built_indexes()
        assert [row["item_id"] for row in items.lookup("weight", 0.25)] == [12]
        with pytest.raises(RuntimeError):
            with transaction(db):
                items.insert(dict(ROWS[1], item_id=20))
                raise RuntimeError("boom")
        assert items.built_indexes() == frozenset()
        assert items.indexed_columns() == {
            "item_id", "code", "kind", "count", "weight",
        }
        assert [row["item_id"] for row in items.scan()] == [10, 12]

    def test_rollback_drops_an_index_created_inside(self):
        db = loaded_db(ROWS)
        items = db.table("items")
        with pytest.raises(RuntimeError):
            with transaction(db):
                items.create_index("weight")
                raise RuntimeError("boom")
        assert "weight" not in items.indexed_columns()


class TestUniqueKeyCheck:
    """The load's key check names the first duplicate, as ``insert``
    does, without keeping an index."""

    def table(self):
        db = make_db()
        db.table("kinds").load_columns({"kind": list(KINDS)})
        return db.table("items")

    def columns(self, ids, codes=None):
        n = len(ids)
        return {
            "item_id": ids,
            "code": codes if codes is not None else [None] * n,
            "kind": ["fruit"] * n,
            "weight": [1.0] * n,
            "count": [0] * n,
        }

    def test_first_duplicate_in_row_order_is_named(self):
        table = self.table()
        with pytest.raises(
            ConstraintViolation,
            match=r"primary key violation on items.item_id: value 9 ",
        ):
            # Row 3 is the first to repeat a key, though 7 sorts first.
            table.load_columns(self.columns([7, 9, 1, 9, 7]))
        assert table.built_indexes() == table.indexed_columns()
        assert len(table) == 0

    def test_int_beyond_int64_is_checked_by_value(self):
        table = self.table()
        huge = 2**70
        with pytest.raises(ConstraintViolation, match=f"value {huge} "):
            table.load_columns(self.columns([1, huge, -huge, huge]))
        table.load_columns(self.columns([1, huge, -huge]))
        assert table.get(huge)["item_id"] == huge


# ----------------------------------------------------------------------
# differential: one sequence on a lazy and on an eager table
# ----------------------------------------------------------------------
IDS = st.integers(0, 12)
WEIGHTS = st.sampled_from((0.5, 1.0, 2.0))
COUNTS = st.integers(0, 3)
#: Column -> its values, for rows, equality reads and writes. Small
#: domains make keys collide; "stone" breaks the foreign key.
FIELDS = {
    "item_id": IDS,
    "code": st.one_of(st.none(), st.sampled_from("abcde")),
    "kind": st.sampled_from(KINDS + ("stone",)),
    "weight": WEIGHTS,
    "count": COUNTS,
}
ROW = st.fixed_dictionaries(FIELDS)


@st.composite
def equality(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    return name, draw(FIELDS[name])


@st.composite
def where(draw):
    """``None``, one equality, or two ANDed (index-narrowed by the
    first indexed one)."""
    shape = draw(st.sampled_from(("all", "one", "two")))
    if shape == "all":
        return None
    name, value = draw(equality())
    predicate = col(name) == value
    if shape == "two":
        other, other_value = draw(equality())
        predicate = predicate & (col(other) == other_value)
    return predicate


WRITES = st.one_of(
    st.tuples(st.just("insert"), ROW),
    st.tuples(st.just("update"), equality(), where()),
    st.tuples(st.just("delete"), where()),
    st.tuples(st.just("compact")),
    st.tuples(st.just("create_index"), st.sampled_from(sorted(FIELDS))),
    st.tuples(st.just("rolled_back"), st.lists(ROW, max_size=3), where()),
)
READS = st.one_of(
    st.tuples(st.just("get"), IDS),
    st.tuples(st.just("lookup"), equality()),
    st.tuples(st.just("scan"), where()),
    st.tuples(st.just("contains_value"), equality()),
    st.tuples(st.just("materialise")),
)


def outcome(action):
    try:
        return "ok", action()
    except (SchemaError, ConstraintViolation) as error:
        return type(error), str(error)


def apply(db, op):
    """Run one operation; returns what it answered or raised."""
    table = db.table("items")
    kind = op[0]
    if kind == "insert":
        return outcome(lambda: table.insert(op[1]))
    if kind == "update":
        (name, value), predicate = op[1], op[2]
        return outcome(lambda: table.update({name: value}, predicate))
    if kind == "delete":
        return outcome(lambda: table.delete(op[1]))
    if kind == "compact":
        return outcome(table.compact)
    if kind == "create_index":
        return outcome(lambda: table.create_index(op[1]))
    if kind == "rolled_back":
        rows, predicate = op[1], op[2]

        def block():
            with transaction(db):
                for row in rows:
                    outcome(lambda row=row: table.insert(row))
                table.delete(predicate)
                table.create_index("weight")
                raise RuntimeError("roll back")

        with pytest.raises(RuntimeError):
            block()
        return None
    if kind == "get":
        return table.get(op[1])
    if kind == "lookup":
        return table.lookup(*op[1])
    if kind == "scan":
        return list(table.scan(op[1]))
    if kind == "contains_value":
        return table.contains_value(*op[1])
    if kind == "materialise":
        return table_state(table)
    raise AssertionError(kind)


@st.composite
def valid_rows(draw):
    """Up to eight rows that load: distinct ids and codes, known kinds."""
    ids = draw(st.lists(IDS, max_size=8, unique=True))
    codes = draw(
        st.lists(
            st.sampled_from("abcdefgh"),
            min_size=len(ids),
            max_size=len(ids),
            unique=True,
        )
    )
    return [
        {
            "item_id": item_id,
            "code": code if draw(st.booleans()) else None,
            "kind": draw(st.sampled_from(KINDS)),
            "weight": draw(WEIGHTS),
            "count": draw(COUNTS),
        }
        for item_id, code in zip(ids, codes)
    ]


@settings(max_examples=300, deadline=None)
@given(valid_rows(), st.lists(st.one_of(WRITES, READS), max_size=25))
def test_lazy_table_answers_as_an_eager_one(rows, ops):
    lazy = loaded_db(rows)
    eager = inserted_db(rows)
    assert lazy.table("items").built_indexes() == frozenset()
    for op in ops:
        answer = apply(lazy, op)
        assert answer == apply(eager, op), op
        # The eager table keeps every index built and maintained.
        table_state(eager.table("items"))
    assert table_state(lazy.table("items")) == table_state(eager.table("items"))


# ----------------------------------------------------------------------
# concurrency and telemetry
# ----------------------------------------------------------------------
def test_racing_readers_build_one_index():
    db = Database()
    name = "racing_readers"
    db.create_table(
        name,
        Schema(
            [
                Column("row_key", ColumnType.INT, primary_key=True),
                Column("bucket", ColumnType.INT, indexed=True),
            ]
        ),
    )
    table = db.table(name)
    n = 60_000
    table.load_columns(
        {"row_key": list(range(n)), "bucket": [i % 97 for i in range(n)]}
    )
    before = build_count(name, "bucket")
    barrier = threading.Barrier(8, timeout=60)
    answers = [None] * 8

    def read(slot):
        barrier.wait()
        answers[slot] = [row["row_key"] for row in table.lookup("bucket", 5)]

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers[0] == list(range(5, n, 97))
    assert all(answer == answers[0] for answer in answers)
    assert build_count(name, "bucket") - before == 1
    assert table.built_indexes() == {"bucket"}


def test_a_build_opens_a_span():
    db = loaded_db(ROWS)
    tracer = configure_tracing(True)
    try:
        start = tracer.finished_count()
        db.table("items").lookup("kind", "herb")
        db.table("items").lookup("kind", "fruit")
        builds = [
            span
            for span in tracer.spans_since(start)
            if span.name == "db.index.build"
        ]
    finally:
        configure_tracing(False)
        get_tracer().reset()
    assert [span.attrs for span in builds] == [
        {"table": "items", "column": "kind", "rows": 3}
    ]
