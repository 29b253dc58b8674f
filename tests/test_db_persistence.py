"""Tests for repro.db.persistence (CSV round trips)."""

import pytest

from repro.db import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Schema,
    SchemaError,
    load_database,
    save_database,
)


def build_db():
    db = Database("demo")
    db.create_table(
        "kinds",
        Schema([Column("kind", ColumnType.TEXT, primary_key=True)]),
    )
    db.create_table(
        "items",
        Schema(
            [
                Column("item_id", ColumnType.INT, primary_key=True),
                Column(
                    "kind",
                    ColumnType.TEXT,
                    indexed=True,
                    foreign_key=ForeignKey("kinds", "kind"),
                ),
                Column("weight", ColumnType.FLOAT),
                Column("fresh", ColumnType.BOOL),
                Column("note", ColumnType.TEXT, nullable=True),
                Column("tags", ColumnType.JSON, nullable=True),
            ]
        ),
    )
    db.table("kinds").bulk_insert([{"kind": "fruit"}, {"kind": "herb"}])
    db.table("items").bulk_insert(
        [
            {
                "item_id": 1, "kind": "fruit", "weight": 1.5, "fresh": True,
                "note": "with, comma", "tags": {"colors": ["red", "green"]},
            },
            {
                "item_id": 2, "kind": "herb", "weight": 0.1, "fresh": False,
                "note": None, "tags": None,
            },
            {
                "item_id": 3, "kind": "herb", "weight": 2.0, "fresh": True,
                "note": "", "tags": [1, 2, 3],
            },
        ]
    )
    return db


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        db = build_db()
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert loaded.name == "demo"
        assert loaded.table_names() == db.table_names()
        assert list(loaded.table("items").rows()) == list(
            db.table("items").rows()
        )

    def test_null_vs_empty_string_distinguished(self, tmp_path):
        db = build_db()
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert loaded.table("items").get(2)["note"] is None
        assert loaded.table("items").get(3)["note"] == ""

    def test_types_restored(self, tmp_path):
        db = build_db()
        save_database(db, tmp_path)
        row = load_database(tmp_path).table("items").get(1)
        assert isinstance(row["item_id"], int)
        assert isinstance(row["weight"], float)
        assert row["fresh"] is True
        assert row["tags"] == {"colors": ["red", "green"]}

    def test_indexes_rebuilt(self, tmp_path):
        db = build_db()
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert len(loaded.table("items").lookup("kind", "herb")) == 2

    def test_schema_preserved(self, tmp_path):
        db = build_db()
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert loaded.table("items").schema == db.table("items").schema

    def test_foreign_keys_still_enforced_after_load(self, tmp_path):
        from repro.db import ConstraintViolation

        db = build_db()
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        with pytest.raises(ConstraintViolation):
            loaded.table("items").insert(
                {
                    "item_id": 9, "kind": "ghost", "weight": 1.0,
                    "fresh": True, "note": None, "tags": None,
                }
            )

    def test_tombstones_not_persisted(self, tmp_path):
        from repro.db import col

        db = build_db()
        db.table("items").delete(col("item_id") == 2)
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert len(loaded.table("items")) == 2
        assert loaded.table("items").get(2) is None

    def test_backslash_prefixed_text_round_trips(self, tmp_path):
        db = Database()
        db.create_table(
            "t",
            Schema(
                [
                    Column("k", ColumnType.INT, primary_key=True),
                    Column("v", ColumnType.TEXT),
                ]
            ),
        )
        db.table("t").insert({"k": 1, "v": "\\empty"})
        db.table("t").insert({"k": 2, "v": "\\x"})
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert loaded.table("t").get(1)["v"] == "\\empty"
        assert loaded.table("t").get(2)["v"] == "\\x"


class TestErrors:
    def test_missing_catalog(self, tmp_path):
        with pytest.raises(SchemaError):
            load_database(tmp_path / "nowhere")

    def test_missing_table_file(self, tmp_path):
        db = build_db()
        save_database(db, tmp_path)
        (tmp_path / "items.csv").unlink()
        with pytest.raises(SchemaError):
            load_database(tmp_path)

    def test_header_mismatch(self, tmp_path):
        db = build_db()
        save_database(db, tmp_path)
        path = tmp_path / "kinds.csv"
        path.write_text("wrong_header\nfruit\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_database(tmp_path)

    def test_save_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "nested"
        save_database(build_db(), target)
        assert (target / "_catalog.json").exists()


class TestColumnLoads:
    def test_culinarydb_round_trips_rows_and_indexes(self, workspace, tmp_path):
        from repro.culinarydb import build_culinarydb
        from tests.oracles import table_state

        db = build_culinarydb(
            workspace.recipes,
            workspace.catalog,
            instructions=workspace.corpus.raw_recipes.instructions,
        )
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert loaded.table_names() == db.table_names()
        for table in db:
            assert table_state(loaded.table(table.name)) == table_state(
                table
            ), table.name

    def test_self_referencing_table_round_trips(self, tmp_path):
        db = Database()
        db.create_table(
            "nodes",
            Schema(
                [
                    Column("node_id", ColumnType.INT, primary_key=True),
                    Column(
                        "parent_id",
                        ColumnType.INT,
                        nullable=True,
                        foreign_key=ForeignKey("nodes", "node_id"),
                    ),
                ]
            ),
        )
        db.table("nodes").insert({"node_id": 1, "parent_id": None})
        db.table("nodes").insert({"node_id": 2, "parent_id": 1})
        db.table("nodes").insert({"node_id": 3, "parent_id": 1})
        save_database(db, tmp_path)
        loaded = load_database(tmp_path).table("nodes")
        assert list(loaded.rows()) == list(db.table("nodes").rows())
        assert loaded.get(3) == {"node_id": 3, "parent_id": 1}

    def test_duplicated_primary_key_rejected(self, tmp_path):
        from repro.db import ConstraintViolation

        save_database(build_db(), tmp_path)
        path = tmp_path / "kinds.csv"
        path.write_text("kind\nfruit\nherb\nfruit\n", encoding="utf-8")
        with pytest.raises(
            ConstraintViolation,
            match="primary key violation on kinds.kind: value 'fruit'",
        ):
            load_database(tmp_path)
