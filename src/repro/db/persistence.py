"""Save/load a :class:`~repro.db.database.Database` to a directory.

Layout::

    <directory>/
      _catalog.json      # table names in creation order + schemas
      <table>.csv        # one CSV per table, header = column names

CSV cells are rendered through a type-aware codec so a round trip restores
the exact Python values: INT/FLOAT/BOOL columns parse back from their
canonical spellings, TEXT passes through, JSON columns hold a JSON document,
and NULL is encoded as the empty cell with a sentinel escape for genuinely
empty strings.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from .database import Database
from .errors import SchemaError
from .schema import Column, ColumnType, ForeignKey, Schema

_CATALOG_FILE = "_catalog.json"
#: Sentinel distinguishing an empty TEXT cell from NULL in CSV.
_EMPTY_TEXT = "\\empty"
_NULL = ""


def _encode_cell(value: Any, column: Column) -> str:
    if value is None:
        return _NULL
    if column.type is ColumnType.JSON:
        return json.dumps(value, sort_keys=True)
    if column.type is ColumnType.BOOL:
        return "true" if value else "false"
    if column.type is ColumnType.TEXT:
        if value == "":
            return _EMPTY_TEXT
        if value in (_NULL,) or value.startswith("\\"):
            return "\\" + value
        return value
    return repr(value)


def _decode_cell(cell: str, column: Column) -> Any:
    if cell == _NULL:
        if column.nullable:
            return None
        if column.type is ColumnType.TEXT:
            # A non-nullable TEXT column can't hold NULL; an unescaped empty
            # cell written by external tooling means the empty string.
            return ""
        raise SchemaError(
            f"NULL cell for non-nullable column {column.name!r}"
        )
    if column.type is ColumnType.TEXT:
        if cell == _EMPTY_TEXT:
            return ""
        if cell.startswith("\\"):
            return cell[1:]
        return cell
    if column.type is ColumnType.INT:
        return int(cell)
    if column.type is ColumnType.FLOAT:
        return float(cell)
    if column.type is ColumnType.BOOL:
        if cell not in ("true", "false"):
            raise SchemaError(f"bad bool cell {cell!r} for {column.name!r}")
        return cell == "true"
    return json.loads(cell)


def _schema_to_json(schema: Schema) -> list[dict[str, Any]]:
    out = []
    for column in schema:
        entry: dict[str, Any] = {
            "name": column.name,
            "type": column.type.value,
            "nullable": column.nullable,
            "primary_key": column.primary_key,
            "unique": column.unique,
            "indexed": column.indexed,
        }
        if column.foreign_key is not None:
            entry["foreign_key"] = {
                "table": column.foreign_key.table,
                "column": column.foreign_key.column,
            }
        out.append(entry)
    return out


def _schema_from_json(entries: list[dict[str, Any]]) -> Schema:
    columns = []
    for entry in entries:
        foreign_key = None
        if "foreign_key" in entry:
            foreign_key = ForeignKey(
                entry["foreign_key"]["table"], entry["foreign_key"]["column"]
            )
        columns.append(
            Column(
                name=entry["name"],
                type=ColumnType(entry["type"]),
                nullable=entry.get("nullable", False),
                primary_key=entry.get("primary_key", False),
                unique=entry.get("unique", False),
                indexed=entry.get("indexed", False),
                foreign_key=foreign_key,
            )
        )
    return Schema(columns)


def save_database(database: Database, directory: str | Path) -> None:
    """Write ``database`` to ``directory`` (created if missing)."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    catalog = {
        "name": database.name,
        "tables": [
            {
                "name": table.name,
                "schema": _schema_to_json(table.schema),
            }
            for table in database
        ],
    }
    with open(path / _CATALOG_FILE, "w", encoding="utf-8") as handle:
        json.dump(catalog, handle, indent=2, sort_keys=True)
    for table in database:
        names = table.schema.column_names
        columns = [table.schema.column(name) for name in names]
        with open(
            path / f"{table.name}.csv", "w", encoding="utf-8", newline=""
        ) as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for row in table.rows():
                writer.writerow(
                    _encode_cell(row[name], column)
                    for name, column in zip(names, columns)
                )


def load_database(directory: str | Path) -> Database:
    """Load a database previously written by :func:`save_database`.

    Tables are recreated in their saved order so foreign keys resolve.
    Each CSV is decoded into per-column lists and stored with one
    :meth:`~repro.db.table.Table.load_columns` call, which makes every
    check a per-row insert makes.

    Raises:
        SchemaError: on a missing catalog, missing table file, or a CSV
            header that disagrees with the catalog schema.
    """
    path = Path(directory)
    catalog_path = path / _CATALOG_FILE
    if not catalog_path.exists():
        raise SchemaError(f"no database catalog at {catalog_path}")
    with open(catalog_path, encoding="utf-8") as handle:
        catalog = json.load(handle)
    database = Database(catalog.get("name", "db"))
    for table_entry in catalog["tables"]:
        schema = _schema_from_json(table_entry["schema"])
        table = database.create_table(table_entry["name"], schema)
        csv_path = path / f"{table.name}.csv"
        if not csv_path.exists():
            raise SchemaError(f"missing table file {csv_path}")
        names = schema.column_names
        columns = [schema.column(name) for name in names]
        with open(csv_path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue  # empty file: zero rows
            if tuple(header) != names:
                raise SchemaError(
                    f"header mismatch in {csv_path}: {header} != {list(names)}"
                )
            values: list[list[Any]] = [[] for _ in names]
            for cells in reader:
                if len(cells) != len(names):
                    raise SchemaError(
                        f"row width mismatch in {csv_path}: {cells!r}"
                    )
                for cell, column, column_values in zip(cells, columns, values):
                    column_values.append(_decode_cell(cell, column))
        table.load_columns(dict(zip(names, values)))
    return database
