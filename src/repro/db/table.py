"""Column-oriented table storage with primary-key and secondary indexes.

A :class:`Table` stores rows column-major (one Python list per column), which
keeps bulk analytical scans cache-friendly and makes column extraction
(``table.column_values("size")``) an O(1) reference handout. Deletes use
tombstones; :meth:`Table.compact` reclaims space and renumbers row ids.

Constraint enforcement on write:

* primary key (implicit unique + not-null),
* ``unique`` columns,
* ``nullable`` declarations,
* foreign keys, when the table is attached to a
  :class:`~repro.db.database.Database` that can resolve the referenced table.

Rows arrive one at a time through :meth:`Table.insert`, or all at once
through :meth:`Table.load_columns`, which fills an empty table from whole
columns. The column load makes the same checks one column at a time and
stores the same values, so every other method sees exactly what per-row
inserts would have left.

Every unique and secondary index is a cache of the columns. A new, empty
table starts with each declared index built (and empty), so per-row
inserts maintain them as they go. A column load, :meth:`Table.compact`,
:meth:`Table.create_index` and a rolled-back transaction leave them
unbuilt instead, and the first read that needs one (``get``, ``lookup``,
``contains_value``, an index-narrowed ``scan``, an ``insert`` or
``update`` uniqueness check, or a child row's foreign-key probe)
builds that one index from the live rows, once, under the table's lock.
A child's column load probes a transient set of the parent's keys
instead, so it builds no parent index.
Writes maintain only the indexes already built. A build opens a
``db.index.build`` span and counts in ``repro_db_index_builds_total``.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from ..obs import get_registry, span
from .errors import ConstraintViolation, QueryError, SchemaError
from .expressions import Expression, extract_equalities
from .schema import Column, ColumnType, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

#: Lazy index builds, labelled by table and column.
INDEX_BUILDS_TOTAL = "repro_db_index_builds_total"


class Table:
    """A single table: schema, column arrays, and indexes."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        database: "Database | None" = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self._database = database
        self._columns: dict[str, list[Any]] = {
            column.name: [] for column in schema
        }
        self._live: list[bool] = []
        self._live_count = 0
        # Row-data version: bumped on every mutation so cached columnar
        # blocks (see :meth:`columnar`) know when they are stale.
        self._version = 0
        self._columnar_store: Any = None
        # Unique indexes: column name -> {value: row id}, or None while
        # unbuilt (see :meth:`_index`).
        self._unique_indexes: dict[str, dict[Any, int] | None] = {}
        # Secondary (non-unique) indexes: column name -> {value:
        # [ascending row ids]}, or None while unbuilt.
        self._secondary_indexes: dict[str, dict[Any, list[int]] | None] = {}
        self._index_lock = threading.Lock()
        for column in schema:
            if column.primary_key or column.unique:
                self._unique_indexes[column.name] = {}
            elif column.indexed:
                self._secondary_indexes[column.name] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_count

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self._live_count} rows)"

    @property
    def primary_key_column(self) -> Column | None:
        return self.schema.primary_key

    @property
    def version(self) -> int:
        """Monotonic counter of row-data mutations."""
        return self._version

    def columnar(self):
        """The table's columnar image, rebuilt lazily after mutations.

        Returns a :class:`repro.db.columnar.ColumnStore` whose blocks are
        built per column on first touch and cached until the next write.
        A racing write simply leaves a stale store behind for the garbage
        collector; readers always re-check the version first.
        """
        from .columnar import ColumnStore

        store = self._columnar_store
        if store is None or store.version != self._version:
            store = ColumnStore(self)
            self._columnar_store = store
        return store

    def indexed_columns(self) -> frozenset[str]:
        """Names of columns served by any index (unique or secondary)."""
        return frozenset(self._unique_indexes) | frozenset(
            self._secondary_indexes
        )

    def built_indexes(self) -> frozenset[str]:
        """Names of the indexed columns whose index is built now."""
        return frozenset(
            name
            for indexes in (self._unique_indexes, self._secondary_indexes)
            for name, index in indexes.items()
            if index is not None
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert one row; returns its internal row id.

        Raises:
            SchemaError: on type/shape mismatch.
            ConstraintViolation: on unique or foreign-key failure.
        """
        coerced = self.schema.coerce_row(row)
        self._check_unique(coerced)
        self._check_foreign_keys(coerced)
        row_id = len(self._live)
        for name, values in self._columns.items():
            values.append(coerced[name])
        self._live.append(True)
        self._live_count += 1
        self._version += 1
        self._index_row(row_id, coerced)
        return row_id

    def bulk_insert(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert many rows; returns the number inserted.

        The insert is atomic per-row, not per-batch: a failing row raises
        after earlier rows have been inserted. Callers that need batch
        atomicity should validate first or use a fresh table.
        """
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def load_columns(self, columns: Mapping[str, Any]) -> int:
        """Fill this empty table from whole columns; returns the row count.

        Each column is a list, a tuple or a 1-D numpy array; arrays are
        stored through ``tolist()``, so every cell is a Python object, as
        :meth:`insert` would store it. The load makes every check
        :meth:`insert` makes, one column at a time: unknown and missing
        columns, type and nullability (with the same coercions), primary
        and unique keys, and foreign keys, where a self-reference may point
        only at an earlier row. A table with one defect raises what
        :meth:`insert` raises for that row, with the same message. Nothing
        is stored on any error.

        The load keeps no index: every index is left unbuilt, and the
        first read that needs one builds it. The key check builds no
        row-sized dict either: an INT key column is checked by sorting
        an int64 copy, any other through a set of its values, and only a
        column with a duplicate is walked again to name the first one.

        Raises:
            SchemaError: if the table holds rows (live or tombstoned), on
                columns of unequal length, or on a type mismatch.
            ConstraintViolation: on a unique or foreign-key failure.
        """
        if self._live:
            raise SchemaError(
                f"load_columns needs an empty table; {self.name!r} holds "
                f"{len(self._live)} rows"
            )
        unknown = set(columns) - set(self.schema.column_names)
        if unknown:
            raise SchemaError(f"unknown columns in row: {sorted(unknown)}")
        given: dict[str, list[Any]] = {}
        for name, values in columns.items():
            if getattr(values, "ndim", 1) != 1:
                raise SchemaError(f"column {name!r} is not one-dimensional")
            given[name] = (
                values.tolist() if hasattr(values, "tolist") else list(values)
            )
        lengths = {name: len(values) for name, values in given.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"columns of unequal length: {lengths}")
        count = next(iter(lengths.values()), 0)
        loaded: dict[str, list[Any]] = {}
        for column in self.schema:
            values = given.get(column.name)
            if values is None:
                if not column.nullable:
                    raise SchemaError(
                        f"missing value for column {column.name!r}"
                    )
                values = [None] * count
            loaded[column.name] = _coerce_column(column, values)
        for name in self._unique_indexes:
            self._check_unique_column(name, loaded[name])
        self._check_column_foreign_keys(loaded)
        self._columns = loaded
        self._live = [True] * count
        self._live_count = count
        self._version += 1
        self._invalidate_indexes()
        return count

    def update(self, values: Mapping[str, Any], where: Expression | None = None) -> int:
        """Set ``values`` on all rows matching ``where``; returns the count."""
        for name in values:
            self.schema.column(name)  # raises SchemaError on unknown column
        touched = [
            row_id
            for row_id in self._candidate_row_ids(where)
            if self._live[row_id]
            and (where is None or bool(where.evaluate(self._row_at(row_id))))
        ]
        for row_id in touched:
            old = self._row_at(row_id)
            new = dict(old)
            for name, value in values.items():
                new[name] = self.schema.column(name).coerce(value)
            self._check_unique(new, ignore_row_id=row_id)
            self._check_foreign_keys(new)
            self._unindex_row(row_id, old)
            for name, value in new.items():
                self._columns[name][row_id] = value
            self._index_row(row_id, new)
        if touched:
            self._version += 1
        return len(touched)

    def delete(self, where: Expression | None = None) -> int:
        """Delete all rows matching ``where`` (all rows if ``None``)."""
        touched = [
            row_id
            for row_id in self._candidate_row_ids(where)
            if self._live[row_id]
            and (where is None or bool(where.evaluate(self._row_at(row_id))))
        ]
        for row_id in touched:
            self._unindex_row(row_id, self._row_at(row_id))
            self._live[row_id] = False
        self._live_count -= len(touched)
        if touched:
            self._version += 1
        return len(touched)

    def compact(self) -> int:
        """Drop tombstoned rows; returns rows reclaimed.

        Row ids are renumbered, so every index is left unbuilt.
        """
        dead = len(self._live) - self._live_count
        if not dead:
            return 0
        keep = [row_id for row_id, live in enumerate(self._live) if live]
        for name, values in self._columns.items():
            self._columns[name] = [values[row_id] for row_id in keep]
        self._live = [True] * len(keep)
        self._version += 1
        self._invalidate_indexes()
        return dead

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over all live rows as fresh dicts."""
        names = self.schema.column_names
        columns = [self._columns[name] for name in names]
        for row_id, live in enumerate(self._live):
            if live:
                yield {
                    name: column[row_id]
                    for name, column in zip(names, columns)
                }

    def get(self, pk_value: Any) -> dict[str, Any] | None:
        """Fetch a row by primary key; ``None`` if absent.

        Raises:
            QueryError: if the table has no primary key.
        """
        pk = self.schema.primary_key
        if pk is None:
            raise QueryError(f"table {self.name!r} has no primary key")
        row_id = self._index(pk.name).get(pk_value)
        if row_id is None:
            return None
        return self._row_at(row_id)

    def lookup(self, column_name: str, value: Any) -> list[dict[str, Any]]:
        """Fetch all rows where ``column_name == value``, via index if any."""
        if column_name in self._unique_indexes:
            row_id = self._index(column_name).get(value)
            return [] if row_id is None else [self._row_at(row_id)]
        if column_name in self._secondary_indexes:
            row_ids = self._index(column_name).get(value, ())
            return [self._row_at(row_id) for row_id in row_ids]
        self.schema.column(column_name)
        return [row for row in self.rows() if row[column_name] == value]

    def scan(self, where: Expression | None = None) -> Iterator[dict[str, Any]]:
        """Iterate rows matching ``where``, using indexes when possible.

        Equality conditions on indexed columns in a top-level AND narrow the
        candidate set before the full predicate is applied as a residual
        filter, so indexed scans and full scans return identical results.
        """
        candidates = self._candidate_row_ids(where)
        for row_id in candidates:
            if not self._live[row_id]:
                continue
            row = self._row_at(row_id)
            if where is None or bool(where.evaluate(row)):
                yield row

    def column_values(self, column_name: str) -> list[Any]:
        """All live values of one column, in row order."""
        self.schema.column(column_name)
        values = self._columns[column_name]
        if self._live_count == len(self._live):
            return list(values)
        return [
            values[row_id]
            for row_id, live in enumerate(self._live)
            if live
        ]

    def contains_value(self, column_name: str, value: Any) -> bool:
        """Whether any live row has ``column_name == value`` (index-backed)."""
        if column_name in self._unique_indexes:
            return value in self._index(column_name)
        if column_name in self._secondary_indexes:
            return bool(self._index(column_name).get(value))
        return any(
            row[column_name] == value for row in self.rows()
        )

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def create_index(self, column_name: str) -> None:
        """Declare a secondary hash index on ``column_name`` after the fact.

        The index is built by the first read that needs it.
        """
        self.schema.column(column_name)
        if column_name in self._unique_indexes or (
            column_name in self._secondary_indexes
        ):
            return  # idempotent
        self._secondary_indexes[column_name] = None

    def _invalidate_indexes(self) -> None:
        """Leave every declared index unbuilt, for :meth:`_index` to rebuild."""
        self._unique_indexes = dict.fromkeys(self._unique_indexes)
        self._secondary_indexes = dict.fromkeys(self._secondary_indexes)

    def _index(self, name: str) -> dict[Any, Any]:
        """The index on ``name``, built from the live rows on first read.

        The first reader builds it under the table's lock and publishes
        it only when it is complete, so racing readers wait for that one
        build. Building does not bump :attr:`version`: the row data, and
        so the columnar blocks, stay the same.
        """
        unique = name in self._unique_indexes
        indexes = self._unique_indexes if unique else self._secondary_indexes
        index = indexes[name]
        if index is None:
            with self._index_lock:
                index = indexes[name]
                if index is None:
                    index = self._build_index(name, unique)
                    indexes[name] = index
        return index

    def _build_index(self, name: str, unique: bool) -> dict[Any, Any]:
        values = self._columns[name]
        if self._live_count == len(self._live):
            row_ids: Iterable[int] = range(len(values))
            keys = values
        else:
            row_ids = [row_id for row_id, live in enumerate(self._live) if live]
            keys = [values[row_id] for row_id in row_ids]
        with span(
            "db.index.build", table=self.name, column=name, rows=len(keys)
        ):
            if unique:
                index: dict[Any, Any] = dict(zip(keys, row_ids))
                index.pop(None, None)
            else:
                index = {}
                for row_id, key in zip(row_ids, keys):
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [row_id]
                    else:
                        bucket.append(row_id)
        _count_index_build(self.name, name)
        return index

    def _index_row(self, row_id: int, row: Mapping[str, Any]) -> None:
        for name, index in self._unique_indexes.items():
            value = row[name]
            if index is not None and value is not None:
                index[value] = row_id
        for name, index in self._secondary_indexes.items():
            if index is None:
                continue
            bucket = index.get(row[name])
            if bucket is None:
                index[row[name]] = [row_id]
            else:
                # Buckets stay in ascending row order, as a build leaves
                # them, also when an update re-indexes an earlier row.
                bisect.insort(bucket, row_id)

    def _unindex_row(self, row_id: int, row: Mapping[str, Any]) -> None:
        for name, index in self._unique_indexes.items():
            value = row[name]
            if index is not None and value is not None and (
                index.get(value) == row_id
            ):
                del index[value]
        for name, index in self._secondary_indexes.items():
            if index is None:
                continue
            bucket = index.get(row[name])
            if bucket is not None:
                try:
                    bucket.remove(row_id)
                except ValueError:
                    pass
                if not bucket:
                    del index[row[name]]

    # ------------------------------------------------------------------
    # constraint checks
    # ------------------------------------------------------------------
    def _check_unique(
        self, row: Mapping[str, Any], ignore_row_id: int | None = None
    ) -> None:
        for name in self._unique_indexes:
            value = row[name]
            if value is None:
                continue
            existing = self._index(name).get(value)
            if existing is not None and existing != ignore_row_id:
                raise self._unique_violation(name, value)

    def _check_foreign_keys(self, row: Mapping[str, Any]) -> None:
        if self._database is None:
            return
        for column in self.schema:
            fk = column.foreign_key
            if fk is None:
                continue
            value = row[column.name]
            if value is None:
                continue
            target = self._database.table(fk.table)
            if not target.contains_value(fk.column, value):
                raise self._foreign_key_violation(column, value)

    def _check_unique_column(self, name: str, values: list[Any]) -> None:
        """:meth:`_check_unique` for every row of a column load."""
        column = self.schema.column(name)
        keys = (
            [value for value in values if value is not None]
            if column.nullable
            else values
        )
        if not _repeats(column, keys):
            return
        seen = set()
        for value in keys:
            if value in seen:
                raise self._unique_violation(name, value)
            seen.add(value)

    def _check_column_foreign_keys(self, columns: Mapping[str, list]) -> None:
        """:meth:`_check_foreign_keys` for every row of a column load."""
        if self._database is None:
            return
        for column in self.schema:
            fk = column.foreign_key
            if fk is None:
                continue
            values = columns[column.name]
            target = self._database.table(fk.table)
            if target is self:
                # Per-row inserts see only the rows before their own.
                first: dict[Any, int] = {}
                for row_id, key in enumerate(columns[fk.column]):
                    first.setdefault(key, row_id)
                for row_id, value in enumerate(values):
                    if value is not None and first.get(value, row_id) >= row_id:
                        raise self._foreign_key_violation(column, value)
                continue
            # A transient set of the parent's keys, so the load leaves
            # no parent index built. Distinct values in first-seen
            # order, so the first failure is the earliest failing row's.
            parent_keys = set(target.column_values(fk.column))
            for value in dict.fromkeys(values):
                if value is not None and value not in parent_keys:
                    raise self._foreign_key_violation(column, value)

    def _unique_violation(self, name: str, value: Any) -> ConstraintViolation:
        kind = "primary key" if self.schema.column(name).primary_key else "unique"
        return ConstraintViolation(
            f"{kind} violation on {self.name}.{name}: "
            f"value {value!r} already present"
        )

    def _foreign_key_violation(
        self, column: Column, value: Any
    ) -> ConstraintViolation:
        fk = column.foreign_key
        return ConstraintViolation(
            f"foreign key violation: {self.name}.{column.name}="
            f"{value!r} has no match in {fk.table}.{fk.column}"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _row_at(self, row_id: int) -> dict[str, Any]:
        return {
            name: values[row_id] for name, values in self._columns.items()
        }

    def _candidate_row_ids(self, where: Expression | None) -> Iterable[int]:
        """Row ids worth testing for ``where``; index-narrowed when possible."""
        for name, value in extract_equalities(where):
            bare = name.rsplit(".", 1)[-1]
            if bare in self._unique_indexes:
                row_id = self._index(bare).get(value)
                return [] if row_id is None else [row_id]
            if bare in self._secondary_indexes:
                # A copy of the ascending bucket, so a write made while a
                # scan iterates cannot shift it.
                return tuple(self._index(bare).get(value, ()))
        return range(len(self._live))


def _coerce_column(column: Column, values: list[Any]) -> list[Any]:
    """``values`` as :meth:`Column.coerce` would store each of them.

    A column whose cells already have exactly the stored type is kept as
    is; any other goes through ``coerce`` cell by cell, which widens ints
    in FLOAT columns and raises ``insert``'s error for the first bad cell.
    """
    types = set(map(type, values))
    if column.nullable:
        types.discard(type(None))
    expected = column.type.python_type
    if expected is None:  # JSON stores any value but a forbidden NULL
        clean = type(None) not in types
    else:
        clean = types <= {expected}
    if clean:
        return values
    return [column.coerce(value) for value in values]


def _repeats(column: Column, keys: list[Any]) -> bool:
    """Whether ``keys`` holds a value twice, found without a row-sized
    dict: an INT column sorts an int64 copy, any other column (or an int
    beyond int64) goes through a set."""
    if column.type is ColumnType.INT:
        try:
            ordered = np.sort(np.array(keys, dtype=np.int64))
        except OverflowError:
            pass
        else:
            return bool(np.any(ordered[1:] == ordered[:-1]))
    return len(set(keys)) < len(keys)


def _count_index_build(table: str, column: str) -> None:
    try:
        get_registry().counter(
            INDEX_BUILDS_TOTAL, table=table, column=column
        ).incr()
    except Exception:  # pragma: no cover - metrics must never break reads
        pass
