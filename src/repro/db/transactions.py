"""Snapshot transactions for the embedded engine.

:func:`transaction` gives all-or-nothing semantics over any sequence of
writes against a :class:`~repro.db.database.Database`::

    with transaction(db):
        db.table("recipes").insert(...)
        db.sql("UPDATE ingredients SET ...")
        raise RuntimeError("boom")   # everything above is rolled back

Implementation: a copy-on-entry snapshot of every table's column arrays,
tombstone vector and declared index names. Indexes are caches of the
columns (see :mod:`repro.db.table`), so no index is copied: a rollback
restores the columns and leaves every index unbuilt, and the first read
that needs one rebuilds it. Suitable for the engine's in-process,
single-writer use; not a concurrency mechanism (there are no concurrent
writers to isolate against).
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from typing import Any

from .database import Database
from .errors import DatabaseError
from .table import Table


class TransactionError(DatabaseError):
    """Misuse of the transaction API (e.g. nested transactions)."""


def _snapshot_table(table: Table) -> dict[str, Any]:
    return {
        "columns": {
            name: list(values) for name, values in table._columns.items()
        },
        "live": list(table._live),
        "live_count": table._live_count,
        # Only the names: an index created inside the block is dropped.
        "secondary": tuple(table._secondary_indexes),
    }


def _restore_table(table: Table, snapshot: dict[str, Any]) -> None:
    table._columns = snapshot["columns"]
    table._live = snapshot["live"]
    table._live_count = snapshot["live_count"]
    table._secondary_indexes = dict.fromkeys(snapshot["secondary"])
    table._invalidate_indexes()
    # Rollback rewrites row data, so cached columnar blocks are stale.
    table._version += 1


_ACTIVE: set[int] = set()


@contextlib.contextmanager
def transaction(database: Database) -> Iterator[Database]:
    """All-or-nothing scope over ``database``.

    On normal exit the changes stand; on any exception every table is
    restored to its state at entry and the exception propagates.

    Raises:
        TransactionError: when nested inside another transaction on the
            same database (snapshot semantics cannot nest meaningfully).
    """
    key = id(database)
    if key in _ACTIVE:
        raise TransactionError(
            f"database {database.name!r} already has an open transaction"
        )
    _ACTIVE.add(key)
    snapshots = {table.name: _snapshot_table(table) for table in database}
    created_before = set(database.table_names())
    try:
        yield database
    except BaseException:
        # Drop tables created inside the transaction, restore the rest.
        for name in set(database.table_names()) - created_before:
            del database._tables[name]
        for table in database:
            _restore_table(table, snapshots[table.name])
        raise
    finally:
        _ACTIVE.discard(key)
