"""Database catalog: named tables plus cross-table services.

A :class:`Database` owns :class:`~repro.db.table.Table` objects, resolves
foreign keys between them, hands out :class:`~repro.db.query.Query` builders,
and executes SQL SELECT statements through :mod:`repro.db.sql`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from .errors import QueryError, SchemaError
from .query import Query
from .schema import Schema
from .table import Table


class Database:
    """An in-process database: a catalog of tables."""

    def __init__(self, name: str = "db") -> None:
        # Deferred so that programs which never build a database skip
        # importing the SQL front end.
        from .sql.plan_cache import PlanCache

        self.name = name
        self._tables: dict[str, Table] = {}
        self._plan_cache = PlanCache()

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        """Create a table; raises :class:`SchemaError` if the name is taken
        or a declared foreign key references a missing table/column."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        if not name or name != name.lower() or not name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid table name: {name!r}")
        for column in schema:
            fk = column.foreign_key
            if fk is None:
                continue
            if fk.table not in self._tables and fk.table != name:
                raise SchemaError(
                    f"foreign key on {name}.{column.name} references "
                    f"unknown table {fk.table!r}"
                )
            target = self._tables.get(fk.table)
            if target is not None and fk.column not in target.schema:
                raise SchemaError(
                    f"foreign key on {name}.{column.name} references "
                    f"unknown column {fk.table}.{fk.column}"
                )
        table = Table(name, schema, database=self)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog.

        Raises:
            SchemaError: if the table does not exist or other tables hold
                foreign keys into it.
        """
        if name not in self._tables:
            raise SchemaError(f"no such table {name!r}")
        dependents = [
            other.name
            for other in self._tables.values()
            if other.name != name
            and any(
                column.foreign_key is not None
                and column.foreign_key.table == name
                for column in other.schema
            )
        ]
        if dependents:
            raise SchemaError(
                f"cannot drop {name!r}: referenced by {sorted(dependents)}"
            )
        del self._tables[name]

    def table(self, name: str) -> Table:
        """Look up a table by name.

        Raises:
            QueryError: if the table does not exist.
        """
        table = self._tables.get(name)
        if table is None:
            raise QueryError(
                f"no such table {name!r}; have {sorted(self._tables)}"
            )
        return table

    def table_names(self) -> tuple[str, ...]:
        """All table names, sorted."""
        return tuple(sorted(self._tables))

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __repr__(self) -> str:
        summary = ", ".join(
            f"{table.name}[{len(table)}]" for table in self._tables.values()
        )
        return f"Database({self.name!r}: {summary})"

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, table_name: str) -> Query:
        """Start a fluent query on ``table_name``."""
        self.table(table_name)  # validate early
        return Query(self, table_name)

    def sql(
        self,
        text: str,
        params: list[Any] | tuple[Any, ...] | None = None,
        *,
        reference: bool = False,
    ) -> list[dict[str, Any]]:
        """Execute a SQL statement (SELECT/INSERT/UPDATE/DELETE).

        SELECT returns its result rows; DML statements return
        ``[{"rows": <affected count>}]``. See :mod:`repro.db.sql` for the
        supported dialect. Statements may contain ``?`` placeholders,
        bound positionally from ``params``; plans are cached per
        database (LRU keyed by normalized SQL), so repeated statements
        skip tokenizing and parsing. ``reference=True`` pins SELECTs to
        the row-at-a-time executor instead of the vectorised columnar
        one (for ablations and equivalence checks).
        """
        return self.prepare(text).execute(
            self, params, reference=reference
        )

    def prepare(self, text: str):
        """Parse ``text`` into a cached, reusable prepared statement.

        Returns:
            repro.db.sql.plan_cache.PreparedStatement: execute it with
            ``plan.execute(db, params)``.
        """
        return self._plan_cache.lookup(text)

    def explain(
        self,
        text: str,
        params: list[Any] | tuple[Any, ...] | None = None,
    ) -> dict[str, Any]:
        """Describe how a statement would execute (executor, push-down,
        group-by strategy) without running it."""
        return self.prepare(text).explain(self, params)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-table row counts and index inventory (for diagnostics):
        the ``indexed`` columns, and which of their indexes are ``built``
        (an index is built on the first read that needs it)."""
        return {
            table.name: {
                "rows": len(table),
                "columns": list(table.schema.column_names),
                "indexed": sorted(table.indexed_columns()),
                "built": sorted(table.built_indexes()),
            }
            for table in self._tables.values()
        }
