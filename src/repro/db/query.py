"""Fluent query builder over database tables.

Example::

    from repro.db import col, count, avg

    rows = (
        db.query("recipes")
        .join("recipe_ingredients", on=("recipe_id", "recipe_id"))
        .where(col("region_code") == "ITA")
        .group_by("region_code", n=count(), mean_size=avg("size"))
        .order_by(("n", "desc"))
        .limit(10)
        .all()
    )

Execution pipeline: base scan (index-narrowed when there are no joins) →
hash joins → residual ``where`` filter → group-by folding → projection →
distinct → order-by → offset/limit. Queries are immutable: every builder
method returns a new :class:`Query`, so partially-built queries can be
shared and extended safely.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from . import columnar as _columnar
from .aggregates import Aggregate
from .errors import QueryError
from .expressions import BooleanOp, ColumnRef, Expression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database


@dataclasses.dataclass(frozen=True, slots=True)
class _Join:
    table_name: str
    left_column: str
    right_column: str
    how: str  # "inner" or "left"


@dataclasses.dataclass(frozen=True, slots=True)
class _Projection:
    expr: Expression
    alias: str


@dataclasses.dataclass(frozen=True, slots=True)
class _Ordering:
    key: str
    descending: bool


class Query:
    """An immutable, composable SELECT pipeline."""

    def __init__(self, database: "Database", table_name: str) -> None:
        self._database = database
        self._table_name = table_name
        self._joins: tuple[_Join, ...] = ()
        self._where: Expression | None = None
        self._group_columns: tuple[str, ...] = ()
        self._having: Expression | None = None
        self._aggregates: tuple[tuple[str, Aggregate], ...] = ()
        self._projections: tuple[_Projection, ...] | None = None
        self._orderings: tuple[_Ordering, ...] = ()
        self._distinct = False
        self._limit: int | None = None
        self._offset = 0
        self._use_reference = False
        # Executor diagnostics from the most recent execution (not
        # copied by the builder: they describe a run, not the query).
        self._last_execution: dict[str, Any] | None = None
        self._fallback_reason: str | None = None
        self._fallback_family: str | None = None
        # Length of the whole result of the last columnar run (see
        # :meth:`head`).
        self._row_count: int | None = None

    # ------------------------------------------------------------------
    # builder methods (each returns a modified copy)
    # ------------------------------------------------------------------
    def _copy(self) -> "Query":
        clone = Query(self._database, self._table_name)
        clone._joins = self._joins
        clone._where = self._where
        clone._group_columns = self._group_columns
        clone._having = self._having
        clone._aggregates = self._aggregates
        clone._projections = self._projections
        clone._orderings = self._orderings
        clone._distinct = self._distinct
        clone._limit = self._limit
        clone._offset = self._offset
        clone._use_reference = self._use_reference
        return clone

    def join(
        self,
        table_name: str,
        on: tuple[str, str],
        how: str = "inner",
    ) -> "Query":
        """Hash-join another table.

        Args:
            table_name: the table to join.
            on: ``(left_column, right_column)`` equality pair; the left
                column is resolved against the rows built so far, the right
                column against ``table_name``.
            how: ``"inner"`` (default) or ``"left"``.
        """
        if how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {how!r}")
        if not isinstance(on, tuple) or len(on) != 2:
            raise QueryError("join 'on' must be a (left_column, right_column) pair")
        clone = self._copy()
        clone._joins = self._joins + (_Join(table_name, on[0], on[1], how),)
        return clone

    def where(self, predicate: Expression) -> "Query":
        """Filter rows; successive calls AND their predicates together."""
        if not isinstance(predicate, Expression):
            raise QueryError(f"where() needs an Expression, got {predicate!r}")
        clone = self._copy()
        if self._where is None:
            clone._where = predicate
        else:
            clone._where = BooleanOp("and", (self._where, predicate))
        return clone

    def group_by(self, *columns: str, **aggregates: Aggregate) -> "Query":
        """Group rows by ``columns`` and compute named aggregates.

        Keyword names become output column names, e.g.
        ``group_by("region", n=count())`` yields rows with keys
        ``region`` and ``n``.
        """
        if not columns and not aggregates:
            raise QueryError("group_by() needs columns and/or aggregates")
        for alias, aggregate in aggregates.items():
            if not isinstance(aggregate, Aggregate):
                raise QueryError(
                    f"aggregate {alias!r} must be an Aggregate, got "
                    f"{aggregate!r}"
                )
        clone = self._copy()
        clone._group_columns = tuple(columns)
        clone._aggregates = tuple(aggregates.items())
        return clone

    def having(self, predicate: Expression) -> "Query":
        """Filter grouped rows (after aggregation, before projection)."""
        if not isinstance(predicate, Expression):
            raise QueryError(f"having() needs an Expression, got {predicate!r}")
        clone = self._copy()
        if self._having is None:
            clone._having = predicate
        else:
            clone._having = BooleanOp("and", (self._having, predicate))
        return clone

    def select(self, *columns: str | tuple[Expression, str]) -> "Query":
        """Project output columns.

        Each item is either a column name (optionally ``"name AS alias"``
        via a plain string with `` as ``), or an ``(expression, alias)``
        pair for computed columns.
        """
        projections: list[_Projection] = []
        for item in columns:
            if isinstance(item, str):
                name, alias = _split_alias(item)
                projections.append(_Projection(ColumnRef(name), alias))
            elif (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[0], Expression)
                and isinstance(item[1], str)
            ):
                projections.append(_Projection(item[0], item[1]))
            else:
                raise QueryError(f"bad select item: {item!r}")
        if not projections:
            raise QueryError("select() needs at least one column")
        clone = self._copy()
        clone._projections = tuple(projections)
        return clone

    def order_by(self, *keys: str | tuple[str, str]) -> "Query":
        """Sort output rows.

        Each key is a column name (ascending) or a ``(name, "desc")`` /
        ``(name, "asc")`` pair.
        """
        orderings: list[_Ordering] = []
        for key in keys:
            if isinstance(key, str):
                orderings.append(_Ordering(key, descending=False))
            elif isinstance(key, tuple) and len(key) == 2:
                name, direction = key
                if direction.lower() not in ("asc", "desc"):
                    raise QueryError(f"bad sort direction {direction!r}")
                orderings.append(
                    _Ordering(name, descending=direction.lower() == "desc")
                )
            else:
                raise QueryError(f"bad order_by key: {key!r}")
        if not orderings:
            raise QueryError("order_by() needs at least one key")
        clone = self._copy()
        clone._orderings = tuple(orderings)
        return clone

    def distinct(self) -> "Query":
        """Drop duplicate output rows (after projection)."""
        clone = self._copy()
        clone._distinct = True
        return clone

    def limit(self, n: int, offset: int = 0) -> "Query":
        """Keep at most ``n`` rows, skipping the first ``offset``."""
        if n < 0 or offset < 0:
            raise QueryError("limit and offset must be non-negative")
        clone = self._copy()
        clone._limit = n
        clone._offset = offset
        return clone

    def reference(self, flag: bool = True) -> "Query":
        """Force the row-at-a-time reference executor.

        The vectorised columnar executor is used automatically whenever a
        query shape supports it; this switch pins the query to the row
        path for ablations, debugging, and equivalence testing. The row
        path builds every result row, even under :meth:`head`'s cap.
        """
        clone = self._copy()
        clone._use_reference = flag
        return clone

    @property
    def last_execution(self) -> dict[str, Any] | None:
        """Executor diagnostics from the most recent execution.

        ``{"executor": "columnar" | "reference", "reason": ...,
        "reason_family": ...}`` — the reason is ``None`` on the fast
        path, the pin/fallback cause otherwise (the family is the
        low-cardinality slug used as the ``repro_sql_fallback_total``
        metric label). ``None`` before the first execution.
        """
        return self._last_execution

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def all(self) -> list[dict[str, Any]]:
        """Execute and return all result rows."""
        return list(self._execute())

    def head(self, n: int) -> tuple[list[dict[str, Any]], int]:
        """The first ``n`` result rows, and how many rows the whole result
        holds.

        The columnar executor builds only the ``n`` row dicts it returns.
        The reference executor builds every row, then slices them.
        """
        rows = list(self._execute(max_rows=n))
        if self._last_execution["executor"] == "columnar":
            return rows, self._row_count
        return rows[:n], len(rows)

    def first(self) -> dict[str, Any] | None:
        """Execute and return the first row, or ``None`` if empty."""
        for row in self._execute():
            return row
        return None

    def count(self) -> int:
        """Number of result rows."""
        return sum(1 for _row in self._execute())

    def column(self, name: str) -> list[Any]:
        """Execute and extract a single output column as a list."""
        return [row[name] for row in self._execute()]

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self._execute()

    # ------------------------------------------------------------------
    # pipeline internals
    # ------------------------------------------------------------------
    def _execute(
        self, max_rows: int | None = None
    ) -> Iterator[dict[str, Any]]:
        """The result rows; ``max_rows`` caps those the columnar
        executor builds (the reference executor ignores it)."""
        if not self._use_reference:
            produced = _columnar.execute(self, max_rows)
            if produced is not None:
                # Vectorised scan/join/filter/group/having/projection/
                # distinct/order/limit ran end to end; nothing left to
                # do row-at-a-time.
                self._last_execution = {
                    "executor": "columnar",
                    "reason": None,
                    "reason_family": None,
                }
                return iter(produced)
            self._last_execution = {
                "executor": "reference",
                "reason": self._fallback_reason,
                "reason_family": self._fallback_family,
            }
        else:
            self._last_execution = {
                "executor": "reference",
                "reason": "reference requested",
                "reason_family": "pinned",
            }
        rows = self._scan_base()
        for join in self._joins:
            rows = self._apply_join(rows, join)
        if self._where is not None and (
            self._joins or not self._pushed_where
        ):
            predicate = self._where
            rows = (row for row in rows if bool(predicate.evaluate(row)))
        if self._group_columns or self._aggregates:
            rows = iter(self._apply_group_by(rows))
            if self._having is not None:
                having = self._having
                rows = (
                    row for row in rows if bool(having.evaluate(row))
                )
        if self._projections is not None:
            projections = self._projections
            rows = (
                {
                    projection.alias: projection.expr.evaluate(row)
                    for projection in projections
                }
                for row in rows
            )
        if self._distinct:
            rows = _unique_rows(rows)
        if self._orderings:
            rows = iter(self._apply_order(list(rows)))
        if self._limit is not None or self._offset:
            rows = _slice_rows(rows, self._offset, self._limit)
        return rows

    @property
    def _pushed_where(self) -> bool:
        """Whether the base scan already applied the full predicate."""
        return not self._joins

    def _scan_base(self) -> Iterator[dict[str, Any]]:
        table = self._database.table(self._table_name)
        if self._pushed_where:
            return table.scan(self._where)
        return table.rows()

    def _apply_join(
        self, rows: Iterable[Mapping[str, Any]], join: _Join
    ) -> Iterator[dict[str, Any]]:
        right_table = self._database.table(join.table_name)
        right_names = right_table.schema.column_names
        # Build the hash side over the right table. NULL keys never
        # enter the buckets: per SQL, NULL = NULL is unknown, so a NULL
        # join key matches nothing (LEFT JOIN emits the null-padded row).
        buckets: dict[Any, list[dict[str, Any]]] = {}
        for right_row in right_table.rows():
            key = right_row[join.right_column]
            if key is None:
                continue
            buckets.setdefault(key, []).append(right_row)
        left_ref = ColumnRef(join.left_column)
        null_right = {name: None for name in right_names}
        for left_row in rows:
            key = left_ref.evaluate(left_row)
            matches = () if key is None else buckets.get(key, ())
            if not matches:
                if join.how == "left":
                    yield _merge_rows(left_row, null_right, join.table_name)
                continue
            for right_row in matches:
                yield _merge_rows(left_row, right_row, join.table_name)

    def _apply_group_by(
        self, rows: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        group_refs = [ColumnRef(name) for name in self._group_columns]
        groups: dict[tuple[Any, ...], list[Any]] = {}
        order: list[tuple[Any, ...]] = []
        for row in rows:
            key = tuple(ref.evaluate(row) for ref in group_refs)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [agg.initial() for _alias, agg in self._aggregates]
                groups[key] = accumulators
                order.append(key)
            for position, (_alias, aggregate) in enumerate(self._aggregates):
                accumulators[position] = aggregate.step(
                    accumulators[position], row
                )
        if not order and not self._group_columns:
            # An ungrouped aggregate is one group, even over zero rows.
            groups[()] = [agg.initial() for _alias, agg in self._aggregates]
            order.append(())
        results: list[dict[str, Any]] = []
        for key in order:
            out: dict[str, Any] = dict(zip(self._group_columns, key))
            for position, (alias, aggregate) in enumerate(self._aggregates):
                out[alias] = aggregate.final(groups[key][position])
            results.append(out)
        return results

    def _apply_order(
        self, rows: list[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        # Stable multi-key sort: apply keys right-to-left. NULLs sort
        # last in BOTH directions (SQL "NULLS LAST"), so null rows are
        # partitioned off before each (stable, possibly reversed) pass.
        for ordering in reversed(self._orderings):
            ref = ColumnRef(ordering.key)
            non_null: list[tuple[Any, dict[str, Any]]] = []
            nulls: list[dict[str, Any]] = []
            for row in rows:
                value = ref.evaluate(row)
                if value is None:
                    nulls.append(row)
                else:
                    non_null.append((value, row))
            non_null.sort(
                key=lambda pair: pair[0], reverse=ordering.descending
            )
            rows = [row for _value, row in non_null] + nulls
        return rows


def _split_alias(item: str) -> tuple[str, str]:
    lowered = item.lower()
    if " as " in lowered:
        position = lowered.index(" as ")
        name = item[:position].strip()
        alias = item[position + 4 :].strip()
        if not name or not alias:
            raise QueryError(f"bad select alias: {item!r}")
        return name, alias
    name = item.strip()
    return name, name.rsplit(".", 1)[-1]


def _merge_rows(
    left: Mapping[str, Any], right: Mapping[str, Any], right_table: str
) -> dict[str, Any]:
    merged = dict(left)
    for name, value in right.items():
        if name in merged:
            merged[f"{right_table}.{name}"] = value
        else:
            merged[name] = value
    return merged


def _unique_rows(
    rows: Iterable[Mapping[str, Any]],
) -> Iterator[dict[str, Any]]:
    seen: set[tuple[tuple[str, Any], ...]] = set()
    for row in rows:
        try:
            key = tuple(sorted(row.items()))
        except TypeError:
            key = tuple(sorted((name, repr(value)) for name, value in row.items()))
        if key not in seen:
            seen.add(key)
            yield dict(row)


def _slice_rows(
    rows: Iterator[dict[str, Any]], offset: int, limit: int | None
) -> Iterator[dict[str, Any]]:
    produced = 0
    skipped = 0
    for row in rows:
        if skipped < offset:
            skipped += 1
            continue
        if limit is not None and produced >= limit:
            return
        produced += 1
        yield row
