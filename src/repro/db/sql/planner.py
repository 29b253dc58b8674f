"""Plan layer between the SQL parser and the query engine.

Parsed statements pass through three stages here:

1. **Constant folding** (:func:`fold_statement`) — literal-only subtrees
   in WHERE/HAVING/select items collapse to single literals, and AND/OR
   short-circuit on literal TRUE/FALSE, so cached plans carry the
   smallest equivalent expression trees.
2. **Parameter binding** (:func:`bind_statement`) — ``?`` placeholders
   are replaced positionally with caller-supplied scalar values; a bound
   copy of the statement is produced, the cached plan is never mutated.
3. **Lowering** (:func:`lower_statement`) — the statement becomes a
   fluent :class:`~repro.db.query.Query`. Predicates and projections
   ride down with it: single-table queries push the WHERE predicate into
   the table scan (index-narrowed on the row path, compiled to a
   boolean-mask kernel on the columnar path) and only projected columns
   are materialised as column blocks. The vectorised executor then picks
   hash vs. sort group-by strategies per query; ``reference=True`` pins
   the row-at-a-time executor instead.

The planner also validates aggregate usage (aggregates only as top-level
select items; with GROUP BY, plain select items must be grouping
columns) and post-projects output columns in SELECT-list order.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

from ...obs import span
from ..aggregates import sql_aggregate
from ..errors import QueryError
from ..expressions import (
    ColumnRef,
    Expression,
    Literal,
    Parameter,
    fold_constants,
    transform,
)
from .parser import AggregateCall, SelectStatement, parse_select

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database
    from ..query import Query

#: Effectively-unbounded limit used when only OFFSET was given.
_NO_LIMIT = 2**62

#: Python types accepted as statement parameter values.
_SCALAR_TYPES = (bool, int, float, str)


def execute_sql(
    database: "Database",
    text: str,
    params: list[Any] | tuple[Any, ...] | None = None,
    *,
    reference: bool = False,
) -> list[dict[str, Any]]:
    """Parse and run a SELECT statement against ``database``."""
    statement = fold_statement(parse_select(text))
    return execute_statement(
        database, statement, params, reference=reference
    )


def execute_statement(
    database: "Database",
    statement: SelectStatement,
    params: list[Any] | tuple[Any, ...] | None = None,
    *,
    reference: bool = False,
    info_out: dict[str, Any] | None = None,
    max_rows: int | None = None,
) -> list[dict[str, Any]]:
    """Run an already-parsed statement against ``database``.

    When ``info_out`` is given, the executor diagnostics from
    :attr:`Query.last_execution` (executor name, fallback reason family)
    are copied into it so callers such as ``POST /sql`` can report which
    engine actually served the rows, together with ``row_count``, the
    length of the whole result.

    ``max_rows`` returns only the first ``max_rows`` rows
    (:meth:`Query.head`): the columnar executor builds only those, the
    reference executor builds every row and slices them.
    """
    statement = bind_statement(statement, params)
    query = lower_statement(database, statement)
    if reference:
        query = query.reference()
    # The executor choice is only known after execution (the columnar
    # engine may decline mid-compile), so the span attrs read the
    # query's post-run diagnostics.
    with span("db.sql.execute") as execute_span:
        if max_rows is None:
            rows = query.all()
            row_count = len(rows)
        else:
            rows, row_count = query.head(max_rows)
        info = dict(query.last_execution or {}, row_count=row_count)
        if info.get("executor"):
            execute_span.set("executor", info["executor"])
        if info.get("reason_family"):
            execute_span.set("fallback", info["reason_family"])
    if info_out is not None:
        info_out.update(info)
    return rows


def explain_statement(
    database: "Database",
    statement: SelectStatement,
    params: list[Any] | tuple[Any, ...] | None = None,
) -> dict[str, Any]:
    """Describe how ``statement`` would execute (executor, push-down)."""
    from ..columnar import analyze

    if params is None and statement.params:
        # EXPLAIN without bindings: NULL placeholders keep the shape.
        params = [None] * statement.params
    statement = bind_statement(statement, params)
    query = lower_statement(database, statement)
    return analyze(query)


# ----------------------------------------------------------------------
# constant folding
# ----------------------------------------------------------------------
def _fold_expr(expr: Expression) -> Expression:
    if isinstance(expr, AggregateCall):
        if expr.argument is None:
            return expr
        return AggregateCall(
            expr.function, fold_constants(expr.argument), expr.distinct
        )
    return fold_constants(expr)


def fold_statement(statement: SelectStatement) -> SelectStatement:
    """Constant-fold every expression tree in a SELECT statement."""
    changes: dict[str, Any] = {}
    if statement.where is not None:
        changes["where"] = fold_constants(statement.where)
    if statement.having is not None:
        changes["having"] = fold_constants(statement.having)
    if statement.items:
        changes["items"] = tuple(
            dataclasses.replace(item, expr=_fold_expr(item.expr))
            for item in statement.items
        )
    if not changes:
        return statement
    return dataclasses.replace(statement, **changes)


# ----------------------------------------------------------------------
# parameter binding
# ----------------------------------------------------------------------
def check_params(
    expected: int, params: list[Any] | tuple[Any, ...] | None
) -> list[Any]:
    """Validate a parameter list against a statement's placeholder count.

    Raises:
        QueryError: on count mismatch or non-scalar parameter values.
    """
    values = list(params) if params is not None else []
    if len(values) != expected:
        raise QueryError(
            f"statement expects {expected} parameter"
            f"{'s' if expected != 1 else ''}, got {len(values)}"
        )
    for index, value in enumerate(values):
        if value is not None and not isinstance(value, _SCALAR_TYPES):
            raise QueryError(
                f"parameter ?{index + 1} must be a scalar "
                f"(null/bool/int/float/str), got {type(value).__name__}"
            )
    return values


def bind_expression(expr: Expression, values: list[Any]) -> Expression:
    """Replace every :class:`Parameter` in ``expr`` with its bound value."""

    def bind(node: Expression) -> Expression:
        if isinstance(node, Parameter):
            return Literal(values[node.index])
        if isinstance(node, AggregateCall) and node.argument is not None:
            return AggregateCall(
                node.function,
                transform(node.argument, bind),
                node.distinct,
            )
        from ..expressions import InList

        if isinstance(node, InList):
            # transform() maps Parameter values to Literal expressions;
            # IN lists hold raw Python values, so unwrap them here.
            return InList(
                node.inner,
                tuple(
                    value.value if isinstance(value, Literal) else value
                    for value in node.values
                ),
            )
        return node

    return transform(expr, bind)


def bind_statement(statement: Any, params: Any = None) -> Any:
    """Bind positional parameters into any parsed statement.

    Returns a bound copy (the input is never mutated); statements without
    placeholders are returned as-is when no parameters are supplied.
    After binding, newly-literal subtrees are folded again so e.g.
    ``size > ? + 1`` executes as a single literal comparison.
    """
    values = check_params(statement.params, params)
    if not values:
        return statement
    if isinstance(statement, SelectStatement):
        bound = dataclasses.replace(
            statement,
            items=tuple(
                dataclasses.replace(
                    item, expr=bind_expression(item.expr, values)
                )
                for item in statement.items
            ),
            where=(
                None
                if statement.where is None
                else bind_expression(statement.where, values)
            ),
            having=(
                None
                if statement.having is None
                else bind_expression(statement.having, values)
            ),
            params=0,
        )
        return fold_statement(bound)
    # DML statements (import here: dml imports this module lazily).
    from .dml import DeleteStatement, InsertStatement, UpdateStatement

    if isinstance(statement, InsertStatement):
        return dataclasses.replace(
            statement,
            rows=tuple(
                tuple(
                    values[cell.index]
                    if isinstance(cell, Parameter)
                    else cell
                    for cell in row
                )
                for row in statement.rows
            ),
            params=0,
        )
    if isinstance(statement, UpdateStatement):
        return dataclasses.replace(
            statement,
            assignments=tuple(
                (
                    column,
                    fold_constants(bind_expression(expr, values)),
                )
                for column, expr in statement.assignments
            ),
            where=(
                None
                if statement.where is None
                else fold_constants(
                    bind_expression(statement.where, values)
                )
            ),
            params=0,
        )
    if isinstance(statement, DeleteStatement):
        return dataclasses.replace(
            statement,
            where=(
                None
                if statement.where is None
                else fold_constants(
                    bind_expression(statement.where, values)
                )
            ),
            params=0,
        )
    raise QueryError(f"cannot bind parameters into {statement!r}")


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def lower_statement(
    database: "Database", statement: SelectStatement
) -> "Query":
    """Lower a parsed SELECT onto the fluent query engine."""
    query = database.query(statement.table)
    for join in statement.joins:
        query = query.join(
            join.table, on=(join.left_column, join.right_column), how=join.how
        )
    if statement.where is not None:
        query = query.where(statement.where)

    aggregate_items = [
        item for item in statement.items if isinstance(item.expr, AggregateCall)
    ]
    plain_items = [
        item
        for item in statement.items
        if not isinstance(item.expr, AggregateCall)
    ]
    has_aggregation = bool(statement.group_by) or bool(aggregate_items)

    if has_aggregation:
        if statement.star:
            raise QueryError("SELECT * cannot be combined with aggregation")
        group_columns = statement.group_by
        grouped_names = {name.rsplit(".", 1)[-1] for name in group_columns}
        for item in plain_items:
            if not isinstance(item.expr, ColumnRef):
                raise QueryError(
                    f"select item {item.alias!r} must be a grouping column "
                    "or an aggregate"
                )
            bare = item.expr.name.rsplit(".", 1)[-1]
            if bare not in grouped_names:
                raise QueryError(
                    f"column {item.expr.name!r} is neither grouped nor "
                    "aggregated"
                )
        aggregates = {}
        for item in aggregate_items:
            call = item.expr
            assert isinstance(call, AggregateCall)
            if item.alias in aggregates:
                raise QueryError(f"duplicate output column {item.alias!r}")
            aggregates[item.alias] = sql_aggregate(
                call.function, call.argument, call.distinct
            )
        query = query.group_by(*group_columns, **aggregates)
        if statement.having is not None:
            query = query.having(statement.having)
        # Rename grouped output columns to their select aliases.
        select_items: list[str | tuple[Any, str]] = []
        for item in statement.items:
            if isinstance(item.expr, AggregateCall):
                select_items.append(item.alias)
            else:
                assert isinstance(item.expr, ColumnRef)
                select_items.append((ColumnRef(item.expr.name), item.alias))
        query = query.select(*select_items)
    elif statement.having is not None:
        raise QueryError("HAVING requires GROUP BY or aggregates")
    elif not statement.star:
        query = query.select(
            *[(item.expr, item.alias) for item in statement.items]
        )

    if statement.distinct:
        query = query.distinct()
    if statement.order_by:
        query = query.order_by(
            *[
                (order.column, "desc" if order.descending else "asc")
                for order in statement.order_by
            ]
        )
    if statement.limit is not None or statement.offset:
        query = query.limit(
            statement.limit if statement.limit is not None else _NO_LIMIT,
            offset=statement.offset,
        )
    return query
