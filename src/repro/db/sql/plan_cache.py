"""Prepared statements and a thread-safe LRU plan cache.

``Database.sql`` routes every statement through a per-database
:class:`PlanCache`, so hot queries are tokenized, parsed, and
constant-folded exactly once, even when threads ask for them at once.
It is two :class:`~repro.lru.ResultCache` maps:

* **plans**, keyed by the normalized token stream ``(kind, value)``
  tuple, so whitespace and keyword-case variants of the same statement
  share one plan entry;
* **aliases**, a raw-text fast path from the exact SQL string to its
  normalized key, skipping even tokenization on repeat queries. An
  alias whose plan was evicted simply misses, and the lookup re-parses.

Parameterised statements (``?`` placeholders) make the cache effective
for templated workloads: the plan for ``... WHERE cuisine = ?`` is
parsed once and re-executed with fresh bindings per call, which is what
``POST /sql`` uses to stop re-parsing hot queries on every request.

Cache behaviour is observable: ``repro_sql_plan_cache_hits_total`` /
``repro_sql_plan_cache_misses_total`` counters and a ``db.sql.plan``
span (attribute ``cache=hit|miss``) are emitted per lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...lru import MISSING, ResultCache
from ...obs import get_registry, span
from .tokenizer import tokenize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database

#: Metric names for plan-cache behaviour (exposed via ``/metrics``).
PLAN_CACHE_HITS = "repro_sql_plan_cache_hits_total"
PLAN_CACHE_MISSES = "repro_sql_plan_cache_misses_total"

#: Default number of distinct plans kept per database.
DEFAULT_PLAN_CACHE_SIZE = 128


class PreparedStatement:
    """A parsed, constant-folded statement ready for repeated execution.

    Attributes:
        sql: the source text the plan was built from.
        statement: the folded statement AST (never mutated by execution;
            parameter binding produces bound copies).
        kind: ``"select"``, ``"insert"``, ``"update"`` or ``"delete"``.
        params: number of ``?`` placeholders expected at execution.
    """

    __slots__ = ("sql", "statement", "kind", "params")

    def __init__(self, sql: str, statement: Any) -> None:
        self.sql = sql
        self.statement = statement
        self.kind = type(statement).__name__.removesuffix(
            "Statement"
        ).lower()
        self.params = statement.params

    def execute(
        self,
        database: "Database",
        params: list[Any] | tuple[Any, ...] | None = None,
        *,
        reference: bool = False,
        info_out: dict[str, Any] | None = None,
        max_rows: int | None = None,
    ) -> list[dict[str, Any]]:
        """Run the plan against ``database`` with ``params`` bound.

        ``info_out`` (SELECT only) receives the executor diagnostics —
        which engine served the rows and, on fallback, the reason family
        — and the result's full ``row_count``. ``max_rows`` (SELECT only)
        returns just the first rows; the columnar executor builds no
        others (see :func:`~repro.db.sql.planner.execute_statement`).
        """
        from .dml import execute_parsed
        from .parser import SelectStatement
        from .planner import execute_statement, bind_statement

        if isinstance(self.statement, SelectStatement):
            return execute_statement(
                database,
                self.statement,
                params,
                reference=reference,
                info_out=info_out,
                max_rows=max_rows,
            )
        return execute_parsed(
            database, bind_statement(self.statement, params)
        )

    def explain(
        self,
        database: "Database",
        params: list[Any] | tuple[Any, ...] | None = None,
    ) -> dict[str, Any]:
        """Planner's view of how this statement would execute."""
        from .parser import SelectStatement
        from .planner import explain_statement

        if isinstance(self.statement, SelectStatement):
            return explain_statement(database, self.statement, params)
        return {"table": self.statement.table, "executor": self.kind}

    def __repr__(self) -> str:
        return f"PreparedStatement({self.kind}, {self.sql!r})"


class PlanCache:
    """Thread-safe LRU cache of :class:`PreparedStatement` objects."""

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        maxsize = max(1, maxsize)
        # normalized key -> plan (shared across spelling variants)
        self._plans = ResultCache(capacity=maxsize)
        # raw SQL text -> normalized key. Many spellings may map to few
        # plans, and each alias costs one slot plus the SQL string, so
        # aliases are bounded on their own.
        self._aliases = ResultCache(capacity=4 * maxsize)

    def __len__(self) -> int:
        return len(self._plans)

    def lookup(self, text: str) -> PreparedStatement:
        """The cached plan for ``text``, parsing and caching on miss.

        Raises:
            SqlSyntaxError: when ``text`` does not tokenize or parse.
        """
        with span("db.sql.plan") as plan_span:
            key = self._aliases.probe(text)
            plan = MISSING if key is MISSING else self._plans.probe(key)
            hit = plan is not MISSING
            if not hit:
                # Normalize before deciding hit/miss so case/whitespace
                # variants of a cached statement still count as hits.
                key = tuple(
                    (token.kind, token.value) for token in tokenize(text)
                )
                plan, source = self._plans.get_or_compute(
                    key, lambda: _prepare(text)
                )
                self._aliases.put(text, key)
                hit = source == "hit"
            plan_span.set("cache", "hit" if hit else "miss")
            plan_span.set("kind", plan.kind)
            get_registry().counter(
                PLAN_CACHE_HITS if hit else PLAN_CACHE_MISSES
            ).incr()
            return plan

    def info(self) -> dict[str, int]:
        """Cache occupancy and hit/miss totals (diagnostics)."""
        stats = self._plans.stats()
        return {
            "size": stats.size,
            "hits": stats.hits,
            "misses": stats.misses,
        }


def _prepare(text: str) -> PreparedStatement:
    """Parse and constant-fold one statement."""
    from .dml import parse_statement
    from .parser import SelectStatement
    from .planner import fold_statement

    statement = parse_statement(text)
    if isinstance(statement, SelectStatement):
        statement = fold_statement(statement)
    return PreparedStatement(text, statement)
