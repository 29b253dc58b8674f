"""Typed columnar blocks and vectorised query kernels.

This module is the fast half of the storage engine's two executors. A
:class:`ColumnStore` materialises a table's live rows as typed numpy
column blocks — ``int64`` / ``float64`` / ``bool`` arrays plus an
interned-string dictionary encoding for TEXT columns — and the kernels
below run filter / project / aggregate / group-by / order-by / limit as
whole-column operations:

* predicates compile to three-valued (Kleene) boolean masks — a pair of
  "definitely true" and "known" arrays — matching the row evaluator's
  NULL semantics in :mod:`repro.db.expressions` by construction;
* equality joins build sorted key runs over the right table and expand
  left/right row-index **gather arrays** (:func:`_hash_join_gather`), so
  inner and left joins — NULL keys matching nothing — run as whole-array
  searchsorted/repeat kernels over a :class:`JoinRelation` whose columns
  gather lazily from the source tables; ``WHERE`` conjuncts that read
  only base-table columns are masked on the base table first, so the
  chain joins only the selected base rows (:func:`_split_where`);
* group-by factorises key columns into dense codes and picks a **hash**
  strategy (direct code-grid bincount) when the key-space is small, or a
  **sort** strategy (``np.unique`` compression) otherwise, always
  emitting groups in first-seen row order like the row executor;
* aggregates use sequential in-order accumulation (``np.add.at`` /
  ``np.bincount`` / ``np.minimum.at``); float results are produced by
  the same left-to-right reduction order as the reference fold, and
  stddev/variance share one-pass count/sum/sumsq moments with the
  reference aggregates (:mod:`repro.db.aggregates`), so both executors
  agree bit-for-bit;
* the grouped tail (HAVING / projection / ORDER BY over aggregate
  output) re-enters the same mask/projection/lexsort kernels over a
  :class:`RowsRelation` built from the per-group results — no Python
  per-group-row loop;
* order-by builds ``np.lexsort`` keys with an explicit NULLs-last flag
  and stable tie-breaks, reproducing the row executor's ordering.

Every entry point returns ``None`` (or raises :class:`Unsupported`
internally) when a query shape falls outside the vectorised subset —
``collect`` aggregates, JSON columns in predicates or join keys, string
arithmetic, self-joins, potential int64 overflow — and the caller falls
back to the reference row executor, which remains the semantic ground
truth. Fallbacks are counted per reason family in the
``repro_sql_fallback_total`` metric (see :func:`fallback_family`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .aggregates import stddev_from_moments, variance_from_moments
from .errors import QueryError
from .expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
)
from .schema import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .query import Query
    from .table import Table

#: Int64 magnitude ceiling for vectorised arithmetic/aggregation; inputs
#: that could overflow past this fall back to the (arbitrary-precision)
#: row executor.
_INT_GUARD = 2**62

#: Aggregate kinds the vectorised executor can compute. Only collect
#: (materialising Python lists per group) stays on the reference path.
SUPPORTED_AGGREGATES = frozenset(
    {
        "count_star",
        "count",
        "count_distinct",
        "sum",
        "avg",
        "min",
        "max",
        "stddev",
        "variance",
    }
)

#: Largest integer magnitude that float64 represents exactly; mixed
#: int/float join keys beyond it could produce false equalities.
_FLOAT_EXACT_INT = 2**53

#: Counter name for reference-executor fallbacks, labelled by reason
#: family (``repro_sql_fallback_total{reason=...}``).
FALLBACK_TOTAL = "repro_sql_fallback_total"


class Unsupported(Exception):
    """Internal signal: this query shape needs the reference executor."""


#: Ordered ``(substring, family)`` probes classifying Unsupported
#: messages into the low-cardinality ``reason`` label of
#: :data:`FALLBACK_TOTAL`. First match wins, so specific probes
#: (``int64``, ``json``) come before generic ones (``column``).
_FALLBACK_FAMILIES = (
    ("join", "join"),
    ("aggregat", "aggregate"),
    ("int64", "int64_range"),
    ("json", "json"),
    ("object", "json"),
    ("column", "unknown_column"),
    ("order", "ordering"),
    ("resolve", "unknown_column"),
    ("group", "grouping"),
    ("constant", "constant"),
)


def fallback_family(message: str) -> str:
    """Slug family for one :class:`Unsupported` message (metric label)."""
    lowered = message.lower()
    for probe, family in _FALLBACK_FAMILIES:
        if probe in lowered:
            return family
    return "other"


def _count_fallback(family: str) -> None:
    try:
        from ..obs import get_registry

        get_registry().counter(FALLBACK_TOTAL, reason=family).incr()
    except Exception:  # pragma: no cover - metrics must never break queries
        pass


# ----------------------------------------------------------------------
# column blocks
# ----------------------------------------------------------------------
class ColumnBlock:
    """One typed column: value array + validity mask (+ dictionary).

    Attributes:
        kind: ``"int"``, ``"float"``, ``"bool"``, ``"text"`` or
            ``"object"`` (JSON passthrough).
        values: ``int64`` / ``float64`` / ``bool`` array; for text, an
            ``int64`` code array (``-1`` for NULL); for object, the raw
            Python list.
        valid: boolean array, ``False`` where the value is NULL.
        dictionary: interned TEXT values in first-appearance order.
    """

    __slots__ = ("kind", "values", "valid", "dictionary", "_order")

    def __init__(self, kind, values, valid, dictionary=None):
        self.kind = kind
        self.values = values
        self.valid = valid
        self.dictionary = dictionary
        self._order = None

    def order_keys(self):
        """``(sorted_values, ranks)`` for dictionary-order comparisons.

        ``ranks[code]`` is the position of that code's string in sorted
        order; ``sorted_values`` is a numpy unicode array usable with
        ``np.searchsorted``.
        """
        if self._order is None:
            words = np.array(self.dictionary if self.dictionary else [""])
            order = np.argsort(words, kind="stable")
            ranks = np.empty(len(words), dtype=np.int64)
            ranks[order] = np.arange(len(words), dtype=np.int64)
            self._order = (words[order], ranks)
        return self._order

    def code_of(self, value: str) -> int:
        """Dictionary code for ``value`` (``-1`` when not interned)."""
        if self.dictionary is None:
            return -1
        try:
            return self.dictionary.index(value)
        except ValueError:
            return -1


def _build_block(column_type: ColumnType, raw: list[Any]) -> ColumnBlock:
    n = len(raw)
    valid = np.fromiter(
        (value is not None for value in raw), dtype=bool, count=n
    )
    if column_type is ColumnType.JSON:
        return ColumnBlock("object", raw, valid)
    if column_type is ColumnType.TEXT:
        codes = np.empty(n, dtype=np.int64)
        interned: dict[str, int] = {}
        for index, value in enumerate(raw):
            if value is None:
                codes[index] = -1
            else:
                code = interned.get(value)
                if code is None:
                    code = interned.setdefault(value, len(interned))
                codes[index] = code
        return ColumnBlock("text", codes, valid, tuple(interned))
    if column_type is ColumnType.BOOL:
        values = np.fromiter(
            (False if value is None else value for value in raw),
            dtype=bool,
            count=n,
        )
        return ColumnBlock("bool", values, valid)
    dtype = np.int64 if column_type is ColumnType.INT else np.float64
    fill = 0 if column_type is ColumnType.INT else 0.0
    try:
        values = np.fromiter(
            (fill if value is None else value for value in raw),
            dtype=dtype,
            count=n,
        )
    except OverflowError as exc:  # Python ints beyond int64: row path only
        raise Unsupported("column value outside int64 range") from exc
    kind = "int" if column_type is ColumnType.INT else "float"
    return ColumnBlock(kind, values, valid)


class ColumnStore:
    """Lazily-built columnar image of one table's live rows.

    Blocks are built per column on first touch (projection push-down:
    untouched columns are never materialised) and cached on the owning
    table until its row data changes (tracked by ``Table.version``).
    """

    def __init__(self, table: "Table") -> None:
        self._table = table
        self.version = table.version
        self.row_count = len(table)
        self._blocks: dict[str, ColumnBlock] = {}

    def block(self, name: str) -> ColumnBlock:
        block = self._blocks.get(name)
        if block is None:
            column = self._table.schema.column(name)
            block = _build_block(
                column.type, self._table.column_values(name)
            )
            self._blocks[name] = block
        return block

    def resolve(self, name: str) -> ColumnBlock:
        """Resolve a possibly-qualified column reference to a block."""
        schema = self._table.schema
        if name in schema:
            return self.block(name)
        if "." in name:
            bare = name.rsplit(".", 1)[-1]
            if bare in schema:
                return self.block(bare)
        raise Unsupported(f"unknown column {name!r}")

    @property
    def output_names(self) -> list[str]:
        return list(self._table.schema.column_names)


# ----------------------------------------------------------------------
# join and grouped relations
# ----------------------------------------------------------------------
def _resolve_output_name(name: str, names) -> str:
    """:class:`ColumnRef` resolution over merged-row output names.

    Mirrors ``ColumnRef.evaluate`` over a dict row: exact key first,
    unqualified names by unique ``.suffix`` match, qualified names by
    bare-suffix fallback. Ambiguous/unknown names raise
    :class:`Unsupported`, routing the query to the reference executor,
    which raises the user-facing :class:`QueryError` with row context.
    """
    if name in names:
        return name
    if "." not in name:
        suffix = "." + name
        matches = [key for key in names if key.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise Unsupported(f"ambiguous column {name!r}")
    else:
        bare = name.rsplit(".", 1)[1]
        if bare in names:
            return bare
    raise Unsupported(f"unknown column {name!r}")


def _gather_block(block: ColumnBlock, gather: np.ndarray) -> ColumnBlock:
    """Pick ``gather`` rows from ``block``; ``-1`` entries produce NULL."""
    n = len(gather)
    if len(block.valid) == 0:
        # Empty source table (every slot is a LEFT JOIN null pad).
        if block.kind == "object":
            return ColumnBlock("object", [None] * n, np.zeros(n, dtype=bool))
        if block.kind == "text":
            return ColumnBlock(
                "text",
                np.full(n, -1, dtype=np.int64),
                np.zeros(n, dtype=bool),
                block.dictionary,
            )
        dtype = {"int": np.int64, "float": np.float64, "bool": bool}[
            block.kind
        ]
        return ColumnBlock(
            block.kind, np.zeros(n, dtype=dtype), np.zeros(n, dtype=bool)
        )
    padded = gather < 0
    safe = np.where(padded, 0, gather)
    valid = block.valid[safe] & ~padded
    if block.kind == "object":
        source = block.values
        values = [
            None if position < 0 else source[position]
            for position in gather.tolist()
        ]
        return ColumnBlock("object", values, valid)
    values = block.values[safe]
    if bool(padded.any()):
        # to_pylist keys text NULLs off code -1, so pads must not alias
        # a real dictionary code; numeric/bool fills are masked anyway.
        values[padded] = -1 if block.kind == "text" else 0
    return ColumnBlock(block.kind, values, valid, block.dictionary)


class JoinRelation:
    """Gather-composed columnar image of a joined row set.

    Each source table contributes its :class:`ColumnStore` plus a
    row-index gather array aligned with the join output (``None`` means
    identity; a base table filtered before the join starts from its
    selected row indices; ``-1`` marks the null-padded side of an
    unmatched LEFT JOIN row). Output column names mirror the reference
    executor's ``_merge_rows``: base-table names stay bare, joined
    columns keep their bare name unless it collides, in which case they
    become ``"table.column"``. Blocks gather lazily per column and are
    cached, so projection push-down still holds across joins.
    """

    def __init__(self, row_count, sources, columns) -> None:
        self.row_count = row_count
        #: list of ``(ColumnStore, gather array | None)`` per source.
        self.sources = sources
        #: output name -> ``(source index, source column name)``.
        self.columns = columns
        self._cache: dict[str, ColumnBlock] = {}

    @property
    def output_names(self) -> list[str]:
        return list(self.columns)

    def block(self, name: str) -> ColumnBlock:
        block = self._cache.get(name)
        if block is None:
            source_index, column = self.columns[name]
            store, gather = self.sources[source_index]
            block = store.block(column)
            if gather is not None:
                block = _gather_block(block, gather)
            self._cache[name] = block
        return block

    def resolve(self, name: str) -> ColumnBlock:
        return self.block(_resolve_output_name(name, self.columns))


class RowsRelation:
    """Columnar view over already-materialised grouped output columns."""

    def __init__(self, names, blocks, row_count) -> None:
        self.output_names = list(names)
        self._blocks = blocks
        self.row_count = row_count

    def resolve(self, name: str) -> ColumnBlock:
        return self._blocks[_resolve_output_name(name, self._blocks)]


def _block_from_pylist(values: list[Any]) -> ColumnBlock:
    """Typed block from per-group Python values (grouped tail input)."""
    n = len(values)
    valid = np.fromiter(
        (value is not None for value in values), dtype=bool, count=n
    )
    present = [value for value in values if value is not None]
    if not present:
        return ColumnBlock("float", np.zeros(n, dtype=np.float64), valid)
    if all(isinstance(value, bool) for value in present):
        data = np.fromiter(
            (bool(value) for value in values), dtype=bool, count=n
        )
        return ColumnBlock("bool", data, valid)
    if all(
        isinstance(value, int) and not isinstance(value, bool)
        for value in present
    ):
        if any(abs(value) >= 2**63 for value in present):
            raise Unsupported("grouped value outside int64 range")
        data = np.fromiter(
            (0 if value is None else value for value in values),
            dtype=np.int64,
            count=n,
        )
        return ColumnBlock("int", data, valid)
    if all(isinstance(value, float) for value in present):
        data = np.fromiter(
            (0.0 if value is None else value for value in values),
            dtype=np.float64,
            count=n,
        )
        return ColumnBlock("float", data, valid)
    if all(isinstance(value, str) for value in present):
        codes = np.empty(n, dtype=np.int64)
        interned: dict[str, int] = {}
        for index, value in enumerate(values):
            if value is None:
                codes[index] = -1
            else:
                code = interned.get(value)
                if code is None:
                    code = interned.setdefault(value, len(interned))
                codes[index] = code
        return ColumnBlock("text", codes, valid, tuple(interned))
    raise Unsupported("mixed-type grouped values")


def _vocab_codes(block: ColumnBlock, vocab: np.ndarray) -> np.ndarray:
    """Per-row ranks of a text block's values under a merged vocabulary."""
    words = np.array(list(block.dictionary or ("",)))
    ranks = np.searchsorted(vocab, words)
    return ranks[np.clip(block.values, 0, None)]


def _join_codes(
    left: ColumnBlock, right: ColumnBlock
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Common-domain comparable key arrays for one equality join.

    Returns ``(left_codes, left_valid, right_codes, right_valid)``. Text
    keys are ranked under a merged vocabulary; numeric keys share int64,
    or float64 when either side is float (guarded so no exactness is
    lost). Text-vs-numeric keys can never compare equal — the reference
    bucket probe misses on type mismatch — so the right side collapses
    to an empty domain and every left row is unmatched.
    """
    for block in (left, right):
        if block.kind == "object":
            raise Unsupported("join key over JSON column")
    if left.kind == "text" or right.kind == "text":
        if left.kind != right.kind:
            return (
                np.zeros(len(left.valid), dtype=np.int64),
                left.valid,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
        vocab = np.array(
            sorted(set(left.dictionary or ()) | set(right.dictionary or ()))
            or [""]
        )
        return (
            _vocab_codes(left, vocab),
            left.valid,
            _vocab_codes(right, vocab),
            right.valid,
        )
    left_values = (
        left.values.astype(np.int64) if left.kind == "bool" else left.values
    )
    right_values = (
        right.values.astype(np.int64)
        if right.kind == "bool"
        else right.values
    )
    if left.kind == "float" or right.kind == "float":
        for block, values in ((left, left_values), (right, right_values)):
            picked = values[block.valid]
            if picked.size == 0:
                continue
            if picked.dtype == np.int64:
                if (
                    int(picked.max()) >= _FLOAT_EXACT_INT
                    or int(picked.min()) <= -_FLOAT_EXACT_INT
                ):
                    raise Unsupported("join key outside exact float range")
            elif bool(np.isnan(picked).any()):
                # NaN never equals itself, and its sort position would
                # corrupt the searchsorted runs; the reference executor
                # owns this (pathological) shape.
                raise Unsupported("NaN join key")
        left_values = left_values.astype(np.float64)
        right_values = right_values.astype(np.float64)
    return left_values, left.valid, right_values, right.valid


def _hash_join_gather(
    left_codes: np.ndarray,
    left_valid: np.ndarray,
    right_codes: np.ndarray,
    right_valid: np.ndarray,
    how: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised equality-join row gather.

    Returns ``(left_take, right_take)`` output row-index arrays over the
    left relation and the right table; ``right_take`` is ``-1`` on the
    null-padded side of unmatched LEFT JOIN rows. NULL keys (invalid on
    either side) match nothing. Output order matches the reference
    executor — left rows in order, each left row's right matches in
    right-table row order — because the argsort below is stable, so
    rows sharing a key keep their original relative order.
    """
    n = len(left_codes)
    candidates = np.flatnonzero(right_valid)
    order = candidates[
        np.argsort(right_codes[candidates], kind="stable")
    ]
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = np.where(left_valid, ends - starts, 0)
    if how == "inner":
        out_counts = counts
    else:
        out_counts = np.maximum(counts, 1)
    total = int(out_counts.sum())
    left_take = np.repeat(np.arange(n, dtype=np.int64), out_counts)
    bases = np.repeat(np.cumsum(out_counts) - out_counts, out_counts)
    within = np.arange(total, dtype=np.int64) - bases
    slots = np.repeat(starts, out_counts) + within
    if how == "inner":
        return left_take, order[slots]
    matched = counts[left_take] > 0
    right_take = np.full(total, -1, dtype=np.int64)
    if order.size:
        right_take[matched] = order[slots[matched]]
    return left_take, right_take


def _apply_columnar_join(database, relation: JoinRelation, join):
    right_table = database.table(join.table_name)
    right_store = right_table.columnar()
    if join.right_column not in right_table.schema:
        # The reference bucket build raises KeyError for this shape.
        raise Unsupported(f"unknown join column {join.right_column!r}")
    left_block = relation.resolve(join.left_column)
    right_block = right_store.block(join.right_column)
    left_take, right_take = _hash_join_gather(
        *_join_codes(left_block, right_block), join.how
    )
    sources = [
        (store, gather[left_take] if gather is not None else left_take)
        for store, gather in relation.sources
    ]
    sources.append((right_store, right_take))
    columns = _joined_columns(
        relation.columns,
        join.table_name,
        right_table.schema.column_names,
        len(sources) - 1,
    )
    return JoinRelation(len(left_take), sources, columns)


def _joined_columns(columns, table_name, names, source_index):
    """``columns`` plus one joined table's, named as ``_merge_rows`` does."""
    extended = dict(columns)
    for name in names:
        key = name if name not in extended else f"{table_name}.{name}"
        extended[key] = (source_index, name)
    return extended


def _column_refs(expr: Expression) -> list[str] | None:
    """Column names ``expr`` reads; ``None`` for a node kind not walked."""
    if isinstance(expr, ColumnRef):
        return [expr.name]
    if isinstance(expr, Literal):
        return []
    if isinstance(expr, (Comparison, Arithmetic)):
        children: tuple[Any, ...] = (expr.left, expr.right)
    elif isinstance(expr, BooleanOp):
        children = expr.parts
    elif isinstance(expr, (Not, IsNull, Like)):
        children = (expr.inner,)
    elif isinstance(expr, InList):
        children = (expr.inner,) + tuple(
            value for value in expr.values if isinstance(value, Expression)
        )
    else:
        return None
    names: list[str] = []
    for child in children:
        found = _column_refs(child)
        if found is None:
            return None
        names.extend(found)
    return names


def _split_where(
    where: Expression | None, columns
) -> tuple[list[Expression], list[Expression]]:
    """``(base, residual)`` top-level AND conjuncts of a join's WHERE.

    A conjunct is a base conjunct when every column it reads resolves,
    under the join's output naming (``columns``, see
    :func:`_resolve_output_name`), to a base-table column. The base table
    is the left side of every join in the chain and is never NULL-padded,
    so such a conjunct has the same value on a joined row as on the base
    row it came from: masking the base table before the join keeps
    exactly the joined rows the full WHERE would, in the same order, for
    inner and left joins alike. Names that do not resolve (ambiguous or
    unknown) stay residual and fall back there as before.
    """
    if where is None:
        return [], []
    if isinstance(where, BooleanOp) and where.op == "and":
        conjuncts = where.parts
    else:
        conjuncts = (where,)
    base: list[Expression] = []
    residual: list[Expression] = []
    for conjunct in conjuncts:
        names = _column_refs(conjunct)
        try:
            on_base = names is not None and all(
                columns[_resolve_output_name(name, columns)][0] == 0
                for name in names
            )
        except Unsupported:
            on_base = False
        (base if on_base else residual).append(conjunct)
    return base, residual


def _conjoin(parts: list[Expression]) -> Expression | None:
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else BooleanOp("and", tuple(parts))


def _scan(query: "Query") -> tuple[Any, Compiler, Expression | None, int]:
    """The query's input relation, a compiler over it and the WHERE left.

    The third item is the part of ``WHERE`` still to be masked over the
    relation; the fourth counts the conjuncts already applied to the base
    table before the first join (always 0 without joins). Execution and
    :func:`analyze` both plan through here, so EXPLAIN reports the split
    the executor runs. When the base-table conjuncts cannot be masked,
    the query is planned unsplit — join first, then the whole ``WHERE``
    — so its fallback reason and touched columns are the ones that plan
    reports.
    """
    database = query._database
    if not query._joins:
        store = database.table(query._table_name).columnar()
        return store, Compiler(store), query._where, 0
    seen = {query._table_name}
    for join in query._joins:
        if join.table_name in seen:
            raise Unsupported("self-join or repeated join table")
        seen.add(join.table_name)
    base = database.table(query._table_name)
    store = base.columnar()
    columns = {name: (0, name) for name in base.schema.column_names}
    output = columns
    for index, join in enumerate(query._joins, start=1):
        output = _joined_columns(
            output,
            join.table_name,
            database.table(join.table_name).schema.column_names,
            index,
        )
    pushed, residual = _split_where(query._where, output)
    base_compiler = Compiler(store)
    selected = None
    if pushed:
        try:
            selected = np.flatnonzero(base_compiler.mask(_conjoin(pushed)))
        except Unsupported:
            pushed = []
    relation = JoinRelation(
        store.row_count if selected is None else len(selected),
        [(store, selected)],
        columns,
    )
    for join in query._joins:
        relation = _apply_columnar_join(database, relation, join)
    compiler = Compiler(relation)
    if not pushed:
        return relation, compiler, query._where, 0
    compiler.touched |= base_compiler.touched
    return relation, compiler, _conjoin(residual), len(pushed)


# ----------------------------------------------------------------------
# vectorised expression values
# ----------------------------------------------------------------------
class Vec:
    """A vectorised expression result.

    Either a scalar (``values`` holds the Python value, ``valid`` is
    ``None``) or an array of ``kind`` with a validity mask. Predicate
    results are ``kind="bool"`` tri-states: ``values & valid`` is
    "definitely true", ``valid & ~values`` "definitely false", and
    ``~valid`` "unknown" (NULL).
    """

    __slots__ = ("kind", "values", "valid", "dictionary")

    def __init__(self, kind, values, valid, dictionary=None):
        self.kind = kind
        self.values = values
        self.valid = valid
        self.dictionary = dictionary

    @property
    def is_scalar(self) -> bool:
        return self.valid is None

    def take(self, indices) -> "Vec":
        if self.is_scalar:
            return self
        if self.kind == "object":
            picked = [self.values[int(i)] for i in indices]
            return Vec("object", picked, self.valid[indices])
        return Vec(
            self.kind,
            self.values[indices],
            self.valid[indices],
            self.dictionary,
        )

    def to_pylist(self) -> list[Any]:
        """Materialise as Python scalars with ``None`` for NULLs."""
        if self.is_scalar:
            raise Unsupported("scalar vec has no length")
        if self.kind == "object":
            return [
                value if ok else None
                for value, ok in zip(self.values, self.valid.tolist())
            ]
        if self.kind == "text":
            dictionary = self.dictionary or ()
            return [
                dictionary[code] if code >= 0 else None
                for code in self.values.tolist()
            ]
        out = self.values.tolist()
        if not bool(self.valid.all()):
            flags = self.valid.tolist()
            out = [
                value if ok else None for value, ok in zip(out, flags)
            ]
        return out


def _safe_eval(expr: Expression) -> Any:
    """Evaluate a constant expression; fallback instead of raising.

    The reference executor raises per-row errors only when rows exist, so
    a constant subtree that would error must not fail at plan time — it
    routes the whole query to the reference path instead.
    """
    try:
        return expr.evaluate({})
    except (QueryError, TypeError) as exc:
        raise Unsupported(f"constant subtree errors at runtime: {exc}") from exc


def _scalar_vec(value: Any) -> Vec:
    if value is None:
        kind = "null"
    elif isinstance(value, bool):
        kind = "bool"
    elif isinstance(value, int):
        kind = "int"
    elif isinstance(value, float):
        kind = "float"
    elif isinstance(value, str):
        kind = "text"
    else:
        kind = "object"
    return Vec(kind, value, None)


def _broadcast_bool(value: bool | None, n: int) -> Vec:
    if value is None:
        return Vec("bool", np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    values = (
        np.ones(n, dtype=bool) if value else np.zeros(n, dtype=bool)
    )
    return Vec("bool", values, np.ones(n, dtype=bool))


_NUMERIC = ("int", "float", "bool")


class Compiler:
    """Compile expression trees into :class:`Vec` columns over a relation.

    The relation is any column provider with ``row_count`` and
    ``resolve(name) -> ColumnBlock``: a table's :class:`ColumnStore`, a
    :class:`JoinRelation` over gathered blocks, or the grouped tail's
    :class:`RowsRelation`.
    """

    def __init__(self, store) -> None:
        self._store = store
        self.n = store.row_count
        self.touched: set[str] = set()

    # -- entry points ---------------------------------------------------
    def value(self, expr: Expression) -> Vec:
        if isinstance(expr, Literal):
            return _scalar_vec(expr.value)
        if isinstance(expr, ColumnRef):
            self.touched.add(expr.name)
            block = self._store.resolve(expr.name)
            return Vec(
                block.kind, block.values, block.valid, block.dictionary
            )
        if isinstance(expr, Arithmetic):
            return self._arithmetic(expr)
        if isinstance(
            expr, (Comparison, BooleanOp, Not, InList, IsNull, Like)
        ):
            return self.predicate(expr)
        raise Unsupported(f"cannot vectorise {type(expr).__name__}")

    def predicate(self, expr: Expression) -> Vec:
        """Compile a predicate into a tri-state boolean Vec."""
        if isinstance(expr, Comparison):
            return self._compare(expr)
        if isinstance(expr, BooleanOp):
            return self._boolean(expr)
        if isinstance(expr, Not):
            inner = self._as_tristate(self.predicate(expr.inner))
            return Vec("bool", inner.valid & ~inner.values, inner.valid)
        if isinstance(expr, IsNull):
            return self._is_null(expr)
        if isinstance(expr, InList):
            return self._in_list(expr)
        if isinstance(expr, Like):
            return self._like(expr)
        if isinstance(expr, Literal):
            return _scalar_vec(expr.value)
        if isinstance(expr, ColumnRef):
            # Bare column in boolean position: truthiness of the value.
            vec = self.value(expr)
            return self._truthy(vec)
        raise Unsupported(f"cannot vectorise predicate {type(expr).__name__}")

    def mask(self, expr: Expression | None) -> np.ndarray:
        """Filter mask: rows where the predicate is definitely true."""
        if expr is None:
            return np.ones(self.n, dtype=bool)
        tri = self._as_tristate(self.predicate(expr))
        return tri.values & tri.valid

    # -- helpers --------------------------------------------------------
    def _as_tristate(self, vec: Vec) -> Vec:
        if vec.is_scalar:
            value = vec.values
            truth = None if value is None else bool(value)
            return _broadcast_bool(truth, self.n)
        if vec.kind == "bool":
            return vec
        return self._truthy(vec)

    def _truthy(self, vec: Vec) -> Vec:
        if vec.kind in ("int", "float"):
            return Vec("bool", vec.values != 0, vec.valid)
        if vec.kind == "bool":
            return vec
        if vec.kind == "text":
            # Non-empty string is truthy; code of "" (if interned) falsy.
            empty = vec.dictionary.index("") if (
                vec.dictionary and "" in vec.dictionary
            ) else -2
            return Vec("bool", vec.values != empty, vec.valid)
        raise Unsupported("truthiness of object column")

    # -- comparison -----------------------------------------------------
    def _compare(self, expr: Comparison) -> Vec:
        left = self.value(expr.left)
        right = self.value(expr.right)
        if left.is_scalar and right.is_scalar:
            return _broadcast_bool(_safe_eval(expr), self.n)
        if left.is_scalar:
            return self._compare_vec(
                _FLIPPED[expr.op], right, left
            )
        return self._compare_vec(expr.op, left, right)

    def _compare_vec(self, op: str, vec: Vec, other: Vec) -> Vec:
        if other.is_scalar and other.values is None:
            return _broadcast_bool(None, self.n)
        if vec.kind == "object" or other.kind == "object":
            raise Unsupported("comparison over JSON column")
        if vec.kind == "text" or other.kind == "text":
            return self._compare_text(op, vec, other)
        # numeric vs numeric (bool participates via numpy upcast)
        if other.is_scalar:
            rhs: Any = other.values
            if (
                isinstance(rhs, int)
                and not isinstance(rhs, bool)
                and abs(rhs) >= 2**63
            ):
                raise Unsupported("comparison literal outside int64 range")
            both_valid = vec.valid
        else:
            rhs = other.values
            both_valid = vec.valid & other.valid
        with np.errstate(invalid="ignore"):
            result = _NUMPY_COMPARATORS[op](vec.values, rhs)
        return Vec("bool", np.asarray(result, dtype=bool), both_valid)

    def _compare_text(self, op: str, vec: Vec, other: Vec) -> Vec:
        n = self.n
        if vec.kind != "text":
            # numeric column vs text operand
            if op == "=":
                return Vec("bool", np.zeros(n, dtype=bool), vec.valid)
            if op == "!=":
                valid = (
                    vec.valid
                    if other.is_scalar
                    else vec.valid & other.valid
                )
                return Vec("bool", np.ones(n, dtype=bool), valid)
            raise Unsupported("ordering comparison across types")
        if other.is_scalar:
            literal = other.values
            if not isinstance(literal, str):
                if op == "=":
                    return Vec("bool", np.zeros(n, dtype=bool), vec.valid)
                if op == "!=":
                    return Vec("bool", np.ones(n, dtype=bool), vec.valid)
                raise Unsupported("ordering comparison across types")
            if op in ("=", "!="):
                code = (
                    vec.dictionary.index(literal)
                    if vec.dictionary and literal in vec.dictionary
                    else -2
                )
                hits = vec.values == code
                values = hits if op == "=" else ~hits
                return Vec("bool", values, vec.valid)
            block = ColumnBlock("text", vec.values, vec.valid, vec.dictionary)
            sorted_values, ranks = block.order_keys()
            row_ranks = ranks[np.clip(vec.values, 0, None)]
            low = int(np.searchsorted(sorted_values, literal, side="left"))
            high = int(np.searchsorted(sorted_values, literal, side="right"))
            if op == "<":
                values = row_ranks < low
            elif op == "<=":
                values = row_ranks < high
            elif op == ">":
                values = row_ranks >= high
            else:  # >=
                values = row_ranks >= low
            return Vec("bool", values, vec.valid)
        if other.kind != "text":
            if op == "=":
                return Vec(
                    "bool", np.zeros(n, dtype=bool), vec.valid & other.valid
                )
            if op == "!=":
                return Vec(
                    "bool", np.ones(n, dtype=bool), vec.valid & other.valid
                )
            raise Unsupported("ordering comparison across types")
        # text vs text: compare ranks under a merged vocabulary.
        vocab = sorted(
            set(vec.dictionary or ()) | set(other.dictionary or ())
        )
        vocab_arr = np.array(vocab if vocab else [""])
        left_ranks = self._vocab_ranks(vec, vocab_arr)
        right_ranks = self._vocab_ranks(other, vocab_arr)
        values = _NUMPY_COMPARATORS[op](left_ranks, right_ranks)
        return Vec(
            "bool", np.asarray(values, dtype=bool), vec.valid & other.valid
        )

    @staticmethod
    def _vocab_ranks(vec: Vec, vocab: np.ndarray) -> np.ndarray:
        words = np.array(list(vec.dictionary or ("",)))
        code_rank = np.searchsorted(vocab, words)
        return code_rank[np.clip(vec.values, 0, None)]

    # -- boolean connectives --------------------------------------------
    def _boolean(self, expr: BooleanOp) -> Vec:
        parts = [
            self._as_tristate(self.predicate(part)) for part in expr.parts
        ]
        true = parts[0].values & parts[0].valid
        false = parts[0].valid & ~parts[0].values
        for part in parts[1:]:
            part_true = part.values & part.valid
            part_false = part.valid & ~part.values
            if expr.op == "and":
                true = true & part_true
                false = false | part_false
            else:
                true = true | part_true
                false = false & part_false
        return Vec("bool", true, true | false)

    def _is_null(self, expr: IsNull) -> Vec:
        vec = self.value(expr.inner)
        if vec.is_scalar:
            return _broadcast_bool(_safe_eval(expr), self.n)
        nulls = ~vec.valid
        values = ~nulls if expr.negate else nulls
        return Vec("bool", values, np.ones(self.n, dtype=bool))

    def _in_list(self, expr: InList) -> Vec:
        vec = self.value(expr.inner)
        if vec.is_scalar:
            return _broadcast_bool(_safe_eval(expr), self.n)
        if any(isinstance(value, Expression) for value in expr.values):
            raise Unsupported("IN list with unbound expressions")
        has_null = any(value is None for value in expr.values)
        if vec.kind == "text":
            wanted = [
                vec.dictionary.index(value)
                for value in expr.values
                if isinstance(value, str)
                and vec.dictionary
                and value in vec.dictionary
            ]
            hits = (
                np.isin(vec.values, np.array(wanted, dtype=np.int64))
                if wanted
                else np.zeros(self.n, dtype=bool)
            )
        elif vec.kind in _NUMERIC:
            wanted_values = [
                value
                for value in expr.values
                if isinstance(value, (bool, int, float))
            ]
            if wanted_values:
                try:
                    if all(
                        isinstance(value, (bool, int))
                        for value in wanted_values
                    ) and vec.kind != "float":
                        probe = np.array(
                            [int(value) for value in wanted_values],
                            dtype=np.int64,
                        )
                    else:
                        probe = np.array(
                            [float(value) for value in wanted_values],
                            dtype=np.float64,
                        )
                except OverflowError as exc:
                    raise Unsupported(
                        "IN literal outside int64 range"
                    ) from exc
                hits = np.isin(vec.values, probe)
            else:
                hits = np.zeros(self.n, dtype=bool)
        else:
            raise Unsupported("IN over JSON column")
        true = hits & vec.valid
        if has_null:
            valid = true  # misses are unknown when the list holds NULL
        else:
            valid = vec.valid
        return Vec("bool", true, valid)

    def _like(self, expr: Like) -> Vec:
        vec = self.value(expr.inner)
        if vec.is_scalar:
            return _broadcast_bool(_safe_eval(expr), self.n)
        if vec.kind == "text":
            matched = np.fromiter(
                (
                    expr._regex.match(word) is not None
                    for word in (vec.dictionary or ())
                ),
                dtype=bool,
                count=len(vec.dictionary or ()),
            )
            if matched.size == 0:
                values = np.zeros(self.n, dtype=bool)
            else:
                values = matched[np.clip(vec.values, 0, None)]
            return Vec("bool", values & vec.valid, vec.valid)
        if vec.kind in _NUMERIC:
            # Non-string values never match LIKE; NULLs stay unknown.
            return Vec("bool", np.zeros(self.n, dtype=bool), vec.valid)
        raise Unsupported("LIKE over JSON column")

    # -- arithmetic -----------------------------------------------------
    def _arithmetic(self, expr: Arithmetic) -> Vec:
        left = self.value(expr.left)
        right = self.value(expr.right)
        if left.is_scalar and right.is_scalar:
            return _scalar_vec(_safe_eval(expr))
        for operand in (left, right):
            if operand.is_scalar:
                if operand.values is None:
                    n = self.n
                    return Vec(
                        "float",
                        np.zeros(n, dtype=np.float64),
                        np.zeros(n, dtype=bool),
                    )
                if not isinstance(operand.values, (bool, int, float)):
                    raise Unsupported("non-numeric arithmetic operand")
            elif operand.kind not in _NUMERIC:
                raise Unsupported("non-numeric arithmetic operand")

        def numeric(operand: Vec) -> tuple[Any, bool]:
            """(array-or-scalar, is_float)."""
            if operand.is_scalar:
                value = operand.values
                if isinstance(value, bool):
                    return int(value), False
                return value, isinstance(value, float)
            if operand.kind == "bool":
                return operand.values.astype(np.int64), False
            return operand.values, operand.kind == "float"

        lhs, lfloat = numeric(left)
        rhs, rfloat = numeric(right)
        valid = _joint_valid(left, right, self.n)
        as_float = lfloat or rfloat or expr.op == "/"
        if not as_float:
            self._guard_int_range(lhs, rhs, expr.op)
        if expr.op == "/":
            divisor = np.asarray(rhs, dtype=np.float64)
            dividend = np.asarray(lhs, dtype=np.float64)
            if divisor.ndim == 0:
                divisor = np.broadcast_to(divisor, (self.n,))
            nonzero = divisor != 0.0
            out = np.zeros(self.n, dtype=np.float64)
            np.divide(dividend, divisor, out=out, where=nonzero)
            return Vec("float", out, valid & nonzero)
        op = _NUMPY_ARITHMETIC[expr.op]
        if as_float:
            result = op(
                np.asarray(lhs, dtype=np.float64),
                np.asarray(rhs, dtype=np.float64),
            )
            return Vec("float", np.asarray(result, dtype=np.float64), valid)
        result = op(lhs, rhs)
        return Vec("int", np.asarray(result, dtype=np.int64), valid)

    def _guard_int_range(self, lhs: Any, rhs: Any, op: str) -> None:
        def magnitude(value: Any) -> int:
            if isinstance(value, np.ndarray):
                if value.size == 0:
                    return 0
                return int(np.max(np.abs(value)))
            return abs(int(value))

        left_mag, right_mag = magnitude(lhs), magnitude(rhs)
        if op == "*":
            if left_mag * right_mag >= _INT_GUARD:
                raise Unsupported("int64 overflow risk in multiplication")
        elif left_mag + right_mag >= _INT_GUARD:
            raise Unsupported("int64 overflow risk in addition")


def _joint_valid(left: Vec, right: Vec, n: int) -> np.ndarray:
    if left.is_scalar and right.is_scalar:
        return np.ones(n, dtype=bool)
    if left.is_scalar:
        return right.valid.copy()
    if right.is_scalar:
        return left.valid.copy()
    return left.valid & right.valid


_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_NUMPY_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NUMPY_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


# ----------------------------------------------------------------------
# group-by factorisation
# ----------------------------------------------------------------------
#: Dense code-grid ("hash") group-by is used while the key-space stays
#: below this multiple of the row count (with a small absolute floor).
_HASH_GRID_FACTOR = 4
_HASH_GRID_FLOOR = 1024


def _factorize(vec: Vec, n: int) -> tuple[np.ndarray, int, list[Any]]:
    """Dense codes for one key column: ``(codes, cardinality, decode)``.

    NULL gets its own trailing code so it groups like any other value;
    ``decode[code]`` recovers the Python key value (``None`` for NULL).
    """
    if vec.is_scalar:
        raise Unsupported("grouping by a constant")
    if vec.kind == "text":
        decode = list(vec.dictionary or ())
        codes = np.where(vec.valid, vec.values, len(decode))
        return codes.astype(np.int64), len(decode) + 1, decode + [None]
    if vec.kind == "bool":
        codes = np.where(vec.valid, vec.values.astype(np.int64), 2)
        return codes, 3, [False, True, None]
    if vec.kind in ("int", "float"):
        present = vec.values[vec.valid]
        uniq = np.unique(present)
        codes = np.empty(n, dtype=np.int64)
        codes[vec.valid] = np.searchsorted(uniq, present)
        codes[~vec.valid] = len(uniq)
        return codes, len(uniq) + 1, uniq.tolist() + [None]
    raise Unsupported("grouping by JSON column")


def _group_rows(
    key_vecs: list[Vec], n: int
) -> tuple[np.ndarray, int, list[tuple[Any, ...]], str]:
    """Assign group ids in first-seen order.

    Returns ``(gids, group_count, group_keys, strategy)`` where
    ``group_keys[g]`` is the tuple of Python key values for group ``g``.
    """
    factorized = [_factorize(vec, n) for vec in key_vecs]
    combined = np.zeros(n, dtype=np.int64)
    total = 1
    for codes, cardinality, _decode in factorized:
        if total > _INT_GUARD // max(cardinality, 1):
            raise Unsupported("group key-space too large to combine")
        total *= cardinality
        combined = combined * cardinality + codes

    if total <= max(_HASH_GRID_FACTOR * n, _HASH_GRID_FLOOR):
        strategy = "hash"
        counts = np.bincount(combined, minlength=total)
        first = np.full(total, n, dtype=np.int64)
        np.minimum.at(first, combined, np.arange(n, dtype=np.int64))
        present = np.flatnonzero(counts)
        ordered = present[np.argsort(first[present], kind="stable")]
        gid_of_slot = np.empty(total, dtype=np.int64)
        gid_of_slot[ordered] = np.arange(len(ordered), dtype=np.int64)
        gids = gid_of_slot[combined]
        slots = ordered
    else:
        strategy = "sort"
        slots_arr, inverse = np.unique(combined, return_inverse=True)
        first = np.full(len(slots_arr), n, dtype=np.int64)
        np.minimum.at(first, inverse, np.arange(n, dtype=np.int64))
        reorder = np.argsort(first, kind="stable")
        rank = np.empty(len(slots_arr), dtype=np.int64)
        rank[reorder] = np.arange(len(slots_arr), dtype=np.int64)
        gids = rank[inverse]
        slots = slots_arr[reorder]

    group_keys: list[tuple[Any, ...]] = []
    for slot in slots.tolist():
        key: list[Any] = []
        for codes, cardinality, decode in reversed(factorized):
            key.append(decode[slot % cardinality])
            slot //= cardinality
        group_keys.append(tuple(reversed(key)))
    return gids, len(slots), group_keys, strategy


# ----------------------------------------------------------------------
# aggregate kernels
# ----------------------------------------------------------------------
def _aggregate(name: str, vec: Vec | None, gids, groups: int) -> list[Any]:
    """Per-group results for one aggregate, as Python values."""
    if name == "count_star":
        return np.bincount(gids, minlength=groups).tolist()
    assert vec is not None
    if vec.is_scalar:
        raise Unsupported("aggregating a constant")
    valid = vec.valid
    counts = np.bincount(gids[valid], minlength=groups)
    if name == "count":
        return counts.tolist()
    if name == "count_distinct":
        return _count_distinct(vec, gids, groups)

    sel = valid
    picked_gids = gids[sel]
    if vec.kind == "text":
        if name not in ("min", "max"):
            raise Unsupported(f"aggregate {name} over text column")
        block = ColumnBlock("text", vec.values, vec.valid, vec.dictionary)
        sorted_values, ranks = block.order_keys()
        row_ranks = ranks[np.clip(vec.values[sel], 0, None)]
        out = np.full(
            groups,
            len(sorted_values) if name == "min" else -1,
            dtype=np.int64,
        )
        reducer = np.minimum if name == "min" else np.maximum
        reducer.at(out, picked_gids, row_ranks)
        return [
            str(sorted_values[rank]) if count else None
            for rank, count in zip(out.tolist(), counts.tolist())
        ]
    if vec.kind == "object":
        raise Unsupported(f"aggregate {name} over JSON column")

    values = vec.values[sel]
    is_bool = vec.kind == "bool"
    if is_bool:
        values = values.astype(np.int64)
    if name in ("sum", "avg"):
        if vec.kind == "float":
            sums = np.zeros(groups, dtype=np.float64)
            np.add.at(sums, picked_gids, values)
            totals: list[Any] = sums.tolist()
        else:
            if values.size and int(
                np.max(np.abs(values))
            ) * max(int(counts.max()), 1) >= _INT_GUARD:
                raise Unsupported("int64 overflow risk in SUM")
            sums = np.zeros(groups, dtype=np.int64)
            np.add.at(sums, picked_gids, values)
            totals = [int(value) for value in sums.tolist()]
        if name == "sum":
            return [
                total if count else None
                for total, count in zip(totals, counts.tolist())
            ]
        return [
            total / count if count else None
            for total, count in zip(totals, counts.tolist())
        ]
    if name in ("variance", "stddev"):
        # One-pass count/sum/sumsq moments, finalised by the same
        # helpers as the reference fold so results match bit-for-bit:
        # np.add.at accumulates in row order (the reference's
        # left-to-right order), int sums stay exact, and the per-group
        # Python values handed to the finaliser are identical.
        if vec.kind == "float":
            sums = np.zeros(groups, dtype=np.float64)
            squares = np.zeros(groups, dtype=np.float64)
            np.add.at(sums, picked_gids, values)
            np.add.at(squares, picked_gids, values * values)
            totals = sums.tolist()
            total_squares = squares.tolist()
        else:
            if values.size:
                magnitude = max(
                    abs(int(values.max())), abs(int(values.min()))
                )
                if (
                    magnitude * magnitude * max(int(counts.max()), 1)
                    >= _INT_GUARD
                ):
                    raise Unsupported(
                        f"int64 overflow risk in {name.upper()}"
                    )
            sums = np.zeros(groups, dtype=np.int64)
            squares = np.zeros(groups, dtype=np.int64)
            np.add.at(sums, picked_gids, values)
            np.add.at(squares, picked_gids, values * values)
            totals = [int(value) for value in sums.tolist()]
            total_squares = [int(value) for value in squares.tolist()]
        finalise = (
            variance_from_moments
            if name == "variance"
            else stddev_from_moments
        )
        return [
            finalise(count, total, total_sq)
            for count, total, total_sq in zip(
                counts.tolist(), totals, total_squares
            )
        ]
    if name in ("min", "max"):
        if vec.kind == "float":
            sentinel = np.inf if name == "min" else -np.inf
            out = np.full(groups, sentinel, dtype=np.float64)
        else:
            info = np.iinfo(np.int64)
            out = np.full(
                groups,
                info.max if name == "min" else info.min,
                dtype=np.int64,
            )
        reducer = np.minimum if name == "min" else np.maximum
        reducer.at(out, picked_gids, values)
        results = out.tolist()
        converted: list[Any] = []
        for value, count in zip(results, counts.tolist()):
            if not count:
                converted.append(None)
            elif is_bool:
                converted.append(bool(value))
            else:
                converted.append(value)
        return converted
    raise Unsupported(f"unsupported aggregate {name!r}")


def _count_distinct(vec: Vec, gids, groups: int) -> list[int]:
    valid = vec.valid
    picked_gids = gids[valid]
    if vec.kind == "text":
        codes = vec.values[valid]
        cardinality = len(vec.dictionary or ()) or 1
    else:
        values = vec.values[valid]
        uniq, codes = np.unique(values, return_inverse=True)
        cardinality = max(len(uniq), 1)
    pairs = picked_gids * cardinality + codes
    unique_pairs = np.unique(pairs)
    return np.bincount(
        unique_pairs // cardinality, minlength=groups
    ).tolist()


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
def _order_indices(
    key_specs: list[tuple[Vec, bool]], base: np.ndarray
) -> np.ndarray:
    """Stable multi-key sort of ``base`` row indices.

    Each spec is ``(vec, descending)``; vecs are already aligned with
    ``base`` (same length). NULLs sort last regardless of direction,
    ties keep the incoming order — matching the row executor.
    """
    lex_keys: list[np.ndarray] = []
    for vec, descending in reversed(key_specs):
        if vec.is_scalar:
            raise Unsupported("ordering by a constant")
        if vec.kind == "text":
            block = ColumnBlock(
                "text", vec.values, vec.valid, vec.dictionary
            )
            _sorted_values, ranks = block.order_keys()
            value_key = ranks[np.clip(vec.values, 0, None)]
        elif vec.kind == "bool":
            value_key = vec.values.astype(np.int8)
        elif vec.kind in ("int", "float"):
            value_key = vec.values
        else:
            raise Unsupported("ordering by JSON column")
        value_key = np.where(vec.valid, value_key, 0)
        if descending:
            value_key = -value_key
        null_key = (~vec.valid).astype(np.int8)
        lex_keys.append(value_key)
        lex_keys.append(null_key)
    order = np.lexsort(lex_keys)
    return base[order]


# ----------------------------------------------------------------------
# query execution
# ----------------------------------------------------------------------
def execute(
    query: "Query", max_rows: int | None = None
) -> list[dict[str, Any]] | None:
    """Try to run ``query`` through the vectorised kernels end to end.

    Returns the result rows when the whole pipeline — scan, joins,
    filter, group-by/aggregate, having, projection, distinct, order,
    limit — ran vectorised, or ``None`` when the query shape is
    unsupported and the caller must use the reference path. On fallback
    the :class:`Unsupported` reason is recorded on the query
    (``_fallback_reason`` / ``_fallback_family``) and counted in the
    ``repro_sql_fallback_total{reason=...}`` metric.

    ``max_rows`` caps the rows returned, and only those row dicts are
    built; the query's ``_row_count`` then receives the length of the
    whole result.
    """
    try:
        return _execute(query, max_rows)
    except Unsupported as fallback:
        message = str(fallback)
        family = fallback_family(message)
        query._fallback_reason = message
        query._fallback_family = family
        _count_fallback(family)
        return None


def _execute(query: "Query", max_rows: int | None) -> list[dict[str, Any]]:
    relation, compiler, where, _pushed = _scan(query)
    mask = compiler.mask(where)
    if query._group_columns or query._aggregates:
        return _execute_grouped(query, compiler, mask, max_rows)
    return _finish(query, compiler, mask, relation.output_names, max_rows)


def _execute_grouped(
    query: "Query", compiler: Compiler, mask, max_rows: int | None
):
    key_vecs = [
        compiler.value(ColumnRef(name)) for name in query._group_columns
    ]
    agg_specs: list[tuple[str, str, Vec | None]] = []
    for alias, aggregate in query._aggregates:
        if aggregate.name not in SUPPORTED_AGGREGATES:
            raise Unsupported(f"aggregate {aggregate.name}")
        if aggregate.expr is None:
            agg_specs.append((alias, aggregate.name, None))
        else:
            agg_specs.append(
                (alias, aggregate.name, compiler.value(aggregate.expr))
            )

    sel = np.flatnonzero(mask)
    key_vecs = [vec.take(sel) for vec in key_vecs]
    agg_specs = [
        (alias, name, vec.take(sel) if vec is not None else None)
        for alias, name, vec in agg_specs
    ]
    n = len(sel)
    if key_vecs:
        if n == 0:
            query._row_count = 0
            return []  # GROUP BY over zero rows yields no groups
        gids, groups, group_keys, _strategy = _group_rows(key_vecs, n)
    else:
        # An ungrouped aggregate is one group, even over zero rows.
        gids = np.zeros(n, dtype=np.int64)
        groups, group_keys = 1, [()]
    # Vectorised grouped tail: the per-group results become a
    # RowsRelation, and having/projection/distinct/order/limit re-enter
    # the same mask and finish kernels as ungrouped queries.
    names = list(query._group_columns) + [
        alias for alias, _name, _vec in agg_specs
    ]
    blocks: dict[str, ColumnBlock] = {}
    for position, name in enumerate(query._group_columns):
        blocks[name] = _block_from_pylist(
            [key[position] for key in group_keys]
        )
    for alias, agg_name, vec in agg_specs:
        blocks[alias] = _block_from_pylist(
            _aggregate(agg_name, vec, gids, groups)
        )
    grouped = Compiler(RowsRelation(names, blocks, groups))
    having_mask = grouped.mask(query._having)
    return _finish(query, grouped, having_mask, names, max_rows)


def _finish(
    query: "Query",
    compiler: Compiler,
    mask,
    default_names,
    max_rows: int | None,
):
    """Shared vectorised tail: projection/distinct/order/offset/limit.

    Builds the row dicts of the first ``max_rows`` rows of the window
    (all of them when ``None``) and records the window's full length in
    ``query._row_count``.
    """
    if query._projections is None:
        aliases = list(default_names)
        vecs = [compiler.value(ColumnRef(name)) for name in aliases]
    else:
        aliases = [p.alias for p in query._projections]
        vecs = [compiler.value(p.expr) for p in query._projections]
        for vec in vecs:
            if vec.is_scalar and vec.kind == "object":
                raise Unsupported("object literal projection")

    sel = np.flatnonzero(mask)
    n = len(sel)
    picked = [vec.take(sel) for vec in vecs]

    if query._distinct:
        if n:
            key_vecs = [
                vec if not vec.is_scalar else _materialize(vec, n)
                for vec in picked
            ]
            _gids, groups, _keys, _strategy = _group_rows(key_vecs, n)
            # First-seen representative row per distinct group.
            first = np.full(groups, n, dtype=np.int64)
            np.minimum.at(first, _gids, np.arange(n, dtype=np.int64))
            keep = np.sort(first)
            sel = sel[keep]
            picked = [vec.take(keep) for vec in picked]
            n = len(sel)

    if query._orderings:
        key_specs = []
        for ordering in query._orderings:
            vec = _resolve_order_key(
                ordering.key, aliases, picked, compiler, sel
            )
            key_specs.append((vec, ordering.descending))
        local = _order_indices(
            key_specs, np.arange(n, dtype=np.int64)
        )
        picked = [vec.take(local) for vec in picked]

    start = query._offset
    stop = (
        None if query._limit is None else query._offset + query._limit
    )
    window = slice(start, stop)
    keep = np.arange(n, dtype=np.int64)[window]
    query._row_count = len(keep)
    keep = keep[:max_rows]
    out_columns = []
    for vec in picked:
        if vec.is_scalar:
            out_columns.append([vec.values] * len(keep))
        else:
            out_columns.append(vec.take(keep).to_pylist())
    return [
        dict(zip(aliases, values)) for values in zip(*out_columns)
    ] if out_columns else []


def _materialize(vec: Vec, n: int) -> Vec:
    """Broadcast a scalar Vec to ``n`` rows."""
    if not vec.is_scalar:
        return vec
    value = vec.values
    if value is None:
        return Vec(
            "float",
            np.zeros(n, dtype=np.float64),
            np.zeros(n, dtype=bool),
        )
    if isinstance(value, bool):
        return Vec(
            "bool",
            np.full(n, value, dtype=bool),
            np.ones(n, dtype=bool),
        )
    if isinstance(value, int):
        return Vec(
            "int",
            np.full(n, value, dtype=np.int64),
            np.ones(n, dtype=bool),
        )
    if isinstance(value, float):
        return Vec(
            "float",
            np.full(n, value, dtype=np.float64),
            np.ones(n, dtype=bool),
        )
    if isinstance(value, str):
        return Vec(
            "text",
            np.zeros(n, dtype=np.int64),
            np.ones(n, dtype=bool),
            (value,),
        )
    raise Unsupported("cannot broadcast object scalar")


def _resolve_order_key(
    key: str,
    aliases: list[str],
    picked: list[Vec],
    compiler: Compiler,
    sel: np.ndarray,
) -> Vec:
    """Resolve an ORDER BY key against projected output columns.

    Mirrors :class:`ColumnRef` resolution over a projected row: exact
    alias, unique qualified-suffix match, or (for qualified keys) the
    bare suffix. Anything unresolvable falls back to the row executor.
    """
    by_alias = dict(zip(aliases, picked))
    if key in by_alias:
        vec = by_alias[key]
    elif "." not in key:
        matches = [
            alias for alias in aliases if alias.endswith("." + key)
        ]
        if len(matches) != 1:
            raise Unsupported(f"cannot resolve order key {key!r}")
        vec = by_alias[matches[0]]
    else:
        bare = key.rsplit(".", 1)[1]
        if bare not in by_alias:
            raise Unsupported(f"cannot resolve order key {key!r}")
        vec = by_alias[bare]
    if vec.is_scalar:
        vec = _materialize(vec, len(sel))
    return vec


# ----------------------------------------------------------------------
# plan analysis (EXPLAIN support)
# ----------------------------------------------------------------------
def analyze(query: "Query") -> dict[str, Any]:
    """Description of how ``query`` would execute.

    Compiles the query's expressions over the column kinds without
    evaluating filter or aggregate kernels, and reports which executor
    would serve the query, why a fallback would occur (message plus
    metric-label family), the joins lowered into the plan, how many
    WHERE conjuncts run on the base table before the first join
    (``pushed_below_join``, through the executor's own split; 0 when the
    query falls back), and the
    columns the scan would touch (projection push-down set). Joined
    queries do build their gather arrays — the join shape, not just the
    column types, decides columnar eligibility — so EXPLAIN over a join
    costs one key-column pass per join.
    """
    info: dict[str, Any] = {
        "table": query._table_name,
        "executor": "columnar",
        "reason": None,
        "reason_family": None,
        "columns": [],
        "where_pushdown": query._where is not None,
        "joins": [
            {"table": join.table_name, "how": join.how}
            for join in query._joins
        ],
        "group_strategy": None,
        "pushed_below_join": 0,
    }
    if query._use_reference:
        info["executor"] = "reference"
        info["reason"] = "reference requested"
        info["reason_family"] = "pinned"
        return info
    compiler = None
    try:
        _relation, compiler, where, pushed = _scan(query)
        compiler.mask(where)
        if query._group_columns or query._aggregates:
            for name in query._group_columns:
                compiler.value(ColumnRef(name))
            for _alias, aggregate in query._aggregates:
                if aggregate.name not in SUPPORTED_AGGREGATES:
                    raise Unsupported(f"aggregate {aggregate.name}")
                if aggregate.expr is not None:
                    compiler.value(aggregate.expr)
            cardinality = _estimate_cardinality(query, compiler)
            info["group_strategy"] = (
                "hash"
                if cardinality is not None
                and cardinality
                <= max(
                    _HASH_GRID_FACTOR * compiler.n, _HASH_GRID_FLOOR
                )
                else "sort"
            )
        elif query._projections is not None:
            for projection in query._projections:
                compiler.value(projection.expr)
        info["pushed_below_join"] = pushed
    except Unsupported as fallback:
        info["executor"] = "reference"
        info["reason"] = str(fallback)
        info["reason_family"] = fallback_family(str(fallback))
    if compiler is not None:
        info["columns"] = sorted(compiler.touched)
    return info


def _estimate_cardinality(
    query: "Query", compiler: Compiler
) -> int | None:
    total = 1
    for name in query._group_columns:
        vec = compiler.value(ColumnRef(name))
        if vec.kind == "text":
            total *= len(vec.dictionary or ()) + 1
        elif vec.kind == "bool":
            total *= 3
        else:
            return None  # numeric cardinality only known at run time
    return total
