"""Property-based columnar-vs-reference equivalence (hypothesis).

Random row sets and randomly composed predicates / aggregations /
orderings must produce identical row lists through the vectorised
columnar executor and the row-at-a-time reference pipeline. Value
ranges stay inside int64 and NaN-free floats so every generated query
is columnar-eligible; engagement is asserted, not assumed.
"""

import functools
import operator

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db import (
    Column,
    ColumnType,
    Database,
    Schema,
    avg,
    col,
    columnar,
    count,
    count_distinct,
    max_,
    min_,
    stddev,
    sum_,
    variance,
)

CUISINES = ["italian", "japanese", "mexican", "indian", "greek"]

row_strategy = st.fixed_dictionaries(
    {
        "cuisine": st.one_of(st.none(), st.sampled_from(CUISINES)),
        "size": st.one_of(
            st.none(), st.integers(min_value=-(10**6), max_value=10**6)
        ),
        "rating": st.one_of(
            st.none(),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        "veg": st.one_of(st.none(), st.booleans()),
    }
)

rows_strategy = st.lists(row_strategy, max_size=25)


def build_db(rows):
    database = Database()
    database.create_table(
        "dishes",
        Schema(
            [
                Column("dish_id", ColumnType.INT, primary_key=True),
                Column("cuisine", ColumnType.TEXT, nullable=True),
                Column("size", ColumnType.INT, nullable=True),
                Column("rating", ColumnType.FLOAT, nullable=True),
                Column("veg", ColumnType.BOOL, nullable=True),
            ]
        ),
    )
    for index, row in enumerate(rows):
        database.table("dishes").insert({"dish_id": index, **row})
    return database


@st.composite
def predicate_strategy(draw, depth=2):
    """A random columnar-eligible predicate tree."""
    if depth > 0 and draw(st.booleans()):
        kind = draw(st.sampled_from(["and", "or", "not"]))
        left = draw(predicate_strategy(depth=depth - 1))
        if kind == "not":
            return ~left
        right = draw(predicate_strategy(depth=depth - 1))
        return (left & right) if kind == "and" else (left | right)
    leaf = draw(
        st.sampled_from(
            ["cmp_int", "cmp_text", "isin", "like", "is_null", "arith"]
        )
    )
    if leaf == "cmp_int":
        op = draw(st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]))
        value = draw(st.integers(min_value=-(10**6), max_value=10**6))
        column = col(draw(st.sampled_from(["size", "dish_id"])))
        return {
            "lt": column < value,
            "le": column <= value,
            "gt": column > value,
            "ge": column >= value,
            "eq": column == value,
            "ne": column != value,
        }[op]
    if leaf == "cmp_text":
        value = draw(st.sampled_from(CUISINES + ["unseen"]))
        if draw(st.booleans()):
            return col("cuisine") == value
        return col("cuisine") < value
    if leaf == "isin":
        values = draw(
            st.lists(
                st.one_of(st.none(), st.sampled_from(CUISINES)), max_size=4
            )
        )
        return col("cuisine").isin(values)
    if leaf == "like":
        pattern = draw(st.sampled_from(["%an%", "i%", "%n", "_exican", "%"]))
        return col("cuisine").like(pattern)
    if leaf == "is_null":
        column = col(draw(st.sampled_from(["cuisine", "size", "rating"])))
        return column.is_null() if draw(st.booleans()) else column.is_not_null()
    # Arithmetic leaf: keep operands small so int64 never overflows.
    scale = draw(st.integers(min_value=-50, max_value=50))
    return (col("size") * scale + col("dish_id")) > draw(
        st.integers(min_value=-(10**6), max_value=10**6)
    )


def assert_equivalent(query, *, engaged=True):
    if engaged:
        assert columnar.execute(query) is not None, "columnar did not engage"
    assert query.all() == query.reference().all()


@settings(max_examples=60, deadline=None)
@given(rows_strategy, predicate_strategy())
def test_filter_matches_reference(rows, predicate):
    db = build_db(rows)
    assert_equivalent(db.query("dishes").where(predicate))


@settings(max_examples=60, deadline=None)
@given(rows_strategy, predicate_strategy(), st.data())
def test_group_by_matches_reference(rows, predicate, data):
    db = build_db(rows)
    keys = data.draw(
        st.lists(
            st.sampled_from(["cuisine", "veg", "size"]),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    query = (
        db.query("dishes")
        .where(predicate)
        .group_by(
            *keys,
            n=count(),
            total=sum_("size"),
            mean=avg("rating"),
            lo=min_("size"),
            hi=max_("cuisine"),
            kinds=count_distinct("cuisine"),
        )
    )
    assert_equivalent(query)


@settings(max_examples=60, deadline=None)
@given(rows_strategy, st.data())
def test_order_limit_matches_reference(rows, data):
    db = build_db(rows)
    keys = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["cuisine", "size", "rating", "dish_id"]),
                st.sampled_from(["asc", "desc"]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    limit = data.draw(st.integers(min_value=0, max_value=30))
    offset = data.draw(st.integers(min_value=0, max_value=5))
    query = db.query("dishes").order_by(*keys).limit(limit, offset=offset)
    assert_equivalent(query)


@settings(max_examples=40, deadline=None)
@given(rows_strategy, st.data())
def test_projection_distinct_matches_reference(rows, data):
    db = build_db(rows)
    columns = data.draw(
        st.lists(
            st.sampled_from(["cuisine", "size", "veg"]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    query = db.query("dishes").select(*columns).distinct()
    assert_equivalent(query)


origin_row_strategy = st.fixed_dictionaries(
    {
        "cuisine": st.one_of(st.none(), st.sampled_from(CUISINES)),
        "continent": st.one_of(
            st.none(), st.sampled_from(["asia", "europe", "americas"])
        ),
        "popularity": st.one_of(
            st.none(), st.integers(min_value=0, max_value=100)
        ),
    }
)


def build_joined_db(rows, origin_rows):
    database = build_db(rows)
    database.create_table(
        "origins",
        Schema(
            [
                Column("cuisine", ColumnType.TEXT, nullable=True),
                Column("continent", ColumnType.TEXT, nullable=True),
                Column("popularity", ColumnType.INT, nullable=True),
            ]
        ),
    )
    database.table("origins").bulk_insert(origin_rows)
    return database


@st.composite
def joined_predicate_strategy(draw):
    """A leaf over the joined ``origins`` columns (NULL-padded on LEFT)."""
    leaf = draw(
        st.sampled_from(["continent", "popularity", "cuisine", "null"])
    )
    if leaf == "continent":
        return col("continent") == draw(
            st.sampled_from(["asia", "europe", "americas"])
        )
    if leaf == "popularity":
        return col("popularity") > draw(
            st.integers(min_value=0, max_value=100)
        )
    if leaf == "cuisine":
        return col("origins.cuisine") == draw(st.sampled_from(CUISINES))
    column = col(draw(st.sampled_from(["continent", "origins.cuisine"])))
    return column.is_null() if draw(st.booleans()) else column.is_not_null()


@st.composite
def join_where_strategy(draw):
    """``(where, any base-only conjunct)`` over base and joined columns.

    Top-level AND of conjuncts that read the base table only, the joined
    table only, or both sides through an OR.
    """
    sides = draw(
        st.lists(
            st.sampled_from(["base", "joined", "both"]),
            min_size=1,
            max_size=3,
        )
    )
    conjuncts = []
    for side in sides:
        if side == "base":
            conjuncts.append(draw(predicate_strategy()))
        elif side == "joined":
            conjuncts.append(draw(joined_predicate_strategy()))
        else:
            conjuncts.append(
                draw(predicate_strategy()) | draw(joined_predicate_strategy())
            )
    return functools.reduce(operator.and_, conjuncts), "base" in sides


@settings(max_examples=60, deadline=None)
@given(rows_strategy, st.lists(origin_row_strategy, max_size=8), st.data())
def test_join_matches_reference(rows, origin_rows, data):
    # Random left/right row sets with NULL and duplicate keys; both join
    # flavours must gather exactly the reference hash-join row stream,
    # with base-table WHERE conjuncts applied before the join.
    db = build_joined_db(rows, origin_rows)
    how = data.draw(st.sampled_from(["inner", "left"]))
    query = db.query("dishes").join(
        "origins", on=("cuisine", "cuisine"), how=how
    )
    has_base = False
    if data.draw(st.booleans()):
        where, has_base = data.draw(join_where_strategy())
        query = query.where(where)
    assert_equivalent(query)
    assert (columnar.analyze(query)["pushed_below_join"] > 0) == has_base


@settings(max_examples=40, deadline=None)
@given(rows_strategy, st.lists(origin_row_strategy, max_size=8), st.data())
def test_join_grouped_matches_reference(rows, origin_rows, data):
    db = build_joined_db(rows, origin_rows)
    how = data.draw(st.sampled_from(["inner", "left"]))
    query = (
        db.query("dishes")
        .join("origins", on=("dishes.cuisine", "cuisine"), how=how)
        .group_by(
            "continent",
            n=count(),
            spread=stddev("size"),
            var_pop=variance("popularity"),
        )
        .having(col("n") >= 1)
        .order_by(("n", "desc"), "continent")
    )
    assert_equivalent(query)


@settings(max_examples=60, deadline=None)
@given(rows_strategy, predicate_strategy(), st.data())
def test_grouped_tail_matches_reference(rows, predicate, data):
    # HAVING, grouped ORDER BY, and grouped projection over aggregate
    # outputs — the vectorised tail must match the per-group loop.
    db = build_db(rows)
    keys = data.draw(
        st.lists(
            st.sampled_from(["cuisine", "veg"]),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    threshold = data.draw(st.integers(min_value=0, max_value=4))
    having = data.draw(
        st.sampled_from(
            [
                col("n") >= threshold,
                col("spread").is_not_null(),
                (col("total") > threshold) | col("mean").is_null(),
            ]
        )
    )
    query = (
        db.query("dishes")
        .where(predicate)
        .group_by(
            *keys,
            n=count(),
            total=sum_("size"),
            mean=avg("rating"),
            spread=stddev("size"),
            var_rating=variance("rating"),
        )
        .having(having)
        .order_by(("spread", "desc"), ("n", "asc"), *keys)
        .limit(data.draw(st.integers(min_value=0, max_value=10)))
    )
    assert_equivalent(query)
    projected = (
        db.query("dishes")
        .group_by(*keys, n=count(), spread=stddev("size"))
        .having(col("n") >= threshold)
        .select(*keys, (col("spread") * 1, "spread_scaled"), "n")
        .order_by(("n", "desc"), *keys)
    )
    assert_equivalent(projected)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_stddev_variance_bit_identical(rows):
    # Exact float equality, not approx: both executors fold the same
    # (count, sum, sum-of-squares) moments in the same order.
    db = build_db(rows)
    query = db.query("dishes").group_by(
        "cuisine",
        spread_int=stddev("size"),
        spread_float=stddev("rating"),
        var_int=variance("size"),
        var_float=variance("rating"),
    )
    produced = columnar.execute(query)
    assert produced is not None, "columnar did not engage"
    expected = query.reference().all()
    assert len(produced) == len(expected)
    for got, want in zip(produced, expected):
        assert got == want  # dict equality → bit-identical floats
        for name in ("spread_int", "spread_float", "var_int", "var_float"):
            if want[name] is not None:
                assert repr(got[name]) == repr(want[name])


@settings(max_examples=40, deadline=None)
@given(predicate_strategy())
def test_empty_table_matches_reference(predicate):
    db = build_db([])
    assert_equivalent(db.query("dishes").where(predicate))
    grouped = (
        db.query("dishes")
        .where(predicate)
        .group_by("cuisine", n=count(), total=sum_("size"))
    )
    assert_equivalent(grouped)
    ungrouped = (
        db.query("dishes")
        .where(predicate)
        .group_by(n=count(), total=sum_("size"))
    )
    assert_equivalent(ungrouped)
    assert ungrouped.all() == [{"n": 0, "total": None}]


@settings(max_examples=60, deadline=None)
@given(rows_strategy, predicate_strategy(), st.booleans())
def test_ungrouped_aggregates_match_reference(rows, predicate, filter_all):
    # An ungrouped aggregate yields exactly one row, also when the table
    # is empty or the WHERE clause removes every row (dish_id >= 0).
    db = build_db(rows)
    if filter_all:
        predicate = predicate & (col("dish_id") < 0)
    query = (
        db.query("dishes")
        .where(predicate)
        .group_by(
            n=count(),
            sized=count("size"),
            total=sum_("size"),
            mean=avg("rating"),
            lo=min_("size"),
            hi=max_("cuisine"),
            kinds=count_distinct("cuisine"),
            spread=stddev("size"),
            var_rating=variance("rating"),
        )
    )
    assert_equivalent(query)
    assert len(query.all()) == 1
