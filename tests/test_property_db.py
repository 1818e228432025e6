"""Property-based tests for the database engine (hypothesis).

The executor is checked against brute-force Python implementations of the
same relational operations on randomly generated tables, the three
execution tiers (vectorized / compiled / interpreted) are checked to be
row-identical (values *and* order) over generated schemas and query shapes,
the SQL generator is checked to round-trip through the parser, and the
async / pipelined client paths are checked to be row-identical to the
synchronous path over generated workloads.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import algebra
from repro.db.database import Database
from repro.db.executor import Executor
from repro.db.expressions import BinaryOp, BooleanOp, ColumnRef, IsNull, Literal
from repro.db.schema import Column, ColumnType
from repro.db.sqlgen import to_sql
from repro.db.sqlparser import parse_sql
from repro.net.connection import SimulatedConnection
from repro.net.network import FAST_LOCAL

# -- strategies ---------------------------------------------------------------

row_values = st.integers(min_value=0, max_value=9)

left_rows = st.lists(
    st.fixed_dictionaries({"k": row_values, "a": row_values}),
    min_size=0,
    max_size=30,
)
right_rows = st.lists(
    st.fixed_dictionaries({"k": row_values, "b": row_values}),
    min_size=0,
    max_size=30,
)


def build_database(left, right) -> Database:
    database = Database()
    database.create_table(
        "left_t", [Column("k", ColumnType.INT), Column("a", ColumnType.INT)]
    )
    database.create_table(
        "right_t", [Column("k", ColumnType.INT), Column("b", ColumnType.INT)]
    )
    database.insert("left_t", left)
    database.insert("right_t", right)
    database.analyze()
    return database


# -- properties ----------------------------------------------------------------


class TestExecutorAgainstBruteForce:
    @given(rows=left_rows, threshold=row_values)
    @settings(max_examples=60, deadline=None)
    def test_selection_matches_python_filter(self, rows, threshold):
        database = build_database(rows, [])
        result = database.execute_sql(
            f"select * from left_t where a > {threshold}"
        )
        expected = [r for r in rows if r["a"] > threshold]
        assert sorted((r["k"], r["a"]) for r in result.rows) == sorted(
            (r["k"], r["a"]) for r in expected
        )

    @given(left=left_rows, right=right_rows)
    @settings(max_examples=60, deadline=None)
    def test_equi_join_matches_nested_loops(self, left, right):
        database = build_database(left, right)
        result = database.execute_sql(
            "select * from left_t l join right_t r on l.k = r.k"
        )
        expected = [
            (lrow["k"], lrow["a"], rrow["b"])
            for lrow in left
            for rrow in right
            if lrow["k"] == rrow["k"]
        ]
        # One key per column: the shared ``k`` is qualified on each side.
        assert all(list(r) == ["r.k", "b", "l.k", "a"] for r in result.rows)
        actual = [(r["l.k"], r["a"], r["b"]) for r in result.rows]
        assert sorted(actual) == sorted(expected)

    @given(rows=left_rows)
    @settings(max_examples=60, deadline=None)
    def test_sum_and_count_match_python(self, rows):
        database = build_database(rows, [])
        result = database.execute_sql(
            "select sum(a), count(*) from left_t"
        ).rows[0]
        expected_sum = sum(r["a"] for r in rows) if rows else None
        assert result["count_all"] == len(rows)
        if rows:
            assert result["sum_a"] == expected_sum
        else:
            assert result["sum_a"] is None

    @given(rows=left_rows)
    @settings(max_examples=60, deadline=None)
    def test_group_by_matches_python(self, rows):
        database = build_database(rows, [])
        result = database.execute_sql(
            "select k, count(*) from left_t group by k"
        )
        expected: dict[int, int] = {}
        for row in rows:
            expected[row["k"]] = expected.get(row["k"], 0) + 1
        actual = {r["k"]: r["count_all"] for r in result.rows}
        assert actual == expected

    @given(rows=left_rows)
    @settings(max_examples=60, deadline=None)
    def test_order_by_produces_sorted_output(self, rows):
        database = build_database(rows, [])
        result = database.execute_sql("select * from left_t order by a desc")
        values = [r["a"] for r in result.rows]
        assert values == sorted(values, reverse=True)

    @given(rows=left_rows, limit=st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_limit_never_exceeds_bound(self, rows, limit):
        database = build_database(rows, [])
        result = database.execute_sql(f"select * from left_t limit {limit}")
        assert result.cardinality == min(limit, len(rows))


class TestCardinalityEstimates:
    @given(left=left_rows, right=right_rows)
    @settings(max_examples=40, deadline=None)
    def test_estimates_are_non_negative_and_bounded(self, left, right):
        database = build_database(left, right)
        for sql in (
            "select * from left_t",
            "select * from left_t where a = 3",
            "select * from left_t l join right_t r on l.k = r.k",
            "select sum(a) from left_t",
        ):
            estimate = database.estimate_sql(sql)
            assert estimate.cardinality >= 0
            assert estimate.row_width > 0
            assert estimate.first_row_time <= estimate.last_row_time

    @given(left=left_rows)
    @settings(max_examples=40, deadline=None)
    def test_selection_estimate_never_exceeds_input(self, left):
        database = build_database(left, [])
        scan = database.estimate_sql("select * from left_t").cardinality
        filtered = database.estimate_sql(
            "select * from left_t where a = 1"
        ).cardinality
        assert filtered <= scan + 1e-9


class TestSqlRoundTrip:
    @given(
        columns=st.lists(
            st.sampled_from(["k", "a"]), min_size=1, max_size=2, unique=True
        ),
        threshold=row_values,
        descending=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_sql_reparses_to_same_sql(self, columns, threshold, descending):
        sql = (
            f"select {', '.join(columns)} from left_t "
            f"where a >= {threshold} order by k{' desc' if descending else ''}"
        )
        rendered = to_sql(parse_sql(sql))
        assert to_sql(parse_sql(rendered)) == rendered

    @given(left=left_rows, threshold=row_values)
    @settings(max_examples=40, deadline=None)
    def test_roundtripped_query_gives_same_rows(self, left, threshold):
        database = build_database(left, [])
        sql = f"select * from left_t where a <= {threshold}"
        direct = database.execute_sql(sql).rows
        rendered = to_sql(parse_sql(sql))
        via_roundtrip = database.execute_sql(rendered).rows
        assert direct == via_roundtrip


COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]

COLUMN_POOL = ["c0", "c1", "c2", "c3"]


@st.composite
def tier_case(draw):
    """A generated schema, rows (with NULLs), and a plan over them."""
    ncols = draw(st.integers(min_value=1, max_value=4))
    names = COLUMN_POOL[:ncols]
    value = st.one_of(st.none(), st.integers(min_value=-3, max_value=5))
    nrows = draw(st.integers(min_value=0, max_value=25))
    rows = [
        {name: draw(value) for name in names} for _ in range(nrows)
    ]
    alias = draw(st.sampled_from(["t", "x"]))
    plan: algebra.PlanNode = algebra.Scan("t", alias)
    column = lambda: ColumnRef(  # noqa: E731
        draw(st.sampled_from(names)),
        draw(st.sampled_from([None, alias])),
    )
    if draw(st.booleans()):
        predicate: object = BinaryOp(
            draw(st.sampled_from(COMPARISONS)),
            column(),
            Literal(draw(st.integers(min_value=-3, max_value=5))),
        )
        if draw(st.booleans()):
            predicate = BooleanOp(
                draw(st.sampled_from(["and", "or"])),
                (predicate, IsNull(column(), negated=draw(st.booleans()))),
            )
        plan = algebra.Select(plan, predicate)
    shape = draw(st.sampled_from(["plain", "project", "aggregate", "sort"]))
    if shape == "project":
        plan = algebra.Project(
            plan,
            (
                algebra.OutputColumn(column(), "out_a"),
                algebra.OutputColumn(
                    BinaryOp(
                        draw(st.sampled_from(["+", "-", "*"])),
                        column(),
                        Literal(draw(st.integers(min_value=1, max_value=3))),
                    ),
                    "out_b",
                ),
            ),
        )
    elif shape == "aggregate":
        plan = algebra.Aggregate(
            plan,
            group_by=(column(),) if draw(st.booleans()) else (),
            aggregates=(
                algebra.AggregateSpec(
                    draw(st.sampled_from(["sum", "min", "max", "avg", "count"])),
                    column(),
                    "agg",
                ),
                algebra.AggregateSpec("count", None, "n"),
            ),
        )
    elif shape == "sort":
        plan = algebra.Sort(
            plan,
            (
                algebra.SortKey(column(), draw(st.booleans())),
                algebra.SortKey(column(), draw(st.booleans())),
            ),
        )
        if draw(st.booleans()):
            plan = algebra.Limit(plan, draw(st.integers(min_value=0, max_value=10)))
    return names, rows, plan


class TestTierEquivalence:
    """vectorized ≡ compiled ≡ interpreted: identical rows, identical order."""

    @staticmethod
    def assert_tiers_agree(database: Database, plan: algebra.PlanNode) -> None:
        vectorized = Executor(database.tables, mode="vectorized")
        compiled = Executor(database.tables, mode="compiled")
        interpreted = Executor(database.tables, mode="interpreted")
        expected = interpreted.execute(plan)
        assert compiled.execute(plan) == expected
        assert vectorized.execute(plan) == expected

    @given(case=tier_case())
    @settings(max_examples=120, deadline=None)
    def test_generated_single_table_plans(self, case):
        names, rows, plan = case
        database = Database()
        database.create_table(
            "t", [Column(name, ColumnType.INT) for name in names]
        )
        database.insert("t", rows)
        database.analyze()
        self.assert_tiers_agree(database, plan)

    @given(
        left=left_rows,
        right=right_rows,
        threshold=row_values,
        wide=st.booleans(),
        filter_side=st.sampled_from(["left", "right", "none"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_joins(self, left, right, threshold, wide, filter_side):
        database = build_database(left, right)
        join = algebra.Join(
            algebra.Scan("left_t", "l"),
            algebra.Scan("right_t", "r"),
            BinaryOp("=", ColumnRef("k", "l"), ColumnRef("k", "r")),
        )
        plan: algebra.PlanNode = join
        if filter_side == "left":
            plan = algebra.Select(
                plan, BinaryOp(">", ColumnRef("a", "l"), Literal(threshold))
            )
        elif filter_side == "right":
            plan = algebra.Select(
                plan, BinaryOp("<=", ColumnRef("b", "r"), Literal(threshold))
            )
        if not wide:
            plan = algebra.Project(
                plan,
                (
                    algebra.OutputColumn(ColumnRef("k", "l"), "k"),
                    algebra.OutputColumn(ColumnRef("a", "l"), "a"),
                    algebra.OutputColumn(ColumnRef("b", "r"), "b"),
                ),
            )
        self.assert_tiers_agree(database, plan)

    @given(left=left_rows, threshold=row_values)
    @settings(max_examples=40, deadline=None)
    def test_generated_sql_workload(self, left, threshold):
        database = build_database(left, [])
        for sql in (
            f"select * from left_t where a > {threshold}",
            f"select k, a * 2 as scaled from left_t where a != {threshold}",
            "select k, count(*), sum(a) from left_t group by k",
            "select * from left_t order by a desc, k asc",
            f"select * from left_t where a >= {threshold} limit 5",
        ):
            plan = parse_sql(sql)
            self.assert_tiers_agree(database, plan)


def build_sharded_database(
    left, right, shards: int = 3, mode: str = "vectorized"
) -> Database:
    """Like :func:`build_database`, but with both tables hash-sharded on k."""
    database = Database(execution_mode=mode)
    database.create_table(
        "left_t", [Column("k", ColumnType.INT), Column("a", ColumnType.INT)]
    )
    database.create_table(
        "right_t", [Column("k", ColumnType.INT), Column("b", ColumnType.INT)]
    )
    database.shard_table("left_t", "k", shards)
    database.shard_table("right_t", "k", shards)
    database.insert("left_t", left)
    database.insert("right_t", right)
    database.analyze()
    return database


def _canon(rows):
    """Order-insensitive row normalization (floats rounded for the sort)."""
    return sorted(
        rows,
        key=lambda row: [
            (k, repr(round(v, 6) if isinstance(v, float) else v))
            for k, v in sorted(row.items())
        ],
    )


def _close(value, other) -> bool:
    if isinstance(value, float) and isinstance(other, float):
        return math.isclose(value, other)
    return value == other


def assert_sharded_rows(rows, reference, mode, *, exact_order=False) -> None:
    """The sharded ≡ unsharded contract for one tier's rows.

    The compiled and interpreted tiers route or run on the aggregate view,
    so they equal the unsharded reference exactly: order, and floats bit
    for bit.  The vectorized tier's scatter and threaded aggregate
    concatenate in shard order, so it matches as a multiset (float sums
    within ``math.isclose``), and exactly after a total-key ``Sort``.
    """
    if mode != "vectorized" or exact_order:
        assert rows == reference, mode
        return
    got, want = _canon(rows), _canon(reference)
    assert len(got) == len(want), mode
    for row, other in zip(got, want):
        assert row.keys() == other.keys(), mode
        assert all(_close(row[key], other[key]) for key in row), (mode, row, other)


class TestShardedEquivalence:
    """Sharded execution ≡ unsharded execution, across all three tiers,
    by :func:`assert_sharded_rows`."""

    MODES = ("vectorized", "compiled", "interpreted")

    @staticmethod
    def assert_sharded_matches_unsharded(
        left, right, plan, shards, *, exact_order=False
    ) -> None:
        reference = Executor(
            build_database(left, right).tables, mode="interpreted"
        ).execute(plan)
        for mode in TestShardedEquivalence.MODES:
            database = build_sharded_database(left, right, shards, mode=mode)
            assert_sharded_rows(
                database._executor.execute(plan),
                reference,
                mode,
                exact_order=exact_order,
            )

    @given(case=tier_case(), shards=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_generated_single_table_plans_sharded(self, case, shards):
        names, rows, plan = case
        reference_db = Database()
        reference_db.create_table(
            "t", [Column(name, ColumnType.INT) for name in names]
        )
        reference_db.insert("t", rows)
        reference_db.analyze()
        reference = Executor(
            reference_db.tables, mode="interpreted"
        ).execute(plan)
        for mode in self.MODES:
            database = Database(execution_mode=mode)
            database.create_table(
                "t", [Column(name, ColumnType.INT) for name in names]
            )
            database.shard_table("t", names[0], shards)
            database.insert("t", rows)
            database.analyze()
            assert_sharded_rows(database._executor.execute(plan), reference, mode)

    @given(
        left=left_rows,
        right=right_rows,
        threshold=row_values,
        wide=st.booleans(),
        shards=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_co_partitioned_joins_sharded(
        self, left, right, threshold, wide, shards
    ):
        join = algebra.Join(
            algebra.Scan("left_t", "l"),
            algebra.Scan("right_t", "r"),
            BinaryOp("=", ColumnRef("k", "l"), ColumnRef("k", "r")),
        )
        plan: algebra.PlanNode = algebra.Select(
            join, BinaryOp(">", ColumnRef("a", "l"), Literal(threshold))
        )
        if not wide:
            plan = algebra.Project(
                plan,
                (
                    algebra.OutputColumn(ColumnRef("k", "l"), "k"),
                    algebra.OutputColumn(ColumnRef("a", "l"), "a"),
                    algebra.OutputColumn(ColumnRef("b", "r"), "b"),
                ),
            )
        self.assert_sharded_matches_unsharded(left, right, plan, shards)

    @given(
        left=left_rows,
        shards=st.integers(min_value=1, max_value=4),
        descending=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sort_with_total_keys_is_exactly_ordered(
        self, left, shards, descending
    ):
        # Unique shard-key values make the sort keys total, so sharded
        # output must match unsharded output exactly, order included.
        rows = [
            {"k": index, "a": row["a"]} for index, row in enumerate(left)
        ]
        plan = algebra.Sort(
            algebra.Select(
                algebra.Scan("left_t"),
                BinaryOp(">=", ColumnRef("a"), Literal(0)),
            ),
            (
                algebra.SortKey(ColumnRef("a"), not descending),
                algebra.SortKey(ColumnRef("k"), True),
            ),
        )
        self.assert_sharded_matches_unsharded(
            rows, [], plan, shards, exact_order=True
        )

    @given(
        left=left_rows,
        shards=st.integers(min_value=1, max_value=4),
        group=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_local_aggregates_match_unsharded(self, left, shards, group):
        plan = algebra.Aggregate(
            algebra.Scan("left_t"),
            group_by=(ColumnRef("k"),) if group else (),
            aggregates=(
                algebra.AggregateSpec("count", None, "n"),
                algebra.AggregateSpec("sum", ColumnRef("a"), "total"),
                algebra.AggregateSpec("avg", ColumnRef("a"), "mean"),
                algebra.AggregateSpec("min", ColumnRef("a"), "low"),
                algebra.AggregateSpec("max", ColumnRef("a"), "high"),
            ),
        )
        self.assert_sharded_matches_unsharded(left, [], plan, shards)

    @given(
        left=left_rows,
        right=right_rows,
        shards=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_theta_join_fallback_is_row_identical(self, left, right, shards):
        # Two sharded tables under a theta join cannot be distributed: the
        # router falls back to the aggregate view, which preserves global
        # insertion order — so the result is *exactly* the unsharded one.
        plan = algebra.Join(
            algebra.Scan("left_t", "l"),
            algebra.Scan("right_t", "r"),
            BinaryOp("<", ColumnRef("k", "l"), ColumnRef("k", "r")),
        )
        self.assert_sharded_matches_unsharded(
            left, right, plan, shards, exact_order=True
        )

    @given(left=left_rows, shards=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_prepared_point_routing_matches_unsharded(self, left, shards):
        database = build_sharded_database(left, [], shards)
        reference = build_database(left, [])
        statement = database.prepare("select * from left_t where k = ?")
        expected = reference.prepare("select * from left_t where k = ?")
        for key in sorted({row["k"] for row in left}) or [0]:
            assert _canon(statement.execute((key,)).rows) == _canon(
                expected.execute((key,)).rows
            )


#: Parameterized workload queries replayed through every client path: plain
#: filters, conjunctions, projections with arithmetic, grouped aggregates,
#: joins, and ordering — the shapes the slotted prepared path must cover.
def _workload_queries(threshold):
    return [
        ("select * from left_t where a > ?", (threshold,)),
        ("select * from left_t where a >= ? and k <= ?", (threshold, 7)),
        ("select k, a * ? as scaled from left_t where a != ?", (2, threshold)),
        ("select k, count(*), sum(a) from left_t group by k", ()),
        (
            "select l.k, l.a, r.b from left_t l join right_t r on l.k = r.k "
            "where l.a > ?",
            (threshold,),
        ),
        ("select * from left_t order by a desc, k asc", ()),
    ]


class TestClientPathEquivalence:
    """Async and pipelined execution are row-identical to the sync path."""

    @given(left=left_rows, right=right_rows, threshold=row_values)
    @settings(max_examples=25, deadline=None)
    def test_pipelined_rows_match_sync(self, left, right, threshold):
        database = build_database(left, right)
        queries = _workload_queries(threshold)
        sync_connection = SimulatedConnection(database, FAST_LOCAL)
        expected = [
            sync_connection.execute_query(sql, params).rows
            for sql, params in queries
        ]
        pipelined = SimulatedConnection(database, FAST_LOCAL)
        with pipelined.pipeline() as pipe:
            handles = [pipe.execute(sql, params) for sql, params in queries]
        assert [handle.rows for handle in handles] == expected
        assert pipelined.stats.round_trips == 1

    @given(left=left_rows, right=right_rows, threshold=row_values)
    @settings(max_examples=25, deadline=None)
    def test_async_rows_match_sync(self, left, right, threshold):
        from repro.api import connect

        database = build_database(left, right)
        queries = _workload_queries(threshold)
        engine = connect(database=database, network="fast-local")
        expected = [
            engine.connect().execute_query(sql, params).rows
            for sql, params in queries
        ]
        aengine = engine.aio()

        async def main():
            connections = [aengine.connect() for _ in queries]
            results = await asyncio.gather(
                *[
                    connection.execute(sql, params)
                    for connection, (sql, params) in zip(connections, queries)
                ]
            )
            return [result.rows for result in results]

        assert asyncio.run(main()) == expected

    @given(left=left_rows, threshold=row_values)
    @settings(max_examples=25, deadline=None)
    def test_executemany_matches_per_tuple_execution(self, left, threshold):
        database = build_database(left, [])
        keys = sorted({row["k"] for row in left}) or [0]
        sql = "select * from left_t where k = ? and a >= ?"
        per_tuple = SimulatedConnection(database, FAST_LOCAL)
        expected = [
            per_tuple.execute_query(sql, (key, threshold)).rows
            for key in keys
        ]
        pipelined = SimulatedConnection(database, FAST_LOCAL)
        with pipelined.pipeline() as pipe:
            handles = [pipe.execute(sql, (key, threshold)) for key in keys]
        assert [handle.rows for handle in handles] == expected
        # The cursor's executemany retains the last result set.
        cursor = SimulatedConnection(database, FAST_LOCAL).cursor()
        cursor.executemany(sql, [(key, threshold) for key in keys])
        assert cursor.fetchall() == expected[-1]

    @given(left=left_rows, threshold=row_values)
    @settings(max_examples=20, deadline=None)
    def test_prepared_slots_match_fresh_parse(self, left, threshold):
        database = build_database(left, [])
        sql = "select * from left_t where a > ?"
        from repro.db.sqlparser import bind_parameters

        statement = database.prepare(sql)
        for params in [(threshold,), (0,), (9,), (threshold,)]:
            bound = bind_parameters(parse_sql(sql), params)
            expected = database.execute_plan(bound, sql=sql).rows
            assert statement.execute(params).rows == expected
