"""Tests for parallel scatter-gather execution on the shard worker pool.

Covers the :class:`~repro.db.parallel.ShardExecutorPool` surface (modes,
deterministic error surfacing, stats, lifecycle), the packed table /
ColumnBatch payloads that cross the process boundary, the parallel ≡
serial scatter ≡ unsharded equivalence property across all three
execution tiers in thread and process modes (including theta-join /
unknown-function fallback plans and a shard whose predicate raises
mid-scatter), the sorted-run k-way merge at the gather node, the group order
of pool-mode aggregates, counter accounting, the engine facade wiring
(``EngineBuilder.parallel``, the ``sharding`` metrics view's ``parallel``
section, CLI ``--workers``), and the parallel-scatter trace breakdown.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import Engine
from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import BinaryOp, ColumnRef, FunctionCall, Literal
from repro.db.parallel import (
    ParallelConfigError,
    ShardExecutorPool,
    pack_table,
    unpack_table,
)
from repro.db.schema import Column, ColumnType
from repro.db.table import Table
from repro.db.vectorized import merge_sorted_runs

SHARDS = 4

QUERIES = [
    "select o_id, o_total from orders where o_total > 40",
    "select o_id, o_total from orders where o_total > 40 "
    "order by o_total desc, o_id",
    "select o_id, o_c_id, o_total from orders order by o_c_id, o_id desc",
    "select o_c_id, count(*) as n, sum(o_total) as s, avg(o_total) as a "
    "from orders group by o_c_id",
    "select count(*) as n, min(o_total) as lo, max(o_total) as hi "
    "from orders",
    "select o_id, c_tier from orders join customers on o_c_id = c_id "
    "where o_total > 60",
]


def build_database(
    shards: int = 0, mode: str = "vectorized", rows: int = 120
) -> Database:
    database = Database(execution_mode=mode)
    database.create_table(
        "orders",
        [
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_total", ColumnType.INT),
        ],
        primary_key="o_id",
    )
    database.create_table(
        "customers",
        [
            Column("c_id", ColumnType.INT),
            Column("c_tier", ColumnType.INT),
        ],
        primary_key="c_id",
    )
    database.insert(
        "orders",
        (
            {"o_id": i, "o_c_id": i % 10, "o_total": (i * 13) % 97}
            for i in range(rows)
        ),
    )
    database.insert(
        "customers",
        ({"c_id": i, "c_tier": i % 3} for i in range(10)),
    )
    if shards:
        database.shard_table("orders", "o_c_id", shards)
        database.shard_table("customers", "c_id", shards)
    database.analyze()
    return database


def row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def as_multiset(rows: list) -> list:
    return sorted(row_key(row) for row in rows)


# -- pool surface --------------------------------------------------------------


class TestShardExecutorPool:
    def test_rejects_unknown_mode_and_bad_worker_counts(self):
        with pytest.raises(ParallelConfigError):
            ShardExecutorPool(mode="fibers")
        with pytest.raises(ParallelConfigError):
            ShardExecutorPool(workers=0)

    def test_run_tasks_returns_results_in_task_order(self):
        pool = ShardExecutorPool(workers=3)
        results, seconds = pool.run_tasks(
            [lambda value=value: value * 10 for value in range(8)]
        )
        assert results == [value * 10 for value in range(8)]
        assert len(seconds) == 8 and all(s >= 0.0 for s in seconds)
        pool.close()

    def test_lowest_index_error_surfaces_once(self):
        pool = ShardExecutorPool(workers=3)

        def boom(index):
            raise ValueError(f"shard {index} broke")

        tasks = [
            lambda: [1],
            lambda: boom(1),
            lambda: boom(2),
            lambda: [4],
        ]
        with pytest.raises(ValueError, match="shard 1 broke"):
            pool.run_tasks(tasks)
        pool.close()

    def test_note_scatter_accumulates_max_not_sum(self):
        pool = ShardExecutorPool(workers=2)
        pool.note_scatter([0.5, 0.2, 0.3])
        stats = pool.stats()
        assert stats["scatters"] == 1
        assert stats["shard_seconds"] == pytest.approx(1.0)
        assert stats["parallel_seconds"] == pytest.approx(0.5)

    def test_close_is_idempotent_and_pool_recreates_lazily(self):
        pool = ShardExecutorPool(workers=2)
        results, _ = pool.run_tasks([lambda: 1, lambda: 2])
        pool.close()
        pool.close()
        results, _ = pool.run_tasks([lambda: 3, lambda: 4])
        assert results == [3, 4]
        pool.close()


# -- shipped payloads ----------------------------------------------------------


class TestPackedTables:
    def test_pack_table_round_trips_rows_index_and_columns(self):
        database = build_database()
        table = database.tables["orders"]
        rebuilt = unpack_table(
            pickle.loads(pickle.dumps(pack_table(table))), table.version
        )
        assert rebuilt.rows == table.rows
        assert rebuilt.schema.column_names == table.schema.column_names
        assert rebuilt.version == table.version
        assert rebuilt.lookup_pk(7) == table.lookup_pk(7)
        # The unpacked columns seed the columnar view: no re-encode on scan.
        assert rebuilt._columnar is not None

    def test_pack_table_preserves_nulls_and_strings(self):
        database = Database()
        database.create_table(
            "t",
            [
                Column("k", ColumnType.INT),
                Column("s", ColumnType.STRING),
                Column("v", ColumnType.INT),
            ],
            primary_key="k",
        )
        database.insert(
            "t",
            (
                {"k": i, "s": None if i % 3 == 0 else f"s{i % 4}", "v": None}
                for i in range(17)
            ),
        )
        table = database.tables["t"]
        rebuilt = unpack_table(
            pickle.loads(pickle.dumps(pack_table(table))), table.version
        )
        assert rebuilt.rows == table.rows


# -- parallel ≡ serial ≡ unsharded --------------------------------------------


@pytest.mark.parametrize("mode", ["vectorized", "compiled", "interpreted"])
@pytest.mark.parametrize("pool_mode", ["thread", "process"])
class TestParallelEquivalence:
    def test_queries_match_serial_and_unsharded(self, mode, pool_mode):
        unsharded = build_database(mode=mode)
        serial = build_database(shards=SHARDS, mode=mode)
        parallel = build_database(shards=SHARDS, mode=mode)
        parallel.set_parallel(workers=2, mode=pool_mode)
        try:
            for sql in QUERIES:
                reference = unsharded.execute_sql(sql).rows
                serial_rows = serial.execute_sql(sql).rows
                parallel_rows = parallel.execute_sql(sql).rows
                # Serial scatter order is the contract; parallel must
                # reproduce it exactly, not just as a multiset.
                assert parallel_rows == serial_rows, sql
                if "order by" in sql:
                    assert parallel_rows == reference, sql
                else:
                    assert as_multiset(parallel_rows) == as_multiset(
                        reference
                    ), sql
        finally:
            parallel.close_parallel()

    def test_theta_join_fallback_plan_stays_exact(self, mode, pool_mode):
        # Orders sharded, customers broadcast: the theta join scatters with
        # no vectorized lowering (row-tier per shard under the pool).
        reference = build_database(mode="interpreted")
        parallel = build_database(mode=mode)
        parallel.shard_table("orders", "o_c_id", SHARDS)
        parallel.set_parallel(workers=2, mode=pool_mode)
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        try:
            rows = parallel.execute_plan(plan).rows
            expected = reference.execute_plan(plan).rows
            assert as_multiset(rows) == as_multiset(expected)
            assert parallel.sharding_stats()["scatter"] == 1
        finally:
            parallel.close_parallel()

    def test_unknown_function_raises_identically_once(self, mode, pool_mode):
        reference = build_database(mode="interpreted")
        parallel = build_database(shards=SHARDS, mode=mode)
        parallel.set_parallel(workers=2, mode=pool_mode)
        plan = algebra.Project(
            algebra.Scan("orders"),
            (
                algebra.OutputColumn(
                    FunctionCall("no_such_function", (ColumnRef("o_id"),)),
                    "out",
                ),
            ),
        )
        try:
            with pytest.raises(Exception) as parallel_error:
                parallel.execute_plan(plan)
            with pytest.raises(Exception) as reference_error:
                reference.execute_plan(plan)
            assert str(parallel_error.value) == str(reference_error.value)
            # The failed scatter leaves the counters consistent: stats
            # surfaces stay readable and non-negative.
            stats = parallel.execution_stats()
            assert all(count >= 0 for count in stats["tiers"].values())
            assert parallel.sharding_stats()["parallel"]["mode"] == pool_mode
        finally:
            parallel.close_parallel()

    def test_error_on_one_shard_surfaces_once(self, mode, pool_mode):
        # 1 / (o_c_id - 3) raises only for rows with o_c_id == 3, which all
        # hash to a single shard; the other shards complete fine.
        serial = build_database(shards=SHARDS, mode=mode)
        parallel = build_database(shards=SHARDS, mode=mode)
        parallel.set_parallel(workers=2, mode=pool_mode)
        plan = algebra.Project(
            algebra.Scan("orders"),
            (
                algebra.OutputColumn(
                    BinaryOp(
                        "/",
                        Literal(1),
                        BinaryOp("-", ColumnRef("o_c_id"), Literal(3)),
                    ),
                    "out",
                ),
            ),
        )
        try:
            with pytest.raises(Exception) as serial_error:
                serial.execute_plan(plan)
            with pytest.raises(Exception) as parallel_error:
                parallel.execute_plan(plan)
            assert type(parallel_error.value) is type(serial_error.value)
            assert str(parallel_error.value) == str(serial_error.value)
        finally:
            parallel.close_parallel()


class TestParallelAccounting:
    def test_thread_scatter_counts_every_shard_execution(self):
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="thread")
        sql = "select o_id from orders where o_total > 40"
        try:
            serial.execute_sql(sql)
            parallel.execute_sql(sql)
            serial_tiers = serial.execution_stats()["tiers"]
            parallel_tiers = parallel.execution_stats()["tiers"]
            assert sum(parallel_tiers.values()) == sum(serial_tiers.values())
            stats = parallel.sharding_stats()["parallel"]
            assert stats["scatters"] == 1
            assert stats["mode"] == "thread"
            assert stats["parallel_seconds"] <= stats["shard_seconds"]
        finally:
            parallel.close_parallel()

    def test_process_scatter_folds_worker_counter_deltas(self):
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="process")
        sql = "select o_id from orders where o_total > 40"
        try:
            serial.execute_sql(sql)
            parallel.execute_sql(sql)
            assert (
                parallel.execution_stats()["tiers"]
                == serial.execution_stats()["tiers"]
            )
            stats = parallel.sharding_stats()["parallel"]
            assert stats["pickle_bytes"]["sent"] > 0
            assert stats["pickle_bytes"]["received"] > 0
            assert stats["degraded"] == 0
        finally:
            parallel.close_parallel()

    def test_process_workers_cache_shard_payloads(self, monkeypatch):
        """Workers cache shard payloads; a scatter ships only what is missing.

        ``ProcessPoolExecutor`` does not pin shard *i* to worker *j*: with
        several workers a repeat scatter may land a shard on a worker that
        has not seen it and legitimately re-ship it (and the re-shipped
        payload may itself land on yet another worker).  What always holds:
        a scatter sends its plan blobs plus at most one payload per shard,
        and exactly the plan blobs when nothing had to be seeded.  With one
        worker every (shard, worker) pair is warm after the cold scatter,
        so every repeat ships plan blobs only.
        """
        import pickle

        from repro.db import sharding

        sql = "select o_id from orders where o_total > 40"
        payloads = []
        real_pack = sharding.pack_table
        monkeypatch.setattr(
            sharding,
            "pack_table",
            lambda table: payloads.append(table) or real_pack(table),
        )
        plan_bytes = []
        real_run = sharding.ShardExecutorPool.run_process_requests

        def recording_run(pool, requests, provide):
            plan_bytes.append(
                sum(
                    len(pickle.dumps(request, pickle.HIGHEST_PROTOCOL))
                    for request in requests
                )
            )
            return real_run(pool, requests, provide)

        monkeypatch.setattr(
            sharding.ShardExecutorPool, "run_process_requests", recording_run
        )

        def scatter(parallel) -> tuple[int, int, int]:
            """(bytes sent, bytes of plan blobs alone, payloads shipped)."""
            before = len(payloads)
            parallel.execute_sql(sql)
            sent = parallel._router.last_parallel["pickle_bytes"]["sent"]
            return sent, plan_bytes[-1], len(payloads) - before

        for workers in (1, 2):
            parallel = build_database(shards=SHARDS)
            parallel.set_parallel(workers=workers, mode="process")
            try:
                cold_sent, cold_plans, cold_payloads = scatter(parallel)
                # Cold workers: every shard's payload ships exactly once.
                assert cold_payloads == SHARDS
                assert cold_sent > cold_plans
                for _ in range(3):
                    sent, plans, shipped = scatter(parallel)
                    assert plans == cold_plans
                    if workers == 1:
                        assert shipped == 0
                    assert shipped <= SHARDS
                    if shipped == 0:
                        assert sent == plans
                    else:
                        assert plans < sent <= cold_sent
            finally:
                parallel.close_parallel()

    def test_serial_mode_never_builds_a_pool(self):
        database = build_database(shards=SHARDS)
        database.set_parallel(mode="serial")
        database.execute_sql("select o_id from orders where o_total > 40")
        assert database.sharding_stats()["parallel"] == {
            "mode": "serial",
            "workers": 1,
            "scatters": 0,
        }


# -- sorted-run merge ----------------------------------------------------------


class TestSortedRunMerge:
    def test_merge_sorted_runs_matches_sorted_concat(self):
        runs = [
            [{"k": 1, "run": 0}, {"k": 3, "run": 0}, {"k": 5, "run": 0}],
            [{"k": 1, "run": 1}, {"k": 2, "run": 1}],
            [],
            [{"k": 4, "run": 3}],
        ]
        merged = merge_sorted_runs(runs, key=lambda row: row["k"])
        expected = sorted(
            (row for run in runs for row in run), key=lambda row: row["k"]
        )
        # Stable: ties keep run (= shard) order, like concat-then-sort.
        assert merged == expected

    def test_parallel_sort_is_row_identical_including_ties(self):
        # o_c_id repeats every 10 orders: lots of ties on the first key.
        unsharded = build_database()
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="thread")
        sql = (
            "select o_id, o_c_id, o_total from orders "
            "order by o_c_id, o_total desc, o_id"
        )
        try:
            expected = unsharded.execute_sql(sql).rows
            assert serial.execute_sql(sql).rows == expected
            assert parallel.execute_sql(sql).rows == expected
        finally:
            parallel.close_parallel()

    def test_descending_tie_order_matches_serial(self):
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="thread")
        sql = "select o_id, o_c_id from orders order by o_c_id desc"
        try:
            assert (
                parallel.execute_sql(sql).rows == serial.execute_sql(sql).rows
            )
        finally:
            parallel.close_parallel()


# -- partial-aggregate gather order --------------------------------------------


class TestAggregateGatherOrder:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_pool_aggregates_emit_groups_in_serial_scatter_order(self, mode):
        # Groups on a column that is not the shard key, so every group's
        # rows are spread over the shards: the gather decides the order.
        sql = (
            "select o_total, count(*) as n, sum(o_id) as s, avg(o_id) as a "
            "from orders where o_id >= 7 group by o_total"
        )
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode=mode)
        try:
            expected = serial.execute_sql(sql).rows
            assert len(expected) > SHARDS
            assert parallel.execute_sql(sql).rows == expected
        finally:
            parallel.close_parallel()


# -- engine facade and CLI -----------------------------------------------------


class TestEngineFacade:
    def make_engine(self, **parallel) -> Engine:
        return (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .parallel(**parallel)
            .build()
        )

    def test_builder_parallel_surfaces_in_stats(self):
        engine = self.make_engine(workers=2)
        connection = engine.connect()
        connection.execute_query("select * from orders where o_quantity > 2")
        stats = engine.metrics().views["sharding"]()["parallel"]
        assert stats["mode"] == "thread"
        assert stats["workers"] == 2
        assert stats["scatters"] >= 1
        engine.close()

    def test_engine_close_shuts_the_pool_down(self):
        engine = self.make_engine(workers=2)
        connection = engine.connect()
        connection.execute_query("select * from orders where o_quantity > 2")
        router = engine.database._router
        assert router._pool._threads is not None
        engine.close()
        assert router._pool._threads is None

    def test_builder_serial_mode_keeps_the_baseline(self):
        engine = self.make_engine(mode="serial")
        connection = engine.connect()
        connection.execute_query("select * from orders where o_quantity > 2")
        parallel = engine.metrics().views["sharding"]()["parallel"]
        assert parallel["mode"] == "serial"
        engine.close()

    def test_cli_workers_flag_configures_the_pool(self, tmp_path):
        import io

        from repro.cli import main
        from repro.workloads.programs import P0_SOURCE

        program = tmp_path / "program.py"
        program.write_text(P0_SOURCE)
        out = io.StringIO()
        code = main(
            [
                "optimize",
                str(program),
                "--scale",
                "200",
                "--shards",
                "4",
                "--workers",
                "2",
            ],
            out=out,
        )
        assert code == 0


# -- tracing -------------------------------------------------------------------


class TestParallelScatterTracing:
    def make_engine(self) -> Engine:
        return (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .parallel(workers=2)
            .tracing()
            .build()
        )

    def test_route_span_carries_the_parallel_breakdown(self):
        engine = self.make_engine()
        connection = engine.connect()
        connection.execute_query("select * from orders where o_quantity > 2")
        trace = engine.tracer.traces[-1]
        trace.check_accounting()  # informational sub-spans don't disturb it
        route = trace.find("route")
        assert route is not None
        (span,) = [c for c in route.children if c.name == "parallel"]
        assert span.attributes["mode"] == "thread"
        assert span.attributes["workers"] == 2
        shard_spans = [c for c in span.children if c.name.startswith("shard-")]
        assert len(shard_spans) == 4
        # Max-not-sum: the parallel span charges the slowest shard's wall.
        assert span.duration == pytest.approx(
            max(child.duration for child in shard_spans)
        )
        assert span.duration <= sum(child.duration for child in shard_spans)
        engine.close()

    def test_serial_scatter_has_no_parallel_span(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .tracing()
            .build()
        )
        connection = engine.connect()
        connection.execute_query("select * from orders where o_quantity > 2")
        route = engine.tracer.traces[-1].find("route")
        assert route is not None
        assert all(child.name != "parallel" for child in route.children)
        engine.close()
