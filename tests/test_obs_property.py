"""Span-accounting property tests.

The tracing invariant: for every statement executed through a connection,
the recorded :class:`~repro.obs.trace.QueryTrace` root span equals the
virtual latency the statement was charged, and its child spans partition
the root without overlapping.  Checked across all three execution tiers
(vectorized / compiled / interpreted), sharded and unsharded databases,
and the synchronous and asynchronous client paths — plus the WAL
group-commit, MVCC conflict, admission-queue, and fault-retry shapes that
add their own spans.  EXPLAIN ANALYZE actual row counts are also checked
to match executed result sizes exactly in every configuration.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Engine
from repro.db.database import Database
from repro.db.mvcc import SerializationError
from repro.db.schema import Column, ColumnType
from repro.net.faults import FaultError

MODES = ("vectorized", "compiled", "interpreted")
SHARD_COUNTS = (0, 4)


def build_database(mode: str, shards: int) -> Database:
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
        [
            {"o_id": i, "o_c_id": i % 10, "o_total": (i * 13) % 97}
            for i in range(120)
        ],
    )
    database.insert(
        "customers", [{"c_id": i, "c_tier": i % 3} for i in range(10)]
    )
    if shards:
        database.shard_table("orders", "o_c_id", shards)
        database.shard_table("customers", "c_id", shards)
    database.analyze()
    return database


def make_engine(
    mode: str = "vectorized",
    shards: int = 0,
    network: str = "slow-remote",
    **knobs,
) -> Engine:
    builder = (
        Engine.builder()
        .database(build_database(mode, shards))
        .network(network)
        .tracing()
    )
    if knobs.get("wal"):
        flush_seconds, group_window = knobs["wal"]
        builder.wal(flush_seconds=flush_seconds, group_window=group_window)
    if knobs.get("mvcc"):
        builder.mvcc()
    if knobs.get("admission"):
        builder.admission(knobs["admission"])
    if knobs.get("fault_rate"):
        builder.fault_rate(knobs["fault_rate"], seed=knobs.get("seed", 0))
    return builder.build()


def assert_one_exact_trace(engine, connection, run):
    """Run one exchange; its single new trace must equal the charged time."""
    recorded_before = engine.tracer.traces_recorded
    clock_before = connection.clock.now
    run()
    charged = connection.clock.now - clock_before
    assert engine.tracer.traces_recorded == recorded_before + 1
    trace = engine.tracer.traces[-1]
    trace.check_accounting()
    assert trace.duration == pytest.approx(charged, abs=1e-12)
    return trace


# -- tiers x sharding, synchronous client -------------------------------------


class TestSyncSpanAccounting:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    def test_every_trace_partitions_its_charged_latency(self, mode, shards):
        engine = make_engine(mode, shards)
        connection = engine.connect()
        prepared = connection.prepare(
            "select * from orders where o_c_id = ?"
        )
        exchanges = [
            lambda: connection.execute_query(
                "select * from orders where o_total > 50"
            ),
            lambda: connection.execute_prepared(prepared, (3,)),
            lambda: connection.execute_prepared(prepared, (7,)),
            lambda: connection.execute_query(
                "select o_c_id, count(*) from orders group by o_c_id"
            ),
            lambda: connection.execute_update(
                "update orders set o_total = 1 where o_id = 3"
            ),
        ]
        for run in exchanges:
            assert_one_exact_trace(engine, connection, run)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    def test_scan_filter_reports_its_tier(self, mode, shards):
        engine = make_engine(mode, shards)
        connection = engine.connect()
        connection.execute_query("select * from orders where o_total > 50")
        execute = engine.tracer.traces[-1].find("execute")
        assert execute.attributes["tier"] == mode
        route = engine.tracer.traces[-1].find("route")
        if shards and mode == "vectorized":
            assert route.attributes["kind"] == "scatter"
            assert route.attributes["shards"] == tuple(range(shards))
        elif shards:  # the row tiers run it on the aggregate view
            assert route.attributes["kind"] == "fallback"
            assert route.attributes["shards"] is None
        else:
            assert route is None

    def test_point_lookup_fast_path_reports_its_tier(self):
        engine = make_engine("vectorized", shards=0)
        connection = engine.connect()
        statement = connection.prepare("select * from orders where o_id = ?")
        assert_one_exact_trace(
            engine,
            connection,
            lambda: connection.execute_prepared(statement, (5,)),
        )
        execute = engine.tracer.traces[-1].find("execute")
        assert execute.attributes["tier"] == "point-lookup"

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    def test_explain_analyze_actuals_are_exact(self, mode, shards):
        engine = make_engine(mode, shards, network="fast-local")
        database = engine.database
        for sql in (
            "select * from orders where o_total > 50",
            "select o.o_id, c.c_tier from orders o "
            "join customers c on o.o_c_id = c.c_id",
        ):
            expected = len(database.execute_sql(sql).rows)
            result = database.explain_analyze(sql)
            assert result.root.actual_rows == expected


# -- subsystem span shapes -----------------------------------------------------


class TestSubsystemSpans:
    def test_wal_flush_and_group_commit_ride_along(self):
        engine = make_engine(
            "vectorized", network="fast-local", wal=(0.002, 0.05)
        )
        connection = engine.connect()

        def transact():
            connection.begin()
            connection.execute_update(
                "update orders set o_total = 9 where o_id = 1"
            )
            assert_one_exact_trace(engine, connection, connection.commit)
            return engine.tracer.traces[-1]

        first = transact()
        flush = first.find("wal_flush")
        assert flush.duration == pytest.approx(0.002)
        assert flush.attributes["group_commit_ride_along"] is False
        # A second commit inside the group window piggybacks for free.
        second = transact()
        ride_along = second.find("wal_flush")
        assert ride_along.duration == 0.0
        assert ride_along.attributes["group_commit_ride_along"] is True

    def test_mvcc_conflict_traces_the_failed_commit(self):
        engine = make_engine("vectorized", network="fast-local", mvcc=True)
        winner = engine.connect()
        loser = engine.connect()
        winner.begin()
        winner.execute_update("update orders set o_total = 5 where o_id = 1")
        loser.begin()
        loser.execute_update("update orders set o_total = 6 where o_id = 1")
        winner.commit()
        with pytest.raises(SerializationError):
            loser.commit()
        failed = engine.tracer.traces[-1]
        assert failed.kind == "commit"
        assert failed.error is not None
        assert failed.find("mvcc_conflict") is not None
        assert engine.tracer.errors_recorded == 1

    def test_fault_retries_stay_inside_the_accounted_root(self):
        engine = make_engine(
            "vectorized", network="slow-remote", fault_rate=0.3, seed=3
        )
        connection = engine.connect()
        saw_retried_success = False
        for key in range(12):
            recorded_before = engine.tracer.traces_recorded
            clock_before = connection.clock.now
            try:
                connection.execute_query(
                    f"select * from orders where o_c_id = {key % 10}"
                )
            except FaultError:
                # Retry budget exhausted: the error trace still closes with
                # the virtual time the failed exchange burned.
                assert engine.tracer.traces_recorded == recorded_before + 1
                failed = engine.tracer.traces[-1]
                assert failed.error is not None
                assert failed.duration > 0.0
                continue
            charged = connection.clock.now - clock_before
            trace = engine.tracer.traces[-1]
            trace.check_accounting()
            assert trace.duration == pytest.approx(charged, abs=1e-12)
            if trace.find("retry_backoff") is not None:
                assert trace.find("fault") is not None
                saw_retried_success = True
        assert saw_retried_success, (
            "fault_rate=0.3 over 12 queries must produce at least one "
            "retried-then-successful exchange"
        )

    def test_admission_wait_is_charged_and_traced(self):
        engine = make_engine("vectorized", admission=1)
        aengine = engine.aio()

        async def client(key):
            connection = aengine.connect()
            return await connection.execute(
                "select * from orders where o_c_id = ?", (key,)
            )

        async def main():
            return await asyncio.gather(*[client(k) for k in range(4)])

        results = asyncio.run(main())
        assert all(result.rows for result in results)
        waits = [
            trace.find("admission_wait")
            for trace in engine.tracer.traces
            if trace.find("admission_wait") is not None
        ]
        # One request runs immediately; the queued ones carry wait spans.
        assert len(waits) >= 2
        assert all(wait.duration > 0.0 for wait in waits)
        for trace in engine.tracer.traces:
            trace.check_accounting()


# -- asynchronous client -------------------------------------------------------


class TestAsyncSpanAccounting:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    def test_sequential_async_traces_equal_charged_latency(self, mode, shards):
        engine = make_engine(mode, shards)
        aengine = engine.aio()

        async def main():
            connection = aengine.connect()
            clock = connection.raw.clock
            statements = [
                ("select * from orders where o_total > 50", ()),
                ("select * from orders where o_c_id = ?", (3,)),
                ("select o_c_id, count(*) from orders group by o_c_id", ()),
            ]
            for sql, params in statements:
                recorded_before = engine.tracer.traces_recorded
                clock_before = clock.now
                await connection.execute(sql, params)
                charged = clock.now - clock_before
                assert engine.tracer.traces_recorded == recorded_before + 1
                trace = engine.tracer.traces[-1]
                trace.check_accounting()
                assert trace.duration == pytest.approx(charged, abs=1e-12)

        asyncio.run(main())

    def test_concurrent_async_traces_stay_accounted(self):
        engine = make_engine("vectorized", shards=4)
        aengine = engine.aio()

        async def client(key):
            connection = aengine.connect()
            return await connection.execute(
                "select * from orders where o_c_id = ?", (key,)
            )

        async def main():
            return await asyncio.gather(*[client(k) for k in range(6)])

        asyncio.run(main())
        assert engine.tracer.traces_recorded == 6
        total_charged = aengine.elapsed
        for trace in engine.tracer.traces:
            trace.check_accounting()
            # Overlapping requests never charge more than their own root.
            assert trace.duration <= total_charged + 1e-12

    def test_async_pipeline_flush_traces_the_batch(self):
        engine = make_engine("vectorized")
        aengine = engine.aio()

        async def main():
            connection = aengine.connect()
            clock = connection.raw.clock
            async with connection.pipeline() as pipeline:
                pipeline.execute("select * from orders where o_c_id = 1")
                pipeline.execute("select * from orders where o_c_id = 2")
                clock_before = clock.now
            charged = clock.now - clock_before
            trace = engine.tracer.traces[-1]
            assert trace.kind == "pipeline"
            trace.check_accounting()
            assert trace.duration == pytest.approx(charged, abs=1e-12)
            execute = trace.find("execute")
            assert len(execute.children) == 2

        asyncio.run(main())


# -- randomized workloads ------------------------------------------------------


operation_keys = st.lists(
    st.tuples(st.sampled_from(["read", "point", "write"]),
              st.integers(min_value=0, max_value=9)),
    min_size=1,
    max_size=12,
)


class TestRandomizedWorkloads:
    @settings(max_examples=25, deadline=None)
    @given(operations=operation_keys, shards=st.sampled_from(SHARD_COUNTS))
    def test_arbitrary_sync_workloads_hold_the_invariant(
        self, operations, shards
    ):
        engine = make_engine("vectorized", shards)
        connection = engine.connect()
        read = connection.prepare("select * from orders where o_c_id = ?")
        point = connection.prepare("select * from orders where o_id = ?")
        write = connection.prepare(
            "update orders set o_total = 0 where o_c_id = ?"
        )
        for kind, key in operations:
            if kind == "read":
                run = lambda: connection.execute_prepared(read, (key,))
            elif kind == "point":
                run = lambda: connection.execute_prepared(point, (key,))
            else:
                run = lambda: connection.execute_update_prepared(
                    write, (key,)
                )
            assert_one_exact_trace(engine, connection, run)
        assert engine.tracer.traces_recorded == len(operations)
