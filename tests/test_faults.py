"""Fault injection, retry policies, and the convergence property.

The centerpiece: a seeded fault-injected workload, with retries, must
produce results row-identical to a fault-free run of the same workload —
every injected fault is either retried or surfaced, never silently lost.
Extra seeds can be supplied via the ``FAULT_SEEDS`` environment variable
(space-separated ints), which is how ``make test-faults`` widens the sweep.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.api.engine import Engine
from repro.db.database import Database
from repro.db.schema import Column, ColumnType
from repro.net.connection import SimulatedConnection
from repro.net.faults import (
    AmbiguousCommitError,
    ConnectionDroppedError,
    FaultError,
    FaultPolicy,
    RequestTimeoutError,
    RetryPolicy,
    TransientServerError,
)
from repro.net.network import FAST_LOCAL

SEEDS = [0, 7, 13] + [
    int(token) for token in os.environ.get("FAULT_SEEDS", "").split()
]


def make_database() -> Database:
    database = Database()
    database.create_table(
        "items",
        [
            Column("item_id", ColumnType.INT),
            Column("label", ColumnType.STRING, width=12),
            Column("grp", ColumnType.INT),
        ],
        primary_key="item_id",
    )
    database.insert(
        "items",
        [
            {"item_id": i, "label": f"item{i}", "grp": i % 3}
            for i in range(20)
        ],
    )
    return database


class TestFaultPolicy:
    def test_same_seed_same_fault_sequence(self):
        def sequence(policy):
            out = []
            for _ in range(200):
                fault = policy.inject("query", 0.001)
                out.append(None if fault is None else fault.kind)
            return out

        first = sequence(FaultPolicy(0.3, seed=42))
        second = sequence(FaultPolicy(0.3, seed=42))
        assert first == second
        policy = FaultPolicy(0.3, seed=42)
        before = sequence(policy)
        policy.reset()
        assert sequence(policy) == before
        assert sequence(FaultPolicy(0.3, seed=43)) != first

    def test_rate_zero_never_faults_rate_one_always(self):
        never = FaultPolicy(0.0, seed=1)
        assert all(never.inject("query", 0.001) is None for _ in range(50))
        always = FaultPolicy(1.0, seed=1)
        assert all(
            always.inject("query", 0.001) is not None for _ in range(50)
        )
        assert always.stats.injected == 50

    def test_kind_counters_and_costs(self):
        timeouts = FaultPolicy(
            1.0, seed=0, kinds=("timeout",), timeout_seconds=0.25
        )
        fault = timeouts.inject("query", 0.001)
        assert isinstance(fault, RequestTimeoutError)
        assert fault.cost == 0.25 and not fault.delivered
        # Without an explicit timeout the client burns 4 round trips.
        assert FaultPolicy(1.0, kinds=("timeout",)).inject(
            "query", 0.01
        ).cost == pytest.approx(0.04)
        drop = FaultPolicy(1.0, kinds=("drop",)).inject("update", 0.01)
        assert isinstance(drop, ConnectionDroppedError)
        assert drop.cost == pytest.approx(0.01)
        server = FaultPolicy(1.0, kinds=("server_error",)).inject(
            "update", 0.01
        )
        assert isinstance(server, TransientServerError)
        assert timeouts.stats.timeouts == 1

    def test_delivered_fraction_marks_drops_only(self):
        policy = FaultPolicy(
            1.0, seed=3, kinds=("drop",), delivered_fraction=1.0
        )
        fault = policy.inject("update", 0.01)
        assert fault.delivered and policy.stats.delivered == 1
        # Timeouts are always request-path, whatever the fraction says.
        policy = FaultPolicy(
            1.0, seed=3, kinds=("timeout",), delivered_fraction=1.0
        )
        assert not policy.inject("update", 0.01).delivered

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPolicy(1.5)
        with pytest.raises(ValueError, match="at least one"):
            FaultPolicy(0.5, kinds=())
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPolicy(0.5, kinds=("timeout", "cosmic_ray"))
        with pytest.raises(ValueError, match="at least 1"):
            RetryPolicy(0)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=1.0,
            multiplier=2.0,
            max_delay=5.0,
            jitter=0.0,
        )
        delays = [policy.delay(attempt) for attempt in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=9)
        delays = [policy.delay(1) for _ in range(50)]
        assert all(0.1 <= d <= 0.15 for d in delays)
        policy.reset()
        assert [policy.delay(1) for _ in range(50)] == delays


class TestSyncFaultPaths:
    def faulty_connection(self, database=None, *, faults, retries=None):
        return SimulatedConnection(
            database or make_database(),
            FAST_LOCAL,
            faults=faults,
            retries=retries,
        )

    def test_request_path_fault_retried_transparently(self):
        connection = self.faulty_connection(
            faults=FaultPolicy(0.5, seed=1),
            retries=RetryPolicy(max_attempts=20),
        )
        for i in range(20):
            result = connection.execute_query(
                f"select * from items where item_id = {i}"
            )
            assert result.cardinality == 1
        stats = connection.faults.stats
        assert stats.injected > 0
        assert stats.retries == stats.injected
        assert stats.exhausted == 0 and stats.ambiguous == 0

    def test_exhausted_retries_surface_the_fault(self):
        connection = self.faulty_connection(
            faults=FaultPolicy(1.0, seed=0, kinds=("server_error",)),
            retries=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(TransientServerError):
            connection.execute_query("select * from items")
        stats = connection.faults.stats
        assert stats.injected == 3
        assert stats.retries == 2 and stats.exhausted == 1

    def test_no_retry_policy_surfaces_first_fault(self):
        connection = self.faulty_connection(
            faults=FaultPolicy(
                1.0, kinds=("timeout",), timeout_seconds=0.5
            )
        )
        with pytest.raises(RequestTimeoutError):
            connection.execute_query("select * from items")
        # The failed exchange still charged the virtual clock.
        assert connection.elapsed == pytest.approx(0.5)
        assert connection.faults.stats.exhausted == 1

    def test_backoff_time_charged_to_virtual_clock(self):
        connection = self.faulty_connection(
            faults=FaultPolicy(
                1.0, kinds=("timeout",), timeout_seconds=0.5
            ),
            retries=RetryPolicy(
                max_attempts=2, base_delay=0.125, jitter=0.0
            ),
        )
        with pytest.raises(RequestTimeoutError):
            connection.execute_query("select * from items")
        # Two timed-out attempts plus one backoff sleep, all virtual.
        assert connection.elapsed == pytest.approx(0.5 + 0.125 + 0.5)
        assert connection.faults.stats.backoff_seconds == pytest.approx(0.125)

    def test_delivered_write_fault_is_ambiguous_not_retried(self):
        database = make_database()
        connection = self.faulty_connection(
            database,
            faults=FaultPolicy(
                1.0, kinds=("drop",), delivered_fraction=1.0
            ),
            retries=RetryPolicy(),
        )
        with pytest.raises(AmbiguousCommitError):
            connection.execute_update(
                "update items set label = 'done' where item_id = 1"
            )
        # The server *did* execute the write; only the reply was lost.
        assert database.table("items").lookup_pk(1)["label"] == "done"
        assert connection.faults.stats.ambiguous == 1
        assert connection.faults.stats.retries == 0

    def test_delivered_commit_fault_is_ambiguous(self):
        database = make_database()
        connection = SimulatedConnection(database, FAST_LOCAL)
        connection.begin()
        connection.execute_update(
            "update items set label = 'committed' where item_id = 2"
        )
        # Arm the fault injector only for the COMMIT exchange.
        connection.faults = FaultPolicy(
            1.0, kinds=("drop",), delivered_fraction=1.0
        )
        connection.retries = RetryPolicy()
        with pytest.raises(AmbiguousCommitError):
            connection.commit()
        # In-doubt on the client, but committed on the server.
        assert not database.in_transaction
        assert database.txn_stats.committed == 1
        assert database.table("items").lookup_pk(2)["label"] == "committed"

    def test_exhausted_commit_fault_keeps_transaction_commitable(self):
        """A request-path COMMIT fault never reached the server, so the
        transaction must stay open on both ends — dropping the client's
        reference would wedge the single-writer server forever."""
        database = make_database()
        connection = SimulatedConnection(database, FAST_LOCAL)
        connection.begin()
        connection.execute_update(
            "update items set label = 'pending' where item_id = 4"
        )
        connection.faults = FaultPolicy(1.0, kinds=("timeout",))
        with pytest.raises(RequestTimeoutError):
            connection.commit()
        assert connection.in_transaction
        assert database.in_transaction
        # Once the fault clears, the same transaction still commits.
        connection.faults = None
        connection.commit()
        assert not database.in_transaction
        assert database.table("items").lookup_pk(4)["label"] == "pending"

    def test_exhausted_commit_fault_then_rollback_releases_server(self):
        database = make_database()
        connection = SimulatedConnection(database, FAST_LOCAL)
        connection.begin()
        connection.execute_update(
            "update items set label = 'doomed' where item_id = 5"
        )
        connection.faults = FaultPolicy(1.0, kinds=("timeout",))
        with pytest.raises(RequestTimeoutError):
            connection.commit()
        # rollback() (not fault-injected) releases the server transaction,
        # undoing the in-doubt write; new transactions work again.
        connection.rollback()
        assert not database.in_transaction
        assert database.table("items").lookup_pk(5)["label"] == "item5"
        database.begin().rollback()

    def test_exhausted_commit_fault_then_close_releases_server(self):
        database = make_database()
        connection = SimulatedConnection(database, FAST_LOCAL)
        connection.begin()
        connection.execute_update(
            "update items set label = 'doomed' where item_id = 6"
        )
        connection.faults = FaultPolicy(1.0, kinds=("timeout",))
        with pytest.raises(RequestTimeoutError):
            connection.commit()
        connection.close()
        assert not database.in_transaction
        assert database.table("items").lookup_pk(6)["label"] == "item6"

    def test_delivered_read_fault_is_retryable(self):
        connection = self.faulty_connection(
            faults=FaultPolicy(
                0.5, seed=5, kinds=("drop",), delivered_fraction=1.0
            ),
            retries=RetryPolicy(max_attempts=20),
        )
        for _ in range(10):
            result = connection.execute_query("select * from items")
            assert result.cardinality == 20
        stats = connection.faults.stats
        assert stats.delivered > 0 and stats.ambiguous == 0


class TestConvergence:
    """A retried faulty run must end row-identical to a fault-free run."""

    OPS = 40

    def run_workload(self, connection, *, reissue: bool) -> list:
        outputs = []
        for i in range(self.OPS):
            if i % 4 == 3:
                sql = (
                    f"update items set grp = {i % 5} "
                    f"where item_id = {i % 20}"
                )
                run = lambda: connection.execute_update(sql)
            else:
                sql = f"select * from items where grp = {i % 3}"
                run = lambda: sorted(
                    connection.execute_query(sql).rows,
                    key=lambda row: row["item_id"],
                )
            while True:
                try:
                    outputs.append(run())
                    break
                except FaultError:
                    # Request-path fault surfaced after retries ran out: the
                    # server never executed it, so the application may
                    # safely re-issue.
                    if not reissue:
                        raise
        return outputs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulty_run_converges_to_fault_free_run(self, seed):
        clean_engine = Engine.builder().database(make_database()).build()
        faulty_engine = (
            Engine.builder()
            .database(make_database())
            .fault_rate(0.3, seed=seed)
            .retries(RetryPolicy(max_attempts=3, seed=seed))
            .build()
        )
        clean = self.run_workload(clean_engine.connect(), reissue=False)
        faulty = self.run_workload(faulty_engine.connect(), reissue=True)
        assert faulty == clean
        clean_rows = [
            dict(r) for r in clean_engine.database.table("items").rows
        ]
        faulty_rows = [
            dict(r) for r in faulty_engine.database.table("items").rows
        ]
        assert faulty_rows == clean_rows
        # Accounting invariant: every injected fault was either retried or
        # surfaced — nothing vanished.
        stats = faulty_engine.faults.stats
        assert stats.injected > 0, "seeded run injected no faults"
        assert stats.injected == stats.retries + stats.exhausted
        assert stats.ambiguous == 0
        # The faulty run paid for its faults in virtual time.
        assert (
            faulty_engine.metrics().views["faults"]()["injected"]
            == stats.injected
        )

    def test_fault_free_engine_has_no_faults_view(self):
        engine = Engine.builder().database(make_database()).build()
        assert "faults" not in engine.metrics().views


class TestAsyncFaultPaths:
    def test_async_request_faults_retry_and_converge(self):
        async def scenario():
            engine = (
                Engine.builder()
                .database(make_database())
                .fault_rate(0.5, seed=2)
                .retries(RetryPolicy(max_attempts=30))
                .build()
            )
            conn = engine.aio().connect()
            results = await asyncio.gather(
                *(
                    conn.execute(
                        "select * from items where item_id = ?", (i,)
                    )
                    for i in range(10)
                )
            )
            assert [r.cardinality for r in results] == [1] * 10
            stats = engine.faults.stats
            assert stats.injected > 0
            assert stats.injected == stats.retries + stats.exhausted
            assert stats.exhausted == 0

        asyncio.run(scenario())

    def test_async_delivered_write_fault_is_ambiguous(self):
        async def scenario():
            database = make_database()
            engine = (
                Engine.builder()
                .database(database)
                .faults(
                    FaultPolicy(
                        1.0, kinds=("drop",), delivered_fraction=1.0
                    )
                )
                .retries(RetryPolicy())
                .build()
            )
            conn = engine.aio().connect()
            with pytest.raises(AmbiguousCommitError):
                await conn.execute_update(
                    "update items set label = 'async' where item_id = 3"
                )
            assert database.table("items").lookup_pk(3)["label"] == "async"
            assert engine.faults.stats.ambiguous == 1

        asyncio.run(scenario())

    def test_async_exhausted_commit_fault_keeps_transaction(self):
        """Async mirror of the sync rule: a request-path COMMIT fault
        leaves the transaction open for rollback, not silently dropped."""

        async def scenario():
            database = make_database()
            engine = Engine.builder().database(database).build()
            conn = engine.aio().connect()
            await conn.begin()
            await conn.execute_update(
                "update items set label = 'pending' where item_id = 7"
            )
            conn.raw.faults = FaultPolicy(1.0, kinds=("timeout",))
            with pytest.raises(RequestTimeoutError):
                await conn.commit()
            assert database.in_transaction
            conn.raw.faults = None
            await conn.rollback()
            assert not database.in_transaction
            assert database.table("items").lookup_pk(7)["label"] == "item7"

        asyncio.run(scenario())

    def test_async_exhausted_fault_charges_clock(self):
        async def scenario():
            engine = (
                Engine.builder()
                .database(make_database())
                .faults(
                    FaultPolicy(
                        1.0, kinds=("timeout",), timeout_seconds=0.5
                    )
                )
                .retries(RetryPolicy(max_attempts=1))
                .build()
            )
            conn = engine.aio().connect()
            before = conn.elapsed
            with pytest.raises(RequestTimeoutError):
                await conn.execute("select * from items")
            assert conn.elapsed - before == pytest.approx(0.5)

        asyncio.run(scenario())
