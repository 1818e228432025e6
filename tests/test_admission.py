"""Admission control and the open-loop load generator.

Controller math first (slot bookkeeping, FIFO ordering, priority reserve,
per-connection caps, queue timeouts), then the emergent behaviour: an
``AsyncEngine`` fleet saturating at the concurrency limit instead of
overlapping without bound, and the open-loop generator exposing the
latency knee once the offered rate crosses the server's capacity.
Extra seeds widen the loadgen sweep via ``FAULT_SEEDS``.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.api.engine import Engine
from repro.db.database import Database
from repro.db.schema import Column, ColumnType
from repro.net.admission import (
    AdmissionController,
    AdmissionError,
    AdmissionStats,
)
from repro.net.faults import RequestTimeoutError
from repro.net.network import SLOW_REMOTE
from repro.workloads.loadgen import (
    LatencySummary,
    OpenLoopLoadGenerator,
)

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
        ],
        primary_key="item_id",
    )
    database.insert(
        "items",
        [{"item_id": i, "label": f"item{i}"} for i in range(32)],
    )
    return database


def make_engine(**admission) -> Engine:
    builder = Engine.builder().database(make_database()).network(SLOW_REMOTE)
    if admission:
        builder.admission(**admission)
    return builder.build()


class TestControllerMath:
    def test_configuration_validated(self):
        with pytest.raises(AdmissionError, match="at least 1"):
            AdmissionController(0)
        with pytest.raises(AdmissionError, match="per-connection"):
            AdmissionController(2, per_connection=0)
        with pytest.raises(AdmissionError, match="priority_slots"):
            AdmissionController(2, priority_slots=2)

    def test_free_slots_admit_without_wait(self):
        controller = AdmissionController(2)
        assert controller.admit(0.0, 1.0) == 0.0
        assert controller.admit(0.0, 1.0) == 0.0
        stats = controller.stats
        assert stats.admitted == 2
        assert stats.queued == 0
        assert stats.peak_in_flight == 2

    def test_excess_arrivals_queue_fifo(self):
        controller = AdmissionController(1)
        assert controller.admit(0.0, 1.0) == 0.0
        # Arrives while the slot is busy: waits until it frees...
        assert controller.admit(0.0, 1.0) == 1.0
        # ...and the third queues behind the second (FIFO in virtual time).
        assert controller.admit(0.0, 1.0) == 2.0
        # A late arrival only waits for the remaining busy time.
        assert controller.admit(2.5, 1.0) == 0.5
        stats = controller.stats
        assert stats.admitted == 4
        assert stats.queued == 3
        assert stats.queue_seconds == pytest.approx(3.5)
        assert stats.peak_in_flight == 1

    def test_slot_reuse_after_drain(self):
        controller = AdmissionController(2)
        controller.admit(0.0, 1.0)
        controller.admit(0.0, 1.0)
        # Both slots free at t=1; a later arrival pays nothing.
        assert controller.admit(5.0, 1.0) == 0.0

    def test_queue_timeout_rejects_without_occupying(self):
        controller = AdmissionController(1, queue_timeout=0.5)
        controller.admit(0.0, 2.0)
        with pytest.raises(RequestTimeoutError) as excinfo:
            controller.admit(0.0, 1.0)
        # The rejection burned exactly the timeout on the virtual clock.
        assert excinfo.value.virtual_elapsed == 0.5
        assert controller.stats.queue_timeouts == 1
        assert controller.stats.admitted == 1
        # No slot was occupied: once the first drains, the next admit is
        # immediate rather than queued behind the rejected request.
        assert controller.admit(2.0, 1.0) == 0.0

    def test_per_connection_cap(self):
        controller = AdmissionController(4, per_connection=1)
        assert controller.admit(0.0, 1.0, connection="a") == 0.0
        # Three server slots are free, but "a" is at its own cap.
        assert controller.admit(0.0, 1.0, connection="a") == 1.0
        # A different connection sails through.
        assert controller.admit(0.0, 1.0, connection="b") == 0.0
        controller.release_connection("a")
        assert "a" not in controller._connection_slots

    def test_priority_reserve(self):
        controller = AdmissionController(2, priority_slots=1)
        # Normal traffic queues on the non-reserved slot...
        assert controller.admit(0.0, 1.0) == 0.0
        assert controller.admit(0.0, 1.0) == 1.0
        # ...while a priority request takes the reserved one immediately.
        assert controller.admit(0.0, 1.0, priority=True) == 0.0

    def test_reset_and_as_dict(self):
        controller = AdmissionController(
            2, per_connection=1, queue_timeout=3.0, priority_slots=1
        )
        controller.admit(0.0, 1.0, connection="a")
        controller.admit(0.0, 1.0, connection="b")
        controller.reset()
        assert controller.stats == AdmissionStats()
        assert controller.admit(0.0, 1.0, connection="a") == 0.0
        as_dict = controller.as_dict()
        assert as_dict["enabled"] is True
        assert as_dict["limit"] == 2
        assert as_dict["per_connection"] == 1
        assert as_dict["queue_timeout"] == 3.0
        assert as_dict["priority_slots"] == 1
        assert as_dict["admitted"] == 1


class TestAsyncSaturation:
    """The fleet-level property: overlap saturates at the limit."""

    CLIENTS = 6
    LIMIT = 2

    @staticmethod
    def _run_fleet(engine: Engine, clients: int) -> float:
        aengine = engine.aio()
        sql = "select * from items where item_id = ?"

        async def client(connection, key):
            await connection.execute(sql, (key,))

        async def fleet():
            connections = [aengine.connect() for _ in range(clients)]
            await asyncio.gather(
                *[
                    client(connection, key)
                    for key, connection in enumerate(connections)
                ]
            )

        asyncio.run(fleet())
        return aengine.elapsed

    def _service_seconds(self) -> float:
        engine = make_engine()
        connection = engine.connect()
        connection.execute_query(
            "select * from items where item_id = ?", (0,)
        )
        return connection.elapsed

    def test_unlimited_fleet_pays_one_latency(self):
        service = self._service_seconds()
        elapsed = self._run_fleet(make_engine(), self.CLIENTS)
        assert elapsed == pytest.approx(service, rel=1e-6)

    def test_limited_fleet_drains_in_waves(self):
        service = self._service_seconds()
        engine = make_engine(limit=self.LIMIT)
        elapsed = self._run_fleet(engine, self.CLIENTS)
        waves = self.CLIENTS / self.LIMIT
        assert elapsed == pytest.approx(waves * service, rel=1e-6)
        admission = engine.metrics().views["admission"]()
        assert admission["enabled"] is True
        assert admission["admitted"] == self.CLIENTS
        assert admission["queued"] == self.CLIENTS - self.LIMIT
        assert admission["peak_in_flight"] == self.LIMIT

    def test_queue_time_surfaces_in_engine_stats(self):
        engine = make_engine(limit=self.LIMIT)
        self._run_fleet(engine, self.CLIENTS)
        stats = engine.metrics().as_dict()["views"]
        assert stats["network"]["queue_time"] > 0.0
        assert stats["network"]["queue_time"] == pytest.approx(
            stats["admission"]["queue_seconds"]
        )

    def test_queue_timeout_rejects_excess_clients(self):
        service = self._service_seconds()
        engine = make_engine(limit=1, queue_timeout=service * 1.5)
        aengine = engine.aio()
        sql = "select * from items where item_id = ?"
        outcomes = []

        async def client(connection, key):
            try:
                await connection.execute(sql, (key,))
                outcomes.append("ok")
            except RequestTimeoutError:
                outcomes.append("timeout")

        async def fleet():
            connections = [aengine.connect() for _ in range(4)]
            await asyncio.gather(
                *[
                    client(connection, key)
                    for key, connection in enumerate(connections)
                ]
            )

        asyncio.run(fleet())
        # Slot holder + one ~1-service waiter fit under the timeout; the
        # clients facing a >= 2-service wait are rejected.
        assert outcomes.count("ok") == 2
        assert outcomes.count("timeout") == 2
        assert engine.metrics().views["admission"]()["queue_timeouts"] == 2

    def test_engine_without_admission_has_no_view(self):
        engine = make_engine()
        assert "admission" not in engine.metrics().views


class TestLatencySummary:
    def test_nearest_rank_percentiles(self):
        samples = [float(value) for value in range(1, 101)]
        summary = LatencySummary.from_samples(samples)
        assert summary.count == 100
        assert summary.p50 == 50.0
        assert summary.p95 == 95.0
        assert summary.p99 == 99.0
        assert summary.max == 100.0
        assert summary.mean == pytest.approx(50.5)

    def test_single_sample_is_every_percentile(self):
        summary = LatencySummary.from_samples([2.5])
        assert (
            summary.p50 == summary.p95 == summary.p99 == summary.max == 2.5
        )
        assert summary.mean == 2.5
        assert summary.count == 1

    def test_empty_population_has_no_percentiles(self):
        # An empty population has no percentiles — None, not a fake 0.0.
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.mean is None
        assert summary.p50 is None
        assert summary.p95 is None
        assert summary.p99 is None
        assert summary.max is None

    def test_two_samples_nearest_rank(self):
        summary = LatencySummary.from_samples([4.0, 1.0])
        assert summary.p50 == 1.0  # rank ceil(0.5 * 2) = 1
        assert summary.p95 == 4.0
        assert summary.p99 == 4.0
        assert summary.max == 4.0

    def test_matches_shared_histogram(self):
        from repro.obs.metrics import Histogram

        samples = [0.25 * value for value in range(1, 41)]
        summary = LatencySummary.from_samples(samples)
        histogram = Histogram.from_samples(samples)
        assert summary.p50 == histogram.percentile(0.50)
        assert summary.p95 == histogram.percentile(0.95)
        assert summary.p99 == histogram.percentile(0.99)


class TestOpenLoopLoadGenerator:
    READ_SQL = "select * from items where item_id = ?"
    WRITE_SQL = "update items set label = 'w' where item_id = ?"

    def _loadgen(self, engine: Engine, **kwargs) -> OpenLoopLoadGenerator:
        defaults = dict(
            rate=2.0,
            operations=40,
            read_sql=self.READ_SQL,
            read_params=lambda rng: (rng.randrange(32),),
        )
        defaults.update(kwargs)
        return OpenLoopLoadGenerator(engine.connect(), **defaults)

    def test_configuration_validated(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="rate"):
            self._loadgen(engine, rate=0.0)
        with pytest.raises(ValueError, match="operations"):
            self._loadgen(engine, operations=-1)
        with pytest.raises(ValueError, match="read_fraction"):
            self._loadgen(engine, read_fraction=1.5)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_report(self, seed):
        first = self._loadgen(make_engine(), seed=seed).run()
        second = self._loadgen(make_engine(), seed=seed).run()
        assert first.as_dict() == second.as_dict()

    def test_below_capacity_latency_sits_at_service_time(self):
        engine = make_engine(limit=4)
        report = self._loadgen(engine, rate=1.0, seed=3).run()
        service = SLOW_REMOTE.round_trip_seconds
        assert report.operations == 40
        assert report.latency.p50 >= service
        # Well under capacity, even p95 stays near one service time.
        assert report.latency.p95 < 3 * report.latency.p50
        assert report.throughput <= 1.5  # bounded by the offered rate

    @pytest.mark.parametrize("seed", SEEDS)
    def test_above_capacity_queue_grows(self, seed):
        service = 0.5  # slow-remote point lookup is ~0.5s
        capacity = 1 / service  # limit=1
        overload = self._loadgen(
            make_engine(limit=1),
            rate=4 * capacity,
            seed=seed,
        ).run()
        relaxed = self._loadgen(
            make_engine(limit=1),
            rate=0.5 * capacity,
            seed=seed,
        ).run()
        assert overload.latency.p95 > 2 * relaxed.latency.p95
        assert overload.throughput < 4 * capacity

    def test_read_write_mix_counted(self):
        engine = make_engine()
        report = self._loadgen(
            engine,
            write_sql=self.WRITE_SQL,
            write_params=lambda rng: (rng.randrange(32),),
            read_fraction=0.5,
            seed=5,
        ).run()
        assert report.reads + report.writes == report.operations == 40
        assert report.reads > 0 and report.writes > 0
        assert report.write_latency.count == report.writes
        assert report.conflicts == 0  # single client: no rivals

    def test_queue_timeouts_count_as_rejected(self):
        engine = make_engine(limit=1, queue_timeout=0.25)
        report = self._loadgen(engine, rate=8.0, seed=1).run()
        assert report.rejected > 0
        assert report.operations + report.rejected == 40
        assert report.latency.count == report.operations
        admission = engine.metrics().views["admission"]()
        assert admission["queue_timeouts"] == report.rejected

    def test_zero_operations_report_is_empty(self):
        report = self._loadgen(make_engine(), operations=0).run()
        assert report.operations == 0
        assert report.duration == 0.0
        assert report.throughput == 0.0
