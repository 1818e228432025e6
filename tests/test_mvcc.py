"""MVCC snapshot isolation: serial equivalence, visibility, conflicts.

The centerpiece is the serial-equivalence property: any *serial* workload
(one transaction at a time) must produce row-identical tables with MVCC on
and off, across all three executor tiers, sharded and unsharded — MVCC may
change what concurrent readers see mid-flight, never what a serial history
leaves behind.  Extra seeds widen the sweep via the ``FAULT_SEEDS``
environment variable, same as ``make test-faults``.

The rest pins the concurrency semantics that have no MVCC-off counterpart:
snapshot visibility across concurrent commits, first-committer-wins,
retry via ``run_transaction``, vacuum, fault interaction on COMMIT, and
recovery of an MVCC database from its WAL.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api.engine import Engine
from repro.db.database import Database, TransactionError
from repro.db.mvcc import SerializationError
from repro.db.schema import Column, ColumnType
from repro.net.faults import (
    AmbiguousCommitError,
    FaultPolicy,
    RetryPolicy,
)
from repro.net.network import FAST_LOCAL

SEEDS = [0, 7, 13] + [
    int(token) for token in os.environ.get("FAULT_SEEDS", "").split()
]

ITEM_COLUMNS = [
    Column("item_id", ColumnType.INT),
    Column("label", ColumnType.STRING, width=16),
    Column("grp", ColumnType.INT),
    Column("qty", ColumnType.INT),
]


def make_database(
    *, mvcc: bool, sharded: bool = False, mode: str = "interpreted", **kwargs
) -> Database:
    database = Database(execution_mode=mode, mvcc=mvcc, **kwargs)
    database.create_table("items", ITEM_COLUMNS, primary_key="item_id")
    database.insert(
        "items",
        [
            {"item_id": i, "label": f"item{i}", "grp": i % 3, "qty": 10}
            for i in range(16)
        ],
    )
    if sharded:
        database.shard_table("items", "grp", 3)
    return database


def table_rows(database: Database) -> list[dict]:
    return [dict(row) for row in database.table("items").rows]


def run_serial_workload(database: Database, seed: int) -> None:
    """A seeded mix of autocommit writes, committed and rolled-back
    transactions — strictly serial, so MVCC must be invisible."""
    rng = random.Random(seed)
    next_id = 100
    for _ in range(12):
        choice = rng.randrange(4)
        if choice == 0:
            database.insert(
                "items",
                [
                    {
                        "item_id": next_id + i,
                        "label": f"new{next_id + i}",
                        "grp": rng.randrange(3),
                        "qty": rng.randrange(50),
                    }
                    for i in range(rng.randrange(1, 4))
                ],
            )
            next_id += 4
        elif choice == 1:
            database.execute_update_sql(
                f"update items set qty = {rng.randrange(100)} "
                f"where grp = {rng.randrange(3)}"
            )
        elif choice == 2:
            with database.begin():
                database.execute_update_sql(
                    f"update items set label = 'txn{rng.randrange(10)}' "
                    f"where item_id = {rng.randrange(16)}"
                )
                database.insert(
                    "items",
                    [
                        {
                            "item_id": next_id,
                            "label": "intxn",
                            "grp": rng.randrange(3),
                            # shard-key move candidate when sharded
                            "qty": rng.randrange(50),
                        }
                    ],
                )
                next_id += 1
        else:
            txn = database.begin()
            database.execute_update_sql(
                "update items set qty = 0 where item_id >= 0"
            )
            txn.rollback()


class TestSerialEquivalence:
    @pytest.mark.parametrize(
        "mode", ["interpreted", "compiled", "vectorized"]
    )
    @pytest.mark.parametrize(
        "sharded", [False, True], ids=["plain", "sharded"]
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mvcc_on_equals_mvcc_off_for_serial_workloads(
        self, mode, sharded, seed
    ):
        baseline = make_database(mvcc=False, sharded=sharded, mode=mode)
        versioned = make_database(mvcc=True, sharded=sharded, mode=mode)
        run_serial_workload(baseline, seed)
        run_serial_workload(versioned, seed)
        assert table_rows(versioned) == table_rows(baseline)
        sql = "select grp, count(*), sum(qty) from items group by grp"
        assert (
            versioned.execute_sql(sql).rows == baseline.execute_sql(sql).rows
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serial_workload_leaves_no_retained_versions(self, seed):
        database = make_database(mvcc=True)
        run_serial_workload(database, seed)
        # With no open contexts the post-workload vacuum horizon covers
        # everything: nothing is retained and nothing is left to reclaim.
        assert database.vacuum() == 0
        stats = database.mvcc_stats()
        assert stats["undo_entries"] == 0
        assert stats["active_transactions"] == 0
        assert stats["active_snapshots"] == 0


class TestSnapshotVisibility:
    def test_reader_opened_before_update_sees_old_rows(self):
        database = make_database(mvcc=True)
        with database.snapshot() as snap:
            database.execute_update_sql(
                "update items set qty = 99 where item_id < 4"
            )
            old = snap.execute(
                "select qty from items where item_id = 0"
            ).rows
            assert old[0]["qty"] == 10
            live = database.execute_sql(
                "select qty from items where item_id = 0"
            ).rows
            assert live[0]["qty"] == 99
        # After close the snapshot's horizon is released.
        assert database.mvcc_stats()["active_snapshots"] == 0

    def test_snapshot_view_is_adopted_in_one_version_bump(self):
        database = make_database(mvcc=True)
        live = database.table("items")
        with database.snapshot() as snap:
            database.execute_update_sql(
                "update items set qty = 99 where item_id = 2"
            )
            view, visible = database._mvcc._table_view(snap, "items")
            assert view is not live and visible == len(live.rows)
            assert view.version == 1  # one bulk adopt, not one bump per row
            assert view.rows[2]["qty"] == 10 and live.rows[2]["qty"] == 99
            assert view.rows[3] is live.rows[3]  # untouched rows are shared

    def test_reader_opened_before_concurrent_txn_commit(self):
        """The ISSUE's interleaving: a reader opened before a concurrent
        transaction commits keeps seeing the old rows."""
        database = make_database(mvcc=True)
        snap = database.snapshot()
        txn = database.begin()
        database.execute_update_sql(
            "update items set label = 'changed' where item_id = 3"
        )
        txn.commit()
        assert (
            snap.execute(
                "select label from items where item_id = 3"
            ).rows[0]["label"]
            == "item3"
        )
        assert (
            database.execute_sql(
                "select label from items where item_id = 3"
            ).rows[0]["label"]
            == "changed"
        )
        snap.close()

    def test_transaction_sees_own_writes_others_do_not(self):
        database = make_database(mvcc=True)
        txn = database.begin()
        database.execute_update_sql(
            "update items set qty = 77 where item_id = 5"
        )
        sql = "select qty from items where item_id = 5"
        # The transaction's ambient view includes its buffered write...
        assert database.execute_sql(sql).rows[0]["qty"] == 77
        # ...but the committed state does not (deferred apply).
        with database.using(None):
            assert database.execute_sql(sql).rows[0]["qty"] == 10
        txn.commit()
        assert database.execute_sql(sql).rows[0]["qty"] == 77

    def test_rollback_discards_buffered_writes(self):
        database = make_database(mvcc=True)
        before = table_rows(database)
        txn = database.begin()
        database.execute_update_sql("update items set qty = 0")
        database.insert(
            "items",
            [{"item_id": 500, "label": "ghost", "grp": 0, "qty": 1}],
        )
        txn.rollback()
        assert table_rows(database) == before

    def test_snapshots_are_read_only(self):
        database = make_database(mvcc=True)
        with database.snapshot() as snap:
            with database.using(snap):
                with pytest.raises(TransactionError, match="read-only"):
                    database.execute_update_sql(
                        "update items set qty = 1 where item_id = 0"
                    )

    def test_snapshot_requires_mvcc(self):
        database = make_database(mvcc=False)
        with pytest.raises(TransactionError, match="require MVCC"):
            database.snapshot()

    def test_concurrent_transactions_allowed_only_under_mvcc(self):
        legacy = make_database(mvcc=False)
        legacy.begin()
        with pytest.raises(TransactionError, match="single-writer"):
            legacy.begin()
        versioned = make_database(mvcc=True)
        t1 = versioned.begin()
        t2 = versioned.begin()  # no error: any number may run
        t1.rollback()
        t2.rollback()

    def test_ddl_blocked_while_contexts_open(self):
        database = make_database(mvcc=True)
        with database.snapshot():
            with pytest.raises(TransactionError, match="autocommit-only"):
                database.create_table(
                    "other", [Column("k", ColumnType.INT)]
                )


class TestFirstCommitterWins:
    def test_second_committer_loses(self):
        database = make_database(mvcc=True)
        t1 = database.begin()
        t2 = database.begin()
        sql = "update items set qty = {value} where item_id = 7"
        with database.using(t1):
            database.execute_update_sql(sql.format(value=111))
        with database.using(t2):
            database.execute_update_sql(sql.format(value=222))
        t1.commit()
        with pytest.raises(SerializationError) as excinfo:
            t2.commit()
        assert excinfo.value.retryable is True
        # The loser was rolled back; none of its writes landed.
        assert not t2.active
        assert (
            database.execute_sql(
                "select qty from items where item_id = 7"
            ).rows[0]["qty"]
            == 111
        )
        assert database.mvcc_stats()["write_conflicts"] == 1

    def test_disjoint_writers_both_commit(self):
        database = make_database(mvcc=True)
        t1 = database.begin()
        t2 = database.begin()
        with database.using(t1):
            database.execute_update_sql(
                "update items set qty = 111 where item_id = 1"
            )
        with database.using(t2):
            database.execute_update_sql(
                "update items set qty = 222 where item_id = 2"
            )
        t1.commit()
        t2.commit()
        rows = {
            row["item_id"]: row["qty"]
            for row in database.execute_sql(
                "select item_id, qty from items where item_id <= 2"
            ).rows
        }
        assert rows[1] == 111 and rows[2] == 222
        assert database.mvcc_stats()["write_conflicts"] == 0

    def test_autocommit_update_defeats_open_transaction(self):
        database = make_database(mvcc=True)
        txn = database.begin()
        with database.using(txn):
            database.execute_update_sql(
                "update items set qty = 5 where item_id = 9"
            )
        with database.using(None):
            database.execute_update_sql(
                "update items set qty = 6 where item_id = 9"
            )
        with pytest.raises(SerializationError):
            txn.commit()
        assert (
            database.execute_sql(
                "select qty from items where item_id = 9"
            ).rows[0]["qty"]
            == 6
        )


class TestVacuum:
    def test_open_snapshot_pins_versions_until_closed(self):
        database = make_database(mvcc=True)
        created_before = database.mvcc_stats()["versions_created"]
        snap = database.snapshot()
        for value in (1, 2, 3):
            database.execute_update_sql(
                f"update items set qty = {value} where item_id < 8"
            )
        stats = database.mvcc_stats()
        assert stats["versions_created"] - created_before == 24
        # The snapshot pins the horizon: vacuum reclaims nothing yet.
        assert database.vacuum() == 0
        assert (
            snap.execute(
                "select qty from items where item_id = 0"
            ).rows[0]["qty"]
            == 10
        )
        snap.close()  # triggers vacuum
        stats = database.mvcc_stats()
        assert stats["versions_reclaimed"] >= 24
        assert stats["undo_entries"] == 0

    def test_vacuum_without_mvcc_is_a_noop(self):
        database = make_database(mvcc=False)
        assert database.vacuum() == 0
        assert database.mvcc_stats() == {"enabled": False}


class TestConnectionRetry:
    """run_transaction: first-committer-wins losses retried to success."""

    @staticmethod
    def _build() -> Engine:
        return (
            Engine.builder()
            .database(make_database(mvcc=True))
            .network(FAST_LOCAL)
            .build()
        )

    def test_run_transaction_retries_conflicts_to_success(self):
        engine = self._build()
        database = engine.database
        connection = engine.connect()
        attempts = []

        def work(conn):
            attempts.append(1)
            conn.execute_update(
                "update items set qty = 42 where item_id = 4"
            )
            if len(attempts) == 1:
                # A rival commits the same row mid-transaction: our first
                # COMMIT must lose, roll back, and be retried.
                rival = database.begin()
                with database.using(rival):
                    database.execute_update_sql(
                        "update items set qty = 41 where item_id = 4"
                    )
                rival.commit()

        connection.run_transaction(work)
        assert len(attempts) == 2
        assert (
            connection.execute_query(
                "select qty from items where item_id = 4"
            ).rows[0]["qty"]
            == 42
        )
        assert database.mvcc_stats()["write_conflicts"] == 1

    def test_run_transaction_exhausts_max_attempts(self):
        engine = self._build()
        database = engine.database
        connection = engine.connect()

        def always_conflict(conn):
            conn.execute_update(
                "update items set qty = 1 where item_id = 0"
            )
            rival = database.begin()
            with database.using(rival):
                database.execute_update_sql(
                    "update items set qty = 2 where item_id = 0"
                )
            rival.commit()

        with pytest.raises(SerializationError):
            connection.run_transaction(always_conflict, max_attempts=3)
        assert database.mvcc_stats()["write_conflicts"] == 3

    def test_commit_conflict_surfaces_through_connection(self):
        engine = self._build()
        database = engine.database
        connection = engine.connect()
        connection.begin()
        connection.execute_update(
            "update items set qty = 1 where item_id = 2"
        )
        rival = database.begin()
        with database.using(rival):
            database.execute_update_sql(
                "update items set qty = 2 where item_id = 2"
            )
        rival.commit()
        with pytest.raises(SerializationError):
            connection.commit()
        # The connection is back in autocommit: it can run a new txn.
        assert connection._txn is None
        connection.begin()
        connection.execute_update(
            "update items set qty = 3 where item_id = 2"
        )
        connection.commit()
        assert (
            connection.execute_query(
                "select qty from items where item_id = 2"
            ).rows[0]["qty"]
            == 3
        )

    def test_two_connections_read_under_their_own_context(self):
        """Each connection's exchanges are scoped to *its* transaction even
        though the server executes them one at a time."""
        engine = self._build()
        first = engine.connect()
        second = engine.connect()
        first.begin()
        first.execute_update(
            "update items set label = 'mine' where item_id = 6"
        )
        sql = "select label from items where item_id = 6"
        assert first.execute_query(sql).rows[0]["label"] == "mine"
        assert second.execute_query(sql).rows[0]["label"] == "item6"
        first.commit()
        assert second.execute_query(sql).rows[0]["label"] == "mine"


class TestFaultIntegration:
    def test_serialization_counters_live_outside_the_fault_invariant(self):
        database = make_database(mvcc=True)
        engine = (
            Engine.builder()
            .database(database)
            .network(FAST_LOCAL)
            .fault_rate(0.2, seed=13)
            .build()
        )
        connection = engine.connect()

        def work(conn):
            conn.execute_update(
                "update items set qty = 9 where item_id = 11"
            )
            if database.mvcc_stats()["write_conflicts"] == 0:
                rival = database.begin()
                with database.using(rival):
                    database.execute_update_sql(
                        "update items set qty = 8 where item_id = 11"
                    )
                rival.commit()

        connection.run_transaction(work)
        stats = engine.metrics().views["faults"]()
        assert stats["serialization_conflicts"] >= 1
        assert stats["serialization_retries"] >= 1
        assert stats["injected"] == (
            stats["retries"] + stats["exhausted"] + stats["ambiguous"]
        )

    def test_delivered_fault_on_mvcc_commit_is_ambiguous(self):
        """A delivered fault on COMMIT's response leaves the client unsure —
        but the server-side commit already applied (MVCC commit succeeded
        before the network ate the acknowledgement)."""
        database = make_database(mvcc=True)
        engine = (
            Engine.builder().database(database).network(FAST_LOCAL).build()
        )
        connection = engine.connect()
        connection.begin()
        connection.execute_update(
            "update items set qty = 55 where item_id = 13"
        )
        # Arm the injector only now, so the delivered drop (reply lost
        # after the server executed) lands exactly on the COMMIT.
        policy = FaultPolicy(
            rate=1.0, seed=3, kinds=("drop",), delivered_fraction=1.0
        )
        connection.faults = policy
        connection.retries = RetryPolicy(max_attempts=2)
        with pytest.raises(AmbiguousCommitError):
            connection.commit()
        # Server-side truth: the commit applied.
        assert (
            database.execute_sql(
                "select qty from items where item_id = 13"
            ).rows[0]["qty"]
            == 55
        )
        stats = policy.stats
        assert stats.ambiguous >= 1
        assert stats.injected == (
            stats.retries + stats.exhausted + stats.ambiguous
        )


class TestRecovery:
    def test_recovered_mvcc_database_matches_live_visible_state(self):
        database = make_database(mvcc=True, wal=True)
        run_serial_workload(database, seed=7)
        # One aborted transaction for good measure: only its AbortRecord
        # is logged (deferred-apply writes never hit the log).
        txn = database.begin()
        database.execute_update_sql(
            "update items set qty = 0 where item_id >= 0"
        )
        txn.rollback()
        recovered = Database.recover(database.wal, mvcc=True)
        assert recovered.mvcc_enabled
        assert table_rows(recovered) == table_rows(database)
        # Commit timestamps are a pure commit-order counter re-derived from
        # the committed prefix; the recovered database keeps versioning.
        assert recovered.mvcc_stats()["commit_ts"] > 0
        with recovered.snapshot() as snap:
            recovered.execute_update_sql(
                "update items set qty = 1234 where item_id = 0"
            )
            assert (
                snap.execute(
                    "select qty from items where item_id = 0"
                ).rows[0]["qty"]
                != 1234
            )

    def test_engine_stats_surface_mvcc_counters(self):
        engine = (
            Engine.builder()
            .database(make_database(mvcc=False))
            .network(FAST_LOCAL)
            .mvcc()
            .build()
        )
        with engine.database.snapshot():
            engine.database.execute_update_sql(
                "update items set qty = 3 where item_id = 1"
            )
        stats = engine.metrics().views["mvcc"]()
        assert stats["enabled"] is True
        assert stats["snapshots_taken"] == 1
        assert stats["versions_created"] == 1
