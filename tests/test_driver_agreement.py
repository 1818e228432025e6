"""Driver agreement: one exchange, three clock disciplines.

The synchronous connection (``clock.advance``), the async connection
(``advance_to(start + elapsed)``) and the open-loop load generator
(arrival-time bookkeeping) all run the connection's uncharged exchanges and
differ only in how the elapsed time reaches the clock.  So the same scripted
sequence must produce, through each of them, equal results and errors, equal
``ConnectionStats`` and ``FaultStats``, equal charged virtual time after
every step, and the same ``_txn`` state afterwards.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import asdict

import pytest

from repro.api import Engine
from repro.db.database import Database
from repro.db.schema import Column, ColumnType
from repro.net.clock import VirtualClock
from repro.net.faults import FaultPolicy, RetryPolicy
from repro.workloads.loadgen import OpenLoopLoadGenerator

SELECT = "select * from items where item_id = ?"
UPDATE = "update items set grp = ? where item_id = ?"


class FaultsOn(FaultPolicy):
    """Fault every exchange of one operation kind; all others pass."""

    def __init__(self, operation: str, **knobs) -> None:
        super().__init__(1.0, **knobs)
        self.operation = operation

    def inject(self, operation, round_trip_seconds):
        if operation != self.operation:
            return None
        return super().inject(operation, round_trip_seconds)


def make_engine(faults=None, mvcc=False, admission=None) -> Engine:
    """A fresh server; ``faults`` is a policy *factory* — policies carry
    seeded state, so every compared run needs its own."""
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
            for i in range(30)
        ],
    )
    database.analyze()
    builder = Engine.builder().database(database).network("slow-remote")
    if faults is not None:
        builder.faults(faults()).retries(RetryPolicy(max_attempts=3))
    if mvcc:
        builder.mvcc()
    if admission is not None:
        builder.admission(1, queue_timeout=admission)
        # The only server slot is busy until t=10: whoever arrives queues.
        builder._admission.admit(0.0, 10.0)
    return builder.build()


class SyncDriver:
    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.clock = VirtualClock()
        self.connection = self.connect()
        self.cursor = self.connection.cursor()
        self.query = self.connection.execute_query

    def connect(self):
        return self.engine.connect(clock=self.clock)

    def call(self, method, *args):
        return method(*args)

    @staticmethod
    def raw(connection):
        return connection


class AsyncDriver:
    """Sequential awaits: each call runs to completion before the next."""

    def __init__(self, engine: Engine) -> None:
        self.aengine = engine.aio()
        self.clock = self.aengine.clock
        self.loop = asyncio.new_event_loop()
        self.connection = self.connect()
        self.cursor = self.connection.cursor()
        self.query = self.connection.execute

    def connect(self):
        return self.aengine.connect()

    def call(self, method, *args):
        return self.loop.run_until_complete(method(*args))

    @staticmethod
    def raw(connection):
        return connection.raw


def observe(driver, steps) -> dict:
    """Run ``steps``: each one's result or error with the clock after it,
    plus the connection's :func:`state` at the end."""
    outcomes = []
    for step in steps:
        try:
            value = step(driver)
        except Exception as exc:  # the error IS the outcome under test
            value = (type(exc).__name__, str(exc))
        outcomes.append((value, driver.clock.now))
    if isinstance(driver, AsyncDriver):
        driver.loop.close()
    return {"outcomes": outcomes, **state(driver.raw(driver.connection))}


def state(raw) -> dict:
    """What a driver leaves behind on its (synchronous) connection."""
    return {
        "stats": asdict(raw.stats),
        "faults": None if raw.faults is None else raw.faults.stats.as_dict(),
        "txn_dropped": raw._txn is None,
        "in_transaction": raw.in_transaction,
        "rows": [dict(row) for row in raw.database.table("items").rows],
    }


def agree(steps, **knobs) -> dict:
    """The sync and async observations of ``steps``, asserted equal."""
    sync = observe(SyncDriver(make_engine(**knobs)), steps)
    aio = observe(AsyncDriver(make_engine(**knobs)), steps)
    assert aio == sync
    return sync


# -- script vocabulary ---------------------------------------------------------


def execute(sql, params=()):
    def step(d):
        d.call(d.cursor.execute, sql, params)
        if d.cursor.description is None:
            return d.cursor.rowcount
        return d.call(d.cursor.fetchall), d.cursor.rowcount

    return step


def executemany(sql, seq_of_params):
    def step(d):
        d.call(d.cursor.executemany, sql, seq_of_params)
        return d.cursor.rowcount

    return step


def update_prepared(sql, params):
    def step(d):
        statement = d.raw(d.connection).prepare(sql)
        return d.call(d.connection.execute_update_prepared, statement, params)

    return step


def execute_update(sql, params=()):
    return lambda d: d.call(d.connection.execute_update, sql, params)


def query(sql, params=()):
    return lambda d: d.call(d.query, sql, params).rows


def transaction(word):
    return lambda d: d.call(getattr(d.connection, word)) and None


TRANSACTION_STEPS = [
    transaction("begin"),
    execute_update(UPDATE, (9, 1)),
    transaction("commit"),
]


def lost_commit_reply():
    """Every COMMIT executes server-side and loses its reply."""
    return FaultsOn("commit", kinds=("drop",), delivered_fraction=1.0)


def refused(operation):
    """Every ``operation`` is refused before it executes (request path)."""
    return lambda: FaultsOn(operation, kinds=("server_error",))


# -- sync == async -------------------------------------------------------------


class TestSyncAsyncAgreement:
    def test_statements_batches_and_literal_transaction_control(self):
        seen = agree(
            [
                execute(SELECT, (3,)),
                update_prepared(UPDATE, (7, 3)),
                executemany(UPDATE, [(8, 4), (8, 5), (8, 6)]),
                executemany(SELECT, [(4,), (5,)]),
                execute("BEGIN"),
                execute(UPDATE, (9, 1)),
                execute("commit;"),
                execute("begin transaction"),
                execute(UPDATE, (5, 2)),
                execute("ROLLBACK WORK"),
                execute("select grp, count(*) from items group by grp"),
            ]
        )
        assert seen["outcomes"][4][0] == -1  # BEGIN leaves no result set
        assert seen["txn_dropped"]
        rows = {row["item_id"]: row["grp"] for row in seen["rows"]}
        assert (rows[1], rows[2], rows[3]) == (9, 2, 7)

    def test_raw_text_through_the_wrong_door_is_rejected_alike(self):
        seen = agree(
            [
                execute_update("update items set where"),
                execute_update("select * from items"),
                execute_update(UPDATE, (1,)),
                query(UPDATE, (1, 2)),
                execute_update(UPDATE, (1, 2)),
                query(SELECT, (2,)),
            ]
        )
        errors = [outcome for outcome, _ in seen["outcomes"][:4]]
        assert [name for name, _ in errors] == ["ValueError"] * 3 + [
            "SQLSyntaxError"
        ]
        assert "unsupported UPDATE" in errors[0][1]
        assert "unsupported UPDATE" in errors[1][1]
        assert "missing parameter" in errors[2][1]
        assert "cannot be executed as a query" in errors[3][1]
        # Nothing reached the wire before the two valid statements.
        assert seen["stats"]["round_trips"] == 2
        assert seen["outcomes"][5][0][0]["grp"] == 1

    def test_first_committer_wins_loss(self):
        def conflict(d):
            winner = d.connect()
            d.call(winner.begin)
            d.call(winner.execute_update, UPDATE, (50, 1))
            d.call(winner.commit)

        seen = agree(
            [
                transaction("begin"),
                execute_update(UPDATE, (60, 1)),
                conflict,
                transaction("commit"),
                transaction("rollback"),
            ],
            mvcc=True,
            faults=lambda: FaultPolicy(0.0),
        )
        assert seen["outcomes"][3][0][0] == "SerializationError"
        assert seen["faults"]["serialization_conflicts"] == 1
        assert seen["txn_dropped"]
        # begin + update + the refused commit's round trip; the rollback
        # afterwards found nothing to release and cost nothing.
        assert seen["stats"]["round_trips"] == 3
        assert seen["outcomes"][4][1] == seen["outcomes"][3][1]

    def test_lost_commit_reply_is_ambiguous(self):
        seen = agree(TRANSACTION_STEPS, faults=lost_commit_reply)
        assert seen["outcomes"][2][0][0] == "AmbiguousCommitError"
        assert seen["faults"]["ambiguous"] == 1
        assert seen["txn_dropped"]
        assert {row["item_id"]: row["grp"] for row in seen["rows"]}[1] == 9

    def test_exhausted_request_path_faults(self):
        seen = agree([execute(SELECT, (3,))], faults=refused("query"))
        assert seen["outcomes"][0][0][0] == "TransientServerError"
        assert seen["faults"]["exhausted"] == 1
        assert seen["faults"]["retries"] == 2
        assert seen["outcomes"][0][1] > 0.0
        # On COMMIT the request never reached the server: the transaction
        # stays open on the connection until the client rolls it back.
        seen = agree(TRANSACTION_STEPS, faults=refused("commit"))
        assert seen["outcomes"][2][0][0] == "TransientServerError"
        assert not seen["txn_dropped"] and seen["in_transaction"]
        seen = agree(
            TRANSACTION_STEPS + [transaction("rollback")],
            faults=refused("commit"),
        )
        assert seen["txn_dropped"]

    def test_admission_queue_timeout(self):
        seen = agree([execute(SELECT, (3,))], admission=0.25)
        (error, _), charged = seen["outcomes"][0]
        assert (error, charged) == ("RequestTimeoutError", 0.25)


# -- open loop == sync ---------------------------------------------------------


def open_loop(engine, **shape) -> tuple[dict, float, object]:
    """One open-loop operation: (state, charged time, report).  The
    generator reports latencies, not results, so there are no outcomes."""
    connection = engine.connect()
    report = OpenLoopLoadGenerator(
        connection,
        rate=1000.0,
        operations=1,
        read_sql=SELECT,
        read_params=(3,),
        seed=0,
        **shape,
    ).run()
    arrival = random.Random(0).expovariate(1000.0)
    return state(connection), connection.clock.now - arrival, report


def sync_reference(steps, **knobs) -> tuple[dict, float]:
    """The sync connection's (state, charged time) after ``steps``."""
    seen = observe(SyncDriver(make_engine(**knobs)), steps)
    return seen, seen.pop("outcomes")[-1][1]


WRITE = {
    "write_sql": UPDATE,
    "write_params": (9, 1),
    "read_fraction": 0.0,
}
WRITE_TRANSACTION = {**WRITE, "write_transaction": True}

OPEN_LOOP_SHAPES = {
    "read": ({}, [execute(SELECT, (3,))], {}),
    "write": (WRITE, [execute_update(UPDATE, (9, 1))], {}),
    "write_transaction": (WRITE_TRANSACTION, TRANSACTION_STEPS, {}),
    "ambiguous_commit": (
        WRITE_TRANSACTION,
        TRANSACTION_STEPS,
        {"faults": lost_commit_reply},
    ),
    "exhausted_read": (
        {},
        [execute(SELECT, (3,))],
        {"faults": refused("query")},
    ),
    # The generator abandons a failed transaction with a ROLLBACK.
    "exhausted_commit": (
        WRITE_TRANSACTION,
        TRANSACTION_STEPS + [transaction("rollback")],
        {"faults": refused("commit")},
    ),
    "admission_timeout": ({}, [execute(SELECT, (3,))], {"admission": 0.25}),
}


class TestOpenLoopAgreement:
    @pytest.mark.parametrize("shape", sorted(OPEN_LOOP_SHAPES))
    def test_one_operation_matches_the_sync_script(self, shape):
        loadgen_shape, steps, knobs = OPEN_LOOP_SHAPES[shape]
        expected, expected_charged = sync_reference(steps, **knobs)
        seen, charged, report = open_loop(
            make_engine(**knobs), **loadgen_shape
        )
        assert seen == expected
        assert charged == pytest.approx(expected_charged, abs=1e-12)
        completes = shape in ("read", "write", "write_transaction")
        assert (report.operations, report.rejected) == (
            int(completes),
            int(not completes),
        )
