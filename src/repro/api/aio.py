"""Asynchronous, pipeline-capable sessions over the engine facade.

The paper's premise is that application↔database round trips dominate
end-to-end latency.  Synchronous clients can only serialise those round
trips; this module adds the other two levers a real driver offers:

* **Concurrency** — :class:`AsyncEngine` hands out
  :class:`AsyncConnection`\\ s that all share one virtual clock.  Requests
  issued while another request is in flight *overlap*: each request captures
  its start time, computes its own duration, and moves the shared clock
  forward only to its completion time (:meth:`VirtualClock.advance_to`).  N
  clients issuing requests concurrently (``asyncio.gather``) therefore pay
  the **maximum** latency, not the sum — while strictly sequential awaits
  remain additive, exactly like a real event-loop client.

* **Pipelining** — :meth:`AsyncConnection.pipeline` (and
  :meth:`AsyncCursor.executemany`) batch many statements into one round
  trip, sharing :class:`repro.net.connection.Pipeline` with the sync API.

Usage::

    from repro.api.aio import AsyncEngine

    aengine = AsyncEngine(engine)          # or engine.aio()

    async def client(key):
        async with aengine.connect() as conn:
            cur = conn.cursor()
            await cur.execute("select * from orders where o_id = ?", (key,))
            return await cur.fetchall()

    rows = await asyncio.gather(client(1), client(2), client(3))
    aengine.elapsed                        # ≈ max client latency, not sum

Execution, results, counters, fault handling and errors are the
synchronous path's by construction: every awaitable here runs the wrapped
:class:`~repro.net.connection.SimulatedConnection`'s uncharged exchange of
the same request (and :class:`AsyncCursor` drives a synchronous
:class:`~repro.net.connection.Cursor`'s dispatch and result state) — this
module contributes only :func:`_overlap`, the clock discipline.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Iterable, Optional, Sequence, TYPE_CHECKING

from repro.db.database import PreparedStatement, QueryResult, Transaction
from repro.net.clock import VirtualClock
from repro.net.connection import (
    EXCHANGE_ERRORS,
    Cursor,
    Pipeline,
    PipelineResult,
    SimulatedConnection,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.engine import Engine


async def _overlap(connection: SimulatedConnection, exchange, *args):
    """Run one in-flight request with overlapping clock accounting.

    ``exchange`` is one of the connection's uncharged exchanges: it performs
    the server-side work and returns ``(value, elapsed)`` *without* touching
    the clock.  The request's start time is captured first, then control is
    yielded to the event loop so every request issued in the same scheduling
    round captures the same start before anyone advances the clock; finally
    the clock moves forward to this request's completion time.  Concurrent
    requests thus cost ``max(durations)``, sequential ones remain additive.

    A failed exchange carries ``virtual_elapsed`` — the virtual time it
    burned, retries and backoff included — which overlaps the clock the
    same way before the exception propagates.
    """
    start = connection.clock.now
    try:
        value, elapsed = exchange(*args)
    except EXCHANGE_ERRORS as exc:
        await asyncio.sleep(0)
        connection.clock.advance_to(start + exc.virtual_elapsed)
        raise
    await asyncio.sleep(0)
    connection.clock.advance_to(start + elapsed)
    return value


class AsyncConnection:
    """An awaitable connection over the simulated network.

    Wraps one :class:`SimulatedConnection` whose clock is (typically) shared
    with every other connection of the same :class:`AsyncEngine`, which is
    what lets in-flight requests overlap.  Every method is the wrapped
    connection's uncharged exchange of the same name under :func:`_overlap`,
    so results, counters, fault handling and errors are the synchronous
    connection's by construction.
    """

    def __init__(self, connection: SimulatedConnection) -> None:
        self._connection = connection

    # -- execution -------------------------------------------------------

    async def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> QueryResult:
        """Execute a SELECT; overlaps with other in-flight requests."""
        return await self.execute_prepared(
            self._connection.prepare_query(sql), params
        )

    async def execute_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> QueryResult:
        """Execute an already-prepared SELECT with overlap accounting."""
        connection = self._connection
        return await _overlap(
            connection, connection.exchange, statement, tuple(params)
        )

    async def execute_update(
        self, sql: str, params: Sequence[Any] = ()
    ) -> int:
        """Execute an UPDATE; overlaps with other in-flight requests."""
        return await self.execute_update_prepared(
            self._connection.prepare_update(sql, params), params
        )

    async def execute_update_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> int:
        """Execute an already-prepared UPDATE with overlap accounting."""
        connection = self._connection
        return await _overlap(
            connection, connection.exchange, statement, tuple(params)
        )

    async def execute_lookup(
        self, table: str, key_column: str, key_value: Any
    ) -> QueryResult:
        """Async point lookup through the cached per-(table, column) plan."""
        statement = self._connection.lookup_statement(table, key_column)
        return await self.execute_prepared(statement, (key_value,))

    # -- transactions ----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while a transaction begun on this connection is open."""
        return self._connection.in_transaction

    async def begin(self) -> Transaction:
        """Open a server transaction on this connection (one round trip)."""
        return await _overlap(
            self._connection, self._connection.exchange_begin
        )

    async def commit(self) -> None:
        """Commit the open transaction (no-op without one, per PEP 249).

        A lost in-flight COMMIT reply surfaces as
        :class:`repro.net.faults.AmbiguousCommitError`, and an MVCC write
        conflict as :class:`repro.db.mvcc.SerializationError` — see
        :meth:`repro.net.connection.SimulatedConnection.commit`.
        """
        await _overlap(self._connection, self._connection.exchange_commit)

    async def rollback(self) -> None:
        """Roll back the open transaction (no-op without one, not faulted)."""
        await _overlap(self._connection, self._connection.exchange_rollback)

    # -- derived objects -------------------------------------------------

    def cursor(self) -> "AsyncCursor":
        """An async PEP 249-shaped cursor over this connection."""
        self._connection._check_open()
        return AsyncCursor(self)

    def pipeline(self) -> "AsyncPipeline":
        """An awaitable batch context: many statements, one round trip."""
        return AsyncPipeline(self._connection.pipeline())

    # -- lifecycle and bookkeeping ---------------------------------------

    @property
    def raw(self) -> SimulatedConnection:
        """The underlying synchronous connection (stats, clock, database)."""
        return self._connection

    @property
    def stats(self):
        return self._connection.stats

    @property
    def elapsed(self) -> float:
        """Current virtual time on the (shared) clock."""
        return self._connection.clock.now

    @property
    def closed(self) -> bool:
        return self._connection.closed

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._connection.close()

    async def __aenter__(self) -> "AsyncConnection":
        self._connection._check_open()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()


class AsyncPipeline:
    """Async wrapper over :class:`repro.net.connection.Pipeline`.

    Queueing is synchronous (nothing touches the wire); ``await flush()``
    ships the batch in one round trip with overlap accounting, so even a
    pipelined batch from one client can overlap another client's in-flight
    work on the shared clock.
    """

    def __init__(self, pipeline: Pipeline) -> None:
        self._pipeline = pipeline

    def execute(self, sql: str, params: Sequence[Any] = ()) -> PipelineResult:
        """Queue one statement; returns its result handle."""
        return self._pipeline.execute(sql, params)

    def execute_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> PipelineResult:
        """Queue an already-prepared statement."""
        return self._pipeline.execute_prepared(statement, params)

    def __len__(self) -> int:
        return len(self._pipeline)

    async def flush(self) -> None:
        """Ship the queued batch in one overlapping round trip.

        Partial-failure semantics match the synchronous pipeline: the clock
        is charged, every handle is filled (results, error, or aborted
        marker), and the first statement error is re-raised.
        """
        pipeline = self._pipeline
        error = await _overlap(pipeline.connection, pipeline.exchange)
        if error is not None:
            raise error

    async def __aenter__(self) -> "AsyncPipeline":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.flush()
        else:
            self._pipeline.discard()


class AsyncCursor:
    """An async PEP 249-shaped cursor: ``await execute`` / ``fetch*``.

    Statement dispatch (``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` included) and
    the result-set state are a synchronous
    :class:`repro.net.connection.Cursor`'s; this class only awaits the
    :class:`AsyncConnection` method that cursor routes a statement to.
    """

    def __init__(self, connection: AsyncConnection) -> None:
        self.connection = connection
        self._cursor = Cursor(connection.raw)

    @property
    def description(self) -> Optional[list[tuple]]:
        return self._cursor.description

    @property
    def rowcount(self) -> int:
        return self._cursor.rowcount

    @property
    def arraysize(self) -> int:
        return self._cursor.arraysize

    @arraysize.setter
    def arraysize(self, size: int) -> None:
        self._cursor.arraysize = size

    # -- execution -------------------------------------------------------

    async def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> "AsyncCursor":
        """Prepare (or re-use) and execute one SQL statement."""
        return await self._run(*self._cursor._route(sql, params))

    async def execute_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> "AsyncCursor":
        """Execute an already-prepared statement through this cursor."""
        return await self._run(
            *self._cursor._route_prepared(statement, params)
        )

    async def _run(
        self, method: str, args: tuple, statement: Optional[PreparedStatement]
    ) -> "AsyncCursor":
        value = await getattr(self.connection, method)(*args)
        self._cursor._install(statement, value)
        return self

    async def executemany(
        self, sql: str, seq_of_params: Iterable[Sequence[Any]]
    ) -> "AsyncCursor":
        """Execute once per parameter tuple — pipelined into one round trip."""
        pipeline, statement, handles = self._cursor._queue_many(
            sql, seq_of_params
        )
        await AsyncPipeline(pipeline).flush()
        self._cursor._install_many(statement, handles)
        return self

    # -- fetching --------------------------------------------------------

    async def fetchone(self) -> Optional[dict]:
        """Next row of the result set, or ``None`` when exhausted."""
        return self._cursor.fetchone()

    async def fetchmany(self, size: Optional[int] = None) -> list[dict]:
        """The next ``size`` rows (default :attr:`arraysize`)."""
        return self._cursor.fetchmany(size)

    async def fetchall(self) -> list[dict]:
        """Every remaining row of the result set."""
        return self._cursor.fetchall()

    async def __aiter__(self) -> AsyncIterator[dict]:
        while True:
            row = await self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the result set; subsequent operations raise."""
        self._cursor.close()

    async def __aenter__(self) -> "AsyncCursor":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()


class AsyncEngine:
    """Async facade over an :class:`~repro.api.engine.Engine`.

    All connections handed out by one ``AsyncEngine`` share a single virtual
    clock, so their in-flight requests overlap (max-latency, not
    sum-latency).  The underlying server state — tables, statistics, the
    prepared-statement cache — is the wrapped engine's, shared with any
    synchronous clients of the same engine.
    """

    def __init__(
        self, engine: "Engine", clock: Optional[VirtualClock] = None
    ) -> None:
        self.engine = engine
        #: the clock shared by every connection of this async engine.
        self.clock = clock or VirtualClock()
        self._connections: list[AsyncConnection] = []
        self._closed = False

    def connect(self) -> AsyncConnection:
        """A new async connection on the engine's shared virtual clock."""
        from repro.api.engine import EngineClosedError

        if self._closed:
            raise EngineClosedError("async engine is closed")
        # Individually-closed connections are pruned here so a long-lived
        # engine serving a churn of short-lived connections stays bounded;
        # their stats remain aggregated on the wrapped Engine.
        self._connections = [c for c in self._connections if not c.closed]
        connection = AsyncConnection(self.engine.connect(clock=self.clock))
        self._connections.append(connection)
        return connection

    def cursor(self) -> AsyncCursor:
        """An async cursor over a fresh connection."""
        return self.connect().cursor()

    @property
    def elapsed(self) -> float:
        """Virtual time on the shared clock (the fleet's wall clock)."""
        return self.clock.now

    @property
    def connections(self) -> list[AsyncConnection]:
        """Tracked connections (closed ones are pruned on the next connect)."""
        return list(self._connections)

    def close(self) -> None:
        """Close every handed-out connection; idempotent."""
        self._closed = True
        for connection in self._connections:
            connection.close()

    async def __aenter__(self) -> "AsyncEngine":
        from repro.api.engine import EngineClosedError

        if self._closed:
            raise EngineClosedError("async engine is closed")
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AsyncEngine connections={len(self._connections)} "
            f"elapsed={self.clock.now:.6f}s>"
        )
