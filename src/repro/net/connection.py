"""A simulated JDBC-style connection between the application and the database.

Every query executed through :class:`SimulatedConnection` charges the virtual
clock with the same components the paper's cost model accounts for:

    CQ = CNRT + CFQ + max(NQ * Srow(Q) / BW, CLQ - CFQ)

i.e. one round trip, the server's time to first row, and then whichever of
network transfer or remaining server work dominates (they overlap because the
server streams results).  The connection also tracks per-run statistics
(queries issued, rows and bytes transferred) so experiments can report the
N+1-select behaviour directly.

The connection speaks the database's prepared-statement protocol:
``execute_query`` prepares (or re-uses) one
:class:`repro.db.database.PreparedStatement` per SQL text, so a statement is
parsed once and its cost estimate is computed once, no matter how many times
it runs — previously every call parsed the text twice (once to execute, once
to estimate).  Point lookups (:meth:`execute_lookup`, the ORM's lazy-load
shape) additionally cache the prepared statement per ``(table, key_column)``
so the hot N+1 path never rebuilds SQL strings at all.

A PEP 249-shaped driver surface is provided by :meth:`cursor`:
``execute`` / ``executemany`` / ``fetchone`` / ``fetchmany`` / ``fetchall``
with ``description`` and ``rowcount``, dispatching SELECT and UPDATE
statements automatically.

Pipelining
----------

:meth:`SimulatedConnection.pipeline` opens an explicit batch context that
ships **many statements in one round trip**::

    with connection.pipeline() as pipe:
        a = pipe.execute("select * from orders where o_id = ?", (1,))
        b = pipe.execute("update orders set o_status = 'DONE' where o_id = ?", (2,))
    a.rows      # per-statement results, in order
    b.rowcount

The batch is charged one ``CNRT`` plus the summed server time and combined
transfer time (see :meth:`repro.net.network.NetworkConditions.pipelined_time`)
instead of one round trip per statement.  :meth:`Cursor.executemany` routes
through a pipeline, so a 1 000-tuple ``executemany`` costs one round trip
rather than 1 000.

A flushed batch has **partial-failure semantics**: statements execute in
queue order, the first failing statement stops the batch, every handle
before it keeps its valid result, the failing handle carries the error, and
the statements after it are marked aborted — readable per handle via
:attr:`PipelineResult.error`.

Exchanges and drivers
---------------------

Every request is one **uncharged exchange**:
:meth:`SimulatedConnection.exchange` (a statement — query or update,
decided from ``statement.is_query``), :meth:`Pipeline.exchange` (a batch),
and :meth:`SimulatedConnection.exchange_begin` / ``exchange_commit`` /
``exchange_rollback``.  An exchange does the server-side work under the
connection's MVCC scope, passes admission control, runs under the
fault/retry policies with its own operation name and idempotency, books
``ConnectionStats`` / ``FaultStats`` and trace spans, and returns ``(value,
elapsed)`` **without touching the clock**; one that fails after burning
virtual time raises one of :data:`EXCHANGE_ERRORS` carrying
``virtual_elapsed``.  What remains for a *driver* is its clock discipline:
the methods of this class advance the clock by ``elapsed`` (sequential),
:mod:`repro.api.aio` advances it *to* ``start + elapsed`` (overlapping
in-flight requests), and :mod:`repro.workloads.loadgen` keeps arrival-time
bookkeeping (open loop) — so results, counters and fault handling cannot
differ between them.

Transactions and robustness
---------------------------

``begin()`` / ``commit()`` / ``rollback()`` expose the server's
single-writer transaction through the connection (PEP 249 shape: ``commit``
and ``rollback`` are no-ops without an open transaction), and the cursor
additionally routes the literal statements ``BEGIN`` / ``COMMIT`` /
``ROLLBACK``.  When the connection carries a
:class:`repro.net.faults.FaultPolicy`, every exchange may suffer a
deterministic injected fault; a :class:`repro.net.faults.RetryPolicy`
retries *request-path* faults (the server never executed anything) with
capped exponential backoff on the virtual clock.  *Response-path* faults —
the server executed the request but the reply was lost — are retried only
for reads: an in-flight write or COMMIT surfaces
:class:`repro.net.faults.AmbiguousCommitError` rather than being silently
retried, because the client cannot know whether it took effect.
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.db.database import (
    Database,
    PreparedStatement,
    QueryResult,
    Transaction,
)
from repro.db.mvcc import SerializationError
from repro.db.sqlparser import SQLSyntaxError
from repro.net.admission import AdmissionController
from repro.net.clock import VirtualClock
from repro.net.faults import (
    AmbiguousCommitError,
    FaultError,
    FaultPolicy,
    RetryPolicy,
)
from repro.net.network import NetworkConditions
from repro.obs.trace import Tracer, attach_parallel_scatter

#: transaction-control statements the cursor routes to connection methods.
_TXN_RE = re.compile(
    r"^\s*(begin|commit|rollback)(?:\s+(?:transaction|work))?\s*;?\s*$",
    re.IGNORECASE,
)

#: the ways an exchange fails after burning virtual time: each carries
#: ``virtual_elapsed``, which the driver charges before re-raising.
EXCHANGE_ERRORS = (FaultError, AmbiguousCommitError, SerializationError)

#: the server scope of an MVCC-off exchange (stateless, so one is enough).
_NO_SCOPE = nullcontext()


@dataclass
class ConnectionStats:
    """Counters accumulated over the life of a connection."""

    queries: int = 0
    round_trips: int = 0
    #: pipelined batches flushed (each batch is a single round trip).
    batches: int = 0
    rows_transferred: int = 0
    bytes_transferred: int = 0
    network_time: float = 0.0
    server_time: float = 0.0
    #: virtual seconds spent waiting in the server's admission queue.
    queue_time: float = 0.0

    def reset(self) -> None:
        self.queries = 0
        self.round_trips = 0
        self.batches = 0
        self.rows_transferred = 0
        self.bytes_transferred = 0
        self.network_time = 0.0
        self.server_time = 0.0
        self.queue_time = 0.0

    def add(self, other: "ConnectionStats") -> None:
        """Fold another connection's counters into this one."""
        for counter in fields(self):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


class CursorError(Exception):
    """Raised on misuse of a :class:`Cursor` (closed, no result set)."""


class ConnectionClosedError(Exception):
    """Raised when a closed :class:`SimulatedConnection` is used."""


class PipelineError(Exception):
    """Raised on misuse of a :class:`Pipeline` (unflushed reads, reuse)."""


class Cursor:
    """A PEP 249-shaped cursor over a :class:`SimulatedConnection`.

    SELECT statements populate the result set (``fetchone`` / ``fetchmany``
    / ``fetchall``, iteration) and ``description``; UPDATE statements set
    ``rowcount`` and leave the result set empty.  Statements are routed
    through the engine-level prepared-statement cache, so driving the same
    query shape repeatedly parses it once.
    """

    def __init__(self, connection: "SimulatedConnection") -> None:
        self.connection = connection
        self.arraysize = 1
        #: column metadata of the last SELECT: 7-item tuples per PEP 249
        #: (only the name slot is populated by this driver).
        self.description: Optional[list[tuple]] = None
        self.rowcount = -1
        self._rows: Optional[list[dict]] = None
        self._index = 0
        self._closed = False

    # -- execution -------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        """Prepare (or re-use) and execute one SQL statement.

        ``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` are transaction control, not
        queries: they route to the connection's transaction methods and
        leave the cursor without a result set.
        """
        return self._run(*self._route(sql, params))

    def execute_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> "Cursor":
        """Execute an already-prepared statement through this cursor."""
        return self._run(*self._route_prepared(statement, params))

    def executemany(
        self, sql: str, seq_of_params: Iterable[Sequence[Any]]
    ) -> "Cursor":
        """Execute the statement once per parameter tuple, **pipelined**.

        The statement is prepared a single time and every execution ships
        in one network round trip through :meth:`SimulatedConnection.pipeline`
        (the pre-pipeline driver paid one round trip per tuple).  For UPDATE
        statements ``rowcount`` accumulates the total rows changed; for
        SELECTs the result set of the *last* execution is retained.
        """
        pipeline, statement, handles = self._queue_many(sql, seq_of_params)
        pipeline.flush()
        self._install_many(statement, handles)
        return self

    # -- statement dispatch and result state (shared with AsyncCursor) ----
    #
    # The async cursor owns no dispatch and no result set: it asks these
    # which connection method a statement maps to, awaits the same-named
    # method of its AsyncConnection, and installs the outcome here.

    def _route(self, sql: str, params: Sequence[Any]) -> tuple:
        """``(connection method name, its arguments, statement)`` for one
        SQL text; transaction control has no statement."""
        self._check_open()
        match = _TXN_RE.match(sql)
        if match is not None:
            return match.group(1).lower(), (), None
        return self._route_prepared(self.connection.prepare(sql), params)

    def _route_prepared(
        self, statement: PreparedStatement, params: Sequence[Any]
    ) -> tuple:
        self._check_open()
        method = (
            "execute_prepared"
            if statement.is_query
            else "execute_update_prepared"
        )
        return method, (statement, tuple(params)), statement

    def _run(
        self, method: str, args: tuple, statement: Optional[PreparedStatement]
    ) -> "Cursor":
        self._install(statement, getattr(self.connection, method)(*args))
        return self

    def _install(
        self, statement: Optional[PreparedStatement], value: Any
    ) -> None:
        """Install one exchange's outcome: a SELECT's result set, an
        UPDATE's rowcount, or (``statement`` None) no result at all."""
        self._index = 0
        if statement is not None and statement.is_query:
            self._rows = value.rows
            self.rowcount = value.cardinality
            # One entry per output row key, from the prepared plan's
            # layout, so an empty result is described too.
            self.description = [
                (name, None, None, None, None, None, None)
                for name in statement.output_columns()
            ]
        else:
            self._rows = None
            self.rowcount = -1 if statement is None else value
            self.description = None

    def _queue_many(
        self, sql: str, seq_of_params: Iterable[Sequence[Any]]
    ) -> tuple:
        """Queue one execution per tuple: ``(pipeline, statement, handles)``."""
        self._check_open()
        statement = self.connection.prepare(sql)
        pipeline = self.connection.pipeline()
        handles = [
            pipeline.execute_prepared(statement, params)
            for params in seq_of_params
        ]
        return pipeline, statement, handles

    def _install_many(
        self, statement: PreparedStatement, handles: list["PipelineResult"]
    ) -> None:
        """Install a flushed executemany batch: a SELECT keeps the *last*
        execution's result set, an UPDATE the total rows changed.  An empty
        batch leaves a SELECT cursor untouched and zeroes an UPDATE cursor's
        rowcount, like the per-tuple loop it replaced."""
        if not handles:
            if not statement.is_query:
                self.rowcount = 0
        elif statement.is_query:
            self._install(statement, handles[-1].result)
        else:
            self._install(
                statement, sum(handle.rowcount for handle in handles)
            )

    # -- fetching --------------------------------------------------------

    def fetchone(self) -> Optional[dict]:
        """Next row of the result set, or ``None`` when exhausted."""
        rows = self._result_set()
        if self._index >= len(rows):
            return None
        row = rows[self._index]
        self._index += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[dict]:
        """The next ``size`` rows (default :attr:`arraysize`)."""
        rows = self._result_set()
        if size is None:
            size = self.arraysize
        chunk = rows[self._index : self._index + size]
        self._index += len(chunk)
        return chunk

    def fetchall(self) -> list[dict]:
        """Every remaining row of the result set."""
        rows = self._result_set()
        chunk = rows[self._index :]
        self._index = len(rows)
        return chunk

    def __iter__(self) -> Iterator[dict]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the result set; subsequent operations raise."""
        self._closed = True
        self._rows = None
        self.description = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise CursorError("cursor is closed")

    def _result_set(self) -> list[dict]:
        self._check_open()
        if self._rows is None:
            raise CursorError("no result set: execute a SELECT first")
        return self._rows


class SimulatedConnection:
    """Executes SQL against a :class:`Database` over a simulated network."""

    def __init__(
        self,
        database: Database,
        network: NetworkConditions,
        clock: Optional[VirtualClock] = None,
        *,
        faults: Optional[FaultPolicy] = None,
        retries: Optional[RetryPolicy] = None,
        admission: Optional[AdmissionController] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.database = database
        self.network = network
        self.clock = clock or VirtualClock()
        self.stats = ConnectionStats()
        #: fault injector for this connection's exchanges (None = reliable).
        self.faults = faults
        #: retry policy applied to injected faults (None = surface at once).
        self.retries = retries
        #: server-side admission controller (None = infinite capacity).
        self.admission = admission
        #: structured-trace recorder (None or disabled = no tracing cost).
        self._tracer = tracer
        #: (table, key_column) -> prepared point-lookup statement.
        self._lookup_statements: dict[tuple[str, str], PreparedStatement] = {}
        #: the server transaction this connection opened, if any.
        self._txn: Optional[Transaction] = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Close the connection; subsequent operations raise.

        Closing is idempotent — a second (or concurrent double) close is a
        no-op.  An open transaction begun through this connection is rolled
        back, per PEP 249's close-with-pending-transaction rule.  Prepared
        statements live in the *database's* statement cache, so closing a
        connection releases only its own per-connection state (the
        point-lookup statement map).
        """
        if self._closed:
            return
        self._closed = True
        txn = self._txn
        self._txn = None
        if txn is not None and txn.active:
            txn.rollback()
        self._lookup_statements.clear()
        if self.admission is not None:
            self.admission.release_connection(id(self))

    def __enter__(self) -> "SimulatedConnection":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("connection is closed")

    # -- statement preparation -------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare ``sql`` through the database's statement cache."""
        self._check_open()
        return self.database.prepare(sql)

    def prepare_query(self, sql: str) -> PreparedStatement:
        """Prepare a SELECT text, rejecting anything else: a prepared
        statement runs as what it *is*, so a write must not slip in
        through a read entry point."""
        statement = self.prepare(sql)
        if not statement.is_query:
            raise SQLSyntaxError(
                f"prepared UPDATE cannot be executed as a query: {sql!r}"
            )
        return statement

    def prepare_update(
        self, sql: str, params: Sequence[Any] = ()
    ) -> PreparedStatement:
        """Prepare an UPDATE text, rejecting anything else, with the errors
        of :meth:`repro.db.database.Database.prepare_update`."""
        self._check_open()
        return self.database.prepare_update(sql, params)

    def cursor(self) -> Cursor:
        """A new PEP 249-shaped cursor over this connection."""
        self._check_open()
        return Cursor(self)

    def pipeline(self) -> "Pipeline":
        """A batch context shipping many statements in one round trip."""
        self._check_open()
        return Pipeline(self)

    # -- the sequential driver --------------------------------------------
    #
    # Every public statement/transaction method below is one uncharged
    # exchange plus this clock discipline; the async and open-loop drivers
    # (repro.api.aio, repro.workloads.loadgen) run the same exchanges under
    # theirs.

    def _charge(self, exchange: Callable[..., tuple], *args: Any) -> Any:
        """Run one exchange and advance the clock by what it took.

        A failed exchange is charged the virtual time it burned before the
        error propagates, so a surfaced fault keeps the clock honest.
        """
        try:
            value, elapsed = exchange(*args)
        except EXCHANGE_ERRORS as exc:
            self.clock.advance(exc.virtual_elapsed)
            raise
        self.clock.advance(elapsed)
        return value

    def execute_query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> QueryResult:
        """Execute a SELECT and charge round trip + server + transfer time."""
        return self.execute_prepared(self.prepare_query(sql), params)

    def execute_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> QueryResult:
        """Execute a prepared SELECT with full network cost accounting.

        One prepared plan serves both execution and cost estimation, so the
        statement text is parsed exactly once over the statement's lifetime.
        (The exchange runs a prepared statement as what it is: handed an
        UPDATE, this is :meth:`execute_update_prepared`.)
        """
        return self._charge(self.exchange, statement, params)

    def execute_update(self, sql: str, params: Sequence[Any] = ()) -> int:
        """Execute an UPDATE over the network (one round trip, tiny payload).

        Anything that is not a well-formed UPDATE with enough parameters is
        rejected before it reaches the wire (:meth:`prepare_update`).
        """
        return self._charge(
            self.exchange, self.prepare_update(sql, params), params
        )

    def execute_update_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> int:
        """Execute a prepared UPDATE over the network."""
        return self._charge(self.exchange, statement, params)

    def execute_lookup(
        self, table: str, key_column: str, key_value: Any
    ) -> QueryResult:
        """Point lookup: ``SELECT * FROM table WHERE key_column = ?``.

        This is the query shape the ORM issues for lazy loads, i.e. the N+1
        select pattern.  The prepared statement is cached per
        ``(table, key_column)``, so the hot loop performs no SQL string
        building and no statement-cache text lookup.
        """
        statement = self.lookup_statement(table, key_column)
        return self.execute_prepared(statement, (key_value,))

    def lookup_statement(
        self, table: str, key_column: str
    ) -> PreparedStatement:
        """The cached prepared point-lookup statement for one (table, column).

        Statements prepared before a DDL change (``create_table``) are
        re-prepared, because their plan analysis may be stale.
        """
        key = (table, key_column)
        statement = self._lookup_statements.get(key)
        if (
            statement is None
            or statement.schema_generation != self.database.schema_generation
        ):
            statement = self.database.prepare(
                f"select * from {table} where {key_column} = ?"
            )
            self._lookup_statements[key] = statement
        return statement

    @property
    def in_transaction(self) -> bool:
        """True while a transaction begun on this connection is open."""
        return self._txn is not None and self._txn.active

    def begin(self) -> Transaction:
        """Open a server transaction on this connection (one round trip).

        Raises :class:`repro.db.database.TransactionError` if a transaction
        is already active anywhere on the server — the engine is
        single-writer.
        """
        return self._charge(self.exchange_begin)

    def commit(self) -> None:
        """Commit the connection's open transaction (PEP 249 ``commit``).

        Without an open transaction this is a no-op, per PEP 249.  COMMIT
        is the one exchange whose reply loss cannot be papered over: a
        response-path fault here means the server *did* commit but the
        client cannot know it — surfaced as
        :class:`repro.net.faults.AmbiguousCommitError`, never retried.

        Under MVCC the server may refuse the commit entirely
        (first-committer-wins): :class:`repro.db.mvcc.SerializationError`
        surfaces after the server has already aborted the transaction, so
        the connection drops its reference — retry by running the whole
        transaction again (see :meth:`run_transaction`).
        """
        self._charge(self.exchange_commit)

    def rollback(self) -> None:
        """Roll back the connection's open transaction (PEP 249 shape).

        A no-op without an open transaction.  Rollback is not fault-injected:
        it is the recovery action itself, so the simulation keeps it
        reliable (like BEGIN).
        """
        self._charge(self.exchange_rollback)

    def run_transaction(
        self,
        work: Callable[["SimulatedConnection"], Any],
        *,
        max_attempts: Optional[int] = None,
    ) -> Any:
        """Run ``work(connection)`` inside a transaction, retrying conflicts.

        Begins a transaction, runs ``work``, and commits; when the commit
        loses first-committer-wins (:class:`~repro.db.mvcc.SerializationError`)
        the whole transaction is retried from scratch with the connection's
        :class:`~repro.net.faults.RetryPolicy` backoff (a default policy
        when none is configured), up to ``max_attempts`` (default: the
        policy's budget).  Retries are counted in
        ``FaultStats.serialization_retries`` — outside the injected-fault
        invariant, because conflicts are server outcomes, not network
        faults.  Any other failure rolls back and propagates.
        """
        self._check_open()
        policy = self.retries if self.retries is not None else RetryPolicy()
        if max_attempts is None:
            max_attempts = policy.max_attempts
        attempt = 1
        while True:
            self.begin()
            try:
                value = work(self)
            except BaseException:
                self.rollback()
                raise
            try:
                self.commit()
            except SerializationError:
                if attempt >= max_attempts:
                    raise
                backoff = policy.delay(attempt)
                self.clock.advance(backoff)
                if self.faults is not None:
                    self.faults.stats.serialization_retries += 1
                attempt += 1
                continue
            return value

    # -- the uncharged exchange API ----------------------------------------
    #
    # One exchange per kind of request.  Each does the server-side work,
    # books ConnectionStats / FaultStats / spans, and returns ``(value,
    # elapsed)`` WITHOUT touching the clock; a failure that burned virtual
    # time raises one of EXCHANGE_ERRORS carrying ``virtual_elapsed``.  The
    # batch exchange is :meth:`Pipeline.exchange`.

    def exchange(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> tuple[Any, float]:
        """One statement: ``(QueryResult | rows changed, elapsed)``.

        A SELECT is idempotent, so the fault layer may re-send it on any
        injected fault; an UPDATE whose reply is lost surfaces
        :class:`~repro.net.faults.AmbiguousCommitError` instead.
        """
        if statement.is_query:
            return self._guarded(
                "query", True, self._serve_query, statement, params
            )
        return self._guarded(
            "update", False, self._serve_update, statement, params
        )

    def exchange_begin(self) -> tuple[Transaction, float]:
        """BEGIN: one reliable round trip (never fault-injected)."""
        self._check_open()
        self._txn = txn = self.database.begin()
        return txn, self._control_round_trip()

    def exchange_commit(self) -> tuple[None, float]:
        """COMMIT: also decides what each outcome leaves in ``_txn``."""
        self._check_open()
        txn = self._txn
        if txn is None or not txn.active:
            self._txn = None
            return None, 0.0
        try:
            outcome = self._guarded("commit", False, self._serve_commit, txn)
        except SerializationError:
            # The server resolved the conflict by aborting this transaction
            # (never a silent rollback of committed versions).
            self._txn = None
            if self.faults is not None:
                self.faults.stats.serialization_conflicts += 1
            raise
        except AmbiguousCommitError:
            # The server *did* commit (or abort); only the reply was lost.
            # The transaction is finished server-side, so drop the reference.
            self._txn = None
            raise
        # A FaultError passes through with the reference kept: the COMMIT
        # never reached the server, the transaction is still active there,
        # and clearing it would wedge the single-writer server forever —
        # rollback()/close() must still be able to release it.
        self._txn = None
        return outcome

    def exchange_rollback(self) -> tuple[None, float]:
        """ROLLBACK: a reliable round trip, free without a transaction."""
        self._check_open()
        txn, self._txn = self._txn, None
        if txn is None or not txn.active:
            return None, 0.0
        txn.rollback()
        return None, self._control_round_trip()

    # -- fault injection and retry ----------------------------------------

    def _guarded(
        self,
        operation: str,
        idempotent: bool,
        serve: Callable[..., tuple],
        *args: Any,
    ) -> tuple:
        """Run ``serve(*args)`` under the fault/retry policies, traced.

        ``serve`` performs the server-side work and returns ``(value,
        elapsed)``; this returns the same shape with ``elapsed`` extended
        by every fault cost and backoff sleep along the way, so drivers
        charge the clock exactly once.  The trace's root span duration IS
        that elapsed time, whichever charging discipline the driver uses.
        """
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            if self.faults is None:
                return serve(*args)
            return self._retrying(operation, idempotent, serve, args)
        trace = tracer.start(operation)
        try:
            value, elapsed = self._retrying(operation, idempotent, serve, args)
        except BaseException as exc:
            if isinstance(exc, SerializationError):
                # MVCC first-committer-wins loss: mark the conflict so the
                # trace explains the aborted commit.
                trace.add_span("mvcc_conflict", 0.0, error=str(exc))
            tracer.finish_error(
                trace, exc, getattr(exc, "virtual_elapsed", 0.0)
            )
            raise
        tracer.finish(trace, elapsed)
        return value, elapsed

    def _retrying(
        self,
        operation: str,
        idempotent: bool,
        serve: Callable[..., tuple],
        args: tuple,
    ) -> tuple:
        """The fault/retry half of :meth:`_guarded`.

        Fault handling follows the delivery split: a request-path fault
        never reached the server, so it is retryable for any operation; a
        response-path fault executed server-side with the reply lost, so it
        is retryable only when ``idempotent`` (reads) — otherwise
        :class:`AmbiguousCommitError` surfaces.  A surfaced exception
        carries ``virtual_elapsed``, the virtual time the failed exchange
        burned, so even failures keep the clock honest.
        """
        policy = self.faults
        if policy is None:
            return serve(*args)
        retry = self.retries
        round_trip = self.network.round_trip_seconds
        elapsed_total = 0.0
        attempt = 1
        while True:
            fault = policy.inject(operation, round_trip)
            if fault is None:
                try:
                    value, elapsed = serve(*args)
                except (FaultError, SerializationError) as exc:
                    # An admission-queue timeout or a refused COMMIT: fold
                    # in the time earlier injected faults burned.
                    exc.virtual_elapsed += elapsed_total
                    raise
                return value, elapsed_total + elapsed
            elapsed_total += fault.cost
            tracer = self._tracer
            if tracer is not None and tracer.active:
                tracer.add_span(
                    "fault",
                    fault.cost,
                    operation=operation,
                    delivered=fault.delivered,
                    attempt=attempt,
                )
            if fault.delivered:
                # The server received and executed the request; only the
                # reply was lost.  Execute it for real so server state
                # reflects what actually happened.
                try:
                    _, elapsed = serve(*args)
                except SerializationError as exc:
                    # An MVCC commit that lost first-committer-wins while
                    # its reply was lost: the server aborted it, but this
                    # client cannot distinguish that from a commit — so it
                    # surfaces as ambiguous, never as a silent rollback.
                    elapsed_total += exc.virtual_elapsed
                    policy.stats.ambiguous += 1
                    error = AmbiguousCommitError(
                        f"reply to {operation} lost in flight: the server "
                        f"resolved it as a write conflict, but the client "
                        f"cannot confirm"
                    )
                    error.virtual_elapsed = elapsed_total
                    raise error from exc
                except FaultError as exc:
                    policy.stats.exhausted += 1
                    exc.virtual_elapsed += elapsed_total
                    raise
                elapsed_total += elapsed
                if not idempotent:
                    policy.stats.ambiguous += 1
                    error = AmbiguousCommitError(
                        f"reply to {operation} lost in flight: the server "
                        f"executed it, but the client cannot confirm"
                    )
                    error.virtual_elapsed = elapsed_total
                    raise error from fault
            if retry is None or attempt >= retry.max_attempts:
                policy.stats.exhausted += 1
                fault.virtual_elapsed = elapsed_total
                raise fault
            backoff = retry.delay(attempt)
            policy.stats.retries += 1
            policy.stats.backoff_seconds += backoff
            elapsed_total += backoff
            if tracer is not None and tracer.active:
                tracer.add_span("retry_backoff", backoff, attempt=attempt)
            attempt += 1

    # -- server-side work: scoping, admission, bookkeeping ------------------

    def _server_context(self):
        """The MVCC read context this exchange executes under.

        With MVCC off this is a no-op: the legacy single-writer engine lets
        statements join whatever transaction is ambient, and existing
        behaviour must not change.  With MVCC on, every exchange is scoped
        to the transaction open on *this* connection — or to autocommit
        (latest committed state) when none — so one connection's open
        transaction never leaks into another connection's reads.
        """
        if self.database._mvcc is None:
            return _NO_SCOPE
        txn = self._txn
        if txn is not None and getattr(txn, "active", False):
            return self.database.using(txn)
        return self.database.using(None)

    def _admit(self, service_seconds: float) -> float:
        """Pass one exchange through admission control.

        Returns queue wait + service time — the elapsed time the driver
        should charge — after booking a server slot.  Raises
        :class:`~repro.net.faults.RequestTimeoutError` when the queue wait
        would exceed the controller's timeout.  Without a controller the
        server has infinite capacity and this is the identity.
        """
        admission = self.admission
        if admission is None:
            return service_seconds
        wait = admission.admit(
            self.clock.now, service_seconds, connection=id(self)
        )
        self.stats.queue_time += wait
        tracer = self._tracer
        if wait > 0.0 and tracer is not None and tracer.active:
            tracer.add_span("admission_wait", wait)
        return service_seconds + wait

    def _control_round_trip(self) -> float:
        """Book one transaction-control round trip; returns its duration."""
        round_trip = self.network.round_trip_seconds
        self.stats.round_trips += 1
        self.stats.network_time += round_trip
        tracer = self._tracer
        if tracer is not None and tracer.active:
            tracer.add_span("network_round_trip", round_trip)
        return round_trip

    def _serve_query(
        self, statement: PreparedStatement, params: Sequence[Any]
    ) -> tuple[QueryResult, float]:
        """Execute a prepared SELECT server-side: ``(result, elapsed)``."""
        self._check_open()
        with self._server_context():
            result, estimate = statement.execute_with_estimate(params)
        # Use the actual cardinality for transfer accounting but the
        # optimizer estimate for server-side time (first/last row).
        network = self.network
        transfer_time = network.transfer_time(result.byte_size)
        server_first = estimate.first_row_time
        server_rest = max(0.0, estimate.last_row_time - estimate.first_row_time)
        stats = self.stats
        stats.queries += 1
        stats.round_trips += 1
        stats.rows_transferred += result.cardinality
        stats.bytes_transferred += result.byte_size
        stats.network_time += network.round_trip_seconds + transfer_time
        stats.server_time += server_first + server_rest
        tracer = self._tracer
        if tracer is not None and tracer.active:
            self._trace_query(
                tracer,
                statement,
                result,
                estimate,
                transfer_time,
                server_first,
                server_rest,
            )
        return result, self._admit(
            network.round_trip_seconds
            + server_first
            + max(transfer_time, server_rest)
        )

    def _trace_query(
        self,
        tracer: Tracer,
        statement: PreparedStatement,
        result: QueryResult,
        estimate,
        transfer_time: float,
        server_first: float,
        server_rest: float,
    ) -> None:
        """Record one SELECT exchange's spans on the open trace.

        The plan and route spans are zero-duration events; the execute
        span's duration is the max-overlap server + transfer total the cost
        model charged, with the overlapping components carried as
        attributes.  Together with the round-trip span (and any admission
        wait recorded by :meth:`_admit`) the children partition the root
        exactly.
        """
        tracer.set_sql(statement.sql)
        trace = tracer.current
        trace.add_span(
            "plan",
            0.0,
            root_operator=type(statement.plan).__name__,
            estimated_rows=estimate.cardinality,
        )
        route = statement.last_route
        if route is not None:
            route_span = trace.add_span(
                "route", 0.0, kind=route["kind"], shards=route["shards"]
            )
            parallel = route.get("parallel")
            if parallel is not None:
                attach_parallel_scatter(route_span, parallel)
        trace.add_span("network_round_trip", self.network.round_trip_seconds)
        execute = trace.add_span(
            "execute",
            server_first + max(transfer_time, server_rest),
            tier=statement.last_tier,
            rows_out=result.cardinality,
            server_first=server_first,
            server_rest=server_rest,
            transfer_time=transfer_time,
        )
        if statement.last_fallback_reason is not None:
            execute.attributes["fallback_reason"] = (
                statement.last_fallback_reason
            )

    def _serve_update(
        self, statement: PreparedStatement, params: Sequence[Any]
    ) -> tuple[int, float]:
        """Execute a prepared UPDATE server-side: ``(changed, elapsed)``."""
        self._check_open()
        with self._server_context():
            changed = statement.execute_update(params)
        round_trip = self.network.round_trip_seconds
        self.stats.queries += 1
        self.stats.round_trips += 1
        self.stats.network_time += round_trip
        tracer = self._tracer
        if tracer is not None and tracer.active:
            tracer.set_sql(statement.sql)
            tracer.add_span(
                "execute",
                0.0,
                tier=self.database.last_update_tier,
                rows_changed=changed,
            )
            tracer.add_span("network_round_trip", round_trip)
        return changed, self._admit(round_trip)

    def _serve_commit(self, txn: Transaction) -> tuple[None, float]:
        """Commit the server transaction: ``(None, elapsed)``.

        A refused commit (:class:`~repro.db.mvcc.SerializationError`) still
        burned its round trip and says so through ``virtual_elapsed``.
        With a WAL attached the elapsed time includes the commit's flush
        cost, which group commit
        (:meth:`repro.db.wal.WriteAheadLog.commit_flush`) may waive.
        """
        self._check_open()
        try:
            txn.commit()
        except SerializationError as exc:
            exc.virtual_elapsed = self._control_round_trip()
            raise
        elapsed = self._control_round_trip()
        wal = self.database.wal
        if wal is not None:
            flush_cost = wal.commit_flush(self.clock.now)
            elapsed += flush_cost
            tracer = self._tracer
            if tracer is not None and tracer.active:
                # A zero-cost flush while the log has real flush latency
                # means this commit rode along on a recent group commit.
                tracer.add_span(
                    "wal_flush",
                    flush_cost,
                    group_commit_ride_along=(
                        flush_cost == 0.0 and wal.flush_seconds > 0.0
                    ),
                )
        return None, elapsed

    # -- bookkeeping -----------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Current virtual time on this connection's clock."""
        return self.clock.now

    def reset(self) -> None:
        """Reset the clock and the statistics (start of an experiment run)."""
        self.clock.reset()
        self.stats.reset()
        self.database.reset_counters()


class PipelineResult:
    """Per-statement result slot of a :class:`Pipeline` batch.

    Populated when the pipeline flushes; reading :attr:`rows`,
    :attr:`rowcount`, or :attr:`result` earlier raises
    :class:`PipelineError`.  A batch has partial-failure semantics: if a
    statement fails, its handle carries the error (:attr:`error`), handles
    queued before it keep their valid results, and handles after it are
    marked aborted.  Reading a result off a failed or aborted handle
    re-raises its error.
    """

    __slots__ = (
        "statement",
        "_params",
        "_rows",
        "_rowcount",
        "_result",
        "_error",
        "_done",
    )

    def __init__(
        self, statement: PreparedStatement, params: tuple
    ) -> None:
        self.statement = statement
        self._params = params
        self._rows: Optional[list[dict]] = None
        self._rowcount = -1
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None
        self._done = False

    @property
    def is_query(self) -> bool:
        """True for SELECT statements, False for UPDATEs."""
        return self.statement.is_query

    @property
    def rows(self) -> Optional[list[dict]]:
        """Result rows of a SELECT (``None`` for UPDATE statements)."""
        self._check_ok()
        return self._rows

    @property
    def rowcount(self) -> int:
        """Rows returned (SELECT) or changed (UPDATE)."""
        self._check_ok()
        return self._rowcount

    @property
    def result(self) -> Optional[QueryResult]:
        """The full :class:`QueryResult` of a SELECT (``None`` for UPDATEs)."""
        self._check_ok()
        return self._result

    @property
    def error(self) -> Optional[BaseException]:
        """This statement's own error, or ``None`` if it succeeded.

        A statement that never ran because an earlier statement in the
        batch failed carries a :class:`PipelineError` marking it aborted.
        """
        self._check_done()
        return self._error

    def _reset(self) -> None:
        """Return the handle to its pre-flush state (fault-layer re-send)."""
        self._rows = None
        self._rowcount = -1
        self._result = None
        self._error = None
        self._done = False

    def _check_done(self) -> None:
        if not self._done:
            raise PipelineError(
                "pipeline result read before the batch was flushed"
            )

    def _check_ok(self) -> None:
        self._check_done()
        if self._error is not None:
            raise self._error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._done:
            state = "pending"
        elif self._error is not None:
            state = "failed"
        else:
            state = "done"
        return f"<PipelineResult {state} {self.statement.sql!r}>"


class Pipeline:
    """An explicit batch context: many statements, one network round trip.

    Statements queued via :meth:`execute` / :meth:`execute_prepared` return
    :class:`PipelineResult` handles immediately; nothing touches the wire
    until :meth:`flush` (called automatically on clean ``with``-block exit),
    which executes the whole batch server-side in queue order, fills every
    handle, and charges the virtual clock **once** with the batched cost
    formula (:meth:`repro.net.network.NetworkConditions.pipelined_time`).

    A pipeline may be flushed repeatedly — each flush is one round trip for
    the statements queued since the previous flush.  Leaving the ``with``
    block on an exception discards the pending queue instead of flushing.
    """

    def __init__(self, connection: SimulatedConnection) -> None:
        self.connection = connection
        self._queue: list[PipelineResult] = []
        #: round trips this pipeline has performed (one per non-empty flush).
        self.flushes = 0

    # -- queueing --------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> PipelineResult:
        """Queue one statement (prepared through the statement cache)."""
        return self.execute_prepared(self.connection.prepare(sql), params)

    def execute_prepared(
        self, statement: PreparedStatement, params: Sequence[Any] = ()
    ) -> PipelineResult:
        """Queue an already-prepared statement with its parameters."""
        self.connection._check_open()
        handle = PipelineResult(statement, tuple(params))
        self._queue.append(handle)
        return handle

    def __len__(self) -> int:
        return len(self._queue)

    # -- flushing --------------------------------------------------------

    def flush(self) -> list[PipelineResult]:
        """Ship the queued batch in one round trip; returns the handles.

        On partial failure the clock is still charged for the round trip,
        every handle is filled (valid results before the failure, the error
        on the failing handle, aborted markers after it), and the first
        statement error is re-raised.
        """
        handles = list(self._queue)
        error = self.connection._charge(self.exchange)
        if error is not None:
            raise error
        return handles

    def exchange(self) -> tuple[Optional[BaseException], float]:
        """The uncharged batch exchange: ``(first statement error, elapsed)``.

        An empty queue costs nothing — no round trip is charged.  A batch
        of SELECTs is idempotent and may be re-sent on any injected fault;
        a batch containing a write gets the ambiguous-commit treatment on
        response-path faults.
        """
        connection = self.connection
        connection._check_open()
        handles, self._queue = self._queue, []
        if not handles:
            return None, 0.0
        return connection._guarded(
            "pipeline",
            all(handle.statement.is_query for handle in handles),
            self._serve_batch,
            handles,
        )

    def _serve_batch(
        self, handles: list[PipelineResult]
    ) -> tuple[Optional[BaseException], float]:
        """One server-side execution of a batch; return (error, elapsed).

        Statements run in queue order; the first failure stops the batch,
        leaving earlier handles valid, storing the error on the failing
        handle, and marking the rest aborted.  The fault layer may call
        this again to model a re-sent batch, so handles are reset first.
        """
        connection = self.connection
        stats = connection.stats
        network = connection.network
        first_total = 0.0
        rest_total = 0.0
        total_bytes = 0
        error: Optional[BaseException] = None
        for handle in handles:
            handle._reset()
        for position, handle in enumerate(handles):
            statement = handle.statement
            try:
                with connection._server_context():
                    if statement.is_query:
                        result, estimate = statement.execute_with_estimate(
                            handle._params
                        )
                    else:
                        handle._rowcount = statement.execute_update(
                            handle._params
                        )
                if statement.is_query:
                    first_total += estimate.first_row_time
                    rest_total += max(
                        0.0,
                        estimate.last_row_time - estimate.first_row_time,
                    )
                    total_bytes += result.byte_size
                    handle._rows = result.rows
                    handle._rowcount = result.cardinality
                    handle._result = result
                    stats.rows_transferred += result.cardinality
                    stats.bytes_transferred += result.byte_size
            except Exception as exc:
                error = exc
                handle._error = exc
                handle._done = True
                stats.queries += 1
                for aborted in handles[position + 1 :]:
                    aborted._error = PipelineError(
                        "statement aborted: an earlier statement in the "
                        "batch failed"
                    )
                    aborted._done = True
                break
            handle._done = True
            stats.queries += 1
        transfer_time = network.transfer_time(total_bytes)
        elapsed = network.pipelined_time(first_total, rest_total, total_bytes)
        stats.round_trips += 1
        stats.batches += 1
        stats.network_time += network.round_trip_seconds + transfer_time
        stats.server_time += first_total + rest_total
        self.flushes += 1
        tracer = connection._tracer
        if tracer is not None and tracer.active:
            trace = tracer.current
            round_trip = network.round_trip_seconds
            trace.add_span("network_round_trip", round_trip)
            execute = trace.add_span(
                "execute",
                max(0.0, elapsed - round_trip),
                tier="pipeline",
                statements=len(handles),
                server_first=first_total,
                server_rest=rest_total,
                transfer_time=transfer_time,
            )
            for handle in handles:
                execute.child(
                    "statement",
                    0.0,
                    sql=handle.statement.sql,
                    rows=handle._rowcount,
                    failed=handle._error is not None,
                )
        return error, connection._admit(elapsed)

    def discard(self) -> None:
        """Drop the pending batch: nothing is sent, nothing is charged."""
        self._queue = []

    # -- context management ----------------------------------------------

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
        else:
            self.discard()
