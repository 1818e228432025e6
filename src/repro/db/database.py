"""The Database facade: DDL, DML, SQL queries, statistics, and cost estimates.

This is the "server" the simulated network talks to.  Everything the COBRA
cost model needs from the database side is exposed here:

* ``execute_sql`` / ``execute_plan`` return a :class:`QueryResult` carrying
  rows, cardinality, and the byte size of the result;
* ``estimate`` returns a :class:`QueryEstimate` with the estimated result
  cardinality, row width, and server-side time-to-first/last-row — these feed
  ``NQ``, ``Srow(Q)``, ``CFQ`` and ``CLQ`` in the cost model (the paper
  "consulted the database query optimizer to get an estimate of query
  execution times").

Statement preparation
---------------------

Database applications issue the same parameterized query shapes over and
over (the N+1 lazy-load loop is the canonical pattern), so the facade keeps
an LRU **statement cache** keyed by SQL text: :meth:`Database.prepare`
returns a :class:`PreparedStatement` holding the parsed plan, the plan-keyed
:class:`QueryEstimate`, the estimated output row width, and — for
point-lookup shapes (``select * from t where col = ?``) — an index-backed
execution fast path.  ``execute_sql`` / ``estimate_sql`` route through the
cache, so repeated statements parse once and estimate once.

Invalidation rules:

* ``create_table`` (DDL) clears the whole statement cache and bumps
  :attr:`Database.schema_generation`;
* ``analyze()`` / ``set_table_statistics`` bump
  :attr:`Database.stats_generation`, which lazily invalidates every cached
  estimate (statements re-estimate on next use);
* inserts/updates bump the affected :attr:`repro.db.table.Table.version`,
  which likewise invalidates the cached estimates of statements touching
  that table.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.db import algebra
from repro.db.executor import Executor, _FusedScan
from repro.db.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    ParameterSlot,
)
from repro.db.schema import Column, ForeignKey, Schema, TableSchema
from repro.db.sqlgen import to_sql
from repro.db.sqlparser import (
    Parameter,
    SQLSyntaxError,
    UpdateStatement,
    bind_parameter_slots,
    bind_update_slots,
    count_parameters,
    count_update_parameters,
    parse_sql,
    parse_update,
)
from repro.db.sharding import (
    ShardedTable,
    ShardingStats,
    ShardRouter,
    merge_execution_counters,
)
from repro.db.mvcc import MvccManager, MvccTransaction, Snapshot
from repro.db.statistics import StatisticsCatalog, TableStatistics
from repro.db.table import Row, Table
from repro.db.wal import (
    AbortRecord,
    CommitRecord,
    CreateTableRecord,
    InsertRecord,
    ShardTableRecord,
    UpdateRecord,
    WalError,
    WriteAheadLog,
)

#: Server-side per-row processing cost, in seconds, used for CFQ/CLQ estimates.
DEFAULT_SERVER_ROW_COST = 2e-6

#: Prepared statements kept in the LRU statement cache before eviction.
DEFAULT_STATEMENT_CACHE_SIZE = 128

_UPDATE_RE = re.compile(r"\s*update\b", re.IGNORECASE)


@dataclass
class QueryResult:
    """Result of executing a query: rows plus size accounting."""

    rows: list[Row]
    row_width: int
    sql: str

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def byte_size(self) -> int:
        return self.cardinality * self.row_width

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class QueryEstimate:
    """Optimizer-style estimate for one query."""

    cardinality: float
    row_width: int
    first_row_time: float
    last_row_time: float

    @property
    def byte_size(self) -> float:
        return self.cardinality * self.row_width


@dataclass
class StatementCacheStats:
    """Counters for the engine-level prepared-statement cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


class _PointLookup:
    """Execution fast path for ``select * from t where col = <value>``.

    Prepared at plan-compilation time; executes through the table's lazy
    secondary hash index (:meth:`repro.db.table.Table.index_for`) instead of
    scanning.  Output rows are materialised by the executor's own
    :class:`~repro.db.executor._FusedScan` (the exact ``bare +
    alias.column`` layout every scan produces), so the fast path cannot
    drift from the generic path's row shape.
    """

    __slots__ = ("table", "column", "value", "_fused", "_router")

    def __init__(
        self,
        table: str,
        alias: str,
        column: str,
        value: Any,
        storage: Table,
        router: Optional[ShardRouter] = None,
    ) -> None:
        self.table = table
        self.column = column
        #: a :class:`Parameter` (bound per execution) or a constant.
        self.value = value
        self._fused = _FusedScan(storage, alias, [])
        self._router = router

    def rows(self, table: Table, params: Sequence[Any]) -> Optional[list[Row]]:
        """Matching output rows, or ``None`` when the fast path cannot run.

        Over a :class:`~repro.db.sharding.ShardedTable` the fast path is
        **shard-aware**: a lookup on the shard key probes only the secondary
        index of the shard the value hashes to (counted as a routed
        execution); lookups on other columns use the aggregate index.
        """
        value = self.value
        if isinstance(value, Parameter):
            if value.index >= len(params):
                raise SQLSyntaxError(
                    f"missing value for parameter ?{value.index}"
                )
            value = params[value.index]
        sharded = isinstance(table, ShardedTable)
        shard_routed = sharded and self.column == table.shard_key
        shard = None
        if shard_routed:
            shard = table.shard_index(value)
            index = table.shards[shard].index_for(self.column)
        else:
            index = table.index_for(self.column)
        try:
            bucket = index.get(value, ())
        except TypeError:  # unhashable lookup value; generic path handles it
            return None
        if sharded and self._router is not None:
            if shard_routed:
                self._router.stats.routed += 1
                self._router.last_route = {"kind": "routed", "shards": (shard,)}
            else:
                self._router.stats.fallback += 1
                self._router.last_route = {"kind": "fallback", "shards": None}
        return [self._fused.materialize(row) for row in bucket]


class PreparedStatement:
    """A parsed, plan-cached SQL statement bound to one :class:`Database`.

    Query statements cache the parsed algebra plan (with unbound ``?``
    parameters), the plan-keyed :class:`QueryEstimate`, and the estimated
    output row width; point-lookup shapes additionally carry an index-backed
    execution fast path.  UPDATE statements cache the parsed
    :class:`repro.db.sqlparser.UpdateStatement`.

    Execution is **slot-compiled**: at preparation time every ``?`` in the
    plan (or UPDATE) is rewritten once into a
    :class:`repro.db.expressions.ParameterSlot` reading the statement's
    mutable parameter buffer, so executing with fresh parameters writes the
    buffer and re-runs the *same* template object — no per-call plan
    substitution, and the executor's expression-compile caches hit on every
    execution.  This extends the prepared fast path to arbitrary
    parameterized statement shapes, not just point lookups.  Because the
    template plan object is stable, the executor caches the statement's
    *vectorized* lowering right next to its compiled closures (both keyed
    by the plan), so slot-compiled statements replay on the vectorized tier
    with zero per-call lowering as well.

    Cached estimates revalidate lazily against the database's statistics
    generation and the versions of every referenced table, so ``analyze()``
    and insert-driven table mutations are reflected on the next use without
    reparsing.
    """

    def __init__(
        self,
        database: "Database",
        sql: str,
        *,
        plan: Optional[algebra.PlanNode] = None,
        update: Optional[UpdateStatement] = None,
    ) -> None:
        if (plan is None) == (update is None):
            raise ValueError("exactly one of plan/update must be given")
        self.database = database
        self.sql = sql
        self.plan = plan
        self.update = update
        #: True for SELECT statements, False for UPDATE statements.
        self.is_query = plan is not None
        self.schema_generation = database.schema_generation
        if plan is not None:
            self.parameter_count = count_parameters(plan)
            self.tables = tuple(
                sorted({scan.table for scan in algebra.find_scans(plan)})
            )
        else:
            self.parameter_count = count_update_parameters(update)
            self.tables = (update.table,)
        #: per-execution parameter buffer read by the slotted template.
        self._slots: list[Any] = [None] * self.parameter_count
        if plan is not None:
            # The execution template: every ? rewritten to a ParameterSlot
            # reading self._slots.  Built once, so the executor's compile
            # caches see the *same* plan object on every execution and the
            # plan is never re-substituted or re-lowered per call.
            self._exec_plan = (
                bind_parameter_slots(plan, self._slots)
                if self.parameter_count
                else plan
            )
            self._exec_update: Optional[UpdateStatement] = None
        else:
            self._exec_plan = None
            self._exec_update = (
                bind_update_slots(update, self._slots)
                if self.parameter_count
                else update
            )
        #: compiled UPDATE template: (predicate closure, {column: value},
        #: the ``(ColumnRef, value expression)`` of a point predicate or None).
        self._compiled_update: Optional[tuple] = None
        self.point_lookup = (
            self._analyze_point_lookup(plan) if plan is not None else None
        )
        #: executions through this statement (fast path included).
        self.executions = 0
        #: how often the plan-keyed estimate was (re)computed.
        self.estimates_computed = 0
        #: per-execution markers (tracing / EXPLAIN): the tier that served
        #: the most recent execution, the router's dispatch for it, and the
        #: vectorized fallback reason behind it, if any.
        self.last_tier: Optional[str] = None
        self.last_route: Optional[dict] = None
        self.last_fallback_reason: Optional[str] = None
        #: how the rows were actually produced: "codegen" / "kernel" inside
        #: the vectorized tier, the row-tier name, or "point-lookup".
        self.last_execution_path: Optional[str] = None
        self._estimate: Optional[QueryEstimate] = None
        self._row_width: Optional[int] = None
        #: what the cached estimate was computed against: the statistics
        #: generation and the referenced tables' versions (one int for a
        #: one-table statement, a tuple otherwise).
        self._stamp_generation = -1
        self._stamp_versions: Any = None

    # -- execution -------------------------------------------------------

    def execute(self, params: Sequence[Any] = ()) -> QueryResult:
        """Execute the prepared query with ``params`` bound positionally.

        Parameters are written into the statement's slot buffer and the
        pre-built slotted plan template runs directly: no per-call plan
        rebuild, and the executor's compile caches hit because the template
        object is identical across executions.
        """
        if self.plan is None:
            raise SQLSyntaxError(
                f"prepared UPDATE cannot be executed as a query: {self.sql!r}"
            )
        # A SELECT moves neither table versions nor statistics, so one
        # revalidation up front holds for the whole execution.
        self._revalidate()
        database = self.database
        mvcc = database._mvcc
        # Reads run against the ambient context's snapshot view when MVCC
        # is on; the live executor otherwise.  The index-backed point-lookup
        # fast path probes live storage, so it only runs when the context's
        # snapshot *is* the live state (the common no-concurrency case).
        executor = (
            database._executor
            if mvcc is None
            else mvcc.executor_for(database._txn)
        )
        if (
            self.point_lookup is not None
            and database.execution_mode != "interpreted"
            and executor is database._executor
        ):
            table = database.tables.get(self.point_lookup.table)
            if table is not None:
                router = database._router
                if router is not None:
                    router.last_route = None
                rows = self.point_lookup.rows(table, params)
                if rows is not None:
                    database.queries_executed += 1
                    self.executions += 1
                    self.last_tier = "point-lookup"
                    self.last_route = (
                        router.last_route if router is not None else None
                    )
                    self.last_fallback_reason = None
                    self.last_execution_path = "point-lookup"
                    return QueryResult(
                        rows=rows,
                        row_width=self._current_row_width(),
                        sql=self.sql,
                    )
        if self.parameter_count:
            self._bind_slots(params)
        rows = executor.execute(self._exec_plan)
        database.queries_executed += 1
        self.executions += 1
        self.last_tier = executor.last_tier
        self.last_fallback_reason = executor.last_fallback_reason
        self.last_execution_path = executor.last_execution_path
        self.last_route = (
            executor.router.last_route if executor.router is not None else None
        )
        return QueryResult(
            rows=rows, row_width=self._current_row_width(), sql=self.sql
        )

    def execute_with_estimate(
        self, params: Sequence[Any] = ()
    ) -> tuple[QueryResult, QueryEstimate]:
        """:meth:`execute` plus :meth:`estimate`, revalidated once.

        The server-side serving path needs both for every SELECT; the
        estimate reuses the revalidation :meth:`execute` just did.
        """
        result = self.execute(params)
        return result, self._current_estimate()

    def execute_update(self, params: Sequence[Any] = ()) -> int:
        """Execute the prepared UPDATE; returns the number of rows changed.

        Like queries, prepared UPDATEs are slot-compiled: the predicate and
        assignment expressions are lowered to closures exactly once over the
        statement's lifetime, and each execution only writes the parameter
        buffer.
        """
        if self.update is None:
            raise SQLSyntaxError(
                f"prepared query cannot be executed as an UPDATE: {self.sql!r}"
            )
        if self.parameter_count:
            self._bind_slots(params)
        if self._compiled_update is None:
            statement = self._exec_update
            if statement.predicate is None:
                predicate = lambda row: True  # noqa: E731 - trivial predicate
            else:
                predicate = statement.predicate.compile()
            assignments: dict[str, Any] = {}
            for column, expression in statement.assignments:
                if isinstance(expression, Literal):
                    assignments[column] = expression.value
                else:
                    assignments[column] = expression.compile()
            point = _point_equality(
                statement.predicate, (ParameterSlot, Literal)
            )
            if point is not None and point[0].qualifier is not None:
                point = None  # stored rows carry bare column names only
            self._compiled_update = (predicate, assignments, point)
        predicate, assignments, point = self._compiled_update
        database = self.database
        database.queries_executed += 1
        self.executions += 1
        probe = None
        if point is not None and database.execution_mode != "interpreted":
            # The point-UPDATE path: like the point-lookup fast path, the
            # interpreted tier stays the scan-everything reference.
            column, value = point
            probe = (column.name, value.evaluate(None))
        # Route through the database-level chokepoint so the write-ahead
        # log and any active transaction observe the statement.
        changed = database.update_table(
            self._exec_update.table, predicate, assignments, probe
        )
        self.last_tier = database.last_update_tier
        return changed

    def _bind_slots(self, params: Sequence[Any]) -> None:
        """Write ``params`` into the slot buffer, validating the count."""
        count = self.parameter_count
        if len(params) < count:
            raise SQLSyntaxError(
                f"missing value for parameter ?{len(params)}"
            )
        slots = self._slots
        for index in range(count):
            slots[index] = params[index]

    # -- estimation ------------------------------------------------------

    def estimate(self, params: Sequence[Any] = ()) -> QueryEstimate:
        """The plan-keyed estimate (cached; ``params`` do not affect it).

        Selectivity estimation treats a bound-later ``?`` parameter exactly
        like a literal (``1 / distinct(column)`` for equality), so the
        template plan prices identically to any bound instance — which is
        what lets one prepared statement serve every parameter value.
        """
        if self.plan is None:
            raise SQLSyntaxError(
                f"prepared UPDATE has no query estimate: {self.sql!r}"
            )
        self._revalidate()
        return self._current_estimate()

    def row_width(self) -> int:
        """Estimated output row width in bytes (cached with the estimate)."""
        self._revalidate()
        return self._current_row_width()

    def output_columns(self) -> Optional[list[str]]:
        """Statically-known output column names of the prepared query.

        Lets drivers describe a result set even when it is empty.  Returns
        ``None`` for UPDATE statements and for plan shapes whose output
        layout is only known at execution time (joins).
        """
        if self.plan is None:
            return None
        return _plan_output_columns(self.plan, self.database)

    # -- internals -------------------------------------------------------

    def _current_estimate(self) -> QueryEstimate:
        """The cached estimate, computed if absent (caller revalidated)."""
        if self._estimate is None:
            self._estimate = self.database.estimate_plan(self.plan)
            self.estimates_computed += 1
        return self._estimate

    def _current_row_width(self) -> int:
        """The cached row width, computed if absent (caller revalidated)."""
        if self._row_width is None:
            self._row_width = self.database.statistics.estimate_row_width(
                self.plan
            )
        return self._row_width

    def _revalidate(self) -> None:
        """Drop cached estimates when statistics or table contents moved."""
        database = self.database
        if len(self.tables) == 1:
            table = database.tables.get(self.tables[0])
            versions = None if table is None else table.version
        else:
            versions = tuple(
                table.version
                for name in self.tables
                if (table := database.tables.get(name)) is not None
            )
        generation = database.stats_generation
        if (
            generation != self._stamp_generation
            or versions != self._stamp_versions
        ):
            self._stamp_generation = generation
            self._stamp_versions = versions
            self._estimate = None
            self._row_width = None

    def _analyze_point_lookup(
        self, plan: algebra.PlanNode
    ) -> Optional[_PointLookup]:
        """Detect the ``select * from t where col = <value>`` shape."""
        if not isinstance(plan, algebra.Select):
            return None
        scan = plan.child
        if not isinstance(scan, algebra.Scan):
            return None
        point = _point_equality(plan.predicate, (Parameter, Literal))
        if point is None:
            return None
        column, value = point
        if isinstance(value, Literal):
            value = value.value
        storage = self.database.tables.get(scan.table)
        if storage is None:
            return None
        if not storage.schema.has_column(column.name):
            return None
        alias = scan.effective_alias
        if column.qualifier is not None and column.qualifier != alias:
            return None
        return _PointLookup(
            scan.table,
            alias,
            column.name,
            value,
            storage,
            router=self.database._router,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "query" if self.is_query else "update"
        return f"<PreparedStatement {kind} {self.sql!r}>"


def _point_equality(
    predicate: Optional[Expression], value_types: tuple
) -> Optional[tuple[ColumnRef, Expression]]:
    """``(column, value)`` when ``predicate`` is ``column = <value>``.

    The point shape shared by the point-lookup fast path and the point
    ``UPDATE``: one equality, in either order, between a column and a node
    of ``value_types`` (a parameter, a parameter slot or a literal).
    """
    if not isinstance(predicate, BinaryOp) or predicate.op not in {"=", "=="}:
        return None
    for column, value in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        if isinstance(column, ColumnRef) and isinstance(value, value_types):
            return column, value
    return None


def _plan_output_columns(
    plan: algebra.PlanNode, database: "Database"
) -> Optional[list[str]]:
    """Output column names of ``plan``, when derivable without executing."""
    if isinstance(plan, (algebra.Select, algebra.Sort, algebra.Limit)):
        return _plan_output_columns(plan.child, database)
    if isinstance(plan, algebra.Project):
        return [output.name for output in plan.outputs]
    if isinstance(plan, algebra.Aggregate):
        return [column.name for column in plan.group_by] + [
            spec.name for spec in plan.aggregates
        ]
    if isinstance(plan, algebra.Scan):
        if not database.schema.has_table(plan.table):
            return None
        columns = database.schema.table(plan.table).column_names
        alias = plan.effective_alias
        return list(columns) + [f"{alias}.{name}" for name in columns]
    # Joins: the merged-row key layout depends on bare-name collisions at
    # execution time; defer to row-derived description.
    return None


class TransactionError(Exception):
    """Raised on invalid transaction usage (nested begin, finished reuse)."""


@dataclass
class TransactionStats:
    """Counters for the database's transaction activity."""

    begun: int = 0
    committed: int = 0
    rolled_back: int = 0


class Transaction:
    """One explicit server-side transaction (single-writer model).

    Created by :meth:`Database.begin`.  While active, every write to the
    database belongs to this transaction: its WAL records are tagged with
    the transaction id (durable only once the :class:`CommitRecord` lands),
    and an in-memory undo list of before-images makes :meth:`rollback`
    restore the pre-transaction state exactly — inserts are truncated away
    (storage is append-only) and updates re-apply their old values through
    the same :meth:`repro.db.table.Table.apply_update` hook the live path
    uses, so shard rehoming on rollback matches the forward path.

    The engine is deliberately **single-writer**: beginning a second
    transaction while one is active raises :class:`TransactionError` (MVCC
    snapshot isolation is future work — see ROADMAP).  Reads are always
    allowed and see the transaction's own writes.
    """

    def __init__(self, database: "Database", txn_id: int) -> None:
        self.database = database
        self.txn_id = txn_id
        self.active = True
        #: undo entries, applied in reverse on rollback:
        #: ("insert", table, length_before) |
        #: ("update", table, [(position, before_image)])
        self._undo: list[tuple] = []

    def _record_insert(self, table: str, length_before: int) -> None:
        self._undo.append(("insert", table, length_before))

    def _record_update(
        self, table: str, before_images: list[tuple[int, dict]]
    ) -> None:
        self._undo.append(("update", table, before_images))

    def commit(self) -> None:
        """Make the transaction's writes durable (appends the commit record)."""
        self.database._commit(self)

    def rollback(self) -> None:
        """Undo every write of this transaction and mark it aborted."""
        self.database._rollback(self)

    def __enter__(self) -> "Transaction":
        if not self.active:
            raise TransactionError("transaction is no longer active")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "finished"
        return f"<Transaction {self.txn_id} {state}>"


class Database:
    """An in-memory database: schema, tables, statistics, SQL execution."""

    def __init__(
        self,
        server_row_cost: float = DEFAULT_SERVER_ROW_COST,
        *,
        statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
        execution_mode: str = "vectorized",
        wal: Any = None,
        mvcc: bool = False,
    ) -> None:
        self.schema = Schema()
        self.tables: dict[str, Table] = {}
        self.statistics = StatisticsCatalog(self.schema)
        self.server_row_cost = server_row_cost
        self._executor = Executor(self.tables, mode=execution_mode)
        self.queries_executed = 0
        #: UPDATE statements planned from a positional index probe vs. by
        #: scanning the table, and the path of the most recent one.
        self.point_updates = 0
        self.scan_updates = 0
        self.last_update_tier: Optional[str] = None
        #: set once a table is sharded; consulted by the executor before
        #: normal execution and by the point-lookup fast path.
        self._router: Optional[ShardRouter] = None
        #: pending (workers, mode) parallel-scatter config, applied to the
        #: router when sharding is enabled (or immediately if it already is).
        self._parallel_config: Optional[tuple[Optional[int], str]] = None
        #: LRU prepared-statement cache, keyed by SQL text.
        self._statements: OrderedDict[str, PreparedStatement] = OrderedDict()
        self.statement_cache_size = statement_cache_size
        self.statement_cache = StatementCacheStats()
        #: bumped on DDL; prepared plans built before a bump are discarded.
        self.schema_generation = 0
        #: bumped on analyze()/set_table_statistics; invalidates estimates.
        self.stats_generation = 0
        #: the write-ahead log (None = durability off, the default).
        self._wal: Optional[WriteAheadLog] = None
        #: the ambient transaction/snapshot context: the single active
        #: explicit transaction in the legacy single-writer model, or —
        #: with MVCC enabled — whichever MVCC context the current server
        #: operation runs under (set per operation via :meth:`using`).
        self._txn: Optional[Any] = None
        self._next_txn_id = 1
        self.txn_stats = TransactionStats()
        #: MVCC version manager (None = legacy single-writer mode).
        self._mvcc: Optional[MvccManager] = None
        #: observability tracer (set by the engine when tracing is on);
        #: consulted for prepare cache-hit notes and EXPLAIN ANALYZE.
        self._tracer: Optional[Any] = None
        if mvcc:
            self.enable_mvcc()
        # Identity test, not truthiness: an *empty* WriteAheadLog is falsy
        # (it defines __len__), and attaching one must still enable
        # durability rather than silently skipping it.
        if wal is not None and wal is not False:
            self.enable_wal(wal if isinstance(wal, WriteAheadLog) else None)

    # -- DDL / DML -------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Iterable[Column],
        primary_key: Optional[str] = None,
        foreign_keys: Optional[Iterable[ForeignKey]] = None,
    ) -> Table:
        """Create a table and register it in the schema and catalog.

        DDL is autocommit-only (raises :class:`TransactionError` inside an
        explicit transaction) and, when the write-ahead log is enabled, is
        logged as a :class:`~repro.db.wal.CreateTableRecord` before apply.
        """
        self._check_no_transaction("create_table")
        schema = TableSchema(name, columns, primary_key, foreign_keys)
        ddl_txn = self._log_ddl(
            lambda txn_id: CreateTableRecord(
                txn_id,
                name,
                tuple(schema.columns),
                schema.primary_key,
                tuple(schema.foreign_keys),
            )
        )
        self.schema.add(schema)
        table = Table(schema)
        self.tables[name] = table
        self._finish_autocommit(ddl_txn)
        # DDL: plans compiled against the old schema may now resolve
        # differently (and their fast-path analysis is stale), so the whole
        # statement cache is dropped, along with the executor's
        # resolver-context closures (keyed by table object identity).
        self.schema_generation += 1
        self.stats_generation += 1
        self.invalidate_statements()
        self._executor.invalidate_context_cache()
        if self._router is not None:
            self._router.invalidate()
        return table

    def shard_table(
        self,
        name: str,
        key: Optional[str] = None,
        shards: int = 2,
    ) -> ShardedTable:
        """Convert ``name`` into a hash-sharded table on ``key``.

        ``key`` defaults to the table's primary key.  Existing rows are
        redistributed over ``shards`` partitions, preserving insertion
        order in the aggregate view.  Sharding is DDL-like: the statement
        cache and the executor's table-identity-keyed caches are dropped,
        and the shard router is (re)installed so subsequent plans route
        through single-shard / shard-local / scatter-gather execution.
        """
        self._check_no_transaction("shard_table")
        table = self.table(name)
        if isinstance(table, ShardedTable):
            raise ValueError(f"table {name!r} is already sharded")
        if key is None:
            key = table.schema.primary_key
            if key is None:
                raise ValueError(
                    f"table {name!r} has no primary key; pass an explicit "
                    f"shard key"
                )
        table.schema.column(key)  # validate before logging the DDL record
        ddl_txn = self._log_ddl(
            lambda txn_id: ShardTableRecord(txn_id, name, key, shards)
        )
        sharded = ShardedTable(table.schema, key, shards)
        sharded.insert_many(table.rows)
        self.tables[name] = sharded
        self.schema_generation += 1
        self.stats_generation += 1
        self.invalidate_statements()
        self._executor.invalidate_context_cache()
        if self._router is None:
            self._router = ShardRouter(self.tables, mode=self._executor.mode)
            self._executor.router = self._router
            if self._parallel_config is not None:
                self._router.set_parallel(*self._parallel_config)
        else:
            # Reuse the router (it reads the live table mapping): dropping
            # it would zero the sharding stats and the retired per-shard
            # executor counters invalidate() exists to preserve.
            self._router.invalidate()
        self._finish_autocommit(ddl_txn)
        return sharded

    def insert(self, table: str, rows: Iterable[Row]) -> int:
        """Insert rows into ``table``; returns the number inserted.

        With the write-ahead log enabled, the rows are first normalised
        (validated against the schema), logged as one
        :class:`~repro.db.wal.InsertRecord` holding their stored form, and
        only then applied — the WAL's log-before-apply rule.  Inside an
        explicit transaction the record is tagged with the transaction id
        and becomes durable at COMMIT; standalone inserts autocommit.
        """
        storage = self.table(table)
        mvcc = self._mvcc
        txn, wal = self._txn, self._wal
        if mvcc is not None:
            if txn is not None:
                # Buffered in the transaction's write set; logged and
                # applied at commit time (never visible to other readers).
                return mvcc.txn_insert(txn, table, rows)
            stored_rows = [storage.prepare_row(row) for row in rows]
            length_before = len(storage.rows)
            auto_txn = self._log_write(
                lambda txn_id: InsertRecord(
                    txn_id, table, tuple(dict(row) for row in stored_rows)
                )
            )
            for stored in stored_rows:
                storage.insert_stored(stored)
            self._finish_autocommit(auto_txn)
            mvcc.note_insert(table, length_before, len(stored_rows))
            return len(stored_rows)
        if txn is None and wal is None:
            return storage.insert_many(rows)
        stored_rows = [storage.prepare_row(row) for row in rows]
        if txn is not None:
            txn._record_insert(table, len(storage.rows))
        auto_txn = self._log_write(
            lambda txn_id: InsertRecord(
                txn_id, table, tuple(dict(row) for row in stored_rows)
            )
        )
        for stored in stored_rows:
            storage.insert_stored(stored)
        self._finish_autocommit(auto_txn)
        return len(stored_rows)

    def update_table(
        self,
        table: str,
        predicate,
        assignments: dict,
        probe: Optional[tuple[str, Any]] = None,
    ) -> int:
        """Statement-atomic UPDATE on ``table`` with WAL + transaction hooks.

        Runs the two-phase update: :meth:`repro.db.table.Table.plan_update`
        computes and validates every change first (an error leaves the table
        untouched), the physical ``(position, new values)`` changes are
        logged before apply, the transaction (if any) records before-images
        for rollback, and only then are the changes applied.  This is the
        single UPDATE chokepoint: prepared statements, cursors, and the
        application runtime all route through it.

        ``probe`` — ``(column, value)`` when the whole predicate is
        ``column = value`` — lets the plan phase take its candidate rows
        from the table's positional index instead of scanning; the
        predicate is still evaluated on every candidate.
        """
        storage = self.table(table)
        mvcc, txn = self._mvcc, self._txn
        if mvcc is not None and txn is not None:
            # Planned against the transaction's snapshot view and
            # buffered; applied (and conflict-checked) at commit time.
            return mvcc.txn_update(txn, table, predicate, assignments, probe)
        planned = self._plan_update(storage, predicate, assignments, probe)
        if not planned:
            return 0
        if mvcc is not None or txn is not None:
            rows = storage.rows
            before_images = [
                (
                    position,
                    {column: rows[position][column] for column in new_values},
                )
                for position, new_values in planned
            ]
            if txn is not None:
                txn._record_update(table, before_images)
        auto_txn = self._log_write(
            lambda txn_id: UpdateRecord(
                txn_id,
                table,
                tuple(
                    (position, dict(new_values))
                    for position, new_values in planned
                ),
            )
        )
        storage.apply_update(planned)
        self._finish_autocommit(auto_txn)
        if mvcc is not None:
            mvcc.note_update(table, before_images, len(planned))
        return len(planned)

    def _plan_update(
        self,
        storage: Table,
        predicate,
        assignments: dict,
        probe: Optional[tuple[str, Any]],
    ) -> list[tuple[int, dict]]:
        """Plan an UPDATE over ``storage``, probing its index when possible.

        Counts which access path ran (``point_updates`` / ``scan_updates``)
        and leaves it in :attr:`last_update_tier` for the connection's span.
        """
        positions = None
        if probe is not None:
            positions = storage.positions_for(*probe)
        if positions is None:
            self.scan_updates += 1
            self.last_update_tier = "update"
        else:
            self.point_updates += 1
            self.last_update_tier = "point-update"
        return storage.plan_update(predicate, assignments, positions)

    # -- durability and transactions --------------------------------------

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log, or ``None`` when durability is off."""
        return self._wal

    def enable_wal(
        self, log: Optional[WriteAheadLog] = None
    ) -> WriteAheadLog:
        """Attach a write-ahead log; every subsequent write is logged.

        If the database already holds data, a **checkpoint** is written
        first — the schema DDL, sharding DDL, and one bulk insert record per
        table, inside a single committed transaction — so the log alone
        reproduces the full database under :meth:`recover`, not just the
        post-enable delta.
        """
        if self._wal is not None:
            raise WalError("write-ahead log is already enabled")
        if self._txn is not None or (
            self._mvcc is not None and self._mvcc.has_contexts()
        ):
            raise TransactionError(
                "cannot enable the WAL inside an active transaction"
            )
        log = log if log is not None else WriteAheadLog()
        # An attached log may already hold committed history; new txn ids
        # must not collide with ids that already have commit records, or a
        # crash before our commit record would still replay the records
        # (mirrors Database.recover).
        self._next_txn_id = max(self._next_txn_id, log.max_txn_id() + 1)
        if self.tables:
            txn_id = self._allocate_txn_id()
            for name, table in self.tables.items():
                schema = table.schema
                log.append(
                    CreateTableRecord(
                        txn_id,
                        name,
                        tuple(schema.columns),
                        schema.primary_key,
                        tuple(schema.foreign_keys),
                    )
                )
                if isinstance(table, ShardedTable):
                    log.append(
                        ShardTableRecord(
                            txn_id, name, table.shard_key, table.shard_count
                        )
                    )
                if table.rows:
                    log.append(
                        InsertRecord(
                            txn_id,
                            name,
                            tuple(dict(row) for row in table.rows),
                        )
                    )
            log.append(CommitRecord(txn_id))
        self._wal = log
        return log

    @classmethod
    def recover(
        cls, log: WriteAheadLog, *, wal: bool = True, **kwargs: Any
    ) -> "Database":
        """Rebuild a database from the committed prefix of ``log``.

        Replays the records of committed transactions in log order —
        uncommitted tails (a crash mid-transaction, or mid-autocommit before
        the commit record landed) and aborted transactions are discarded, so
        recovery yields exactly the last committed state.  Inserts re-adopt
        the logged stored rows; updates re-apply their physical changes
        through :meth:`repro.db.table.Table.apply_update`, which on a
        sharded table rehomes shard-key moves exactly like the live path.

        ``kwargs`` are forwarded to the :class:`Database` constructor
        (``execution_mode=...`` etc.).  Unless ``wal=False``, the recovered
        database carries a fresh log seeded with the committed history, so
        it keeps logging (and can itself be recovered) seamlessly.
        """
        database = cls(**kwargs)
        committed = log.committed_records()
        for record in committed:
            if isinstance(record, CreateTableRecord):
                database.create_table(
                    record.name,
                    list(record.columns),
                    record.primary_key,
                    list(record.foreign_keys) or None,
                )
            elif isinstance(record, ShardTableRecord):
                database.shard_table(record.name, record.key, record.shards)
            elif isinstance(record, InsertRecord):
                storage = database.table(record.table)
                for row in record.rows:
                    storage.insert_stored(dict(row))
            elif isinstance(record, UpdateRecord):
                database.table(record.table).apply_update(
                    (position, dict(new_values))
                    for position, new_values in record.changes
                )
            # CommitRecords carry no data to apply.
        if wal:
            database._wal = WriteAheadLog(committed)
        database._next_txn_id = max(
            database._next_txn_id, log.max_txn_id() + 1
        )
        if database._mvcc is not None:
            # Replay applied everything directly to live storage with no
            # open contexts; only the commit-order counter is re-derived.
            database._mvcc.rederive_commit_timestamps(committed)
        return database

    def begin(self) -> Transaction:
        """Start an explicit transaction (single-writer: one at a time).

        Until :meth:`Transaction.commit`, every write — from any connection
        — belongs to the transaction: none of it is durable (the WAL commit
        record is the durability boundary) and all of it is undone by
        :meth:`Transaction.rollback`.  Beginning a second transaction while
        one is active raises :class:`TransactionError`.

        With MVCC enabled (:meth:`enable_mvcc`), transactions are
        snapshot-isolated instead: any number may run concurrently, each
        reading the database as of its start timestamp and buffering its
        writes privately; commit applies first-committer-wins and raises
        :class:`repro.db.mvcc.SerializationError` on a lost race.
        """
        if self._mvcc is not None:
            return self._mvcc.begin()
        if self._txn is not None:
            raise TransactionError(
                "a transaction is already active; the engine is "
                "single-writer (MVCC is future work)"
            )
        txn = Transaction(self, self._allocate_txn_id())
        self._txn = txn
        self.txn_stats.begun += 1
        return txn

    def snapshot(self) -> Snapshot:
        """A read-only consistent snapshot of the current committed state.

        Requires MVCC (:meth:`enable_mvcc`).  The snapshot keeps seeing the
        state as of its start timestamp no matter what commits afterwards;
        close it to release the version horizon for vacuum.
        """
        if self._mvcc is None:
            raise TransactionError(
                "snapshots require MVCC: call enable_mvcc() first"
            )
        return self._mvcc.snapshot()

    @contextmanager
    def using(self, context):
        """Run server-side work under ``context`` (an MVCC transaction or
        snapshot, or ``None`` for the latest committed state).

        Connections wrap every server exchange in this, so concurrent
        clients of one MVCC database each read and write under their own
        context even though the server executes them one at a time.
        """
        previous = self._txn
        self._txn = context
        try:
            yield self
        finally:
            self._txn = previous

    @property
    def in_transaction(self) -> bool:
        """True while an explicit transaction is active."""
        if self._mvcc is not None:
            return self._mvcc.active_transactions() > 0
        return self._txn is not None

    @property
    def mvcc_enabled(self) -> bool:
        """True once :meth:`enable_mvcc` has installed the version manager."""
        return self._mvcc is not None

    def enable_mvcc(self) -> MvccManager:
        """Switch the database to MVCC snapshot isolation (idempotent).

        From here on, :meth:`begin` returns snapshot-isolated
        :class:`repro.db.mvcc.MvccTransaction`\\ s (any number may run
        concurrently), :meth:`snapshot` opens read-only consistent views,
        and autocommit writes register version history so open snapshots
        keep reading the state they started from.
        """
        if self._mvcc is not None:
            return self._mvcc
        if self._txn is not None:
            raise TransactionError(
                "cannot enable MVCC inside an active transaction"
            )
        self._mvcc = MvccManager(self)
        return self._mvcc

    def vacuum(self) -> int:
        """Reclaim row versions older than the oldest open snapshot.

        Runs automatically whenever a transaction or snapshot finishes;
        call explicitly to reclaim after autocommit churn.  Returns the
        number of row versions reclaimed (0 with MVCC off).
        """
        if self._mvcc is None:
            return 0
        return self._mvcc.vacuum()

    def mvcc_stats(self) -> dict:
        """MVCC version/snapshot/conflict counters (``{"enabled": False}``
        when MVCC is off)."""
        if self._mvcc is None:
            return {"enabled": False}
        return self._mvcc.stats_dict()

    def transaction_stats(self) -> dict:
        """Transaction activity counters (WAL or not, MVCC or not)."""
        if self._mvcc is not None:
            active = self._mvcc.active_transactions()
        else:
            active = 1 if self._txn is not None else 0
        return {
            "begun": self.txn_stats.begun,
            "committed": self.txn_stats.committed,
            "rolled_back": self.txn_stats.rolled_back,
            "active": active,
        }

    # -- durability internals ---------------------------------------------

    def _allocate_txn_id(self) -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def _check_no_transaction(self, operation: str) -> None:
        if self._mvcc is not None and self._mvcc.has_contexts():
            raise TransactionError(
                f"{operation} is autocommit-only: finish the active "
                f"transactions and snapshots first"
            )
        if self._txn is not None:
            raise TransactionError(
                f"{operation} is autocommit-only: finish the active "
                f"transaction first"
            )

    def _log_write(self, make_record) -> Optional[int]:
        """Append a data record ahead of its apply (the WAL rule).

        Inside a transaction the record joins it (durable at COMMIT) and
        ``None`` is returned; standalone writes get their own transaction id
        whose commit record the caller appends *after* a successful apply
        via :meth:`_finish_autocommit`.
        """
        txn, wal = self._txn, self._wal
        if txn is not None:
            if wal is not None:
                wal.append(make_record(txn.txn_id))
            return None
        if wal is None:
            return None
        txn_id = self._allocate_txn_id()
        wal.append(make_record(txn_id))
        return txn_id

    def _log_ddl(self, make_record) -> Optional[int]:
        """Append a DDL record (always autocommit; WAL may be off)."""
        if self._wal is None:
            return None
        txn_id = self._allocate_txn_id()
        self._wal.append(make_record(txn_id))
        return txn_id

    def _finish_autocommit(self, txn_id: Optional[int]) -> None:
        if txn_id is not None:
            self._wal.append(CommitRecord(txn_id))

    def _commit(self, txn: Transaction) -> None:
        if not txn.active or txn is not self._txn:
            raise TransactionError("transaction is no longer active")
        txn.active = False
        self._txn = None
        if self._wal is not None:
            self._wal.append(CommitRecord(txn.txn_id))
        self.txn_stats.committed += 1

    def _rollback(self, txn: Transaction) -> None:
        if not txn.active or txn is not self._txn:
            raise TransactionError("transaction is no longer active")
        txn.active = False
        self._txn = None
        for kind, name, payload in reversed(txn._undo):
            storage = self.table(name)
            if kind == "insert":
                storage.truncate_to(payload)
            else:
                storage.apply_update(payload)
        if self._wal is not None:
            self._wal.append(AbortRecord(txn.txn_id))
        self.txn_stats.rolled_back += 1

    def table(self, name: str) -> Table:
        """Return the :class:`Table` called ``name``."""
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"no table named {name!r}; tables are {sorted(self.tables)}"
            ) from None

    def analyze(self) -> None:
        """Refresh catalog statistics from current table contents.

        Bumps :attr:`stats_generation`, so every cached prepared-statement
        estimate is recomputed on its next use.
        """
        self.statistics.refresh(self.tables)
        self.stats_generation += 1

    def set_table_statistics(self, table: str, stats: TableStatistics) -> None:
        """Install statistics explicitly (analytical/full-scale experiments)."""
        self.statistics.set_table_stats(table, stats)
        self.stats_generation += 1

    # -- statement preparation -------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse ``sql`` once and return the cached prepared statement.

        Statements are cached in an LRU keyed by the exact SQL text
        (capacity :attr:`statement_cache_size`); repeated preparation of the
        same text is a cache hit and costs two dict operations.  Both SELECT
        and UPDATE statements are supported — check
        :attr:`PreparedStatement.is_query` before choosing
        :meth:`PreparedStatement.execute` or
        :meth:`PreparedStatement.execute_update`.
        """
        tracer = self._tracer
        statement = self._statements.get(sql)
        if statement is not None:
            self._statements.move_to_end(sql)
            self.statement_cache.hits += 1
            if tracer is not None and tracer.enabled:
                tracer.note_prepare(sql, True)
            return statement
        self.statement_cache.misses += 1
        if tracer is not None and tracer.enabled:
            tracer.note_prepare(sql, False)
        if _UPDATE_RE.match(sql):
            statement = PreparedStatement(self, sql, update=parse_update(sql))
        else:
            statement = PreparedStatement(self, sql, plan=parse_sql(sql))
        self._statements[sql] = statement
        if len(self._statements) > self.statement_cache_size:
            self._statements.popitem(last=False)
            self.statement_cache.evictions += 1
        return statement

    def invalidate_statements(self) -> None:
        """Drop every cached prepared statement (DDL, explicit resets)."""
        if self._statements:
            self._statements.clear()
            self.statement_cache.invalidations += 1

    # -- query execution -------------------------------------------------

    def execute_sql(
        self, sql: str, params: Sequence[Any] = ()
    ) -> QueryResult:
        """Execute a SQL SELECT statement through the statement cache."""
        return self.prepare(sql).execute(params)

    def explain(self, sql: str, params: Sequence[Any] = ()):
        """EXPLAIN: the chosen plan, routing class, and predicted tier.

        Returns an :class:`repro.obs.explain.ExplainResult` — one line per
        operator with the optimizer's cardinality and server-time
        estimates; nothing is executed.
        """
        from repro.obs.explain import explain_statement

        return explain_statement(self, sql, params, analyze=False)

    def explain_analyze(self, sql: str, params: Sequence[Any] = ()):
        """EXPLAIN ANALYZE: execute ``sql`` and annotate each operator with
        the actual row count and modeled virtual time next to the
        estimates.  The root's actual row count is exactly the executed
        result size.
        """
        from repro.obs.explain import explain_statement

        return explain_statement(self, sql, params, analyze=True)

    def execute_plan(
        self, plan: algebra.PlanNode, sql: Optional[str] = None
    ) -> QueryResult:
        """Execute an algebra plan directly."""
        mvcc = self._mvcc
        executor = (
            self._executor if mvcc is None else mvcc.executor_for(self._txn)
        )
        rows = executor.execute(plan)
        width = self.statistics.estimate_row_width(plan)
        self.queries_executed += 1
        return QueryResult(rows=rows, row_width=width, sql=sql or to_sql(plan))

    def prepare_update(
        self, sql: str, params: Sequence[Any] = ()
    ) -> PreparedStatement:
        """Prepare an UPDATE text that ``params`` can execute.

        The one statement of the raw-SQL UPDATE error contract: text that
        does not parse, or parses as a SELECT, raises the historical
        ``unsupported UPDATE statement`` :class:`ValueError`; too few
        parameters raise ``missing parameter``.
        """
        try:
            statement = self.prepare(sql)
        except SQLSyntaxError as exc:
            raise ValueError(f"unsupported UPDATE statement: {sql!r}") from exc
        if statement.is_query:
            raise ValueError(f"unsupported UPDATE statement: {sql!r}")
        if statement.parameter_count > len(params):
            raise ValueError("missing parameter for UPDATE statement")
        return statement

    def execute_update_sql(self, sql: str, params: Sequence[Any] = ()) -> int:
        """Execute an UPDATE statement; returns the number of rows changed.

        The statement is parsed by :func:`repro.db.sqlparser.parse_update`
        (and cached like any prepared statement), so multiple SET
        assignments, expressions over the updated row (``set n = n + 1``),
        compound WHERE predicates, and positional parameters on both sides
        all work.
        """
        params = tuple(params)
        return self.prepare_update(sql, params).execute_update(params)

    # -- estimation ------------------------------------------------------

    def estimate_sql(self, sql: str, params: Sequence[Any] = ()) -> QueryEstimate:
        """Estimate cost-model inputs for a SQL statement.

        Routed through the statement cache: the estimate is computed once
        per prepared plan and revalidated only when statistics or the
        referenced tables change.  ``params`` are accepted for signature
        compatibility but do not affect the estimate — selectivity treats a
        parameter exactly like a bound literal.
        """
        return self.prepare(sql).estimate(params)

    def estimate_plan(self, plan: algebra.PlanNode) -> QueryEstimate:
        """Estimate cost-model inputs for an algebra plan."""
        cardinality = self.statistics.estimate_cardinality(plan)
        width = self.statistics.estimate_row_width(plan)
        first, last = self.statistics.estimate_server_time(
            plan, self.server_row_cost
        )
        return QueryEstimate(
            cardinality=cardinality,
            row_width=width,
            first_row_time=first,
            last_row_time=last,
        )

    # -- convenience -----------------------------------------------------

    @property
    def execution_mode(self) -> str:
        """The executor's tier selection: vectorized/compiled/interpreted."""
        return self._executor.mode

    def set_parallel(
        self, workers: Optional[int] = None, mode: str = "thread"
    ) -> None:
        """Configure parallel scatter-gather execution.

        ``mode`` is ``"thread"`` (shared-memory worker threads, the
        default), ``"process"`` (worker processes fed pickled
        ColumnBatches), or ``"serial"`` (the sequential baseline — no
        pool).  ``workers=None`` sizes the pool to the CPU count.  Takes
        effect immediately when sharding is already enabled, otherwise
        when the first table is sharded; reconfiguring shuts the previous
        pool down first.
        """
        from repro.db.parallel import PARALLEL_MODES, ParallelConfigError

        if mode not in PARALLEL_MODES:
            raise ParallelConfigError(
                f"unknown parallel mode {mode!r}; modes are {PARALLEL_MODES}"
            )
        self._parallel_config = (workers, mode)
        if self._router is not None:
            self._router.set_parallel(workers, mode)

    def close_parallel(self) -> None:
        """Shut down the scatter worker pool (recreated lazily on use)."""
        if self._router is not None:
            self._router.close()

    def execution_stats(self) -> dict:
        """Per-tier execution counters of the underlying executor.

        ``tiers`` counts which tier produced each query's rows (a
        vectorized attempt that fell back is counted under the tier that
        actually served it); ``vectorized`` details the vectorized tier's
        own fallback counters, including per-reason counts
        (``fallback_reasons``).  Under sharding, routed / shard-local /
        scatter executions run on per-shard executors — their counters are
        folded in here (one count per shard that executed), so tier and
        fallback observability survives sharding.  Surfaced as the
        ``execution`` view of ``Engine.metrics()``.
        """
        executor = self._executor
        tiers = dict(executor.tier_counts)
        vectorized = executor.vectorized_stats
        if self._router is not None:
            shard_tiers, shard_vectorized = self._router.execution_counters()
            merge_execution_counters(
                tiers, vectorized, shard_tiers, shard_vectorized
            )
        # A non-summable annotation rides above the counter merge: a census
        # of column encodings across the currently-built columnar views
        # (empty for never-scanned tables).
        encodings: dict[str, int] = {}
        for table in self.tables.values():
            # Sharded tables scan their partitions, not the aggregate view,
            # so their columnar state lives in the shard Tables.
            for view in (table, *getattr(table, "shards", ())):
                for encoding in view.column_encodings().values():
                    encodings[encoding] = encodings.get(encoding, 0) + 1
        vectorized["encodings"] = encodings
        return {
            "mode": executor.mode,
            "tiers": tiers,
            "vectorized": vectorized,
            "storage": self.storage_stats(),
        }

    def storage_stats(self) -> dict[str, int]:
        """Which write path ran: view maintenance and UPDATE access paths.

        ``patched_updates`` counts row changes patched into an
        already-built columnar view and ``column_reencodes`` single columns
        lazily re-encoded because a write did not fit (both summed over
        tables and shard partitions); ``point_updates`` / ``scan_updates``
        count UPDATE statements planned from a positional-index probe vs.
        a full scan.
        """
        patched = reencodes = 0
        for table in self.tables.values():
            for view in (table, *getattr(table, "shards", ())):
                patched += view.patched_updates
                reencodes += view.column_reencodes
        return {
            "patched_updates": patched,
            "column_reencodes": reencodes,
            "point_updates": self.point_updates,
            "scan_updates": self.scan_updates,
        }

    def sharding_stats(self) -> dict:
        """Shard-routing counters and per-table shard configuration.

        ``routed`` counts single-shard executions (point predicates on the
        shard key, including the prepared point-lookup fast path),
        ``local`` counts shard-local parallel executions (co-partitioned
        equi-joins and per-shard aggregates), ``scatter`` counts
        scatter-gather executions, and ``fallback`` counts plans over
        sharded tables that ran unrouted against the aggregate view.  Of
        the ``local`` aggregates, ``threaded_aggregates`` folded every
        shard's fused loop into one group state and ``merged_aggregates``
        merged per-shard partial rows.  All zeros (and an empty ``tables``
        map) when nothing is sharded.
        """
        router = self._router
        if router is None:
            return {
                **ShardingStats().as_dict(),
                "tables": {},
                "parallel": {"mode": "serial", "workers": 1, "scatters": 0},
            }
        stats = router.stats.as_dict()
        stats["tables"] = {
            name: table.shard_count
            for name, table in router.sharded_tables().items()
        }
        stats["parallel"] = router.parallel_stats()
        return stats

    def row_count(self, table: str) -> int:
        """Number of rows currently stored in ``table``."""
        return len(self.table(table))

    def reset_counters(self) -> None:
        """Reset the executed-query counter (per-experiment bookkeeping)."""
        self.queries_executed = 0
