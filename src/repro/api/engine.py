"""The unified client-facing engine facade.

Everything a database application (or an experiment harness) needs — the
in-memory :class:`~repro.db.database.Database`, a network profile, an ORM
:class:`~repro.orm.mapping.MappingRegistry`, and the COBRA cost parameters —
is wired in one place by :class:`EngineBuilder` and served by
:class:`Engine`:

    from repro.api import Engine

    engine = (
        Engine.builder()
        .orders_workload(num_orders=5_000, num_customers=500)
        .network("slow-remote")
        .build()
    )

    # DBAPI-style access over the simulated network:
    with engine.cursor() as cursor:
        cursor.execute("select * from orders where o_id = ?", (17,))
        row = cursor.fetchone()

    # ORM session, application runtime, and the optimizer:
    session = engine.session()
    runtime = engine.runtime()
    result = engine.optimize(program_source)

Engines are cheap veneers: the heavyweight state (tables, statistics, the
prepared-statement cache) lives in the database object, so multiple
connections, cursors, sessions, and optimizers created from one engine all
share the same server, exactly like clients of a real database.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Optional, Sequence, TYPE_CHECKING, Union

from repro.appsim.runtime import DEFAULT_STATEMENT_COST, AppRuntime
from repro.core.catalog import catalog_for_network, load_catalog
from repro.core.cost_model import CostParameters
from repro.core.heuristic import HeuristicOptimizer, HeuristicResult
from repro.core.optimizer import CobraOptimizer, OptimizationResult
from repro.db.database import Database, PreparedStatement, StatementCacheStats
from repro.db.sharding import ShardedTable
from repro.db.wal import WriteAheadLog
from repro.net.admission import AdmissionController
from repro.net.clock import VirtualClock
from repro.net.connection import ConnectionStats, Cursor, SimulatedConnection
from repro.net.faults import FaultPolicy, RetryPolicy
from repro.net.network import PRESETS, NetworkConditions
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.orm.mapping import MappingRegistry
from repro.orm.session import Session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.aio import AsyncEngine


class EngineConfigError(Exception):
    """Raised when an engine is configured inconsistently."""


class EngineClosedError(Exception):
    """Raised when a closed :class:`Engine` is asked for new resources."""


def _resolve_network(
    network: Union[str, NetworkConditions]
) -> NetworkConditions:
    if isinstance(network, NetworkConditions):
        return network
    preset = PRESETS.get(network)
    if preset is None:
        raise EngineConfigError(
            f"unknown network preset {network!r}; presets are "
            f"{sorted(PRESETS)}"
        )
    return preset


class EngineBuilder:
    """Fluent builder assembling an :class:`Engine` step by step.

    Every setter returns the builder, so configurations read as one chain.
    ``build()`` fills in anything left unset: a fresh empty database, the
    fast-local network, and cost parameters derived from the chosen network.
    """

    def __init__(self) -> None:
        self._database: Optional[Database] = None
        self._network: Union[str, NetworkConditions] = "fast-local"
        self._registry: Optional[MappingRegistry] = None
        self._parameters: Optional[CostParameters] = None
        self._amortization: float = 1.0
        self._statement_cost: float = DEFAULT_STATEMENT_COST
        self._region_rules: Optional[Sequence] = None
        self._fir_rules: Optional[Sequence] = None
        self._shards: Optional[tuple[int, Optional[dict[str, str]]]] = None
        self._wal: Union[bool, WriteAheadLog] = False
        self._wal_flush: tuple[float, float] = (0.0, 0.0)
        self._faults: Optional[FaultPolicy] = None
        self._retries: Optional[RetryPolicy] = None
        self._mvcc = False
        self._admission: Optional[AdmissionController] = None
        self._tracing: Optional[dict] = None
        self._slow_query_threshold: Optional[float] = None
        self._parallel: Optional[tuple[Optional[int], str]] = None

    # -- data sources ----------------------------------------------------

    def database(self, database: Database) -> "EngineBuilder":
        """Use an existing database instance."""
        self._database = database
        return self

    def orders_workload(
        self,
        num_orders: int = 2_000,
        num_customers: Optional[int] = None,
        seed: int = 7,
    ) -> "EngineBuilder":
        """Build the TPC-DS-like orders/customer workload database.

        Also installs the orders ORM mapping registry unless one was set
        explicitly.
        """
        from repro.workloads import tpcds

        if num_customers is None:
            num_customers = max(num_orders // 10, 10)
        self._database = tpcds.build_orders_database(
            num_orders, num_customers, seed
        )
        if self._registry is None:
            self._registry = tpcds.build_registry()
        return self

    def wilos_workload(self, scale: int = 2_000) -> "EngineBuilder":
        """Build the Wilos-like project-management workload database."""
        from repro.workloads.wilos import build_wilos_database

        self._database = build_wilos_database(scale=scale)
        return self

    # -- environment -----------------------------------------------------

    def network(
        self, network: Union[str, NetworkConditions]
    ) -> "EngineBuilder":
        """Network conditions: a preset name or explicit parameters."""
        self._network = network
        return self

    def registry(self, registry: MappingRegistry) -> "EngineBuilder":
        """ORM mapping registry for sessions and region analysis."""
        self._registry = registry
        return self

    def cost_parameters(self, parameters: CostParameters) -> "EngineBuilder":
        """Explicit COBRA cost parameters (overrides network derivation)."""
        self._parameters = parameters
        return self

    def catalog_file(self, path: Union[str, Path]) -> "EngineBuilder":
        """Load cost parameters from a cost catalog JSON file."""
        self._parameters = load_catalog(path)
        return self

    def amortization(self, factor: float) -> "EngineBuilder":
        """Amortization factor AF applied to the cost parameters."""
        self._amortization = factor
        return self

    def statement_cost(self, seconds: float) -> "EngineBuilder":
        """Per-imperative-statement cost CZ used by runtimes."""
        self._statement_cost = seconds
        return self

    def shards(
        self, count: int, key_by: Optional[dict[str, str]] = None
    ) -> "EngineBuilder":
        """Shard the database horizontally over ``count`` hash partitions.

        ``key_by`` maps table name to shard-key column; tables it omits
        stay unsharded.  Without ``key_by``, every table with a primary key
        is sharded on that key.  Applied after the workload database is
        built, so it composes with :meth:`orders_workload` /
        :meth:`wilos_workload` / :meth:`database`::

            engine = (
                Engine.builder()
                .orders_workload(num_orders=100_000)
                .shards(8, key_by={
                    "orders": "o_customer_sk",
                    "customer": "c_customer_sk",
                })
                .build()
            )
        """
        if count < 1:
            raise EngineConfigError(
                f"shard count must be at least 1, got {count}"
            )
        self._shards = (count, dict(key_by) if key_by is not None else None)
        return self

    def wal(
        self,
        log: Union[bool, WriteAheadLog] = True,
        *,
        flush_seconds: float = 0.0,
        group_window: float = 0.0,
    ) -> "EngineBuilder":
        """Enable write-ahead logging on the built database.

        Applied after the workload is built and sharded, so the log starts
        with a self-contained checkpoint (schema + sharding DDL + bulk
        inserts) and ``Database.recover`` reproduces the full engine state.
        Pass an existing :class:`~repro.db.wal.WriteAheadLog` to append to
        it instead of starting fresh.

        ``flush_seconds`` gives each COMMIT a virtual flush cost;
        ``group_window`` enables group commit — commits within the window
        of the last flush piggyback on it for free
        (:meth:`repro.db.wal.WriteAheadLog.commit_flush`).
        """
        self._wal = log
        self._wal_flush = (flush_seconds, group_window)
        return self

    def mvcc(self, enabled: bool = True) -> "EngineBuilder":
        """Enable MVCC snapshot reads and first-committer-wins writes.

        Transactions write new row versions instead of mutating in place;
        every statement — inside or outside a transaction — reads a
        consistent snapshot as-of its context's start timestamp
        (:mod:`repro.db.mvcc`).
        """
        self._mvcc = enabled
        return self

    def admission(
        self,
        limit: int,
        *,
        per_connection: Optional[int] = None,
        queue_timeout: Optional[float] = None,
        priority_slots: int = 0,
    ) -> "EngineBuilder":
        """Bound server concurrency with an admission controller.

        At most ``limit`` requests execute concurrently; excess arrivals
        wait in a FIFO queue in virtual time (charged to their latency),
        optionally bounded by ``queue_timeout`` and shaped by
        ``per_connection`` caps and ``priority_slots``
        (:mod:`repro.net.admission`).
        """
        self._admission = AdmissionController(
            limit,
            per_connection=per_connection,
            queue_timeout=queue_timeout,
            priority_slots=priority_slots,
        )
        return self

    def tracing(
        self,
        enabled: bool = True,
        *,
        max_traces: int = 256,
        slow_query_threshold: Optional[float] = None,
    ) -> "EngineBuilder":
        """Record a structured :class:`repro.obs.trace.QueryTrace` per request.

        Every statement executed through a connection gets one trace whose
        nested spans (parse, plan, route, network round trip, execute, WAL
        flush, admission wait, fault retries) decompose exactly the virtual
        latency the statement was charged.  ``slow_query_threshold`` (virtual
        seconds) additionally copies traces slower than the threshold into
        the tracer's slow-query log.  Tracing off (the default) costs one
        attribute check per request.
        """
        self._tracing = {
            "enabled": enabled,
            "max_traces": max_traces,
        }
        self._slow_query_threshold = slow_query_threshold
        return self

    def slow_query_threshold(self, seconds: float) -> "EngineBuilder":
        """Log traces charged more than ``seconds`` of virtual latency.

        Implies :meth:`tracing` if it was not requested explicitly.
        """
        if self._tracing is None:
            self._tracing = {"enabled": True, "max_traces": 256}
        self._slow_query_threshold = seconds
        return self

    def faults(self, policy: FaultPolicy) -> "EngineBuilder":
        """Inject deterministic network faults on every connection.

        Unless :meth:`retries` is also called, a default
        :class:`~repro.net.faults.RetryPolicy` is installed alongside, so
        retryable faults converge instead of surfacing immediately.
        """
        self._faults = policy
        return self

    def fault_rate(self, rate: float, seed: int = 0) -> "EngineBuilder":
        """Shorthand for :meth:`faults` with a fresh seeded policy."""
        return self.faults(FaultPolicy(rate, seed=seed))

    def retries(self, policy: RetryPolicy) -> "EngineBuilder":
        """Retry policy applied by connections to injected faults."""
        self._retries = policy
        return self

    def parallel(
        self, workers: Optional[int] = None, mode: str = "thread"
    ) -> "EngineBuilder":
        """Parallel scatter-gather over shards on a worker pool.

        ``mode`` selects ``"thread"`` (shared-memory worker threads, the
        default), ``"process"`` (worker processes fed pickled column
        lists, answering with pickled ColumnBatches), or ``"serial"``
        (the sequential baseline).  ``workers=None`` sizes the pool to the
        CPU count.  Composes with :meth:`shards`::

            engine = (
                Engine.builder()
                .orders_workload(num_orders=100_000)
                .shards(8)
                .parallel(workers=8)
                .build()
            )
        """
        self._parallel = (workers, mode)
        return self

    def region_rules(self, rules: Sequence) -> "EngineBuilder":
        """Override the optimizer's region transformation rules."""
        self._region_rules = rules
        return self

    def fir_rules(self, rules: Sequence) -> "EngineBuilder":
        """Override the optimizer's F-IR transformation rules."""
        self._fir_rules = rules
        return self

    # -- assembly --------------------------------------------------------

    def build(self) -> "Engine":
        """Assemble the engine, deriving every unset component."""
        network = _resolve_network(self._network)
        parameters = self._parameters
        if parameters is None:
            parameters = catalog_for_network(network)
        if self._amortization != 1.0:
            parameters = parameters.with_amortization(self._amortization)
        database = self._database if self._database is not None else Database()
        if self._shards is not None:
            count, key_by = self._shards
            if key_by is None:
                key_by = {
                    name: table.schema.primary_key
                    for name, table in database.tables.items()
                    if table.schema.primary_key is not None
                    and not isinstance(table, ShardedTable)
                }
            for table_name, key in key_by.items():
                database.shard_table(table_name, key, count)
        if self._parallel is not None:
            workers, parallel_mode = self._parallel
            database.set_parallel(workers, parallel_mode)
        # Identity test: an empty WriteAheadLog is falsy (it has __len__)
        # but attaching one must still enable durability.
        if self._wal is not False and database.wal is None:
            database.enable_wal(
                self._wal if isinstance(self._wal, WriteAheadLog) else None
            )
        if database.wal is not None:
            flush_seconds, group_window = self._wal_flush
            if flush_seconds or group_window:
                database.wal.flush_seconds = flush_seconds
                database.wal.group_window = group_window
        if self._mvcc and not database.mvcc_enabled:
            database.enable_mvcc()
        retries = self._retries
        if retries is None and self._faults is not None:
            retries = RetryPolicy()
        metrics = MetricsRegistry()
        tracer = None
        if self._tracing is not None:
            tracer = Tracer(
                enabled=self._tracing["enabled"],
                max_traces=self._tracing["max_traces"],
                slow_query_threshold=self._slow_query_threshold,
            )
            tracer.bind_registry(metrics)
            database._tracer = tracer
        return Engine(
            database=database,
            network=network,
            parameters=parameters,
            registry=self._registry,
            statement_cost=self._statement_cost,
            region_rules=self._region_rules,
            fir_rules=self._fir_rules,
            faults=self._faults,
            retries=retries,
            admission=self._admission,
            tracer=tracer,
            metrics=metrics,
        )


class Engine:
    """One database application environment: server, network, ORM, optimizer.

    Construct via :meth:`Engine.builder` (or :func:`repro.api.connect`).
    The engine hands out connections, cursors, ORM sessions, application
    runtimes, and optimizers that all share the same underlying database —
    including its engine-level prepared-statement cache.
    """

    def __init__(
        self,
        database: Database,
        network: NetworkConditions,
        parameters: CostParameters,
        registry: Optional[MappingRegistry] = None,
        statement_cost: float = DEFAULT_STATEMENT_COST,
        region_rules: Optional[Sequence] = None,
        fir_rules: Optional[Sequence] = None,
        faults: Optional[FaultPolicy] = None,
        retries: Optional[RetryPolicy] = None,
        admission: Optional[AdmissionController] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.database = database
        self.network = network
        self.parameters = parameters
        self.registry = registry
        self.statement_cost = statement_cost
        #: fault/retry policies shared by every connection this engine
        #: hands out (None = reliable network, no retry layer).
        self.faults = faults
        self.retries = retries
        #: server-side admission controller shared by every connection
        #: (None = infinite server capacity).
        self.admission = admission
        #: per-request structured tracer (None unless the builder asked for
        #: tracing); shared by every connection this engine hands out.
        self.tracer = tracer
        #: metrics registry; subsystem counters are registered as live
        #: views so ``metrics().as_dict()`` is always current.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._register_subsystem_views()
        self._region_rules = region_rules
        self._fir_rules = fir_rules
        self._connection: Optional[SimulatedConnection] = None
        #: open connections handed out by this engine (closed on close());
        #: individually-closed ones are pruned on the next connect, their
        #: counters folded into _retired_stats so the network view stays
        #: complete.
        self._connections: list[SimulatedConnection] = []
        self._retired_stats = ConnectionStats()
        self._total_connections = 0
        self._closed = False

    def _register_subsystem_views(self) -> None:
        """Register live subsystem counter views on the metrics registry.

        Views are zero-cost until rendered: each one re-reads the
        subsystem's own counters when ``metrics().as_dict()`` is built.  A
        subsystem that is not configured (WAL, MVCC, admission, faults,
        tracing) has no view.
        """
        database = self.database
        cache = database.statement_cache
        views = {
            "statement_cache": lambda: {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "invalidations": cache.invalidations,
            },
            "network": self._network_stats,
            "database": lambda: {
                "queries_executed": database.queries_executed,
                "transactions": database.transaction_stats(),
            },
            "execution": database.execution_stats,
            "sharding": database.sharding_stats,
        }
        if self.faults is not None:
            views["faults"] = self.faults.stats.as_dict
        registry = self._metrics
        for name, view in views.items():
            if name not in registry.views:
                registry.register_view(name, view)
        wal = database.wal
        if wal is not None and "wal" not in registry.views:
            wal.register_metrics(registry)
        mvcc = database._mvcc
        if mvcc is not None and "mvcc" not in registry.views:
            mvcc.register_metrics(registry)
        if self.admission is not None and "admission" not in registry.views:
            self.admission.register_metrics(registry)

    def _network_stats(self) -> dict:
        """The ``network`` view: every handed-out connection's counters
        summed, closed and pruned connections included."""
        total = replace(self._retired_stats)
        for connection in self._connections:
            total.add(connection.stats)
        return {"connections": self._total_connections, **asdict(total)}

    @staticmethod
    def builder() -> EngineBuilder:
        """A fresh :class:`EngineBuilder`."""
        return EngineBuilder()

    # -- connections and cursors -----------------------------------------

    @property
    def connection(self) -> SimulatedConnection:
        """The engine's shared default connection (created lazily)."""
        if self._connection is None:
            self._connection = self.connect()
        return self._connection

    def connect(self, clock: Optional["VirtualClock"] = None) -> SimulatedConnection:
        """A new connection with its own virtual clock and statistics.

        Pass ``clock`` to share a clock between connections (the async
        engine does this so in-flight requests of different connections can
        overlap).  Connections are tracked and closed by
        :meth:`Engine.close`.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        self._prune_closed()
        connection = SimulatedConnection(
            self.database,
            self.network,
            clock=clock,
            faults=self.faults,
            retries=self.retries,
            admission=self.admission,
            tracer=self.tracer,
        )
        self._connections.append(connection)
        self._total_connections += 1
        return connection

    def _prune_closed(self) -> None:
        """Fold individually-closed connections into the retired totals.

        Keeps a long-lived engine bounded under connection churn (one
        short-lived connection per request) without losing their counters
        from the ``network`` metrics view.
        """
        live: list[SimulatedConnection] = []
        for connection in self._connections:
            if connection.closed:
                self._retired_stats.add(connection.stats)
            else:
                live.append(connection)
        self._connections = live

    def cursor(self) -> Cursor:
        """A DBAPI-style cursor over the shared default connection."""
        return self.connection.cursor()

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare a statement in the engine-level statement cache."""
        if self._closed:
            raise EngineClosedError("engine is closed")
        return self.database.prepare(sql)

    def aio(self, clock: Optional["VirtualClock"] = None) -> "AsyncEngine":
        """An :class:`repro.api.aio.AsyncEngine` over this engine.

        Connections handed out by the returned async engine share one
        virtual clock, so concurrent clients pay max-latency rather than
        sum-latency; the server state (tables, statement cache) remains this
        engine's.
        """
        from repro.api.aio import AsyncEngine

        return AsyncEngine(self, clock=clock)

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Close the engine and every connection it handed out (idempotent).

        The database itself (tables, statistics, statement cache) is left
        intact — engines are cheap veneers and several may serve one
        database over its lifetime.
        """
        self._closed = True
        for connection in self._connections:
            connection.close()
        # Worker threads/processes are the one engine-scoped resource the
        # database holds; the pool re-creates them lazily if another engine
        # keeps issuing parallel scatters against the same database.
        self.database.close_parallel()

    def __enter__(self) -> "Engine":
        if self._closed:
            raise EngineClosedError("engine is closed")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- statistics ------------------------------------------------------

    @property
    def statement_cache_stats(self) -> StatementCacheStats:
        """Hit/miss/eviction counters of the statement cache."""
        return self.database.statement_cache

    def metrics(self) -> MetricsRegistry:
        """The engine's metrics registry (instruments + subsystem views).

        The one counter surface: every configured subsystem registers its
        counters as a live view at engine construction
        (``metrics().views[name]()``), and the tracer (when enabled) mirrors
        per-kind latency histograms into it.  Rendered by
        ``repro.cli --metrics``.
        """
        return self._metrics

    # -- ORM and application runtime -------------------------------------

    def session(
        self, connection: Optional[SimulatedConnection] = None
    ) -> Session:
        """An ORM session over ``connection`` (default: a new connection)."""
        registry = self.registry if self.registry is not None else MappingRegistry()
        return Session(registry, connection or self.connect())

    def runtime(self) -> AppRuntime:
        """A fresh application runtime wired to this engine's components."""
        return AppRuntime(
            database=self.database,
            network=self.network,
            registry=self.registry,
            statement_cost=self.statement_cost,
        )

    # -- optimization ----------------------------------------------------

    def optimizer(self, **overrides: Any) -> CobraOptimizer:
        """A COBRA optimizer over this engine's database and parameters.

        Keyword overrides are passed through to
        :class:`~repro.core.optimizer.CobraOptimizer` (e.g. ``max_passes``).
        """
        kwargs: dict[str, Any] = {
            "registry": self.registry,
        }
        if self._region_rules is not None:
            kwargs["region_rules"] = self._region_rules
        if self._fir_rules is not None:
            kwargs["fir_rules"] = self._fir_rules
        kwargs.update(overrides)
        return CobraOptimizer(self.database, self.parameters, **kwargs)

    def optimize(
        self, source: str, function_name: Optional[str] = None
    ) -> OptimizationResult:
        """One-shot cost-based optimization of a program source."""
        return self.optimizer().optimize(source, function_name=function_name)

    def heuristic_rewrite(
        self, source: str, function_name: Optional[str] = None
    ) -> HeuristicResult:
        """The always-push-to-SQL heuristic rewrite (no cost-based choice)."""
        heuristic = HeuristicOptimizer(
            self.database,
            self.parameters,
            registry=self.registry,
            fir_rules=self._fir_rules,
        )
        return heuristic.rewrite(source, function_name=function_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Engine tables={sorted(self.database.tables)} "
            f"network={self.network.name!r}>"
        )


def connect(
    database: Optional[Database] = None,
    network: Union[str, NetworkConditions] = "fast-local",
    registry: Optional[MappingRegistry] = None,
    parameters: Optional[CostParameters] = None,
    amortization: float = 1.0,
) -> Engine:
    """One-call engine construction (the classic DBAPI entry-point shape)."""
    builder = Engine.builder().network(network).amortization(amortization)
    if database is not None:
        builder.database(database)
    if registry is not None:
        builder.registry(registry)
    if parameters is not None:
        builder.cost_parameters(parameters)
    return builder.build()
