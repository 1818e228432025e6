"""Horizontal hash sharding: partitioned tables and scatter-gather execution.

This module makes partitioned storage a first-class layer of the engine:

* :class:`ShardedTable` splits one logical table into N :class:`~repro.db.
  table.Table` partitions, hash-routed on a declared **shard key**.  It
  subclasses ``Table``, so the aggregate view (rows in global insertion
  order, positional indexes, columnar view, distinct counts) behaves
  exactly like an unsharded table — unrouted plans execute identically on
  all three tiers — while the shard partitions *share the stored row
  dicts* with the aggregate view, so in-place updates are visible
  everywhere without copying.

* :class:`ShardRouter` serves a plan over sharded tables in one of four
  ways:

  - **routed** (every tier) — a point-equality predicate on the shard key
    (a literal or a :class:`~repro.db.expressions.ParameterSlot` resolved
    from the prepared statement's buffer at execution time) pins the whole
    plan to one shard; the plan runs unchanged against a table mapping
    where the sharded table is replaced by that one partition.  The pin
    requires the shard-key equality to be the *first* predicate applied to
    the scanned rows, so the engine's strict error semantics survive:
    unsharded execution short-circuits every other shard's row on that
    same conjunct, and a predicate error on a pruned row could not have
    fired anyway.
  - **scatter / local-join** (vectorized tier) — a plan over one sharded
    table, or a co-partitioned equi-join on the shard keys, runs every
    shard's fused loop (:meth:`~repro.db.vectorized.VectorizedExecutor.
    try_codegen_rows`) and concatenates the rows in shard order; a root
    ``Sort`` runs over the concatenation.  All or nothing: one shard that
    declines or errors sends the statement to the aggregate view.
  - **local-aggregate** (vectorized tier) — a ``[Project →] Aggregate →
    Select* → Scan`` subtree threads **one** group state through every
    shard's fused loop and emits once
    (:class:`~repro.db.vectorized.AggregateCarry`: no partial rows); the
    ``Select`` / ``Project`` / ``Sort`` spine above it runs over the
    emitted rows.  Any shard's decline or error sends the statement to
    the aggregate view.
  - **the aggregate view** — the unrouted plan, correct by construction.
    A statement takes it on a row tier, when any shard declines or errors
    at run time, and when the router cannot prove the plan distributable
    (``Limit``, non-co-partitioned joins of two sharded tables, operators
    over sharded subtrees it cannot reason about).  Each is counted as a
    ``fallback``.

Ordering contract: routed and aggregate-view executions are row-identical
to the unsharded engine *including order*, floats bit for bit — so the
compiled and interpreted tiers, which route or fall back, always are.  A
scatter concatenates in shard order and a threaded aggregate emits groups
in first-encounter order over the shards in order, so the vectorized tier
matches unsharded execution as a multiset (exactly, after a ``Sort``
whose keys are total); a threaded ``sum`` over floats adds in shard order,
not insertion order, and may differ in the last ulp.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from itertools import chain
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.db import algebra
from repro.db.executor import (
    Executor,
    _equi_join_columns,
    _flatten_and,
    _sort_key,
)
from repro.db.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    ParameterSlot,
)
from repro.db.parallel import (
    ShardExecutorPool,
    fold_worker_counters,
    pack_table,
)
from repro.db.schema import TableSchema
from repro.db.table import Row, Table
from repro.db.vectorized import (
    VECTORIZED_COUNTER_KEYS,
    VECTORIZED_REASON_KEYS,
    AggregateCarry,
    batch_output_rows,
    unpack_batch,
    zero_vectorized_stats,
)


class ShardingError(Exception):
    """Raised for invalid sharding configurations."""


def shard_index(value: Any, shard_count: int) -> int:
    """The shard a key value routes to: ``hash(value) % shard_count``.

    ``None`` and unhashable values route to shard 0 — deterministically, so
    insertion and lookup always agree.  Python guarantees equal builtin
    values hash equally (``hash(2) == hash(2.0)``), so a predicate comparing
    across numeric types still routes to the shard holding the matches.
    """
    if value is None:
        return 0
    try:
        return hash(value) % shard_count
    except TypeError:
        return 0


class ShardedTable(Table):
    """A logical table hash-partitioned over N internal :class:`Table` shards.

    Presents the full ``Table`` surface (``insert`` / ``insert_many`` /
    ``update_rows`` / ``scan`` / ``lookup_pk`` / ``columns`` /
    ``position_index`` / ``version`` / ...) through the inherited aggregate
    view, which keeps rows in **global insertion order** — so any plan
    executed against the sharded table *without* routing is bit-identical
    to the unsharded engine.  Each stored row dict is additionally filed
    (by reference) in the shard partition its shard-key value hashes to;
    the partitions are plain ``Table`` objects the router substitutes into
    per-shard executor table mappings.  An update patches the partitions
    owning the changed rows in place; only a shard-key move (and
    ``truncate_to``) re-homes rows.
    """

    def __init__(
        self, schema: TableSchema, shard_key: str, shard_count: int
    ) -> None:
        if shard_count < 1:
            raise ShardingError(
                f"shard count must be at least 1, got {shard_count}"
            )
        schema.column(shard_key)  # raises SchemaError for unknown columns
        super().__init__(schema)
        self.shard_key = shard_key
        self.shard_count = shard_count
        #: the shard partitions; plain Tables sharing this table's schema
        #: and (by reference) its stored row dicts.
        self.shards: list[Table] = [Table(schema) for _ in range(shard_count)]
        #: lazy aggregate position -> (shard, local position) map; see
        #: :meth:`_row_placement`.
        self._placement: Optional[list[tuple[int, int]]] = None

    # -- routing ---------------------------------------------------------

    def shard_index(self, value: Any) -> int:
        """The shard partition index a shard-key ``value`` routes to."""
        return shard_index(value, self.shard_count)

    def shard_for(self, value: Any) -> Table:
        """The shard partition a shard-key ``value`` routes to."""
        return self.shards[shard_index(value, self.shard_count)]

    # -- mutation --------------------------------------------------------

    def insert_stored(self, row: Row) -> Row:
        stored = super().insert_stored(row)
        index = self.shard_index(stored[self.shard_key])
        shard = self.shards[index]
        if self._placement is not None:
            self._placement.append((index, len(shard.rows)))
        shard.adopt_row(stored)
        return stored

    def clear(self) -> None:
        super().clear()
        for shard in self.shards:
            shard.clear()
        self._placement = None

    def apply_update(self, changes) -> int:
        # The shard partitions share the stored dicts, so the update itself
        # is visible there immediately; their views (and, if the shard key
        # moved, their row placement) need repair.  A primary-key move is
        # an ordinary update: keys are hints with no index of their own.
        # This hook covers every update route identically — live
        # ``update_rows``, transaction-rollback before-images, MVCC commit
        # and WAL replay — so a replayed shard-key update rehomes the row
        # exactly like the live path did.
        changes = list(changes)
        key = self.shard_key
        rehome = any(key in new_values for _, new_values in changes)
        updated = super().apply_update(changes)
        if rehome:
            self._rehome()
        elif updated:
            # Only the partitions owning a changed row are touched: each
            # patches its own views at the row's shard-local position.
            placement = self._row_placement()
            by_shard: dict[int, list[tuple[int, dict]]] = {}
            for position, new_values in changes:
                index, local = placement[position]
                by_shard.setdefault(index, []).append((local, new_values))
            for index, local_changes in by_shard.items():
                self.shards[index].apply_update(local_changes)
        return updated

    def truncate_to(self, length: int) -> int:
        removed = super().truncate_to(length)
        if removed:
            self._rehome()
        return removed

    def _row_placement(self) -> list[tuple[int, int]]:
        """Aggregate position -> ``(shard index, shard-local position)``.

        Every partition keeps its rows in aggregate order, so a row's local
        position is the number of earlier rows homed in the same shard.
        Built on the first update, extended by inserts, dropped by a
        re-home; read-only tables never build it.
        """
        placement = self._placement
        if placement is None:
            key = self.shard_key
            counts = [0] * self.shard_count
            placement = self._placement = []
            for row in self.rows:
                index = self.shard_index(row[key])
                placement.append((index, counts[index]))
                counts[index] += 1
        return placement

    def _rehome(self) -> None:
        """Refile every row into the partition its shard key hashes to."""
        key = self.shard_key
        homes: list[list[Row]] = [[] for _ in self.shards]
        for row in self.rows:
            homes[self.shard_index(row[key])].append(row)
        for shard, rows in zip(self.shards, homes):
            shard.clear()
            shard.adopt_rows(rows)
        self._placement = None

    # -- introspection ---------------------------------------------------

    def shard_row_counts(self) -> list[int]:
        """Rows stored per shard partition (balance diagnostics)."""
        return [len(shard) for shard in self.shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedTable({self.schema.name!r}, key={self.shard_key!r}, "
            f"shards={self.shard_count}, rows={len(self.rows)})"
        )


# -- routing classification ----------------------------------------------


class ShardingStats:
    """Counters for the router's execution classes; ``threaded_aggregates``
    is the aggregate share of ``local``."""

    __slots__ = (
        "routed",
        "local",
        "scatter",
        "fallback",
        "threaded_aggregates",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Route:
    """A cached routing decision for one plan object.

    ``node`` is what every shard runs (the plan below a root ``Sort`` for
    a scatter, the ``[Project →] Aggregate`` subtree for a local
    aggregate), and ``post`` the row-list transforms, compiled once at
    classification time, that the gather applies to the concatenated or
    emitted rows: the root ``Sort`` of a scatter, or the ``Select`` /
    ``Project`` / ``Sort`` spine above a local aggregate.
    """

    __slots__ = ("kind", "names", "table", "getter", "node", "post")

    def __init__(
        self,
        kind: str,
        *,
        names: frozenset[str] = frozenset(),
        table: Optional[ShardedTable] = None,
        getter: Optional[Callable[[], Any]] = None,
        node: Optional[algebra.PlanNode] = None,
        post: tuple = (),
    ) -> None:
        self.kind = kind
        self.names = names
        self.table = table
        self.getter = getter
        self.node = node
        self.post = post


#: Routing decisions cached for plans that do not touch sharded tables.
_NOT_SHARDED = _Route("not-sharded")
#: Sharded plans the router cannot distribute (unrouted execution).
_FALLBACK = _Route("fallback")


class ShardRouter:
    """Classifies and executes plans over sharded tables.

    Owned by the :class:`~repro.db.database.Database`; the main
    :class:`~repro.db.executor.Executor` consults :meth:`try_execute` first
    and keeps its normal (aggregate-view) path for everything the router
    declines.  Per-shard execution runs on cached shard executors — one
    per (substituted tables, shard index) — in the same tier mode as the
    main executor: routed plans on every tier, scatters and local
    aggregates on the vectorized tier's fused loops.
    """

    #: Cached routing decisions kept before LRU eviction.
    ROUTE_CACHE_LIMIT = 256

    def __init__(
        self,
        tables: Mapping[str, Table],
        mode: str,
    ) -> None:
        self._tables = tables
        self._mode = mode
        #: plan -> _Route, LRU-evicted (plans embed query literals).
        self._routes: OrderedDict[algebra.PlanNode, _Route] = OrderedDict()
        #: (frozenset of substituted names, shard index) -> Executor.
        self._executors: dict[tuple[frozenset[str], int], Executor] = {}
        self.stats = ShardingStats()
        #: tier/vectorized counters of shard executors dropped by
        #: invalidate(), folded so execution_counters() stays complete.
        self._retired_tiers: dict[str, int] = {
            "vectorized": 0,
            "compiled": 0,
            "interpreted": 0,
        }
        self._retired_vectorized: dict[str, Any] = zero_vectorized_stats()
        #: per-call markers for tracing / EXPLAIN: how the most recent
        #: try_execute dispatched (``None`` for not-sharded plans), which
        #: tier served it, the vectorized fallback reason if any, and the
        #: concrete execution path ("codegen" / "kernel" / row tier name).
        self.last_route: Optional[dict] = None
        self.last_tier: Optional[str] = None
        self.last_fallback_reason: Optional[str] = None
        self.last_execution_path: Optional[str] = None
        #: worker pool for parallel scatters (``None`` = serial baseline)
        #: and the most recent parallel scatter's timing/shipping record.
        self._pool: Optional[ShardExecutorPool] = None
        self.last_parallel: Optional[dict] = None

    # -- parallel configuration ------------------------------------------

    def set_parallel(
        self, workers: Optional[int] = None, mode: str = "thread"
    ) -> None:
        """(Re)configure the scatter worker pool; ``serial`` disables it.

        Reconfiguration shuts the previous pool down first; its cumulative
        stats are dropped with it (``parallel_stats`` reflects the live
        pool, like ``execution_stats`` reflects live executors).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if mode != "serial":
            self._pool = ShardExecutorPool(workers, mode)

    def parallel_stats(self) -> dict:
        """Pool stats for ``stats()["sharding"]["parallel"]``."""
        if self._pool is None:
            return {"mode": "serial", "workers": 1, "scatters": 0}
        return self._pool.stats()

    def close(self) -> None:
        """Shut down the worker pool, if one is configured."""
        if self._pool is not None:
            self._pool.close()

    # -- public API ------------------------------------------------------

    def try_execute(self, plan: algebra.PlanNode) -> Optional[list[Row]]:
        """Execute ``plan`` through sharding, or return ``None`` to decline.

        ``None`` means the caller should run the plan unrouted against the
        aggregate views (counted as a fallback when the plan touches a
        sharded table at all, including when a shard declined).
        """
        route = self._route(plan)
        kind = route.kind
        if kind == "not-sharded":
            self.last_route = None
            return None
        if kind == "routed":
            index = route.table.shard_index(route.getter())
            executor = self._shard_executor(route.names, index)
            rows = executor.execute(plan)
            self.stats.routed += 1
            self.last_route = {"kind": "routed", "shards": (index,)}
            self.last_tier = executor.last_tier
            self.last_fallback_reason = executor.last_fallback_reason
            self.last_execution_path = executor.last_execution_path
            return rows
        if kind != "fallback":
            count = self._shard_count(route.names)
            self.last_parallel = None
            if kind == "local-aggregate":
                rows = self._thread_aggregate(route.node, route.names, count)
            else:
                rows = self._scatter(route.node, route.names, count)
            if rows is not None:
                for transform in route.post:
                    rows = transform(rows)
                if kind == "scatter":
                    self.stats.scatter += 1
                else:
                    self.stats.local += 1
                if kind == "local-aggregate":
                    self.stats.threaded_aggregates += 1
                self.last_route = {"kind": kind, "shards": tuple(range(count))}
                if self.last_parallel is not None:
                    self.last_route["parallel"] = self.last_parallel
                return rows
        self.stats.fallback += 1
        self.last_route = {"kind": "fallback", "shards": None}
        return None

    def classify(self, plan: algebra.PlanNode) -> dict:
        """Routing class for ``plan`` without executing it (EXPLAIN path).

        Returns ``{"kind": ..., "shards": ...}`` where ``shards`` is the
        tuple of shard indices the plan would touch — a single index for a
        routed point access (when the shard-key value is already bound),
        every shard for scatter/local plans, and ``None`` when the shard
        set is unknown before execution.
        """
        route = self._route(plan)
        kind = route.kind
        if kind in ("not-sharded", "fallback"):
            return {"kind": kind, "shards": None}
        if kind == "routed":
            try:
                shards = (route.table.shard_index(route.getter()),)
            except Exception:  # shard-key value not computable yet
                shards = None
            return {"kind": kind, "shards": shards}
        count = self._shard_count(route.names)
        return {"kind": kind, "shards": tuple(range(count))}

    def invalidate(self) -> None:
        """Drop cached routes and shard executors (call on DDL).

        The dropped executors' tier/vectorized counters are folded into
        retired totals first, so :meth:`execution_counters` never loses
        history to DDL.
        """
        tiers, vectorized = self._sum_live_counters()
        merge_execution_counters(
            self._retired_tiers, self._retired_vectorized, tiers, vectorized
        )
        self._routes.clear()
        self._executors.clear()

    def execution_counters(self) -> tuple[dict[str, int], dict[str, Any]]:
        """Summed (tier counts, vectorized stats) of every shard executor.

        Routed / shard-local / scatter executions run on per-shard
        executors whose counters would otherwise be invisible; the owning
        database folds these into ``execution_stats()`` so per-tier and
        fallback-reason observability survives sharding.
        """
        tiers, vectorized = self._sum_live_counters()
        merge_execution_counters(
            tiers, vectorized, self._retired_tiers, self._retired_vectorized
        )
        return tiers, vectorized

    def _sum_live_counters(self) -> tuple[dict[str, int], dict[str, Any]]:
        tiers = {"vectorized": 0, "compiled": 0, "interpreted": 0}
        vectorized = zero_vectorized_stats()
        for executor in self._executors.values():
            merge_execution_counters(
                tiers, vectorized, executor.tier_counts, executor.vectorized_stats
            )
        return tiers, vectorized

    def sharded_tables(self) -> dict[str, ShardedTable]:
        """Name -> sharded table, for every sharded table in the mapping."""
        return {
            name: table
            for name, table in self._tables.items()
            if isinstance(table, ShardedTable)
        }

    # -- execution -------------------------------------------------------

    def _shard_count(self, names: frozenset[str]) -> int:
        for name in names:
            return self._tables[name].shard_count  # type: ignore[union-attr]
        raise ShardingError("no sharded tables to scatter over")

    def _shard_executor(self, names: frozenset[str], index: int) -> Executor:
        key = (names, index)
        executor = self._executors.get(key)
        if executor is None:
            overlay = {
                name: (
                    table.shards[index]
                    if name in names and isinstance(table, ShardedTable)
                    else table
                )
                for name, table in self._tables.items()
            }
            executor = Executor(overlay, mode=self._mode)
            self._executors[key] = executor
        return executor

    def _scatter(
        self, node: algebra.PlanNode, names: frozenset[str], count: int
    ) -> Optional[list[Row]]:
        """Run ``node``'s fused loop on every shard, concatenated in shard
        order, or ``None`` when any shard declines or errors (the whole
        statement then runs on the aggregate view)."""
        executors = [self._shard_executor(names, i) for i in range(count)]
        if self._pool is not None and count > 1:
            results = self._parallel_scatter(node, names, executors)
        else:
            results = []
            for executor in executors:
                rows = executor._vectorized.try_codegen_rows(node)
                if rows is None:
                    return None
                results.append(rows)
        if any(rows is None for rows in results):
            return None
        self._mark_codegen(executors, node)
        return list(chain.from_iterable(results))

    def _thread_aggregate(
        self, node: algebra.PlanNode, names: frozenset[str], count: int
    ) -> Optional[list[Row]]:
        """A shard-local aggregate with no partial rows.

        Shard 0's fused loop, shard 1's, … fold into **one** group state
        (keyed by group *values*), which the last shard's call emits once,
        outer ``Project`` and ``avg`` included; groups come out in
        first-encounter order over the shards in order.  A decline or
        error on any shard drops the state and returns ``None``.
        """
        executors = [self._shard_executor(names, i) for i in range(count)]
        carry = AggregateCarry()
        rows = None
        for index, executor in enumerate(executors):
            rows = executor._vectorized.try_codegen_rows(
                node, carry, emit=index == count - 1
            )
            if rows is None:
                return None
        self._mark_codegen(executors, node)
        return rows

    def _mark_codegen(
        self, executors: Sequence[Executor], node: algebra.PlanNode
    ) -> None:
        """Count one codegen execution per shard and set the call markers."""
        for executor in executors:
            executor._vectorized.count_codegen(node)
            executor.tier_counts["vectorized"] += 1
        self.last_tier = "vectorized"
        self.last_fallback_reason = None
        self.last_execution_path = executors[0]._vectorized.last_path

    # -- parallel scatter ------------------------------------------------

    def _parallel_scatter(
        self,
        node: algebra.PlanNode,
        names: frozenset[str],
        executors: Sequence[Executor],
    ) -> list[Optional[list[Row]]]:
        """Each shard's :meth:`_scatter` call, run concurrently on the pool.

        Returns every shard's rows (``None`` for a decline) in shard order.
        Process mode ships the plan and packed column payloads to worker
        processes and degrades to the thread path when the plan or a
        payload refuses to pickle or the pool breaks.
        """
        pool = self._pool
        assert pool is not None
        if pool.mode == "process":
            results = self._process_scatter(node, names, executors)
            if results is not None:
                return results
            pool.degraded += 1
        tasks = [
            (lambda vectorized=executor._vectorized: vectorized.try_codegen_rows(node))
            for executor in executors
        ]
        results, seconds = pool.run_tasks(tasks)
        self._note_parallel(seconds)
        return results

    def _process_scatter(
        self,
        node: algebra.PlanNode,
        names: frozenset[str],
        executors: Sequence[Executor],
    ) -> Optional[list[Optional[list[Row]]]]:
        """Process-pool scatter; ``None`` degrades to the thread path.

        Shard data ships as column lists with their layout facts, keyed
        by ``(table, shard, version)`` — workers cache them, so steady
        state ships only the (cached) plan blob.  Results come back as
        pickled ColumnBatches; the workers' vectorized counter deltas fold
        into the parent-side shard executors so ``execution_stats()``
        stays complete.
        """
        pool = self._pool
        assert pool is not None
        try:
            plan_blob = pickle.dumps(node, pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        scans = sorted({scan.table for scan in algebra.find_scans(node)})
        requests = []
        for index in range(len(executors)):
            keys = []
            for name in scans:
                table = self._tables[name]
                if name in names and isinstance(table, ShardedTable):
                    keys.append(
                        ((name, index, table.shards[index].version), None)
                    )
                else:
                    keys.append(((name, -1, table.version), None))
            requests.append({"plan": plan_blob, "tables": keys})

        def provide(key: tuple) -> tuple:
            name, shard, _version = key
            table = self._tables[name]
            if shard >= 0:
                table = table.shards[shard]  # type: ignore[union-attr]
            return pack_table(table)

        sent_before = pool.pickle_bytes_sent
        received_before = pool.pickle_bytes_received
        try:
            responses, seconds = pool.run_process_requests(requests, provide)
        except (pickle.PicklingError, BrokenProcessPool):
            return None
        self._note_parallel(
            seconds,
            pickle_bytes={
                "sent": pool.pickle_bytes_sent - sent_before,
                "received": pool.pickle_bytes_received - received_before,
            },
        )
        results: list[Optional[list[Row]]] = []
        for executor, response in zip(executors, responses):
            fold_worker_counters(executor, response["vectorized"])
            packed = response["result"]
            results.append(
                None if packed is None else batch_output_rows(unpack_batch(packed))
            )
        return results

    def _note_parallel(
        self, seconds: list[float], pickle_bytes: Optional[dict] = None
    ) -> None:
        """Book one pool scatter's per-shard wall times (tracing reads
        ``last_parallel``)."""
        pool = self._pool
        assert pool is not None
        pool.note_scatter(seconds)
        self.last_parallel = {
            "mode": pool.mode,
            "workers": pool.workers,
            "shards": len(seconds),
            "shard_seconds": tuple(seconds),
            "elapsed": max(seconds, default=0.0),
        }
        if pickle_bytes is not None:
            self.last_parallel["pickle_bytes"] = pickle_bytes

    # -- classification --------------------------------------------------

    def _route(self, plan: algebra.PlanNode) -> _Route:
        try:
            cached = self._routes.get(plan)
        except TypeError:  # unhashable literal buried in the plan
            return self._classify(plan)
        if cached is None:
            cached = self._classify(plan)
            if len(self._routes) >= self.ROUTE_CACHE_LIMIT:
                self._routes.popitem(last=False)
            self._routes[plan] = cached
        else:
            self._routes.move_to_end(plan)
        return cached

    def _classify(self, plan: algebra.PlanNode) -> _Route:
        sharded = [
            (scan, table)
            for scan in algebra.find_scans(plan)
            if isinstance(table := self._tables.get(scan.table), ShardedTable)
        ]
        if not sharded:
            return _NOT_SHARDED
        routed = self._point_route(plan, sharded)
        if routed is not None:
            return routed
        if self._mode != "vectorized":
            return _FALLBACK  # the row tiers have no fused loops to scatter
        # A local aggregate: peel the Select/Project/Sort spine above an
        # Aggregate; it re-applies over the emitted rows at the gather.
        spine: list[algebra.PlanNode] = []
        node: algebra.PlanNode = plan
        while isinstance(node, (algebra.Sort, algebra.Project, algebra.Select)):
            spine.append(node)
            node = node.child
        if isinstance(node, algebra.Aggregate):
            child_class = self._distribute(node.child)
            if child_class is None or not child_class[1]:
                return _FALLBACK
            # SQL aggregates parse as Project(Aggregate), which one fused
            # pipeline covers; only the spine above it stays a transform.
            if spine and isinstance(spine[-1], algebra.Project):
                node = spine.pop()
            return _Route(
                "local-aggregate",
                names=child_class[1],
                node=node,
                post=tuple(self._compile_spine(spine)),
            )
        # Scatter / co-partitioned join: Select and Project distribute into
        # the per-shard plans; only a root Sort runs at the gather.
        node = plan
        post: tuple = ()
        if isinstance(node, algebra.Sort):
            post = (self._compile_sort(node),)
            node = node.child
        distributed = self._distribute(node)
        if distributed is None or not distributed[1]:
            return _FALLBACK
        names = distributed[1]
        return _Route(
            "local-join" if len(names) > 1 else "scatter",
            names=names,
            node=node,
            post=post,
        )

    def _compile_spine(
        self, spine: list[algebra.PlanNode]
    ) -> list[Callable[[list[Row]], list[Row]]]:
        """Row-list transforms for a Select/Project/Sort spine, in
        application (innermost-first) order.

        Expressions compile exactly as the compiled tier compiles them
        over materialized aggregate output rows, so spine semantics
        (including errors) cannot diverge.
        """
        transforms: list[Callable[[list[Row]], list[Row]]] = []
        for node in reversed(spine):
            if isinstance(node, algebra.Select):
                conjuncts = [
                    conjunct.compile()
                    for conjunct in _flatten_and(node.predicate)
                ]

                def filter_rows(rows, conjuncts=conjuncts):
                    for evaluate in conjuncts:
                        rows = [row for row in rows if evaluate(row)]
                    return rows

                transforms.append(filter_rows)
            elif isinstance(node, algebra.Project):
                outputs = [
                    (output.name, output.expression.compile())
                    for output in node.outputs
                ]

                def project_rows(rows, outputs=outputs):
                    return [
                        {name: evaluate(row) for name, evaluate in outputs}
                        for row in rows
                    ]

                transforms.append(project_rows)
            else:
                transforms.append(self._compile_sort(node))
        return transforms

    def _compile_sort(
        self, sort: algebra.Sort
    ) -> Callable[[list[Row]], list[Row]]:
        """A root ``Sort`` applied at the gather node (stable, like the tiers)."""
        keys = [(key.column.compile(), key.ascending) for key in sort.keys]

        def sort_rows(rows: list[Row]) -> list[Row]:
            for evaluate, ascending in reversed(keys):
                rows.sort(
                    key=lambda row: _sort_key(evaluate(row)),
                    reverse=not ascending,
                )
            return rows

        return sort_rows

    # -- point routing ---------------------------------------------------

    def _point_route(
        self,
        plan: algebra.PlanNode,
        sharded: list[tuple[algebra.Scan, ShardedTable]],
    ) -> Optional[_Route]:
        """Detect a shard-key point predicate that pins the plan to one shard.

        The pin must preserve not only the result rows but the engine's
        strict error semantics (a predicate error raised on *any* scanned
        row surfaces identically on every tier).  That holds exactly when
        the shard-key equality ``shard_key = <literal | parameter slot>``
        is the **first predicate applied** to the scanned rows: unsharded
        execution then short-circuits every other shard's row on that same
        conjunct, so later predicates only ever see the pinned shard's
        rows.  Concretely: walking up from the sharded table's (only)
        scan, every node below the innermost ``Select`` must be
        error-transparent and row-preserving (``Sort``, equi-/cross-joins
        — their key evaluation never raises user-visible errors), and that
        Select's first flattened conjunct must be the shard-key equality.
        Operators *above* the Select are unconstrained — shard partitions
        preserve global relative row order, so the filtered stream is
        identical either way.  The comparison value is read at execution
        time (parameter slots resolve from the statement buffer), so one
        prepared template routes each execution to the right shard.
        """
        scanned_names = [scan.table for scan, _ in sharded]
        for scan, table in sharded:
            if scanned_names.count(scan.table) > 1:
                continue  # self-join of a sharded table: no single pin
            path = _path_to(plan, scan)
            if path is None:
                continue
            for node in reversed(path[:-1]):  # just above the scan, upward
                if isinstance(node, algebra.Select):
                    # Binding is judged in the Select's input subtree: the
                    # conjunct evaluates on those rows, so renames or
                    # same-named columns above the Select are irrelevant.
                    getter = self._shard_key_equality(
                        _flatten_and(node.predicate)[0],
                        scan,
                        table,
                        node.child,
                    )
                    if getter is not None:
                        return _Route(
                            "routed",
                            names=frozenset({scan.table}),
                            table=table,
                            getter=getter,
                        )
                    break  # inner predicates run first: no outer pin
                if isinstance(node, algebra.Sort):
                    continue
                if isinstance(node, algebra.Join) and (
                    node.condition is None
                    or _equi_join_columns(node.condition) is not None
                ):
                    continue  # key getters swallow per-row errors
                break  # Project/Aggregate/Limit/theta join: unsound
        return None

    def _shard_key_equality(
        self,
        conjunct: Expression,
        scan: algebra.Scan,
        table: ShardedTable,
        context: algebra.PlanNode,
    ) -> Optional[Callable[[], Any]]:
        """A value getter when ``conjunct`` is ``shard_key = const-like``.

        ``context`` is the subtree producing the rows the conjunct
        evaluates on (the Select's child, or a join side).
        """
        if not isinstance(conjunct, BinaryOp) or conjunct.op not in {"=", "=="}:
            return None
        for column, value in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if isinstance(column, ColumnRef) and isinstance(
                value, (Literal, ParameterSlot)
            ):
                break
        else:
            return None
        if column.name != table.shard_key:
            return None
        if not self._binds_to_scan(column, scan, context):
            return None
        if isinstance(value, Literal):
            constant = value.value
            return lambda: constant
        slots, index = value.slots, value.index
        return lambda: slots[index]

    def _binds_to_scan(
        self, column: ColumnRef, scan: algebra.Scan, plan: algebra.PlanNode
    ) -> bool:
        """True when ``column`` statically resolves to ``scan``'s table."""
        alias = scan.effective_alias
        if column.qualifier is not None:
            return column.qualifier == alias
        # Bare reference: only safe when nothing else in the plan exposes
        # the same column name — another table's schema, or a Project /
        # Aggregate output renamed to it — since the row layout would make
        # the reference ambiguous or bind it elsewhere.
        for other in algebra.find_scans(plan):
            if other is scan:
                continue
            other_table = self._tables.get(other.table)
            if other_table is None:
                continue
            if other_table.schema.has_column(column.name):
                return False
        return not _renames_column(plan, column.name)

    # -- distributability ------------------------------------------------

    def _distribute(
        self, plan: algebra.PlanNode
    ) -> Optional[tuple[str, frozenset[str]]]:
        """Classify a subtree for per-shard execution.

        Returns ``("whole", frozenset())`` when the subtree references no
        sharded tables (it may be executed intact inside every shard's
        overlay — broadcast), ``("sharded", names)`` when substituting the
        shards of ``names`` (all with equal shard counts) makes the union
        of per-shard results equal the global result, or ``None`` when the
        subtree cannot be distributed (the plan then falls back to the
        aggregate view).
        """
        if isinstance(plan, algebra.Scan):
            table = self._tables.get(plan.table)
            if isinstance(table, ShardedTable):
                return ("sharded", frozenset({plan.table}))
            return ("whole", frozenset())
        if isinstance(plan, (algebra.Select, algebra.Project)):
            return self._distribute(plan.child)
        if isinstance(plan, algebra.Join):
            return self._distribute_join(plan)
        # Aggregate / Sort / Limit inside the tree: only safe when the
        # subtree is entirely unsharded (broadcast).
        if not any(
            isinstance(self._tables.get(scan.table), ShardedTable)
            for scan in algebra.find_scans(plan)
        ):
            return ("whole", frozenset())
        return None

    def _distribute_join(
        self, plan: algebra.Join
    ) -> Optional[tuple[str, frozenset[str]]]:
        left = self._distribute(plan.left)
        right = self._distribute(plan.right)
        if left is None or right is None:
            return None
        left_names, right_names = left[1], right[1]
        if not left_names and not right_names:
            return ("whole", frozenset())
        if not left_names or not right_names:
            # One sharded side, one broadcast side: an inner join (any
            # condition, including theta and cross) distributes over the
            # union of the sharded side's partitions.
            return ("sharded", left_names | right_names)
        # Both sides sharded: only co-partitioned equi-joins on the shard
        # keys keep per-shard execution equivalent.
        condition = plan.condition
        if not isinstance(condition, BinaryOp) or condition.op not in {
            "=",
            "==",
        }:
            return None
        lhs, rhs = condition.left, condition.right
        if not isinstance(lhs, ColumnRef) or not isinstance(rhs, ColumnRef):
            return None
        names = left_names | right_names
        counts = {
            self._tables[name].shard_count  # type: ignore[union-attr]
            for name in names
        }
        if len(counts) != 1:
            return None
        for probe, build in ((lhs, rhs), (rhs, lhs)):
            if self._binds_to_shard_key(
                probe, plan.left, left_names
            ) and self._binds_to_shard_key(build, plan.right, right_names):
                return ("sharded", names)
        return None

    def _binds_to_shard_key(
        self,
        column: ColumnRef,
        side: algebra.PlanNode,
        names: frozenset[str],
    ) -> bool:
        """True when ``column`` is the shard key of a sharded scan in ``side``."""
        for scan in algebra.find_scans(side):
            if scan.table not in names:
                continue
            table = self._tables.get(scan.table)
            if not isinstance(table, ShardedTable):
                continue
            if column.name != table.shard_key:
                continue
            path = _path_to(side, scan)
            if path is None or not _row_preserving_path(path[1:]):
                # A Project/Aggregate between the side's root and the scan
                # could rename another column to the shard key's name.
                continue
            if self._binds_to_scan(column, scan, side):
                return True
        return False


def _path_to(
    plan: algebra.PlanNode, target: algebra.PlanNode
) -> Optional[list[algebra.PlanNode]]:
    """The root-to-``target`` node path in ``plan`` (identity match)."""
    if plan is target:
        return [plan]
    for child in plan.children():
        path = _path_to(child, target)
        if path is not None:
            return [plan] + path
    return None


def _row_preserving_path(nodes: Sequence[algebra.PlanNode]) -> bool:
    """True when every node keeps the scanned rows' set and column names.

    ``Select`` / ``Join`` / ``Sort`` never drop a matching row or rename a
    column; ``Limit`` picks *different* rows when the scan is restricted to
    one shard, and ``Project`` / ``Aggregate`` can rename another column to
    the shard key's name — either would make a shard-key binding unsound.
    """
    return all(
        isinstance(node, (algebra.Select, algebra.Join, algebra.Sort, algebra.Scan))
        for node in nodes
    )


def merge_execution_counters(
    tiers_into: dict[str, int],
    vectorized_into: dict[str, Any],
    tiers_from: Mapping[str, int],
    vectorized_from: Mapping[str, Any],
) -> None:
    """Fold one (tier counts, vectorized stats) pair into another, in place.

    Shared by the router's live/retired folding and the database's
    ``execution_stats()`` aggregation, so a new vectorized counter only
    needs to be added in one place.
    """
    for tier, count in tiers_from.items():
        tiers_into[tier] = tiers_into.get(tier, 0) + count
    for key in VECTORIZED_COUNTER_KEYS:
        vectorized_into[key] += vectorized_from.get(key, 0)
    for key in VECTORIZED_REASON_KEYS:
        reasons = vectorized_into[key]
        for reason, count in vectorized_from[key].items():
            reasons[reason] = reasons.get(reason, 0) + count


def _renames_column(plan: algebra.PlanNode, name: str) -> bool:
    """True when any Project/Aggregate output in ``plan`` is named ``name``."""
    for node in algebra.walk(plan):
        if isinstance(node, algebra.Project):
            if any(output.name == name for output in node.outputs):
                return True
        elif isinstance(node, algebra.Aggregate):
            if any(spec.name == name for spec in node.aggregates):
                return True
    return False
