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

* :class:`ShardRouter` classifies plans over sharded tables into three
  execution classes:

  - **single-shard routed** — a point-equality predicate on the shard key
    (a literal or a :class:`~repro.db.expressions.ParameterSlot` resolved
    from the prepared statement's buffer at execution time) pins the whole
    plan to one shard; the plan runs unchanged against a table mapping
    where the sharded table is replaced by that one partition.  The pin
    requires the shard-key equality to be the *first* predicate applied to
    the scanned rows, so the engine's strict error semantics survive:
    unsharded execution short-circuits every other shard's row on that
    same conjunct, and a predicate error on a pruned row could not have
    fired anyway.
  - **shard-local parallel** — co-partitioned equi-joins on the shard key
    run join-per-shard; grouped/scalar aggregations over a distributable
    child run per shard.  Serially on the vectorized tier, a
    ``[Project →] Aggregate → Select* → Scan`` subtree threads **one**
    group state through every shard's fused loop and emits once
    (:class:`~repro.db.vectorized.AggregateCarry`: no partial rows).
    Everything else — the row tiers, the batch kernels, aggregates over
    joins, the pool modes, and any shard that declines or errors — runs
    per-shard *partial* aggregates (avg decomposed into sum + count)
    merged at the gather node with the same
    :data:`~repro.db.vectorized.AGGREGATE_MERGERS` kernels the vectorized
    tier accumulates with.  Both gathers emit groups in first-encounter
    order over the shards in order.
  - **scatter-gather** — everything else distributable: the plan executes
    per shard and the results are concatenated at a gather node, in shard
    order.  On the vectorized tier the gather ships
    :class:`~repro.db.vectorized.ColumnBatch` objects (selection vectors
    composed per shard) and materializes rows only once, at the root; the
    row tiers concatenate the per-shard row lists.

  Plans the router cannot prove distributable (``Limit``, non-co-partitioned
  joins of two sharded tables, operators over sharded subtrees it cannot
  reason about) **fall back** to unrouted execution over the aggregate
  view, which is always correct — sharding can restrict where a plan runs,
  never what it returns.

Ordering contract: routed and fallback executions are row-identical to the
unsharded engine *including order*.  Scatter-gather and partial-aggregate
merges concatenate in shard order, so their output is deterministic and
identical across the three tiers, and matches unsharded execution up to
row order (exactly, after a ``Sort`` whose keys are total; up to ties
otherwise — the usual distributed-engine contract).  Floating-point sums
may likewise differ in the last ulp because per-shard partials reassociate
the addition (and a threaded state adds in shard order, not insertion
order).
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from itertools import chain
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.db import algebra
from repro.db.executor import (
    ExecutionError,
    Executor,
    _equi_join_columns,
    _flatten_and,
    _sort_key,
    sort_key_function,
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
    AGGREGATE_MERGERS,
    VECTORIZED_COUNTER_KEYS,
    VECTORIZED_REASON_KEYS,
    AggregateCarry,
    batch_output_rows,
    finalize_avg,
    gather_batches,
    merge_sorted_runs,
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
    """Counters for the router's execution classes, and for which gather
    a shard-local aggregate took (``threaded_aggregates`` +
    ``merged_aggregates`` is the aggregate share of ``local``)."""

    __slots__ = (
        "routed",
        "local",
        "scatter",
        "fallback",
        "threaded_aggregates",
        "merged_aggregates",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Route:
    """A cached routing decision for one plan object.

    ``post`` is a tuple of row-list transforms (compiled once at
    classification time) the gather node applies after collecting the
    per-shard results — the root ``Sort`` of a scatter, or the
    ``Select`` / ``Project`` / ``Sort`` spine sitting above a partially
    aggregated node.  A ``local-aggregate`` route also carries the
    ``[Project →] Aggregate`` subtree as ``node``, for the threaded gather
    that runs it as one fused pipeline per shard, and ``node_post``, the
    part of ``post`` above that subtree.

    ``merge`` is the parallel-gather alternative to a root-``Sort``
    ``post``: the *original* plan (Sort included, so each shard returns a
    sorted run) plus a compiled total-order merge key, letting the gather
    k-way merge the runs instead of re-sorting the concatenation.  Only
    set for scatter/local-join routes whose root is a ``Sort``.
    """

    __slots__ = (
        "kind",
        "names",
        "table",
        "getter",
        "node",
        "post",
        "node_post",
        "partial",
        "merge",
    )

    def __init__(
        self,
        kind: str,
        *,
        names: frozenset[str] = frozenset(),
        table: Optional[ShardedTable] = None,
        getter: Optional[Callable[[], Any]] = None,
        node: Optional[algebra.PlanNode] = None,
        post: tuple = (),
        node_post: tuple = (),
        partial: Optional["_PartialAggregate"] = None,
        merge: Optional[tuple] = None,
    ) -> None:
        self.kind = kind
        self.names = names
        self.table = table
        self.getter = getter
        self.node = node
        self.post = post
        self.node_post = node_post
        self.partial = partial
        self.merge = merge


def _apply(transforms: tuple, rows: list[Row]) -> list[Row]:
    """Run a route's gather-side transforms (``post`` / ``node_post``)."""
    for transform in transforms:
        rows = transform(rows)
    return rows


#: Routing decisions cached for plans that do not touch sharded tables.
_NOT_SHARDED = _Route("not-sharded")
#: Sharded plans the router cannot distribute (unrouted execution).
_FALLBACK = _Route("fallback")


class _PartialAggregate:
    """A grouped/scalar aggregate decomposed for per-shard execution.

    ``plan`` is the per-shard partial plan (avg specs replaced by sum +
    count partials); ``group_keys`` are the group columns' output keys
    (:func:`repro.db.algebra.output_layout`), which the partial and the
    merged rows share; ``emitters`` describe how the gather node merges the
    per-shard partial rows and finalizes each original output column.
    """

    __slots__ = ("plan", "group_keys", "emitters")

    def __init__(
        self,
        aggregate: algebra.Aggregate,
        table_columns: Callable[[str], Sequence[str]],
    ) -> None:
        layout = algebra.output_layout(aggregate, table_columns)
        self.group_keys = [entry.key for entry in layout[: len(aggregate.group_by)]]
        partial_specs: list[algebra.AggregateSpec] = []
        #: (output name, "avg" | primitive function, partial column names)
        self.emitters: list[tuple[str, str, tuple[str, ...]]] = []
        for position, spec in enumerate(aggregate.aggregates):
            if spec.function == "avg":
                sum_name = f"__shard_sum_{position}"
                count_name = f"__shard_count_{position}"
                partial_specs.append(
                    algebra.AggregateSpec("sum", spec.argument, sum_name)
                )
                partial_specs.append(
                    algebra.AggregateSpec("count", spec.argument, count_name)
                )
                self.emitters.append((spec.name, "avg", (sum_name, count_name)))
            else:
                partial_specs.append(spec)
                self.emitters.append((spec.name, spec.function, (spec.name,)))
        self.plan = algebra.Aggregate(
            aggregate.child, aggregate.group_by, tuple(partial_specs)
        )

    def merge(self, shard_rows: Iterable[Row]) -> list[Row]:
        """Merge per-shard partial rows into final output rows.

        Groups are keyed by their group-by values (first-encounter order
        across the concatenated shard outputs); each partial column is
        folded with its :data:`AGGREGATE_MERGERS` kernel, and ``avg`` is
        finalized from its sum + count pair.  With no group keys, every
        shard contributes exactly one partial row and the merge emits
        exactly one output row, like the unsharded scalar aggregate.
        """
        group_keys = self.group_keys
        states: "OrderedDict[tuple, Row]" = OrderedDict()
        for row in shard_rows:
            key = tuple(row[name] for name in group_keys)
            state = states.get(key)
            if state is None:
                states[key] = dict(row)
                continue
            for name, function, partials in self.emitters:
                if function == "avg":
                    sum_name, count_name = partials
                    state[sum_name] = AGGREGATE_MERGERS["sum"](
                        state[sum_name], row[sum_name]
                    )
                    state[count_name] = AGGREGATE_MERGERS["count"](
                        state[count_name], row[count_name]
                    )
                else:
                    merge = AGGREGATE_MERGERS[function]
                    state[name] = merge(state[name], row[name])
        out_rows: list[Row] = []
        for key, state in states.items():
            out: Row = dict(zip(group_keys, key))
            for name, function, partials in self.emitters:
                if function == "avg":
                    out[name] = finalize_avg(
                        state[partials[0]], state[partials[1]]
                    )
                else:
                    out[name] = state[name]
            out_rows.append(out)
        return out_rows


class ShardRouter:
    """Classifies and executes plans over sharded tables.

    Owned by the :class:`~repro.db.database.Database`; the main
    :class:`~repro.db.executor.Executor` consults :meth:`try_execute` first
    and keeps its normal (aggregate-view) path for everything the router
    declines.  Per-shard execution runs on cached shard executors — one
    per (substituted tables, shard index) — in the same tier mode as the
    main executor, so all three tiers participate in routing.
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
        sharded table at all).
        """
        route = self._route(plan)
        kind = route.kind
        if kind == "not-sharded":
            self.last_route = None
            return None
        if kind == "fallback":
            self.stats.fallback += 1
            self.last_route = {"kind": "fallback", "shards": None}
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
        count = self._shard_count(route.names)
        self.last_route = {"kind": kind, "shards": tuple(range(count))}
        self.last_parallel = None
        parallel = self._pool is not None and count > 1
        if kind == "local-aggregate":
            rows = None
            if not parallel and self._mode == "vectorized":
                rows = self._thread_aggregate(route, count)
            if rows is not None:
                self.stats.threaded_aggregates += 1
                self.last_route["gather"] = "threaded state"
            else:
                partial = route.partial
                if parallel:
                    shard_rows: Iterable[Row] = chain.from_iterable(
                        shard
                        for _, shard in self._parallel_scatter(
                            partial.plan, route.names, count
                        )
                    )
                else:
                    shard_rows = self._scatter(
                        partial.plan, route.names, count
                    )
                rows = _apply(route.post, partial.merge(shard_rows))
                self.stats.merged_aggregates += 1
                self.last_route["gather"] = "merged partials"
            self.stats.local += 1
            if self.last_parallel is not None:
                self.last_route["parallel"] = self.last_parallel
            return rows
        # scatter (single sharded table) / local (co-partitioned join)
        if parallel and route.merge is not None:
            # Each shard executes the original plan, Sort included, and
            # returns a sorted run; the gather k-way merges the runs
            # (stable by shard index) instead of re-sorting the concat.
            merge_node, merge_key = route.merge
            indexed = self._parallel_scatter(merge_node, route.names, count)
            rows = merge_sorted_runs(
                [shard_rows for _, shard_rows in indexed], merge_key
            )
        elif parallel:
            indexed = self._parallel_scatter(route.node, route.names, count)
            gathered: list[Row] = []
            for _, shard_rows in indexed:
                gathered.extend(shard_rows)
            rows = _apply(route.post, gathered)
        else:
            rows = _apply(
                route.post, self._scatter(route.node, route.names, count)
            )
        if kind == "local-join":
            self.stats.local += 1
        else:
            self.stats.scatter += 1
        if self.last_parallel is not None:
            self.last_route["parallel"] = self.last_parallel
        return rows

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
    ) -> list[Row]:
        """Execute ``node`` on every shard and gather, in shard order."""
        executors = [self._shard_executor(names, i) for i in range(count)]
        if self._mode == "vectorized":
            rows = self._scatter_codegen(executors, node)
            if rows is not None:
                self._mark_codegen(executors, node)
                return rows
            rows = self._scatter_batches(executors, node)
            if rows is not None:
                self.last_tier = "vectorized"
                self.last_fallback_reason = None
                self.last_execution_path = "kernel"
                return rows
        # The row tiers (the vectorized tier's row fallback included): run
        # each shard's row operators and concatenate in shard order.
        tier = "interpreted" if self._mode == "interpreted" else "compiled"
        self.last_tier = tier
        self.last_execution_path = tier
        gathered: list[Row] = []
        for executor in executors:
            gathered.extend(executor._execute(node))
            executor.tier_counts[tier] += 1
        return gathered

    def _scatter_codegen(
        self, executors: Sequence[Executor], node: algebra.PlanNode
    ) -> Optional[list[Row]]:
        """Codegen scatter: run the fused pipeline per shard, concatenate.

        The gather node concatenates shard results in shard order (see
        ``gather_batches``), so running each shard's compiled pipeline and
        chaining the row lists is row-identical to the batch path.  Every
        shard must take the codegen path — one decline (unsupported spine,
        codegen disabled, compile/run error) sends the whole scatter to the
        batch-kernel gather instead.
        """
        rows: list[Row] = []
        for executor in executors:
            shard_rows = executor._vectorized.try_codegen_rows(node)
            if shard_rows is None:
                return None
            rows.extend(shard_rows)
        return rows

    def _thread_aggregate(self, route: _Route, count: int) -> Optional[list[Row]]:
        """Codegen gather of a shard-local aggregate: no partial rows.

        Shard 0's fused loop, shard 1's, … fold into **one** group state
        (keyed by group *values* — each partition has its own dictionary),
        which the last shard's call emits once, outer ``Project`` and
        ``avg`` included; groups come out in first-encounter order over
        the shards in order, exactly what ``merge`` emits.  A decline or
        error on any shard drops the state and returns ``None``: the whole
        statement re-runs on the partial-row path.
        """
        executors = [self._shard_executor(route.names, i) for i in range(count)]
        carry = AggregateCarry()
        rows = None
        for index, executor in enumerate(executors):
            rows = executor._vectorized.try_codegen_rows(
                route.node, carry, emit=index == count - 1
            )
            if rows is None:
                return None
        self._mark_codegen(executors, route.node)
        return _apply(route.node_post, rows)

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

    def _scatter_batches(
        self, executors: Sequence[Executor], node: algebra.PlanNode
    ) -> Optional[list[Row]]:
        """Vectorized scatter: gather per-shard ColumnBatches, then
        materialize rows exactly once at the gather root.

        Returns ``None`` when any shard has no vectorized lowering or a
        kernel errors (the row-tier scatter takes over), mirroring the
        single-node tier's fallback contract.
        """
        batches = []
        for executor in executors:
            vectorized = executor._vectorized
            op = vectorized._op(node)
            if op is None:
                vectorized.fallbacks += 1
                vectorized._count_reason(vectorized._last_reason)
                self.last_fallback_reason = vectorized._last_reason
                return None
            try:
                batches.append(op())
            except ExecutionError:
                raise
            except Exception:
                vectorized.fallbacks += 1
                vectorized._count_reason("kernel_error")
                self.last_fallback_reason = "kernel_error"
                return None
        gathered = gather_batches(batches)
        try:
            rows = executors[0]._vectorized._materialize(gathered)
        except Exception:
            executors[0]._vectorized.fallbacks += 1
            executors[0]._vectorized._count_reason("kernel_error")
            self.last_fallback_reason = "kernel_error"
            return None
        for executor in executors:
            executor._vectorized.executions += 1
            executor.tier_counts["vectorized"] += 1
        return rows

    # -- parallel scatter ------------------------------------------------

    def _parallel_scatter(
        self, node: algebra.PlanNode, names: frozenset[str], count: int
    ) -> list[tuple[int, list[Row]]]:
        """Execute ``node`` on every shard concurrently on the pool.

        Returns ``(shard index, rows)`` pairs in shard order.  Thread mode
        runs each shard's full executor dispatch (so every tier, fallback,
        and counter behaves exactly as its serial per-shard execution
        would); process mode ships the plan + packed column payloads to
        worker processes and degrades to the thread path when the plan or
        a payload refuses to pickle or the pool breaks.
        """
        pool = self._pool
        assert pool is not None
        if pool.mode == "process":
            indexed = self._process_scatter(node, names, count)
            if indexed is not None:
                return indexed
            pool.degraded += 1
        executors = [self._shard_executor(names, i) for i in range(count)]
        tasks = [
            (lambda executor=executor: executor.execute(node))
            for executor in executors
        ]
        results, seconds = pool.run_tasks(tasks)
        pool.note_scatter(seconds)
        self.last_parallel = {
            "mode": pool.mode,
            "workers": pool.workers,
            "shards": count,
            "shard_seconds": tuple(seconds),
            "elapsed": max(seconds, default=0.0),
        }
        self._fold_markers(
            [
                (
                    executor.last_tier,
                    executor.last_execution_path,
                    executor.last_fallback_reason,
                )
                for executor in executors
            ]
        )
        return list(enumerate(results))

    def _process_scatter(
        self, node: algebra.PlanNode, names: frozenset[str], count: int
    ) -> Optional[list[tuple[int, list[Row]]]]:
        """Process-pool scatter; ``None`` degrades to the thread path.

        Shard data ships as column lists with their layout facts, keyed
        by ``(table, shard, version)`` — workers cache them, so steady
        state ships only the (cached) plan blob.  Results come back as
        pickled ColumnBatches; executor counter deltas from the workers
        fold into the parent-side shard executors so
        ``execution_stats()`` stays complete.
        """
        pool = self._pool
        assert pool is not None
        try:
            plan_blob = pickle.dumps(node, pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        scans = sorted({scan.table for scan in algebra.find_scans(node)})
        requests = []
        for index in range(count):
            keys = []
            for name in scans:
                table = self._tables[name]
                if name in names and isinstance(table, ShardedTable):
                    keys.append(
                        ((name, index, table.shards[index].version), None)
                    )
                else:
                    keys.append(((name, -1, table.version), None))
            requests.append(
                {
                    "plan": plan_blob,
                    "mode": self._mode,
                    "tables": keys,
                }
            )

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
        pool.note_scatter(seconds)
        self.last_parallel = {
            "mode": pool.mode,
            "workers": pool.workers,
            "shards": count,
            "shard_seconds": tuple(seconds),
            "elapsed": max(seconds, default=0.0),
            "pickle_bytes": {
                "sent": pool.pickle_bytes_sent - sent_before,
                "received": pool.pickle_bytes_received - received_before,
            },
        }
        indexed: list[tuple[int, list[Row]]] = []
        markers = []
        for index, response in enumerate(responses):
            rows = batch_output_rows(unpack_batch(response["result"]))
            executor = self._shard_executor(names, index)
            fold_worker_counters(
                executor, response["tiers"], response["vectorized"]
            )
            markers.append(response["last"])
            indexed.append((index, rows))
        self._fold_markers(markers)
        return indexed

    def _fold_markers(self, markers: list[tuple]) -> None:
        """Fold per-shard (tier, path, reason) markers into the route's.

        All-vectorized scatters report the vectorized tier (``codegen``
        only when every shard ran codegen, like the serial all-or-nothing
        rule); otherwise the first shard that fell to a row tier names the
        tier and fallback reason, mirroring the serial row-fallback
        marker.
        """
        if not markers:
            return
        if all(tier == "vectorized" for tier, _, _ in markers):
            self.last_tier = "vectorized"
            paths = {path for _, path, _ in markers}
            self.last_execution_path = (
                paths.pop() if len(paths) == 1 else "kernel"
            )
            self.last_fallback_reason = None
            return
        for tier, _, reason in markers:
            if tier != "vectorized":
                self.last_tier = tier
                self.last_execution_path = tier
                self.last_fallback_reason = reason
                return

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
        # A partially-aggregated route: peel the Select/Project/Sort spine
        # above an Aggregate (SQL aggregates parse as Project(Aggregate));
        # the spine re-applies over the merged rows at the gather node.
        spine: list[algebra.PlanNode] = []
        node: algebra.PlanNode = plan
        while isinstance(node, (algebra.Sort, algebra.Project, algebra.Select)):
            spine.append(node)
            node = node.child
        if isinstance(node, algebra.Aggregate):
            child_class = self._distribute(node.child)
            if child_class is None or not child_class[1]:
                return _FALLBACK
            post = tuple(self._compile_spine(spine))
            # SQL aggregates parse as Project(Aggregate), which one fused
            # pipeline covers; only the spine above it stays a transform.
            fused = bool(spine) and isinstance(spine[-1], algebra.Project)
            return _Route(
                "local-aggregate",
                names=child_class[1],
                node=spine[-1] if fused else node,
                post=post,
                node_post=post[1:] if fused else post,
                partial=_PartialAggregate(
                    node, lambda name: self._tables[name].schema.column_names
                ),
            )
        # Scatter / co-partitioned join: Select and Project distribute into
        # the per-shard plans; only a root Sort runs at the gather node
        # (serial), or turns into a sorted-run k-way merge (parallel).
        node = plan
        post: tuple = ()
        merge: Optional[tuple] = None
        if isinstance(node, algebra.Sort):
            post = (self._compile_sort(node),)
            merge = (plan, self._compile_merge_key(node))
            node = node.child
        distributed = self._distribute(node)
        if distributed is None or not distributed[1]:
            return _FALLBACK
        kind, names = distributed
        return _Route(
            "local-join" if len(names) > 1 else "scatter",
            names=names,
            node=node,
            post=post,
            merge=merge,
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

    def _compile_merge_key(
        self, sort: algebra.Sort
    ) -> Callable[[Row], tuple]:
        """A single total-order key for k-way merging sorted shard runs.

        Equivalent to :meth:`_compile_sort`'s stable multi-pass sort: one
        tuple of :func:`~repro.db.executor.sort_key_function` components.
        ``heapq.merge`` is stable by input order on ties, and runs are
        merged in shard-index order, so tie order matches the serial
        concatenate-then-stable-sort exactly.
        """
        keys = [
            (key.column.compile(), sort_key_function(key.ascending))
            for key in sort.keys
        ]

        def merge_key(row: Row) -> tuple:
            return tuple(component(evaluate(row)) for evaluate, component in keys)

        return merge_key

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
