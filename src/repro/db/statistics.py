"""Table statistics and cardinality estimation.

COBRA's cost model needs, for every query alternative, an estimate of

* ``NQ`` — the number of rows in the result,
* ``Srow(Q)`` — the byte width of a result row, and
* the server-side execution time (time-to-first-row and time-to-last-row).

This module maintains per-table statistics (row count, distinct values per
column) and estimates output cardinality and row width for an algebra plan
using textbook System-R style formulas:

* selection on ``col = const``      →  input / distinct(col)
* selection on range predicates     →  input * 1/3
* other selections                  →  input * default selectivity
* equi-join on ``a = b``            →  |L| * |R| / max(distinct(a), distinct(b))
* grouped aggregation               →  product of group-key distinct counts
  (capped at input cardinality); scalar aggregation → 1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.db import algebra
from repro.db.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
)
from repro.db.schema import Schema
from repro.db.table import Table

#: Selectivity used when nothing better can be derived (matches the paper's
#: Wilos setup where a 20% selectivity is used for synthetic predicates).
DEFAULT_SELECTIVITY = 0.2

#: Selectivity for range predicates (<, <=, >, >=).
RANGE_SELECTIVITY = 1.0 / 3.0


@dataclass
class TableStatistics:
    """Statistics for one table."""

    row_count: int = 0
    distinct: dict[str, int] = field(default_factory=dict)
    row_width: int = 0

    def distinct_count(self, column: str) -> int:
        """Distinct values in ``column`` (at least 1, at most row_count)."""
        column = column.split(".")[-1]
        count = self.distinct.get(column)
        if count is None or count <= 0:
            count = max(1, self.row_count)
        return max(1, min(count, max(1, self.row_count)))


class StatisticsCatalog:
    """Catalog of per-table statistics plus plan-level estimation."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._stats: dict[str, TableStatistics] = {}
        #: sharded table name -> per-shard statistics (see refresh()).
        self._shard_stats: dict[str, list[TableStatistics]] = {}
        # Plan-keyed memo tables.  Plan nodes are immutable value objects
        # (frozen dataclasses), so structurally identical plans — e.g. the
        # same SQL text parsed twice by two cost-model instances — hit the
        # same entry.  Both caches are dropped whenever the underlying table
        # statistics change.
        self._cardinality_cache: dict[algebra.PlanNode, float] = {}
        self._width_cache: dict[algebra.PlanNode, int] = {}

    # -- maintenance -----------------------------------------------------

    def refresh(self, tables: Mapping[str, Table]) -> None:
        """Recompute statistics from current table contents (ANALYZE).

        Sharded tables are analysed **per shard** and the partials merged:
        row counts sum, and the shard key's distinct count is the exact sum
        of the per-shard counts (hash partitions are disjoint in the shard
        key).  Other columns fall back to the aggregate view's exact
        distinct count.  The per-shard statistics are retained
        (:meth:`shard_stats`) for balance diagnostics and future per-shard
        costing.
        """
        self._stats.clear()
        self._shard_stats.clear()
        self._invalidate_estimates()
        for name, table in tables.items():
            shards = getattr(table, "shards", None)
            if shards is not None:
                self._stats[name] = self._refresh_sharded(name, table, shards)
                continue
            stats = TableStatistics(
                row_count=len(table),
                row_width=table.row_width,
            )
            for column in table.schema.columns:
                stats.distinct[column.name] = table.distinct_count(column.name)
            self._stats[name] = stats

    def _refresh_sharded(
        self, name: str, table: Table, shards: Sequence[Table]
    ) -> TableStatistics:
        """Per-shard statistics plus their merged table-level aggregate."""
        per_shard: list[TableStatistics] = []
        for shard in shards:
            stats = TableStatistics(
                row_count=len(shard),
                row_width=shard.row_width,
            )
            for column in shard.schema.columns:
                stats.distinct[column.name] = shard.distinct_count(column.name)
            per_shard.append(stats)
        self._shard_stats[name] = per_shard
        shard_key = getattr(table, "shard_key", None)
        merged = TableStatistics(
            row_count=sum(stats.row_count for stats in per_shard),
            row_width=table.row_width,
        )
        for column in table.schema.columns:
            if column.name == shard_key:
                # Hash partitions are disjoint in the shard key: the sum of
                # per-shard distinct counts is exact.
                merged.distinct[column.name] = sum(
                    stats.distinct.get(column.name, 0) for stats in per_shard
                )
            else:
                merged.distinct[column.name] = table.distinct_count(column.name)
        return merged

    def shard_stats(self, table: str) -> Optional[list[TableStatistics]]:
        """Per-shard statistics of ``table`` (None when not sharded)."""
        return self._shard_stats.get(table)

    def set_table_stats(self, table: str, stats: TableStatistics) -> None:
        """Install statistics for ``table`` explicitly (used by tests and by
        the analytical full-scale experiments where data is not materialised)."""
        self._stats[table] = stats
        self._invalidate_estimates()

    def _invalidate_estimates(self) -> None:
        self._cardinality_cache.clear()
        self._width_cache.clear()

    def table_stats(self, table: str) -> TableStatistics:
        """Statistics for ``table`` (empty statistics if never analysed)."""
        return self._stats.get(table, TableStatistics())

    # -- estimation ------------------------------------------------------

    def estimate_cardinality(self, plan: algebra.PlanNode) -> float:
        """Estimated number of output rows of ``plan`` (memoised)."""
        try:
            cached = self._cardinality_cache.get(plan)
        except TypeError:  # unhashable literal buried in a predicate
            return self._estimate_cardinality(plan)
        if cached is None:
            cached = self._estimate_cardinality(plan)
            self._cardinality_cache[plan] = cached
        return cached

    def _estimate_cardinality(self, plan: algebra.PlanNode) -> float:
        if isinstance(plan, algebra.Scan):
            return float(self.table_stats(plan.table).row_count)
        if isinstance(plan, algebra.Select):
            child = self.estimate_cardinality(plan.child)
            return child * self._selectivity(plan.predicate, plan.child)
        if isinstance(plan, algebra.Project):
            return self.estimate_cardinality(plan.child)
        if isinstance(plan, algebra.Join):
            return self._estimate_join(plan)
        if isinstance(plan, algebra.Aggregate):
            return self._estimate_aggregate(plan)
        if isinstance(plan, algebra.Sort):
            return self.estimate_cardinality(plan.child)
        if isinstance(plan, algebra.Limit):
            return min(float(plan.count), self.estimate_cardinality(plan.child))
        raise TypeError(f"cannot estimate cardinality of {type(plan).__name__}")

    def estimate_row_width(self, plan: algebra.PlanNode) -> int:
        """Estimated byte width of one output row of ``plan`` (memoised)."""
        try:
            cached = self._width_cache.get(plan)
        except TypeError:
            return self._estimate_row_width(plan)
        if cached is None:
            cached = self._estimate_row_width(plan)
            self._width_cache[plan] = cached
        return cached

    def _estimate_row_width(self, plan: algebra.PlanNode) -> int:
        if isinstance(plan, algebra.Scan):
            stats = self.table_stats(plan.table)
            if stats.row_width:
                return stats.row_width
            if self._schema.has_table(plan.table):
                return self._schema.table(plan.table).row_width
            return 64
        if isinstance(plan, (algebra.Select, algebra.Sort, algebra.Limit)):
            return self.estimate_row_width(plan.child)
        if isinstance(plan, algebra.Project):
            return self._width_of_outputs(plan)
        if isinstance(plan, algebra.Join):
            return self.estimate_row_width(plan.left) + self.estimate_row_width(
                plan.right
            )
        if isinstance(plan, algebra.Aggregate):
            width = 8 * len(plan.aggregates)
            width += 8 * len(plan.group_by)
            return max(width, 8)
        raise TypeError(f"cannot estimate row width of {type(plan).__name__}")

    def estimate_server_time(
        self, plan: algebra.PlanNode, per_row_cost: float = 2e-6
    ) -> tuple[float, float]:
        """Estimate (time-to-first-row, time-to-last-row) on the server.

        A simple model: every operator touches its input cardinality once at
        ``per_row_cost`` seconds per row.  Pipelined operators (scan, select,
        project) emit their first row immediately; blocking operators (sort,
        aggregate, hash-join build side) must consume their input before the
        first output row.
        """
        total = self._estimate_work(plan) * per_row_cost
        first = total if self._is_blocking(plan) else per_row_cost
        return (min(first, total), total)

    # -- internals -------------------------------------------------------

    def _width_of_outputs(self, plan: algebra.Project) -> int:
        width = 0
        for output in plan.outputs:
            width += self._expression_width(output.expression, plan.child)
        return max(width, 8)

    def _expression_width(
        self, expression: Expression, child: algebra.PlanNode
    ) -> int:
        if isinstance(expression, ColumnRef):
            name = expression.name
            for scan in algebra.find_scans(child):
                if self._schema.has_table(scan.table):
                    schema = self._schema.table(scan.table)
                    if schema.has_column(name):
                        return schema.column(name).byte_width
            return 8
        return 8

    def _selectivity(
        self, predicate: Expression, child: algebra.PlanNode
    ) -> float:
        if isinstance(predicate, BooleanOp):
            selectivities = [
                self._selectivity(op, child) for op in predicate.operands
            ]
            if predicate.op == "and":
                result = 1.0
                for s in selectivities:
                    result *= s
                return result
            # OR: inclusion-exclusion upper bound, capped at 1.
            return min(1.0, sum(selectivities))
        if isinstance(predicate, Not):
            return max(0.0, 1.0 - self._selectivity(predicate.operand, child))
        if isinstance(predicate, IsNull):
            return 0.1
        if isinstance(predicate, InList):
            base = self._equality_selectivity(predicate.operand, child)
            return min(1.0, base * max(1, len(predicate.values)))
        if isinstance(predicate, BinaryOp):
            if predicate.op in {"=", "=="}:
                # Column = constant-like (literal or bound-later parameter):
                # selectivity 1 / distinct(column).
                if isinstance(predicate.left, ColumnRef) and not isinstance(
                    predicate.right, ColumnRef
                ):
                    return self._equality_selectivity(predicate.left, child)
                if isinstance(predicate.right, ColumnRef) and not isinstance(
                    predicate.left, ColumnRef
                ):
                    return self._equality_selectivity(predicate.right, child)
                return DEFAULT_SELECTIVITY
            if predicate.op in {"<", "<=", ">", ">="}:
                return RANGE_SELECTIVITY
            if predicate.op in {"!=", "<>"}:
                return 1.0 - self._equality_selectivity_any(predicate, child)
        return DEFAULT_SELECTIVITY

    def _equality_selectivity_any(
        self, predicate: BinaryOp, child: algebra.PlanNode
    ) -> float:
        for side in (predicate.left, predicate.right):
            if isinstance(side, ColumnRef):
                return self._equality_selectivity(side, child)
        return DEFAULT_SELECTIVITY

    def _equality_selectivity(
        self, expression: Expression, child: algebra.PlanNode
    ) -> float:
        if not isinstance(expression, ColumnRef):
            return DEFAULT_SELECTIVITY
        distinct = self._distinct_for(expression, child)
        if distinct is None:
            return DEFAULT_SELECTIVITY
        return 1.0 / max(1, distinct)

    def _distinct_for(
        self, column: ColumnRef, child: algebra.PlanNode
    ) -> Optional[int]:
        name = column.name
        qualifier = column.qualifier
        for scan in algebra.find_scans(child):
            if qualifier and scan.effective_alias != qualifier:
                continue
            stats = self.table_stats(scan.table)
            if name in stats.distinct or (
                self._schema.has_table(scan.table)
                and self._schema.table(scan.table).has_column(name)
            ):
                return stats.distinct_count(name)
        return None

    def _estimate_join(self, plan: algebra.Join) -> float:
        left = self.estimate_cardinality(plan.left)
        right = self.estimate_cardinality(plan.right)
        if plan.condition is None:
            return left * right
        if isinstance(plan.condition, BinaryOp) and plan.condition.op in {
            "=",
            "==",
        }:
            lhs, rhs = plan.condition.left, plan.condition.right
            if isinstance(lhs, ColumnRef) and isinstance(rhs, ColumnRef):
                d_left = self._distinct_for(lhs, plan) or 1
                d_right = self._distinct_for(rhs, plan) or 1
                return left * right / max(d_left, d_right, 1)
        return left * right * DEFAULT_SELECTIVITY

    def _estimate_aggregate(self, plan: algebra.Aggregate) -> float:
        child = self.estimate_cardinality(plan.child)
        if not plan.group_by:
            return 1.0
        groups = 1.0
        for key in plan.group_by:
            groups *= self._distinct_for(key, plan.child) or max(1.0, child**0.5)
        return min(groups, child) if child else 0.0

    def _estimate_work(self, plan: algebra.PlanNode) -> float:
        if isinstance(plan, algebra.Scan):
            return float(self.table_stats(plan.table).row_count)
        work = self.estimate_cardinality(plan)
        for child in plan.children():
            work += self._estimate_work(child)
        return work

    def _is_blocking(self, plan: algebra.PlanNode) -> bool:
        if isinstance(plan, (algebra.Sort, algebra.Aggregate)):
            return True
        return any(self._is_blocking(child) for child in plan.children())
