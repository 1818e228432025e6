"""The COBRA cost model (Section VI, Figure 12 of the paper).

Cost parameters
---------------
``CNRT``      network round trip time between client and database
``CFQ/CLQ``   server time to first/last result row (estimated by the database)
``NQ``        estimated result cardinality of a query
``Srow(Q)``   byte width of one result row
``BW``        network bandwidth
``AFQ``       amortization factor: estimated number of invocations of a query
``CY``        cost of evaluating one F-IR / program operator
``CZ``        cost of one imperative statement (30 ns in the paper)

Node costs
----------
``query execution``   CQ = CNRT + CFQ + max(NQ * Srow / BW, CLQ - CFQ)
``prefetch``          Cprefetch = CQ / AFQ
``basic block``       sum of statement costs (CZ each) plus the cost of every
                      query executed by the block
``seq``               sum of children
``cond``              p * Ctrue + (1 - p) * Cfalse + Cp
``loop over Q``       CQ + NQ * Cbody  (fold cost: NQ * Cf + CDb(Q))
``other loop``        K * Cbody with a tunable default K
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.regions import (
    BasicBlockRegion,
    LoopRegion,
    QueryCallInfo,
)
from repro.db.database import Database, QueryEstimate
from repro.net.network import NetworkConditions


@dataclass(frozen=True)
class CostParameters:
    """Tunable parameters of the cost model (the paper's "cost catalog")."""

    #: Network round trip time in seconds (CNRT).
    network_round_trip: float = 0.0005
    #: Network bandwidth in bytes per second (BW).
    bandwidth_bytes_per_sec: float = 750e6
    #: Cost of one imperative statement in seconds (CZ; 30 ns in the paper).
    statement_cost: float = 30e-9
    #: Cost of one F-IR / program operator in seconds (CY).
    operator_cost: float = 100e-9
    #: Amortization factor: estimated number of invocations of a prefetched
    #: query (AFQ).  AF=1 means the prefetch is paid in full by a single use.
    amortization_factor: float = 1.0
    #: Probability a conditional region's predicate evaluates to true.
    branch_probability: float = 0.5
    #: Iteration-count guess for loops whose trip count cannot be estimated.
    default_loop_iterations: int = 1000

    @classmethod
    def for_network(
        cls, network: NetworkConditions, **overrides
    ) -> "CostParameters":
        """Parameters matching a network preset (slow remote / fast local)."""
        params = cls(
            network_round_trip=network.round_trip_seconds,
            bandwidth_bytes_per_sec=network.bandwidth_bytes_per_sec,
        )
        return replace(params, **overrides) if overrides else params

    def with_amortization(self, factor: float) -> "CostParameters":
        """A copy of the parameters with a different amortization factor."""
        return replace(self, amortization_factor=factor)


class CostModel:
    """Estimates costs of Region-DAG nodes using database statistics."""

    def __init__(self, database: Database, parameters: CostParameters) -> None:
        self.database = database
        self.parameters = parameters
        self._estimate_cache: dict[str, QueryEstimate] = {}

    # -- query-level costs -------------------------------------------------

    def estimate(self, sql: str) -> QueryEstimate:
        """Cached database estimate for a query."""
        cached = self._estimate_cache.get(sql)
        if cached is None:
            cached = self.database.estimate_sql(sql)
            self._estimate_cache[sql] = cached
        return cached

    def query_cost(self, sql: str) -> float:
        """CQ for one execution of ``sql``."""
        estimate = self.estimate(sql)
        return self.query_cost_from_estimate(estimate)

    def query_cost_from_estimate(self, estimate: QueryEstimate) -> float:
        """CQ = CNRT + CFQ + max(NQ * Srow / BW, CLQ - CFQ)."""
        transfer = estimate.byte_size / self.parameters.bandwidth_bytes_per_sec
        server_rest = max(0.0, estimate.last_row_time - estimate.first_row_time)
        return (
            self.parameters.network_round_trip
            + estimate.first_row_time
            + max(transfer, server_rest)
        )

    def point_lookup_cost(self, table: str, key_column: str) -> float:
        """CQ of a single-row lookup query on ``table`` (the N+1 query)."""
        sql = f"select * from {table} where {key_column} = ?"
        return self.query_cost(sql)

    def prefetch_cost(self, table: Optional[str], sql: Optional[str]) -> float:
        """Cprefetch = CQ / AFQ for prefetching a relation or query result."""
        if sql is None:
            if table is None:
                return self.parameters.operator_cost
            sql = f"select * from {table}"
        return self.query_cost(sql) / max(self.parameters.amortization_factor, 1e-9)

    def query_cardinality(self, sql: str) -> float:
        """NQ for ``sql``."""
        return self.estimate(sql).cardinality

    # -- region-operator costs ---------------------------------------------

    def data_access_cost(self, info: QueryCallInfo) -> float:
        """Cost of one data-access operation described by ``info``."""
        if info.kind == "sql" and info.sql:
            return self.query_cost(info.sql)
        if info.kind == "load_all" and info.table:
            return self.query_cost(f"select * from {info.table}")
        if info.kind == "lazy_load" and info.table and info.key_column:
            return self.point_lookup_cost(info.table, info.key_column)
        if info.kind == "orm_get" and info.table:
            return self.point_lookup_cost(info.table, _pk_guess(info))
        if info.kind == "prefetch":
            return self.prefetch_cost(info.table, info.sql)
        if info.kind == "update":
            # One round trip; the server-side work and payload are negligible
            # compared to the network latency the model cares about.
            return self.parameters.network_round_trip
        if info.kind == "lookup":
            return self.parameters.operator_cost
        return self.parameters.operator_cost

    def block_cost(self, block: BasicBlockRegion) -> float:
        """Cost of a basic block: statement cost plus its data accesses."""
        cost = self.parameters.statement_cost
        for info in block.queries:
            cost += self.data_access_cost(info)
        return cost

    def loop_iterations(self, loop: LoopRegion) -> float:
        """Estimated trip count of a loop region."""
        if loop.query is not None:
            if loop.query.kind == "sql" and loop.query.sql:
                if "?" in loop.query.sql:
                    # Parameterised selection: estimate with the parameter
                    # treated as an equality literal.
                    return max(1.0, self.query_cardinality(loop.query.sql))
                return self.query_cardinality(loop.query.sql)
            if loop.query.kind == "load_all" and loop.query.table:
                return self.query_cardinality(
                    f"select * from {loop.query.table}"
                )
            if loop.query.kind == "lookup":
                # Iterating over a locally cached group: the average group
                # size of the prefetched relation (rows / distinct keys).
                return self._group_size(loop.query.table, loop.query.key_column)
        return float(self.parameters.default_loop_iterations)

    def _group_size(
        self, table: Optional[str], key_column: Optional[str]
    ) -> float:
        if not table:
            return max(
                1.0, float(self.parameters.default_loop_iterations) ** 0.5
            )
        stats = self.database.statistics.table_stats(table)
        if stats.row_count <= 0:
            return max(
                1.0, float(self.parameters.default_loop_iterations) ** 0.5
            )
        distinct = stats.distinct_count(key_column or "")
        return max(1.0, stats.row_count / max(1, distinct))

    def loop_header_cost(self, loop: LoopRegion) -> float:
        """Cost of producing the iterated collection (charged once)."""
        if loop.query is None:
            return 0.0
        if loop.query.kind == "lookup":
            return self.parameters.operator_cost
        return self.data_access_cost(loop.query)

    def loop_cost(self, loop: LoopRegion, body_cost: float) -> float:
        """Cfold = CDb(Q) + NQ * Cf."""
        return self.loop_header_cost(loop) + self.loop_iterations(loop) * (
            body_cost + self.parameters.operator_cost
        )

    def conditional_cost(
        self, then_cost: float, else_cost: float, predicate_cost: float = 0.0
    ) -> float:
        """Ccond = p * Ctrue + (1 - p) * Cfalse + Cp."""
        probability = self.parameters.branch_probability
        if predicate_cost <= 0.0:
            predicate_cost = self.parameters.statement_cost
        return (
            probability * then_cost
            + (1.0 - probability) * else_cost
            + predicate_cost
        )

    def sequence_cost(self, child_costs: list[float]) -> float:
        """Cseq = sum of children."""
        return float(sum(child_costs))

    # -- program-level convenience -------------------------------------------

    def clear_cache(self) -> None:
        """Drop memoised query estimates (call after data/statistics change)."""
        self._estimate_cache.clear()


def _pk_guess(info: QueryCallInfo) -> str:
    """Best-effort key column for an ORM ``get`` when not recorded."""
    return info.key_column or "id"
