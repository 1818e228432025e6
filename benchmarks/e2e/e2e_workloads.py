"""The seven end-to-end workloads.

Every workload builds its engine through :class:`repro.api.Engine`, draws its
data and its per-op parameters from the run's seed, and runs closed loop with
one client on one thread and no worker pool.  A workload is a pool of
*rounds*; a round runs each of the workload's op kinds once, and the timed
passes cycle through the pool, always in whole rounds, so every pass sees the
same mix.

An op's outcome is checked twice.  In the timed loop a cheap canonical form
(a row count, a sorted result, a rewritten source) must equal the first one
seen for the same op.  After timing, :meth:`Workload.check` re-runs each op
of the pool and compares the full result with a reference that does not come
from the engine (:mod:`e2e_reference`).  References are built after timing so
they never count towards the workload's peak memory.
"""

from __future__ import annotations

import os
import random
import statistics
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional

from repro.api import Engine
from repro.db.database import Database
from repro.experiments.harness import compile_program
from repro.workloads import tpcds
from repro.workloads.programs import (
    P0_SOURCE,
    P1_SOURCE,
    P2_SOURCE,
    my_func,
)
from repro.workloads.wilos import build_wilos_database
from repro.workloads.wilos_programs import build_patterns

import e2e_reference as reference

SCALES = ("full", "smoke")
PROGRAM_GLOBALS = {"my_func": my_func}
ORDERS_PROGRAMS = {"P0": P0_SOURCE, "P1": P1_SOURCE, "P2": P2_SOURCE}
ORDERS_FUNCTION = "process_orders"
PATTERN_IDS = "ABCDEF"


class Op(NamedTuple):
    """One operation: ``key`` identifies it within the pool, ``kind`` names
    its statement or program, ``payload`` carries its parameters."""

    key: tuple
    kind: str
    payload: Any = None


def data_seed(seed: int) -> int:
    """The generators treat seeds below 1 as unset; keep every seed distinct."""
    return 1 + seed % (2**31 - 2)


def orders_database(sizes: dict[str, int], seed: int) -> Database:
    """A fresh generation of the seed's orders/customer rows."""
    return tpcds.build_orders_database(
        sizes["orders"], sizes["customers"], data_seed(seed)
    )


class Workload:
    """Common machinery: pool cycling, warm-up, first-seen expectations."""

    name = ""
    why = ""
    #: scale -> size parameters (see each subclass).
    sizes_by_scale: dict[str, dict[str, int]] = {}

    def __init__(self, seed: int, scale: str = "full") -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; scales are {SCALES}")
        self.seed = seed
        self.scale = scale
        self.sizes = dict(self.sizes_by_scale[scale])
        #: feeds the per-op parameter stream (the data has its own generator).
        self.rng = random.Random(seed)
        self.rounds: list[list[Op]] = []
        self.expected: dict[tuple, Any] = {}
        #: per-op counter sums for surfaces the runtime resets on every run.
        self.accumulated: dict[str, float] = {}
        #: sub-statement wall seconds by name, for ops made of several.
        self.statement_seconds: dict[str, list[float]] = {}
        self.warmup_ops = 0
        self.warmup_virtual_seconds = 0.0
        self._cursor = 0

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        """Build + load + analyze + one warm-up round (all of ``setup_s``).

        Called once per instance; the harness makes a new instance for every
        set-up it times.
        """
        self.build()
        for op in self.next_round():
            virtual, outcome = self.run(op)
            self.verify(op, outcome)
            self.warmup_virtual_seconds += virtual
            self.warmup_ops += 1

    def build(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        for engine in self.engines():
            engine.close()

    def engines(self) -> list[Engine]:
        return []

    def databases(self) -> list[Database]:
        return [engine.database for engine in self.engines()]

    # -- the loop's view ---------------------------------------------------

    def next_round(self) -> list[Op]:
        ops = self.rounds[self._cursor % len(self.rounds)]
        self._cursor += 1
        return ops

    def run(self, op: Op) -> tuple[float, Any]:
        """Execute ``op``; returns (virtual seconds charged, outcome)."""
        raise NotImplementedError

    def canonical(self, op: Op, outcome: Any) -> Any:
        raise NotImplementedError

    def verify(self, op: Op, outcome: Any) -> bool:
        form = self.canonical(op, outcome)
        return self.expected.setdefault(op.key, form) == form

    def check(self) -> tuple[int, int]:
        """Untimed reference pass; returns (ops checked, ops failed)."""
        raise NotImplementedError

    # -- what the traced run reads -----------------------------------------

    def counters(self) -> dict[str, float]:
        """Cumulative counts read from the program's public stats surfaces."""
        totals = dict.fromkeys(COUNTER_KEYS, 0.0)
        totals.update(self.accumulated)
        for database in self.databases():
            cache = database.statement_cache
            totals["stmt_cache_hits"] += cache.hits
            totals["stmt_cache_misses"] += cache.misses
            execution = database.execution_stats()
            for tier, count in execution["tiers"].items():
                totals[f"tier_{tier}"] += count
            vectorized = execution["vectorized"]
            totals["vec_executions"] += vectorized["executions"]
            totals["codegen_executions"] += vectorized["codegen_executions"]
            totals["pipelines_compiled"] += vectorized["pipelines_compiled"]
            totals["vec_fallbacks"] += (
                vectorized["fallbacks"] + vectorized["subtree_fallbacks"]
            )
            sharding = database.sharding_stats()
            totals["shard_routed"] += sharding["routed"]
            totals["shard_scatter"] += sharding["scatter"] + sharding["local"]
            totals["shard_fallback"] += sharding["fallback"]
        return totals

    def accumulate(self, **counts: float) -> None:
        accumulated = self.accumulated
        for key, value in counts.items():
            accumulated[key] = accumulated.get(key, 0.0) + value

    def traced_extras(self) -> dict[str, float]:
        """Side measurements of the traced run (per-program rows, ratios)."""
        return {}


COUNTER_KEYS = (
    "round_trips",
    "bytes",
    "rows",
    "stmt_cache_hits",
    "stmt_cache_misses",
    "identity_hits",
    "lazy_loads",
    "cache_lookups",
    "cache_hits",
    "tier_vectorized",
    "tier_compiled",
    "tier_interpreted",
    "vec_executions",
    "codegen_executions",
    "pipelines_compiled",
    "vec_fallbacks",
    "shard_routed",
    "shard_scatter",
    "shard_fallback",
    "dag_groups",
    "dag_nodes",
    "alternatives",
)


# -- program workloads ------------------------------------------------------


class ProgramWorkload(Workload):
    """Ops are whole application programs run via ``AppRuntime.measure``."""

    def measure(self, runtime, program: Callable) -> Any:
        """One measured program run, torn down before it returns.

        ``AppRuntime.measure`` resets the runtime when the *next* run starts,
        which would charge freeing this run's client cache (5 000 prefetched
        rows after pattern A) to whichever op comes next; resetting here
        charges it to the op that filled the cache.  The counters the reset
        zeroes are folded into :attr:`accumulated` first.
        """
        measurement = runtime.measure(program)
        stats = runtime.connection.stats
        self.accumulate(
            round_trips=stats.round_trips,
            bytes=stats.bytes_transferred,
            rows=stats.rows_transferred,
            identity_hits=runtime.orm.cache_hits,
            lazy_loads=runtime.orm.lazy_loads,
            cache_lookups=runtime.cache.lookups,
            cache_hits=runtime.cache.hits,
        )
        runtime.reset()
        return measurement


def compare_variants(
    program_id: str,
    runtime,
    variants: dict[str, Callable],
    predicted_seconds: float,
) -> tuple[dict[str, float], float, float]:
    """Run each variant of one program once (``original`` and ``cobra`` among
    them); returns its ``program.<id>.*`` rows, COBRA's regret (its measured
    virtual time over the best variant's) and predicted over measured."""
    wall_ms, virtual = {}, {}
    for label, program in variants.items():
        started = perf_counter()
        measurement = runtime.measure(program)
        wall_ms[label] = (perf_counter() - started) * 1000.0
        virtual[label] = measurement.elapsed_seconds
    rows = {
        f"program.{program_id}.original_wall_ms": wall_ms["original"],
        f"program.{program_id}.cobra_wall_ms": wall_ms["cobra"],
        f"program.{program_id}.original_virtual_ms": virtual["original"] * 1000.0,
        f"program.{program_id}.cobra_virtual_ms": virtual["cobra"] * 1000.0,
    }
    regret = virtual["cobra"] / min(virtual.values())
    return rows, regret, predicted_seconds / virtual["cobra"]


class Fig13Program(ProgramWorkload):
    """P0 on the orders data over slow-remote, as written or as rewritten."""

    sizes_by_scale = {
        "full": {"orders": 2_000, "customers": 20_000},
        "smoke": {"orders": 150, "customers": 300},
    }
    rewritten = False

    def build(self) -> None:
        self.engine = (
            Engine.builder()
            .orders_workload(
                num_orders=self.sizes["orders"],
                num_customers=self.sizes["customers"],
                seed=data_seed(self.seed),
            )
            .network("slow-remote")
            .build()
        )
        source = P0_SOURCE
        self.optimization = None
        if self.rewritten:
            self.optimization = self.engine.optimize(P0_SOURCE)
            source = self.optimization.rewritten_source
        self.program = compile_program(source, ORDERS_FUNCTION, PROGRAM_GLOBALS)
        self.runtime = self.engine.runtime()
        self.rounds = [[Op(("P0",), "P0")]]

    def engines(self) -> list[Engine]:
        return [self.engine]

    def run(self, op: Op) -> tuple[float, Any]:
        measurement = self.measure(self.runtime, self.program)
        return measurement.elapsed_seconds, measurement.result

    def canonical(self, op: Op, outcome: Any) -> Any:
        return sorted(outcome)

    def check(self) -> tuple[int, int]:
        expected = reference.p0_reference(orders_database(self.sizes, self.seed))
        op = self.rounds[0][0]
        _, outcome = self.run(op)
        ok = sorted(outcome) == expected and self.expected.get(op.key) == expected
        return 1, 0 if ok else 1

    def traced_extras(self) -> dict[str, float]:
        engine = self.engine
        cobra = self.optimization or engine.optimize(P0_SOURCE)
        sources = {
            "original": P0_SOURCE,
            "cobra": cobra.rewritten_source,
            "heuristic": engine.heuristic_rewrite(P0_SOURCE).rewritten_source,
            "P1": P1_SOURCE,
            "P2": P2_SOURCE,
        }
        metrics, regret, estimate = compare_variants(
            "P0",
            self.runtime,
            {
                label: compile_program(source, ORDERS_FUNCTION, PROGRAM_GLOBALS)
                for label, source in sources.items()
            },
            cobra.best_cost,
        )
        metrics["core.choice_regret"] = regret
        metrics["core.estimate_ratio"] = estimate
        return metrics


class Fig13OrmOriginal(Fig13Program):
    name = "fig13_orm_original"
    why = (
        "P0 as written (N+1 lazy loads, slow-remote): per-statement cost of "
        "net.connection + orm.session + the prepared point-lookup fast path; "
        "the executor tiers do almost nothing"
    )


class Fig13CobraRewrite(Fig13Program):
    name = "fig13_cobra_rewrite"
    why = (
        "what COBRA hands the user for P0 (today one sql-join): a better rule "
        "or choice moves virtual time here, an executor change moves wall "
        "latency here, and fig13_orm_original stays put"
    )
    rewritten = True


class WilosCobraRewrites(ProgramWorkload):
    name = "wilos_cobra_rewrites"
    why = (
        "Fig. 15: the six Wilos patterns as COBRA rewrites them (AF=50, "
        "fast-local): prefetch/prefetch-join through appsim.runtime and "
        "appsim.cache, and pattern A's point-UPDATE loop beside reads"
    )
    sizes_by_scale = {"full": {"scale": 5_000}, "smoke": {"scale": 300}}

    def build(self) -> None:
        database = build_wilos_database(
            scale=self.sizes["scale"], seed=data_seed(self.seed)
        )
        self.engine = (
            Engine.builder()
            .database(database)
            .network("fast-local")
            .amortization(50)
            .build()
        )
        self.patterns = build_patterns()
        self.optimizations = {}
        self.programs = {}
        for pattern_id in PATTERN_IDS:
            pattern = self.patterns[pattern_id]
            result = self.engine.optimize(
                pattern.source, function_name=pattern.function_name
            )
            self.optimizations[pattern_id] = result
            self.programs[pattern_id] = self.driver_program(
                pattern_id, result.rewritten_source
            )
        self.runtime = self.engine.runtime()
        self.rounds = [[Op((pid,), pid) for pid in PATTERN_IDS]]

    def driver_program(self, pattern_id: str, source: str) -> Callable:
        pattern = self.patterns[pattern_id]
        function = compile_program(source, pattern.function_name)
        return lambda runtime: pattern.driver(runtime, function)

    def engines(self) -> list[Engine]:
        return [self.engine]

    def run(self, op: Op) -> tuple[float, Any]:
        measurement = self.measure(self.runtime, self.programs[op.kind])
        return measurement.elapsed_seconds, measurement.result

    def canonical(self, op: Op, outcome: Any) -> Any:
        return outcome

    def check(self) -> tuple[int, int]:
        failed = 0
        for op in self.rounds[0]:
            original = self.runtime.measure(
                self.driver_program(op.kind, self.patterns[op.kind].source)
            ).result
            _, outcome = self.run(op)
            if not (outcome == original == self.expected.get(op.key)):
                failed += 1
        return len(self.rounds[0]), failed

    def traced_extras(self) -> dict[str, float]:
        metrics: dict[str, float] = {}
        regrets, estimates = [], []
        for pattern_id in PATTERN_IDS:
            pattern = self.patterns[pattern_id]
            cobra = self.optimizations[pattern_id]
            heuristic = self.engine.heuristic_rewrite(
                pattern.source, function_name=pattern.function_name
            )
            rows, regret, estimate = compare_variants(
                pattern_id,
                self.runtime,
                {
                    "original": self.driver_program(pattern_id, pattern.source),
                    "cobra": self.programs[pattern_id],
                    "heuristic": self.driver_program(
                        pattern_id, heuristic.rewritten_source
                    ),
                },
                cobra.best_cost,
            )
            metrics.update(rows)
            regrets.append(regret)
            estimates.append(estimate)
        metrics["core.choice_regret"] = statistics.geometric_mean(regrets)
        metrics["core.estimate_ratio"] = statistics.geometric_mean(estimates)
        return metrics


class OptimizePrograms(Workload):
    name = "optimize_programs"
    why = (
        "the compiler side only (fir, core): one Engine.optimize() per op over "
        "{P0,P1,P2,A..F} x {fast-local,slow-remote} x AF {1,50}; compile time "
        "must show when rules are added, and no db executor code runs"
    )
    sizes_by_scale = {
        "full": {"orders": 1_000, "customers": 8_000, "wilos_scale": 2_000},
        "smoke": {"orders": 100, "customers": 200, "wilos_scale": 200},
    }
    networks = ("fast-local", "slow-remote")
    amortizations = (1, 50)

    def build(self) -> None:
        orders = orders_database(self.sizes, self.seed)
        wilos = build_wilos_database(
            scale=self.sizes["wilos_scale"], seed=data_seed(self.seed)
        )
        self.patterns = build_patterns()
        self.sources = {
            pid: (source, ORDERS_FUNCTION) for pid, source in ORDERS_PROGRAMS.items()
        }
        for pid in PATTERN_IDS:
            pattern = self.patterns[pid]
            self.sources[pid] = (pattern.source, pattern.function_name)
        self.engine_by_config: dict[tuple, Engine] = {}
        for network in self.networks:
            for factor in self.amortizations:
                for family, database in (("orders", orders), ("wilos", wilos)):
                    builder = (
                        Engine.builder()
                        .database(database)
                        .network(network)
                        .amortization(factor)
                    )
                    if family == "orders":
                        builder.registry(tpcds.build_registry())
                    self.engine_by_config[(family, network, factor)] = builder.build()
        self.rounds = [
            [
                Op((pid, network, factor), pid, (network, factor))
                for network in self.networks
                for factor in self.amortizations
                for pid in self.sources
            ]
        ]

    def engines(self) -> list[Engine]:
        return list(self.engine_by_config.values())

    def databases(self) -> list[Database]:
        return list({id(e.database): e.database for e in self.engines()}.values())

    def engine_for(self, op: Op) -> Engine:
        family = "orders" if op.kind in ORDERS_PROGRAMS else "wilos"
        return self.engine_by_config[(family, *op.payload)]

    def run(self, op: Op) -> tuple[float, Any]:
        source, function_name = self.sources[op.kind]
        result = self.engine_for(op).optimize(source, function_name=function_name)
        self.accumulate(
            dag_groups=result.dag.group_count,
            dag_nodes=result.dag.node_count,
            alternatives=result.alternatives_added,
        )
        return result.best_cost, result

    def canonical(self, op: Op, outcome: Any) -> Any:
        return outcome.rewritten_source

    def run_program(self, op: Op, source: str) -> Any:
        """Run one program (original or rewritten) on the op's engine."""
        runtime = self.engine_for(op).runtime()
        _, function_name = self.sources[op.kind]
        if op.kind in ORDERS_PROGRAMS:
            function = compile_program(source, function_name, PROGRAM_GLOBALS)
            return sorted(runtime.measure(function).result)
        pattern = self.patterns[op.kind]
        function = compile_program(source, function_name)
        return runtime.measure(lambda rt: pattern.driver(rt, function)).result

    def check(self) -> tuple[int, int]:
        """Every rewrite the optimizer emitted must run to its original's result."""
        p0_expected = reference.p0_reference(
            orders_database(self.sizes, self.seed)
        )
        originals: dict[str, Any] = {}
        failed = 0
        for op in self.rounds[0]:
            if op.kind not in originals:
                originals[op.kind] = (
                    p0_expected
                    if op.kind in ORDERS_PROGRAMS
                    else self.run_program(op, self.sources[op.kind][0])
                )
            _, result = self.run(op)
            source = result.rewritten_source
            ok = (
                source == self.expected.get(op.key)
                and result.best_cost <= result.original_cost
                and self.run_program(op, source) == originals[op.kind]
            )
            failed += 0 if ok else 1
        return len(self.rounds[0]), failed


# -- SQL workloads ------------------------------------------------------------


class StatementKind(NamedTuple):
    """One analytic statement shape and how its reference result compares."""

    sql: str
    #: the same query for SQLite (aliases spelled out where the engine
    #: auto-names aggregate columns); ``None`` = identical text.
    reference_sql: Optional[str] = None
    ordered: bool = False
    key_width: Optional[int] = None


POINT_LOOKUP_SQL = "select * from orders where o_id = ?"
POINT_BATCH_SIZE = 200

STATEMENT_KINDS: dict[str, StatementKind] = {
    "filter_wide": StatementKind(
        "select * from orders where o_quantity >= ? and o_quantity < ?"
    ),
    "filter_narrow": StatementKind(
        "select o_id, o_net_paid from orders "
        "where o_item_sk >= ? and o_item_sk < ?"
    ),
    "agg_group": StatementKind(
        "select o_status, count(*), sum(o_net_paid), avg(o_quantity) "
        "from orders where o_quantity >= ? and o_quantity < ? group by o_status",
        "select o_status, count(*) as count_all, "
        "sum(o_net_paid) as sum_o_net_paid, avg(o_quantity) as avg_o_quantity "
        "from orders where o_quantity >= ? and o_quantity < ? group by o_status",
        key_width=1,
    ),
    "agg_group_many": StatementKind(
        "select o_customer_sk, count(*), sum(o_net_paid) from orders "
        "where o_quantity >= ? and o_quantity < ? group by o_customer_sk",
        "select o_customer_sk, count(*) as count_all, "
        "sum(o_net_paid) as sum_o_net_paid from orders "
        "where o_quantity >= ? and o_quantity < ? group by o_customer_sk",
        key_width=1,
    ),
    "join_wide": StatementKind(
        "select * from orders o join customer c "
        "on o.o_customer_sk = c.c_customer_sk "
        "where o.o_item_sk >= ? and o.o_item_sk < ?"
    ),
    "join_proj": StatementKind(
        "select o.o_id, c.c_birth_year from orders o join customer c "
        "on o.o_customer_sk = c.c_customer_sk"
    ),
    "sort_limit": StatementKind(
        "select o_id, o_net_paid from orders "
        "where o_quantity >= ? and o_quantity < ? "
        "order by o_net_paid desc, o_id limit 100",
        ordered=True,
    ),
}
ANALYTIC_KINDS = (*STATEMENT_KINDS, "point_batch")
SCATTER_KINDS = tuple(STATEMENT_KINDS)


#: kind -> (window width, domain size) of its ``low <= column < low + width``
#: predicate: the seed moves the window, never the share of rows it selects.
PARAMETER_WINDOWS = {
    "filter_wide": (17, 100),  # o_quantity: ~1/6 of the rows
    "filter_narrow": (50, 10_000),  # o_item_sk: 0.5 % of the rows
    "agg_group": (70, 100),  # o_quantity: 70 % of the rows into 3 groups
    "agg_group_many": (70, 100),  # ... into one group per customer
    "join_wide": (500, 10_000),  # o_item_sk: 5 % of the orders
    "sort_limit": (50, 100),  # o_quantity: half the rows sorted
}


def draw_parameters(kind: str, rng: random.Random, num_orders: int) -> tuple:
    """Seeded parameters of one statement."""
    if kind in PARAMETER_WINDOWS:
        width, domain = PARAMETER_WINDOWS[kind]
        low = rng.randint(1, domain + 1 - width)
        return (low, low + width)
    if kind == "join_proj":
        return ()
    if kind == "point_batch":
        count = min(POINT_BATCH_SIZE, num_orders)
        return tuple(rng.sample(range(1, num_orders + 1), count))
    raise ValueError(f"unknown statement kind {kind!r}")


class SqlWorkload(Workload):
    """Statements through ``Engine.cursor()`` on the orders/customer data."""

    shards = 0
    pool_rounds = 8

    def build(self) -> None:
        builder = Engine.builder().orders_workload(
            num_orders=self.sizes["orders"],
            num_customers=self.sizes["customers"],
            seed=data_seed(self.seed),
        )
        if self.shards:
            builder.shards(self.shards)
        self.engine = builder.build()
        self.cursor = self.engine.cursor()
        self.clock = self.engine.connection.clock

    def engines(self) -> list[Engine]:
        return [self.engine]

    def counters(self) -> dict[str, float]:
        totals = super().counters()
        stats = self.engine.connection.stats
        totals["round_trips"] += stats.round_trips
        totals["bytes"] += stats.bytes_transferred
        totals["rows"] += stats.rows_transferred
        return totals

    def fetch(self, cursor, kind: str, params: tuple) -> list[dict]:
        if kind == "point_batch":
            rows: list[dict] = []
            for order_id in params:
                cursor.execute(POINT_LOOKUP_SQL, (order_id,))
                rows.extend(cursor.fetchall())
            return rows
        cursor.execute(STATEMENT_KINDS[kind].sql, params)
        return cursor.fetchall()

    def fresh_sqlite(self):
        """SQLite loaded from a fresh generation of this run's rows."""
        return reference.load_sqlite(orders_database(self.sizes, self.seed))

    def matches_reference(self, connection, kind: str, params: tuple, rows) -> bool:
        if kind == "point_batch":
            marks = ", ".join("?" for _ in params)
            names, expected = reference.sqlite_rows(
                connection, f"select * from orders where o_id in ({marks})", params
            )
            return reference.rows_match(reference.project(rows, names), expected)
        statement = STATEMENT_KINDS[kind]
        names, expected = reference.sqlite_rows(
            connection, statement.reference_sql or statement.sql, params
        )
        return reference.rows_match(
            reference.project(rows, names),
            expected,
            ordered=statement.ordered,
            key_width=statement.key_width,
        )


class AnalyticSql(SqlWorkload):
    name = "analytic_sql"
    why = (
        "eight read-only statement kinds, warm caches, unsharded vectorized "
        "tier: db.vectorized/db.executor/db.table do nearly all the work; "
        "materialise-bound kinds sit beside kernel-bound ones"
    )
    sizes_by_scale = {
        "full": {"orders": 50_000, "customers": 5_000},
        "smoke": {"orders": 1_500, "customers": 150},
    }

    def build(self) -> None:
        super().build()
        self.rounds = [
            [
                Op(
                    (kind, index),
                    kind,
                    draw_parameters(kind, self.rng, self.sizes["orders"]),
                )
                for kind in ANALYTIC_KINDS
            ]
            for index in range(self.pool_rounds)
        ]

    def run(self, op: Op) -> tuple[float, Any]:
        before = self.clock.now
        rows = self.fetch(self.cursor, op.kind, op.payload)
        return self.clock.now - before, rows

    def canonical(self, op: Op, outcome: Any) -> Any:
        return len(outcome)

    def check(self) -> tuple[int, int]:
        connection = self.fresh_sqlite()
        attempted = failed = 0
        try:
            for ops in self.rounds:
                for op in ops:
                    _, rows = self.run(op)
                    attempted += 1
                    ok = self.matches_reference(
                        connection, op.kind, op.payload, rows
                    ) and self.expected.get(op.key, len(rows)) == len(rows)
                    failed += 0 if ok else 1
        finally:
            connection.close()
        return attempted, failed

    # -- side sections of the traced run -----------------------------------

    def round_seconds(self, run_kind: Callable[[str, tuple], Any], kinds) -> float:
        """Wall seconds of one pass over pool round 0 for ``kinds``."""
        started = perf_counter()
        for op in self.rounds[0]:
            if op.kind in kinds:
                run_kind(op.kind, op.payload)
        return perf_counter() - started

    def traced_extras(self) -> dict[str, float]:
        if self.shards:
            return self.parallel_ratios()
        return self.tier_ratios()

    def tier_ratios(self) -> dict[str, float]:
        """Round 0 replayed on the compiled and interpreted tiers, time over
        the vectorized tier's: which tiers pay rent."""
        baseline = self.round_seconds(
            lambda kind, params: self.fetch(self.cursor, kind, params),
            ANALYTIC_KINDS,
        )
        metrics = {}
        for mode in ("compiled", "interpreted"):
            database = Database(execution_mode=mode)
            source = self.engine.database
            for name in ("customer", "orders"):
                schema = source.table(name).schema
                database.create_table(
                    name,
                    schema.columns,
                    primary_key=schema.primary_key,
                    foreign_keys=schema.foreign_keys,
                )
                database.insert(name, source.table(name).rows)
            database.analyze()
            with Engine.builder().database(database).build() as engine:
                cursor = engine.cursor()
                replay = lambda kind, params: self.fetch(cursor, kind, params)
                self.round_seconds(replay, ANALYTIC_KINDS)  # warm-up
                seconds = self.round_seconds(replay, ANALYTIC_KINDS)
            metrics[f"db.executor.{mode}_ratio"] = seconds / baseline
        return metrics

    def parallel_ratios(self) -> dict[str, float]:
        """Round 0's scatter kinds on a thread and a process pool, time over
        serial scatter.  Skipped at smoke scale (no pools in tier-1)."""
        if self.scale == "smoke":
            return {}
        database = self.engine.database
        replay = lambda kind, params: self.fetch(self.cursor, kind, params)
        baseline = self.round_seconds(replay, SCATTER_KINDS)
        workers = os.cpu_count() or 1
        metrics = {}
        try:
            for mode in ("thread", "process"):
                database.set_parallel(workers, mode)
                self.round_seconds(replay, SCATTER_KINDS)  # starts the pool
                seconds = self.round_seconds(replay, SCATTER_KINDS)
                metrics[f"db.parallel.{mode}_ratio"] = seconds / baseline
                if mode == "process":
                    pickled = database.sharding_stats()["parallel"]["pickle_bytes"]
                    metrics["db.parallel.pickle_bytes_per_op"] = (
                        pickled["sent"] + pickled["received"]
                    ) / (2 * len(SCATTER_KINDS))
        finally:
            database.set_parallel(1, "serial")
        return metrics


class AnalyticSqlSharded(AnalyticSql):
    name = "analytic_sql_sharded"
    why = (
        "analytic_sql's data, statements and parameters on 8 PK-keyed shards, "
        "serial scatter: ops_per_s here over analytic_sql is the sharding tax; "
        "point_batch is routed, the rest scatter or fall back"
    )
    shards = 8


class AnalyticSqlAfterWrite(SqlWorkload):
    name = "analytic_sql_after_write"
    why = (
        "each op is a one-row PK UPDATE then three reads: every op pays "
        "UPDATE's scan and the full columnar/index rebuild that analytic_sql "
        "never sees, so incremental maintenance wins here and nowhere else"
    )
    sizes_by_scale = {
        "full": {"orders": 8_000, "customers": 800},
        "smoke": {"orders": 1_000, "customers": 100},
    }
    update_sql = "update orders set o_quantity = ? where o_id = ?"
    read_kinds = ("filter_wide", "agg_group", "join_proj")
    check_ops = 6

    def build(self) -> None:
        super().build()
        self.read_parameters = [
            {
                kind: draw_parameters(kind, self.rng, self.sizes["orders"])
                for kind in self.read_kinds
            }
            for _ in range(self.pool_rounds)
        ]
        #: every (quantity, o_id) written so far, replayed into the reference.
        self.history: list[tuple[int, int]] = []

    def next_round(self) -> list[Op]:
        """The write stream never repeats: each op draws a fresh update."""
        index = self._cursor
        self._cursor += 1
        update = (
            self.rng.randint(1, 100),
            self.rng.randint(1, self.sizes["orders"]),
        )
        reads = self.read_parameters[index % self.pool_rounds]
        return [Op(("write_read",), "write_read", (update, reads))]

    def run(self, op: Op) -> tuple[float, Any]:
        update, reads = op.payload
        timings = self.statement_seconds
        before = self.clock.now
        started = perf_counter()
        self.cursor.execute(self.update_sql, update)
        changed = self.cursor.rowcount
        stamp = perf_counter()
        timings.setdefault("update_pk", []).append(stamp - started)
        self.history.append(update)
        results = []
        for position, kind in enumerate(self.read_kinds):
            results.append(self.fetch(self.cursor, kind, reads[kind]))
            if position == 0:
                timings.setdefault("first_read_after_write", []).append(
                    perf_counter() - stamp
                )
        return self.clock.now - before, (changed, results)

    def canonical(self, op: Op, outcome: Any) -> Any:
        return outcome[0]  # rows changed: always exactly one

    def traced_extras(self) -> dict[str, float]:
        """``filter_wide`` with no write since the previous read."""
        params = self.read_parameters[0]["filter_wide"]
        seconds = []
        for _ in range(15):
            started = perf_counter()
            self.fetch(self.cursor, "filter_wide", params)
            seconds.append(perf_counter() - started)
        return {"stmt.warm_read.p50_ms": statistics.median(seconds) * 1000.0}

    def check(self) -> tuple[int, int]:
        """Replay the whole write history into SQLite, then keep writing to
        both and compare every read."""
        connection = self.fresh_sqlite()
        failed = 0
        try:
            connection.executemany(self.update_sql, self.history)
            for _ in range(self.check_ops):
                (op,) = self.next_round()
                update, reads = op.payload
                _, (changed, results) = self.run(op)
                connection.execute(self.update_sql, update)
                ok = changed == 1 and all(
                    self.matches_reference(connection, kind, reads[kind], rows)
                    for kind, rows in zip(self.read_kinds, results)
                )
                failed += 0 if ok else 1
        finally:
            connection.close()
        return self.check_ops, failed


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        Fig13OrmOriginal,
        Fig13CobraRewrite,
        WilosCobraRewrites,
        OptimizePrograms,
        AnalyticSql,
        AnalyticSqlSharded,
        AnalyticSqlAfterWrite,
    )
}
