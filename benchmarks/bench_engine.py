"""Engine performance benchmarks: compiled executor and optimizer wall-clock.

Run directly (``python benchmarks/bench_engine.py`` or ``make bench``).  Two
benchmark families are timed:

* **Executor microbenchmarks** — scan+filter, hash join, and grouped
  aggregation over a 50k-row orders table, executed once with the interpreted
  (tree-walking) executor and once with the compiled-expression executor.
  Row-for-row result equality between the two modes is asserted as part of
  the run.  The ``*_vectorized`` entries (``scan_filter_vectorized``,
  ``hash_join_wide_vectorized``, ``aggregate_vectorized``) additionally time
  the vectorized batch tier on the same plans, reporting its speedup over
  the interpreted baseline (and over the compiled row tier); vectorized
  results are asserted row-identical to the interpreted ones.  The
  ``*_codegen`` entries (``scan_filter_codegen``, ``aggregate_codegen``,
  ``sort_limit_codegen`` — the fused top-k —, ``join_filter_codegen`` —
  the fused filtered-join probe loop on 20-column rows — and
  ``string_filter_codegen`` — a string-equality filter) time the
  fused-pipeline codegen path against the batch-kernel path on the same
  plans (interleaved min-of so allocator drift hits both equally),
  asserting row equality and that codegen actually served the run.
  ``join_filter_narrow`` is the filtered join on 7-column rows, which the
  codegen executor must leave to the kernels.

* **Prepared-statement point lookups** — the N+1 lazy-load query shape
  (``select * from customers where c_id = ?``) executed over and over with
  changing parameters, once through the pre-prepared-statement client path
  (parse to execute + parse to estimate, every call) and once through one
  :class:`repro.db.database.PreparedStatement` (parse once, plan-keyed
  estimate cached, index-backed execution).  Result equality between the two
  paths is asserted.

* **Pipelined executemany** — a 1 000-tuple parameterized ``executemany``
  over the slow-remote network, once through the per-tuple client path (one
  ``SimulatedNetwork`` round trip per tuple, the pre-pipeline driver) and
  once through the pipelined cursor (the whole batch in ONE round trip).
  Reported in *virtual* seconds — the deterministic network-model time the
  paper's cost formulas price — alongside wall-clock; result equality
  between the two paths is asserted.

* **Async concurrent clients** — N asyncio clients each replaying point
  lookups on the slow-remote network, once strictly sequentially and once
  concurrently through ``repro.api.aio`` (overlapping in-flight requests on
  the shared clock pay max-latency, not sum-latency).

* **Sharded execution** — the same data hash-partitioned over 8 shards:
  ``sharded_point_lookup`` times a shard-key point predicate through the
  router's single-shard routed class (and the shard-aware prepared fast
  path) against the same plan forced through scatter-gather;
  ``sharded_scan_filter`` and ``sharded_aggregate`` time scatter-gather
  filtering and per-shard aggregation against unsharded execution, and
  ``sharded_aggregate_many_groups`` the aggregate whose groups each span
  every shard (PK-keyed shards, grouped per customer, through a cursor).
  Result equality (routed ≡ scatter ≡ unsharded, as row sets) is asserted
  as part of the run.

* **WAL overhead** — the write path (bulk insert + predicate UPDATEs) with
  and without the write-ahead log; recovery equivalence (log replay
  reproduces the live state row-for-row) is asserted as part of the run.

* **Fault-retry convergence** — a seeded fault-injected workload (timeouts,
  drops, transient server errors, retried with capped exponential backoff
  on the virtual clock) against the identical fault-free workload;
  row-for-row equality of every result and of the final table state is
  asserted, and the virtual-time cost of the faults is reported.

* **MVCC reader/writer** — an open-loop read workload against an MVCC
  engine, once write-free and once with a concurrent transactional write
  mix: snapshot readers must not serialize behind writers (read p50 within
  1.2x of the write-free baseline, asserted), and a snapshot opened before
  a committed write must still see the old rows (asserted).

* **Admission open loop** — Poisson arrivals at 0.5x / 1x / 2x the
  admission-controlled server's capacity, reporting p50/p95/p99 virtual
  latency per rate; the queueing knee (p95 blowing up past the limit) is
  asserted visible.

* **Tracing overhead** — the vectorized scan_filter query through the full
  connection path with no tracer, a disabled tracer, and tracing enabled,
  alternating query by query; enabled tracing's median query time is
  asserted within 5% of the untraced median and a disabled tracer asserted
  free.

* **Write then read** — a one-row PK ``UPDATE`` followed by a wide filter
  read: first-read-after-write ÷ warm-read and point-``UPDATE`` ÷
  scan-shaped ``UPDATE`` time, reads asserted row-identical to an
  interpreted-tier copy, and the storage counters asserted (every view
  patched in place, no re-encode, each update on its expected path).

* **End-to-end optimizer** — ``CobraOptimizer.optimize()`` wall-clock on the
  Figure 13 motivating program (P0) and all six Wilos patterns, i.e. the
  workloads the opt-time experiment reports.

Results are written to ``BENCH_engine.json`` in the repository root, and
the same report is appended as one line to the tracked history
``BENCH_engine.jsonl`` beside it, so later PRs can track the performance
trajectory (:func:`write_report`).  ``BENCH_ENGINE_OUT`` redirects the
JSON and appends nothing (the smoke and CI runs).  The ``environment``
block records what the timings were measured on (Python, ``nproc``,
platform, the commit, whether ``src/`` differed from it and a sha256
``src_digest`` of the code that ran).  Scale is adjustable via the
``BENCH_ENGINE_ROWS`` environment variable (default 50 000).

This file is intentionally *not* named ``test_*``: it is a standalone
harness, not part of the pytest benchmark suite.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.core.catalog import CostParameters  # noqa: E402
from repro.core.optimizer import CobraOptimizer  # noqa: E402
from repro.db import algebra  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.executor import Executor  # noqa: E402
from repro.db.expressions import (  # noqa: E402
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Literal,
)
from repro.db.schema import Column, ColumnType  # noqa: E402
from repro.net.network import FAST_LOCAL  # noqa: E402
from repro.workloads import tpcds  # noqa: E402
from repro.workloads.programs import P0_SOURCE  # noqa: E402
from repro.workloads.wilos import build_wilos_database  # noqa: E402
from repro.workloads.wilos_programs import build_patterns  # noqa: E402
from record_e2e import git_commit, src_digest, src_modified  # noqa: E402

#: Largest-relation row count for the executor microbenchmarks.
DEFAULT_ROWS = 50_000

#: Timing repetitions; the best (minimum) run is reported.  Allocation-heavy
#: runs (50k output dicts) see multi-millisecond allocator-state noise, so
#: the minimum is taken over enough repetitions to converge.
REPEATS = 7


def build_benchmark_database(
    rows: int, execution_mode: str = "vectorized"
) -> Database:
    """A deterministic orders/customers database for the microbenchmarks."""
    database = Database(execution_mode=execution_mode)
    database.create_table(
        "customers",
        [
            Column("c_id", ColumnType.INT),
            Column("c_name", ColumnType.STRING, width=16),
            Column("c_tier", ColumnType.INT),
        ],
        primary_key="c_id",
    )
    database.create_table(
        "orders",
        [
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_total", ColumnType.FLOAT),
            Column("o_status", ColumnType.STRING, width=8),
        ],
        primary_key="o_id",
    )
    customers = max(rows // 10, 1)
    database.insert(
        "customers",
        (
            {"c_id": i, "c_name": f"customer-{i}", "c_tier": i % 5}
            for i in range(customers)
        ),
    )
    database.insert(
        "orders",
        (
            {
                "o_id": i,
                "o_c_id": i % customers,
                "o_total": float((i * 7919) % 1000),
                "o_status": "OPEN" if i % 3 else "DONE",
            }
            for i in range(rows)
        ),
    )
    database.analyze()
    return database


def executor_plans() -> dict[str, algebra.PlanNode]:
    """The microbenchmark plans: scan+filter, equi-joins, grouped aggregate."""
    scan_filter = algebra.Select(
        algebra.Scan("orders", "o"),
        BooleanOp(
            "and",
            (
                BinaryOp(">", ColumnRef("o_total", "o"), Literal(500.0)),
                BinaryOp("=", ColumnRef("o_status", "o"), Literal("OPEN")),
            ),
        ),
    )
    join = algebra.Join(
        algebra.Scan("orders", "o"),
        algebra.Scan("customers", "c"),
        BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
    )
    # The headline join benchmark projects a few columns, as real queries
    # do; the row tiers build every merged join row and then project it.
    # The full-width join (every bare and qualified column of both sides)
    # is tracked separately as hash_join_wide.
    hash_join = algebra.Project(
        join,
        (
            algebra.OutputColumn(ColumnRef("o_id", "o"), "o_id"),
            algebra.OutputColumn(ColumnRef("c_name", "c"), "c_name"),
            algebra.OutputColumn(ColumnRef("o_total", "o"), "o_total"),
        ),
    )
    aggregate = algebra.Aggregate(
        algebra.Scan("orders"),
        group_by=(ColumnRef("o_c_id"),),
        aggregates=(
            algebra.AggregateSpec("sum", ColumnRef("o_total"), "total"),
            algebra.AggregateSpec("count", None, "n"),
            algebra.AggregateSpec("avg", ColumnRef("o_total"), "avg_total"),
        ),
    )
    return {
        "scan_filter": scan_filter,
        "hash_join": hash_join,
        "hash_join_wide": join,
        "aggregate": aggregate,
    }


def _best_time(run: Callable[[], object], repeats: int = REPEATS) -> float:
    import gc

    best = float("inf")
    # Collect once up front, then keep the collector out of the timed
    # region (pyperf-style): allocation-heavy runs otherwise pay a noisy,
    # state-dependent share of generational GC passes.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


#: Plans also timed on the vectorized batch tier (entry name suffix
#: ``_vectorized``); ``hash_join_wide`` is the tier's headline number — the
#: row tiers build one dict per scanned row and another per joined row, while
#: vectorized execution builds rows once, in a late-materialization pass at
#: the root.
VECTORIZED_PLANS = ("scan_filter", "hash_join_wide", "aggregate")


def bench_executor(rows: int) -> dict:
    """Time every microbenchmark plan in each execution mode.

    All plans run interpreted and compiled; the ``VECTORIZED_PLANS``
    additionally run on the vectorized tier.  Row-for-row equality across
    every mode is asserted as part of the run.
    """
    database = build_benchmark_database(rows)
    interpreted = Executor(database.tables, mode="interpreted")
    compiled = Executor(database.tables, mode="compiled")
    vectorized = Executor(database.tables, mode="vectorized")
    results: dict = {}
    for name, plan in executor_plans().items():
        reference = interpreted.execute(plan)
        fast = compiled.execute(plan)
        if reference != fast:
            raise AssertionError(
                f"compiled and interpreted results differ for {name!r}"
            )
        interpreted_s = _best_time(lambda: interpreted.execute(plan))
        compiled_s = _best_time(lambda: compiled.execute(plan))
        results[name] = {
            "output_rows": len(reference),
            "interpreted_seconds": interpreted_s,
            "compiled_seconds": compiled_s,
            "speedup": interpreted_s / compiled_s if compiled_s else None,
        }
        if name not in VECTORIZED_PLANS:
            continue
        batch = vectorized.execute(plan)
        if reference != batch:
            raise AssertionError(
                f"vectorized and interpreted results differ for {name!r}"
            )
        if vectorized.tier_counts["vectorized"] == 0:
            raise AssertionError(
                f"plan {name!r} fell back off the vectorized tier"
            )
        output_rows = len(reference)
        # Release the held result sets before timing: ~150k live dicts
        # otherwise skew the allocator against the timed runs.
        del reference, fast, batch
        vectorized_s = _best_time(lambda: vectorized.execute(plan))
        results[f"{name}_vectorized"] = {
            "output_rows": output_rows,
            "interpreted_seconds": interpreted_s,
            "compiled_seconds": compiled_s,
            "vectorized_seconds": vectorized_s,
            # Headline: vectorized over the interpreted baseline, with the
            # gain over the compiled row tier tracked alongside.
            "speedup": interpreted_s / vectorized_s if vectorized_s else None,
            "speedup_vs_compiled": (
                compiled_s / vectorized_s if vectorized_s else None
            ),
        }
        vectorized.tier_counts["vectorized"] = 0
    return results


def _interleaved_best(
    runners: dict[str, Callable[[], object]], repeats: int = REPEATS
) -> dict[str, float]:
    """Per-runner minimum over ``repeats`` round-robin rounds.

    Competing paths over the same data are timed alternately so allocator
    and cache-state drift hits them equally — sequential min-of runs can
    hand whichever path runs second a warmed allocator.
    """
    import gc

    best = {label: float("inf") for label in runners}
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for label, run in runners.items():
                started = time.perf_counter()
                run()
                best[label] = min(best[label], time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


#: Plans timed codegen-vs-kernel (both run on the vectorized tier).
CODEGEN_PLANS = ("scan_filter", "aggregate", "sort_limit")


def join_filter_plan() -> algebra.PlanNode:
    """``select * from orders o join customer c on o.o_customer_sk =
    c.c_customer_sk where o.o_item_sk >= 500 and o.o_item_sk < 1000`` over
    the TPC-DS-style orders database: a 20-column full-width join keeping 5 %
    of the orders, the fused probe loop's shape."""
    item = ColumnRef("o_item_sk", "o")
    return algebra.Select(
        algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customer", "c"),
            BinaryOp(
                "=",
                ColumnRef("o_customer_sk", "o"),
                ColumnRef("c_customer_sk", "c"),
            ),
        ),
        BooleanOp(
            "and",
            (
                BinaryOp(">=", item, Literal(500)),
                BinaryOp("<", item, Literal(1_000)),
            ),
        ),
    )


def narrow_join_filter_plan() -> algebra.PlanNode:
    """``select * from orders o join customers c on o.o_c_id = c.c_id where
    o.o_total < 50.0``: the same 5 % filter, but 7-column rows, which the
    kernels' memoised match emits faster than the probe loop would."""
    return algebra.Select(
        algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        ),
        BinaryOp("<", ColumnRef("o_total", "o"), Literal(50.0)),
    )


def sort_limit_plan(rows: int) -> algebra.PlanNode:
    """``select o_id, o_total from orders where o_c_id < ? order by o_total
    desc, o_id limit 100`` over half the orders: the fused top-k's shape."""
    customers = max(rows // 10, 1)
    return algebra.Limit(
        algebra.Sort(
            algebra.Project(
                algebra.Select(
                    algebra.Scan("orders", "o"),
                    BinaryOp(
                        "<", ColumnRef("o_c_id", "o"), Literal(customers // 2)
                    ),
                ),
                (
                    algebra.OutputColumn(ColumnRef("o_id", "o"), "o_id"),
                    algebra.OutputColumn(ColumnRef("o_total", "o"), "o_total"),
                ),
            ),
            (
                algebra.SortKey(ColumnRef("o_total"), False),
                algebra.SortKey(ColumnRef("o_id"), True),
            ),
        ),
        100,
    )


def _codegen_entry(
    name: str,
    plan: algebra.PlanNode,
    interpreted: Executor,
    kernel: Executor,
    codegen: Executor,
) -> dict:
    """Time ``plan`` on the codegen executor against the kernel one (and
    the interpreted tier), after asserting all three agree row for row."""
    reference = interpreted.execute(plan)
    if reference != kernel.execute(plan) or reference != codegen.execute(plan):
        raise AssertionError(
            f"codegen / kernel / interpreted results differ for {name!r}"
        )
    output_rows = len(reference)
    del reference
    timings = _interleaved_best(
        {
            "kernel": lambda: kernel.execute(plan),
            "codegen": lambda: codegen.execute(plan),
        }
    )
    interpreted_s = _best_time(lambda: interpreted.execute(plan))
    return {
        "output_rows": output_rows,
        "interpreted_seconds": interpreted_s,
        "kernel_seconds": timings["kernel"],
        "codegen_seconds": timings["codegen"],
        # Headline: the fused compiled loop over the batch-kernel path.
        "speedup_vs_kernel": timings["kernel"] / timings["codegen"],
        "speedup_vs_interpreted": interpreted_s / timings["codegen"],
    }


def bench_codegen(rows: int) -> dict:
    """Fused-pipeline codegen vs the batch-kernel vectorized path.

    Both paths run on the vectorized tier over identical tables: the
    *kernel* executor has ``codegen_enabled`` cleared, the *codegen*
    executor compiles the fused loops.  Row equality against the interpreted tier is asserted,
    as is that the codegen executor actually served every run from a
    compiled pipeline.  ``sort_limit`` is ``ORDER BY … LIMIT 100``: the
    fused top-k against the kernels' full sort.  ``join_filter`` is a
    filtered 20-column join: the fused probe loop against the kernels'
    memoised match, filter and row maker; ``join_filter_narrow`` is the
    same filter over 7-column rows, which the codegen executor declines
    (``narrow_row``) to the kernels — the two sides of the fused join's
    width cut-off.  ``string_filter`` is a string-equality filter.
    """
    database = build_benchmark_database(rows)
    interpreted = Executor(database.tables, mode="interpreted")
    kernel = Executor(database.tables, mode="vectorized")
    kernel._vectorized.codegen_enabled = False
    codegen = Executor(database.tables, mode="vectorized")
    plans = {**executor_plans(), "sort_limit": sort_limit_plan(rows)}
    results: dict = {
        f"{name}_codegen": _codegen_entry(
            name, plans[name], interpreted, kernel, codegen
        )
        for name in CODEGEN_PLANS
    }
    if codegen._vectorized.codegen_executions == 0:
        raise AssertionError("codegen executor never took the codegen path")
    if codegen._vectorized.fallback_reasons.get("codegen_unsupported"):
        raise AssertionError("a benchmark plan was codegen-unsupported")
    if kernel._vectorized.codegen_executions:
        raise AssertionError("kernel baseline unexpectedly ran codegen")
    if not codegen._vectorized.topk_executions:
        raise AssertionError("sort_limit never took the fused top-k path")

    # -- join_filter: both sides of the fused join's width cut-off -------
    wide_database = tpcds.build_orders_database(
        num_orders=rows, num_customers=max(rows // 10, 1)
    )
    wide_executors = [
        Executor(wide_database.tables, mode=mode)
        for mode in ("interpreted", "vectorized", "vectorized")
    ]
    wide_executors[1]._vectorized.codegen_enabled = False
    results["join_filter_codegen"] = _codegen_entry(
        "join_filter", join_filter_plan(), *wide_executors
    )
    if not wide_executors[2]._vectorized.join_executions:
        raise AssertionError("join_filter never took the fused join path")
    narrow_plan = narrow_join_filter_plan()
    reference = interpreted.execute(narrow_plan)
    if reference != codegen.execute(narrow_plan):
        raise AssertionError("join_filter_narrow results differ")
    if codegen._vectorized.join_declines.get("narrow_row") != 1:
        raise AssertionError("join_filter_narrow did not decline to kernels")
    results["join_filter_narrow"] = {
        "output_rows": len(reference),
        "kernel_seconds": _best_time(lambda: codegen.execute(narrow_plan)),
    }
    del reference

    # -- string_filter: a string-equality filter -------------------------
    string_plan = algebra.Select(
        algebra.Scan("orders", "o"),
        BinaryOp("=", ColumnRef("o_status", "o"), Literal("OPEN")),
    )
    served = codegen._vectorized.codegen_executions
    results["string_filter_codegen"] = _codegen_entry(
        "string_filter", string_plan, interpreted, kernel, codegen
    )
    if codegen._vectorized.codegen_executions == served or (
        codegen._vectorized.fallback_reasons.get("codegen_unsupported")
    ):
        raise AssertionError("string_filter never took the codegen path")
    return results


#: Parameterized lookups per timed run of the prepared-statement benchmark.
LOOKUPS = 2_000


def bench_prepared_point_lookup(rows: int) -> dict:
    """Repeated parameterized point lookups: prepared vs. unprepared.

    The *unprepared* runner reproduces the pre-prepared-statement client
    stack exactly: every call parses the SQL text to execute it, parses it a
    second time to estimate it (as ``SimulatedConnection.execute_query``
    used to), and runs the bound plan through the generic executor.  The
    *prepared* runner prepares the statement once and replays it with fresh
    parameters, hitting the cached plan, the plan-keyed estimate, and the
    index-backed point-lookup fast path.
    """
    from repro.db.sqlparser import bind_parameters, parse_sql  # noqa: E402

    # The default (vectorized) tier: the unprepared runner's generic
    # executor then costs what a statement costs today, so the speedup
    # measures preparation, not a full row-tier scan.  The prepared
    # runner's index-backed fast path never enters the executor anyway.
    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    sql = "select * from customers where c_id = ?"
    keys = [(i * 7919) % customers for i in range(LOOKUPS)]

    def unprepared() -> int:
        fetched = 0
        for key in keys:
            plan = bind_parameters(parse_sql(sql), (key,))
            result = database.execute_plan(plan, sql=sql)
            estimate_plan = bind_parameters(parse_sql(sql), (key,))
            database.estimate_plan(estimate_plan)
            fetched += len(result.rows)
        return fetched

    statement = database.prepare(sql)

    def prepared() -> int:
        fetched = 0
        for key in keys:
            result = statement.execute((key,))
            statement.estimate()
            fetched += len(result.rows)
        return fetched

    for key in keys[:25]:
        reference = database.execute_plan(
            bind_parameters(parse_sql(sql), (key,)), sql=sql
        )
        fast = statement.execute((key,))
        if reference.rows != fast.rows:
            raise AssertionError(
                f"prepared and unprepared lookup results differ for key {key}"
            )

    unprepared_s = _best_time(unprepared)
    prepared_s = _best_time(prepared)
    return {
        "lookups": len(keys),
        "table_rows": customers,
        "unprepared_seconds": unprepared_s,
        "prepared_seconds": prepared_s,
        "speedup": unprepared_s / prepared_s if prepared_s else None,
    }


#: Parameter tuples per executemany batch in the pipelining benchmark.
BATCH_TUPLES = 1_000


def bench_pipelined_executemany(rows: int) -> dict:
    """1k-tuple parameterized executemany: per-tuple round trips vs pipeline.

    The *per-tuple* runner reproduces the pre-pipeline driver exactly: the
    statement is prepared once but every parameter tuple pays its own
    network round trip.  The *pipelined* runner is today's
    ``Cursor.executemany``: the same tuples ship as one batch in a single
    round trip (``NetworkConditions.pipelined_time``).  Both run on the
    paper's slow-remote network; the headline number is the **virtual-time**
    speedup, with wall-clock recorded alongside.
    """
    from repro.net.connection import SimulatedConnection
    from repro.net.network import SLOW_REMOTE

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    sql = "select * from customers where c_id = ?"
    tuples = [((i * 7919) % customers,) for i in range(BATCH_TUPLES)]

    per_tuple_conn = SimulatedConnection(database, SLOW_REMOTE)
    statement = per_tuple_conn.prepare(sql)

    def per_tuple() -> list:
        per_tuple_conn.reset()
        cursor = per_tuple_conn.cursor()
        last = None
        for params in tuples:
            last = cursor.execute_prepared(statement, params).fetchall()
        return last

    pipelined_conn = SimulatedConnection(database, SLOW_REMOTE)

    def pipelined() -> list:
        pipelined_conn.reset()
        cursor = pipelined_conn.cursor()
        cursor.executemany(sql, tuples)
        return cursor.fetchall()

    if per_tuple() != pipelined():
        raise AssertionError(
            "pipelined and per-tuple executemany results differ"
        )
    per_tuple_wall = _best_time(per_tuple)
    per_tuple_virtual = per_tuple_conn.elapsed
    per_tuple_trips = per_tuple_conn.stats.round_trips
    pipelined_wall = _best_time(pipelined)
    pipelined_virtual = pipelined_conn.elapsed
    pipelined_trips = pipelined_conn.stats.round_trips
    return {
        "tuples": len(tuples),
        "network": SLOW_REMOTE.name,
        "per_tuple_round_trips": per_tuple_trips,
        "pipelined_round_trips": pipelined_trips,
        "per_tuple_virtual_seconds": per_tuple_virtual,
        "pipelined_virtual_seconds": pipelined_virtual,
        "virtual_speedup": (
            per_tuple_virtual / pipelined_virtual if pipelined_virtual else None
        ),
        "per_tuple_wall_seconds": per_tuple_wall,
        "pipelined_wall_seconds": pipelined_wall,
        "wall_speedup": (
            per_tuple_wall / pipelined_wall if pipelined_wall else None
        ),
    }


#: Concurrent clients / lookups per client in the async benchmark.
ASYNC_CLIENTS = 8
ASYNC_LOOKUPS = 25


def bench_async_concurrent_clients(rows: int) -> dict:
    """N clients x K point lookups: sequential vs overlapping async clients.

    Sequential execution charges each client's round trips back to back;
    the async engine's shared clock lets the N clients' in-flight requests
    overlap, so the fleet pays roughly one client's latency.  Virtual time
    is the headline (deterministic); wall-clock covers the asyncio harness
    overhead.
    """
    import asyncio

    from repro.api import connect
    from repro.net.network import SLOW_REMOTE

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    engine = connect(database=database, network=SLOW_REMOTE)
    sql = "select * from customers where c_id = ?"
    keys = [(i * 7919) % customers for i in range(ASYNC_LOOKUPS)]

    def sequential() -> float:
        connections = [engine.connect() for _ in range(ASYNC_CLIENTS)]
        statement = engine.prepare(sql)
        for connection in connections:
            for key in keys:
                connection.execute_prepared(statement, (key,))
        return sum(connection.elapsed for connection in connections)

    def concurrent() -> float:
        aengine = engine.aio()

        async def client(connection) -> None:
            statement = engine.prepare(sql)
            for key in keys:
                await connection.execute_prepared(statement, (key,))

        async def fleet() -> None:
            connections = [aengine.connect() for _ in range(ASYNC_CLIENTS)]
            await asyncio.gather(
                *[client(connection) for connection in connections]
            )

        asyncio.run(fleet())
        return aengine.elapsed

    started = time.perf_counter()
    sequential_virtual = sequential()
    sequential_wall = time.perf_counter() - started
    started = time.perf_counter()
    concurrent_virtual = concurrent()
    concurrent_wall = time.perf_counter() - started
    return {
        "clients": ASYNC_CLIENTS,
        "lookups_per_client": ASYNC_LOOKUPS,
        "network": SLOW_REMOTE.name,
        "sequential_virtual_seconds": sequential_virtual,
        "concurrent_virtual_seconds": concurrent_virtual,
        "overlap_speedup": (
            sequential_virtual / concurrent_virtual
            if concurrent_virtual
            else None
        ),
        "sequential_wall_seconds": sequential_wall,
        "concurrent_wall_seconds": concurrent_wall,
    }


#: Shard partitions used by the sharded-execution benchmarks.
SHARD_COUNT = 8

#: Point lookups per timed run of the sharded-routing benchmark.
SHARDED_LOOKUPS = 200


def _build_sharded_pair(rows: int):
    """Identically-populated (sharded, unsharded) benchmark databases."""
    sharded = build_benchmark_database(rows)
    sharded.shard_table("customers", "c_id", SHARD_COUNT)
    sharded.shard_table("orders", "o_c_id", SHARD_COUNT)
    sharded.analyze()
    unsharded = build_benchmark_database(rows)
    return sharded, unsharded


def _normalized(rows: list) -> list:
    return sorted(
        rows, key=lambda row: [(k, repr(v)) for k, v in sorted(row.items())]
    )


def bench_sharded(rows: int) -> dict:
    """Sharded execution: routed vs scatter-gather, and sharded overheads.

    * ``sharded_point_lookup`` — the same shard-key point predicate executed
      through the router's **single-shard routed** class (one partition does
      the work) and through forced **scatter-gather** (every partition
      executes and a gather node concatenates).  Routing must win by at
      least the shard count — it scans 1/N of the rows and pays one
      pipeline instead of N.
    * ``sharded_scan_filter`` — a non-shard-key filter, which *must*
      scatter, timed against the same plan on an unsharded database
      (the cost of distribution when no pruning is possible).
    * ``sharded_aggregate`` — a grouped aggregate executed per shard (one
      group state threaded through the shards' fused loops), against the
      unsharded single-pass aggregation.  It groups on the shard key, so
      every group lives in one partition.  Integer aggregates, so results
      are asserted exactly equal.
    * ``sharded_aggregate_many_groups`` — see
      :func:`_bench_sharded_many_groups`.
    """
    from repro.db.expressions import ParameterSlot

    sharded, unsharded = _build_sharded_pair(rows)
    router = sharded._router
    customers = max(rows // 10, 1)

    # -- sharded_point_lookup: routed vs forced scatter-gather -----------
    # The *routed* runner is the engine's real point-lookup path: a prepared
    # statement whose fast path probes only the positional index of the
    # shard the key hashes to.  The *routed executor* runner is the generic
    # single-shard routed class (a vectorized filter over one partition, no
    # index).  The *scatter* runner forces the same plan through
    # scatter-gather: every partition executes and a gather concatenates.
    slots: list = [None]
    lookup_plan = algebra.Select(
        algebra.Scan("customers", "c"),
        BinaryOp("=", ColumnRef("c_id", "c"), ParameterSlot(0, slots)),
    )
    sql = "select * from customers where c_id = ?"
    statement = sharded.prepare(sql)
    if statement.point_lookup is None:
        raise AssertionError("prepared lookup lost its fast path")
    keys = [(i * 7919) % customers for i in range(SHARDED_LOOKUPS)]

    def routed() -> int:
        fetched = 0
        for key in keys:
            fetched += len(statement.execute((key,)).rows)
        return fetched

    def routed_executor() -> int:
        fetched = 0
        for key in keys:
            slots[0] = key
            fetched += len(sharded._executor.execute(lookup_plan))
        return fetched

    names = frozenset({"customers"})

    def scatter() -> list:
        # Every shard's fused loop; a decline would time nothing, so fail.
        rows = router._scatter(lookup_plan, names, SHARD_COUNT)
        if rows is None:
            raise AssertionError("forced scatter declined on a shard")
        return rows

    def scattered() -> int:
        fetched = 0
        for key in keys:
            slots[0] = key
            fetched += len(scatter())
        return fetched

    slots[0] = keys[0]
    routed_rows = statement.execute((keys[0],)).rows
    executor_rows = sharded._executor.execute(lookup_plan)
    scatter_rows = scatter()
    # The prepared statement scans without an alias while the hand-built
    # plan aliases the table: compare on the bare-column view.
    alias_free = lambda rows: _normalized(  # noqa: E731
        [{k: v for k, v in row.items() if "." not in k} for row in rows]
    )
    if not (
        alias_free(routed_rows)
        == alias_free(executor_rows)
        == alias_free(scatter_rows)
    ):
        raise AssertionError("routed and scatter-gather lookups differ")
    if router.stats.routed == 0:
        raise AssertionError("point lookup did not route to a single shard")
    routed_s = _best_time(routed)
    routed_executor_s = _best_time(routed_executor)
    scatter_s = _best_time(scattered)
    point_lookup = {
        "lookups": len(keys),
        "shards": SHARD_COUNT,
        "table_rows": customers,
        "routed_seconds": routed_s,
        "routed_executor_seconds": routed_executor_s,
        "scatter_seconds": scatter_s,
        # Headline: the engine's routed point-lookup path vs forcing the
        # same statement through every shard.
        "speedup": scatter_s / routed_s if routed_s else None,
        "speedup_executor_routed": (
            scatter_s / routed_executor_s if routed_executor_s else None
        ),
    }

    # -- sharded_scan_filter: scatter-gather vs unsharded -----------------
    filter_plan = executor_plans()["scan_filter"]
    sharded_rows = sharded._executor.execute(filter_plan)
    unsharded_rows = unsharded._executor.execute(filter_plan)
    if _normalized(sharded_rows) != _normalized(unsharded_rows):
        raise AssertionError("sharded and unsharded scan_filter results differ")
    scatter_before = router.stats.scatter
    sharded._executor.execute(filter_plan)
    if router.stats.scatter == scatter_before:
        raise AssertionError("scan_filter did not scatter-gather")
    output_rows = len(sharded_rows)
    del sharded_rows, unsharded_rows
    sharded_filter_s = _best_time(lambda: sharded._executor.execute(filter_plan))
    unsharded_filter_s = _best_time(
        lambda: unsharded._executor.execute(filter_plan)
    )
    scan_filter = {
        "output_rows": output_rows,
        "shards": SHARD_COUNT,
        "unsharded_seconds": unsharded_filter_s,
        "sharded_seconds": sharded_filter_s,
        "relative_overhead": (
            sharded_filter_s / unsharded_filter_s if unsharded_filter_s else None
        ),
    }

    # -- sharded_aggregate: per-shard aggregation vs unsharded -------------
    aggregate_plan = algebra.Aggregate(
        algebra.Scan("orders"),
        group_by=(ColumnRef("o_c_id"),),
        aggregates=(
            algebra.AggregateSpec("count", None, "n"),
            algebra.AggregateSpec("sum", ColumnRef("o_id"), "total"),
            algebra.AggregateSpec("min", ColumnRef("o_id"), "low"),
            algebra.AggregateSpec("max", ColumnRef("o_id"), "high"),
        ),
    )
    sharded_rows = sharded._executor.execute(aggregate_plan)
    unsharded_rows = unsharded._executor.execute(aggregate_plan)
    # Integer aggregates are exact; only group order may differ.
    if _normalized(sharded_rows) != _normalized(unsharded_rows):
        raise AssertionError("sharded and unsharded aggregates differ")
    local_before = router.stats.local
    sharded._executor.execute(aggregate_plan)
    if router.stats.local == local_before:
        raise AssertionError("aggregate did not run shard-local")
    groups = len(sharded_rows)
    del sharded_rows, unsharded_rows
    sharded_agg_s = _best_time(lambda: sharded._executor.execute(aggregate_plan))
    unsharded_agg_s = _best_time(
        lambda: unsharded._executor.execute(aggregate_plan)
    )
    aggregate = {
        "groups": groups,
        "shards": SHARD_COUNT,
        "unsharded_seconds": unsharded_agg_s,
        "sharded_seconds": sharded_agg_s,
        "relative_overhead": (
            sharded_agg_s / unsharded_agg_s if unsharded_agg_s else None
        ),
    }

    return {
        "sharded_point_lookup": point_lookup,
        "sharded_scan_filter": scan_filter,
        "sharded_aggregate": aggregate,
        "sharded_aggregate_many_groups": _bench_sharded_many_groups(rows),
    }


def _bench_sharded_many_groups(rows: int) -> dict:
    """A filtered aggregate whose ~rows/10 groups each span every shard.

    ``sharded_aggregate`` groups on the shard key, so each group lives in
    one partition and the gather has nothing to combine.  Here ``orders``
    is sharded on its primary key and grouped per customer, through
    ``Engine.cursor()``: every group has rows in every shard, which is
    where a row-partial gather pays for ``shards x groups`` partial rows
    and the threaded group state does not.  ``o_total`` holds whole
    numbers, so float sums are exact in any order and results are asserted
    equal.
    """
    from repro.api.engine import Engine

    sql = (
        "select o_c_id, count(*), sum(o_total) from orders "
        "where o_total >= ? and o_total < ? group by o_c_id"
    )
    params = (100.0, 800.0)  # ~70 % of the rows
    database = build_benchmark_database(rows)
    database.shard_table("orders", "o_id", SHARD_COUNT)
    database.analyze()
    with Engine.builder().database(database).build() as sharded, (
        Engine.builder().database(build_benchmark_database(rows)).build()
    ) as unsharded:
        cursors = {"sharded": sharded.cursor(), "unsharded": unsharded.cursor()}

        def runner(cursor):
            return lambda: cursor.execute(sql, params).fetchall()

        fetched = {label: runner(cursor)() for label, cursor in cursors.items()}
        if _normalized(fetched["sharded"]) != _normalized(fetched["unsharded"]):
            raise AssertionError("sharded and unsharded many-group aggregates differ")
        if database.sharding_stats()["threaded_aggregates"] == 0:
            raise AssertionError("many-group aggregate did not thread one state")
        groups = len(fetched["sharded"])
        del fetched
        timings = _interleaved_best(
            {label: runner(cursor) for label, cursor in cursors.items()}
        )
    return {
        "groups": groups,
        "shards": SHARD_COUNT,
        "unsharded_seconds": timings["unsharded"],
        "sharded_seconds": timings["sharded"],
        "relative_overhead": timings["sharded"] / timings["unsharded"],
    }


def bench_parallel(rows: int) -> dict:
    """Parallel scatter-gather: serial scatter vs the worker pool at 8 shards.

    ``parallel_scan_filter`` is the scatter-mandatory filter of
    ``sharded_scan_filter``, executed serially and on the worker pool;
    rows are asserted identical (parallel preserves shard gather order
    exactly), and both are compared against the unsharded baseline.
    Aggregates never use the pool, so there is no aggregate entry.

    ``relative_overhead`` is pool-vs-unsharded — the number the sharding
    tax becomes a speedup on (< 1.0 on a multi-core runner; on a single
    core the thread pool can only break even minus coordination cost).
    ``BENCH_ENGINE_WORKERS`` sizes the pool (default: CPU count) and
    ``BENCH_ENGINE_PARALLEL_MODE`` picks ``thread`` (default) or
    ``process``.
    """
    sharded, unsharded = _build_sharded_pair(rows)
    workers = int(os.environ.get("BENCH_ENGINE_WORKERS", "0")) or (
        os.cpu_count() or 1
    )
    mode = os.environ.get("BENCH_ENGINE_PARALLEL_MODE", "thread")
    plan = executor_plans()["scan_filter"]
    run = lambda: sharded._executor.execute(plan)  # noqa: E731
    sharded.set_parallel(mode="serial")
    serial_rows = run()
    if _normalized(serial_rows) != _normalized(unsharded._executor.execute(plan)):
        raise AssertionError("parallel_scan_filter: sharded and unsharded rows differ")
    serial_s = _best_time(run)
    sharded.set_parallel(workers, mode)
    scatters = sharded.sharding_stats()["scatter"]
    if run() != serial_rows:
        raise AssertionError(
            "parallel_scan_filter: parallel scatter is not row-identical to serial"
        )
    if sharded.sharding_stats()["scatter"] == scatters:
        raise AssertionError("parallel_scan_filter: the pool scatter declined")
    parallel_s = _best_time(run)
    unsharded_s = _best_time(lambda: unsharded._executor.execute(plan))
    sharded.close_parallel()
    return {
        "parallel_scan_filter": {
            "output_rows": len(serial_rows),
            "shards": SHARD_COUNT,
            "workers": workers,
            "mode": mode,
            "unsharded_seconds": unsharded_s,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup_vs_serial": serial_s / parallel_s if parallel_s else None,
            "relative_overhead": (
                parallel_s / unsharded_s if unsharded_s else None
            ),
        }
    }


#: Rows inserted (and then updated) per timed run of the WAL benchmark.
WAL_BENCH_UPDATES = 5

#: Operations / fault rate / seed for the fault-retry convergence benchmark.
FAULT_BENCH_OPS = 300
FAULT_BENCH_RATE = 0.1
FAULT_BENCH_SEED = 42


def bench_wal_overhead(rows: int) -> dict:
    """Write path with and without the write-ahead log.

    Each timed run builds a fresh table, bulk-inserts it, and runs a few
    predicate UPDATEs — once on a plain database and once with the WAL
    enabled (every write logged as a typed record plus a commit marker
    before it applies).  The headline is the relative overhead of
    durability on the write path; recovery equivalence (replaying the log
    reproduces the live state row-for-row) is asserted as part of the run.
    """
    count = max(rows // 5, 1_000)
    payload = [
        {"e_id": i, "e_grp": i % 10, "e_val": float((i * 7919) % 1000)}
        for i in range(count)
    ]
    columns = [
        Column("e_id", ColumnType.INT),
        Column("e_grp", ColumnType.INT),
        Column("e_val", ColumnType.FLOAT),
    ]

    def run(wal: bool) -> Database:
        database = Database(wal=wal)
        database.create_table("events", columns, primary_key="e_id")
        database.insert("events", payload)
        for i in range(WAL_BENCH_UPDATES):
            database.update_table(
                "events",
                lambda row, i=i: row["e_grp"] == i,
                {"e_val": float(i)},
            )
        return database

    unlogged_s = _best_time(lambda: run(False), repeats=3)
    logged_s = _best_time(lambda: run(True), repeats=3)

    database = run(True)
    recovered = Database.recover(database.wal)
    live_rows = [dict(r) for r in database.table("events").rows]
    recovered_rows = [dict(r) for r in recovered.table("events").rows]
    if live_rows != recovered_rows:
        raise AssertionError("WAL recovery diverged from the live database")
    stats = database.wal.stats
    return {
        "rows": count,
        "updates": WAL_BENCH_UPDATES,
        "unlogged_seconds": unlogged_s,
        "logged_seconds": logged_s,
        "relative_overhead": (
            logged_s / unlogged_s if unlogged_s else None
        ),
        "wal_records": stats.records,
        "wal_rows_logged": stats.rows_logged,
        "group_commit": _bench_group_commit(rows),
    }


#: Transactions / flush cost for the group-commit delta measurement.
GROUP_COMMITS = 20
GROUP_FLUSH_SECONDS = 0.05
GROUP_WINDOW = 2.0


def _bench_group_commit(rows: int) -> dict:
    """Virtual-time delta of group commit on a commit-heavy workload.

    ``GROUP_COMMITS`` sequential BEGIN/UPDATE/COMMIT transactions over the
    slow-remote network, once with every COMMIT paying the full WAL flush
    (``group_window=0``) and once with commits inside a window piggybacking
    on the last flush (``wal_group_commit`` counter).  The grouped run must
    be cheaper in virtual time, by up to ``(N-1) * flush_seconds``.
    """
    from repro.api.engine import Engine
    from repro.net.network import SLOW_REMOTE

    count = max(rows // 50, 200)

    def run(group_window: float) -> tuple[float, int]:
        engine = (
            Engine.builder()
            .database(build_benchmark_database(count))
            .network(SLOW_REMOTE)
            .wal(flush_seconds=GROUP_FLUSH_SECONDS, group_window=group_window)
            .build()
        )
        connection = engine.connect()
        for i in range(GROUP_COMMITS):
            connection.begin()
            connection.execute_update(
                f"update customers set c_tier = {i % 5} where c_id = 0"
            )
            connection.commit()
        return connection.elapsed, engine.database.wal.stats.group_commits

    ungrouped_virtual, _ = run(0.0)
    grouped_virtual, grouped = run(GROUP_WINDOW)
    if grouped == 0:
        raise AssertionError("group commit never batched a flush")
    if grouped_virtual >= ungrouped_virtual:
        raise AssertionError("group commit did not reduce virtual commit time")
    return {
        "transactions": GROUP_COMMITS,
        "flush_seconds": GROUP_FLUSH_SECONDS,
        "group_window": GROUP_WINDOW,
        "ungrouped_virtual_seconds": ungrouped_virtual,
        "grouped_virtual_seconds": grouped_virtual,
        "flushes_saved": grouped,
        "virtual_seconds_saved": ungrouped_virtual - grouped_virtual,
    }


def bench_fault_retry_convergence(rows: int) -> dict:
    """Seeded fault-injected workload vs the same workload fault-free.

    The faulty engine injects deterministic timeouts/drops/transient errors
    at ``FAULT_BENCH_RATE`` and retries them with capped exponential
    backoff; faults that exhaust the retry budget are re-issued at the
    application level (safe: request-path faults never executed
    server-side).  Row-for-row equality of every query result and of the
    final table state against the fault-free run is asserted — the
    convergence property — and the extra *virtual* time the faults cost is
    the headline number.
    """
    from repro.api.engine import Engine
    from repro.net.faults import FaultError, RetryPolicy
    from repro.net.network import SLOW_REMOTE

    customers = max(rows // 10, 1)
    sql = "select * from customers where c_id = ?"

    def run(engine: Engine, *, reissue: bool) -> tuple:
        connection = engine.connect()
        statement = connection.prepare(sql)
        outputs = []
        for i in range(FAULT_BENCH_OPS):
            key = (i * 7919) % customers
            if i % 5 == 4:
                op = lambda: connection.execute_update(
                    f"update customers set c_tier = {i % 5} "
                    f"where c_id = {key}"
                )
            else:
                op = lambda: connection.execute_prepared(
                    statement, (key,)
                ).rows
            while True:
                try:
                    outputs.append(op())
                    break
                except FaultError:
                    if not reissue:
                        raise
        return outputs, connection.elapsed

    clean_engine = (
        Engine.builder()
        .database(build_benchmark_database(rows))
        .network(SLOW_REMOTE)
        .build()
    )
    faulty_engine = (
        Engine.builder()
        .database(build_benchmark_database(rows))
        .network(SLOW_REMOTE)
        .fault_rate(FAULT_BENCH_RATE, seed=FAULT_BENCH_SEED)
        .retries(RetryPolicy(max_attempts=3, seed=FAULT_BENCH_SEED))
        .build()
    )

    started = time.perf_counter()
    clean_out, clean_virtual = run(clean_engine, reissue=False)
    clean_wall = time.perf_counter() - started
    started = time.perf_counter()
    faulty_out, faulty_virtual = run(faulty_engine, reissue=True)
    faulty_wall = time.perf_counter() - started

    if clean_out != faulty_out:
        raise AssertionError(
            "fault-injected run diverged from the fault-free run"
        )
    clean_rows = [
        dict(r) for r in clean_engine.database.table("customers").rows
    ]
    faulty_rows = [
        dict(r) for r in faulty_engine.database.table("customers").rows
    ]
    if clean_rows != faulty_rows:
        raise AssertionError(
            "final table state diverged between faulty and fault-free runs"
        )
    stats = faulty_engine.faults.stats
    if stats.injected != stats.retries + stats.exhausted + stats.ambiguous:
        raise AssertionError("a fault was neither retried nor surfaced")
    return {
        "operations": FAULT_BENCH_OPS,
        "fault_rate": FAULT_BENCH_RATE,
        "seed": FAULT_BENCH_SEED,
        "network": SLOW_REMOTE.name,
        "faults_injected": stats.injected,
        "retries": stats.retries,
        "reissued_after_exhaustion": stats.exhausted,
        "clean_virtual_seconds": clean_virtual,
        "faulty_virtual_seconds": faulty_virtual,
        "fault_virtual_overhead": (
            faulty_virtual / clean_virtual if clean_virtual else None
        ),
        "clean_wall_seconds": clean_wall,
        "faulty_wall_seconds": faulty_wall,
    }


#: Operations / offered rate / mix for the MVCC reader-writer benchmark.
MVCC_LOADGEN_OPS = 150
MVCC_LOADGEN_RATE = 2.0
MVCC_READ_FRACTION = 0.7

#: Sentinel tier value (outside the generator's 0..4 range) for the
#: snapshot-consistency check.
MVCC_SENTINEL_TIER = 7


def bench_mvcc_reader_writer(rows: int) -> dict:
    """Open-loop readers against an MVCC engine, write-free vs mixed.

    The baseline run is 100% point reads; the mixed run interleaves
    transactional UPDATEs (first-committer-wins conflicts tolerated and
    counted).  Under MVCC, readers outside a transaction execute against
    the latest committed snapshot and never wait on writers, so mixed read
    p50 must stay within 1.2x of the write-free baseline — asserted, along
    with a snapshot opened before a committed write still seeing the old
    rows.
    """
    from repro.api.engine import Engine
    from repro.net.network import SLOW_REMOTE
    from repro.workloads.loadgen import OpenLoopLoadGenerator

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    engine = (
        Engine.builder()
        .database(database)
        .network(SLOW_REMOTE)
        .mvcc()
        .build()
    )
    read_sql = "select * from customers where c_id = ?"

    def read_params(rng):
        return (rng.randrange(customers),)

    baseline = OpenLoopLoadGenerator(
        engine.connect(),
        rate=MVCC_LOADGEN_RATE,
        operations=MVCC_LOADGEN_OPS,
        read_sql=read_sql,
        read_params=read_params,
        seed=11,
    ).run()

    # Snapshot-consistency probe: open a snapshot, commit a write the
    # mixed run will not overwrite (its writes avoid key 0), and verify
    # at the end that the snapshot still sees the pre-write row.
    original = engine.connect().execute_query(read_sql, (0,)).rows[0]["c_tier"]
    snapshot = database.snapshot()
    writer = engine.connect()
    writer.run_transaction(
        lambda c: c.execute_update(
            f"update customers set c_tier = {MVCC_SENTINEL_TIER} "
            f"where c_id = 0"
        )
    )

    def write_params(rng):
        # Keys 1.. only: key 0 carries the snapshot sentinel.
        return (rng.randrange(5), rng.randrange(1, max(customers, 2)))

    mixed = OpenLoopLoadGenerator(
        engine.connect(),
        rate=MVCC_LOADGEN_RATE,
        operations=MVCC_LOADGEN_OPS,
        read_sql=read_sql,
        read_params=read_params,
        write_sql="update customers set c_tier = ? where c_id = ?",
        write_params=write_params,
        read_fraction=MVCC_READ_FRACTION,
        seed=13,
        write_transaction=True,
    ).run()

    snapshot_value = snapshot.execute(read_sql, (0,)).rows[0]["c_tier"]
    live_value = engine.connect().execute_query(read_sql, (0,)).rows[0][
        "c_tier"
    ]
    snapshot.close()
    if snapshot_value != original or live_value != MVCC_SENTINEL_TIER:
        raise AssertionError(
            "snapshot visibility broke: snapshot saw "
            f"{snapshot_value!r} (expected {original!r}), live saw "
            f"{live_value!r} (expected {MVCC_SENTINEL_TIER!r})"
        )
    ratio = (
        mixed.read_latency.p50 / baseline.read_latency.p50
        if baseline.read_latency.p50
        else None
    )
    if ratio is None or ratio > 1.2:
        raise AssertionError(
            f"snapshot readers serialized behind writers: mixed read p50 is "
            f"{ratio}x the write-free baseline (limit 1.2x)"
        )
    mvcc_stats = database.mvcc_stats()
    return {
        "operations": MVCC_LOADGEN_OPS,
        "offered_rate": MVCC_LOADGEN_RATE,
        "read_fraction": MVCC_READ_FRACTION,
        "network": SLOW_REMOTE.name,
        "baseline_read": baseline.read_latency.as_dict(),
        "mixed_read": mixed.read_latency.as_dict(),
        "mixed_write": mixed.write_latency.as_dict(),
        "read_p50_ratio": ratio,
        "mixed_throughput": mixed.throughput,
        "write_conflicts": mixed.conflicts,
        "snapshot_consistent": True,
        "mvcc": {
            key: mvcc_stats[key]
            for key in (
                "versions_created",
                "versions_reclaimed",
                "snapshots_taken",
                "write_conflicts",
            )
        },
    }


#: Concurrency limit / operations per rate for the admission benchmark.
ADMISSION_LIMIT = 4
ADMISSION_OPS = 150


def bench_admission_open_loop(rows: int) -> dict:
    """Latency percentiles at 0.5x / 1x / 2x an admission-limited capacity.

    The server's capacity is ``limit / service_time`` (service time probed
    without admission).  Below capacity, latency sits at the service time;
    past it, the open-loop queue grows without bound — the knee.  Asserted:
    the 2x run queues and its p95 clearly exceeds the 0.5x run's.
    """
    from repro.api.engine import Engine
    from repro.net.network import SLOW_REMOTE
    from repro.workloads.loadgen import OpenLoopLoadGenerator

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    read_sql = "select * from customers where c_id = ?"

    def read_params(rng):
        return (rng.randrange(customers),)

    probe_engine = (
        Engine.builder().database(database).network(SLOW_REMOTE).build()
    )
    probe = probe_engine.connect()
    _, service_seconds = probe.exchange(probe.prepare(read_sql), (0,))
    capacity = ADMISSION_LIMIT / service_seconds

    runs: dict = {}
    for label, multiplier in (("0.5x", 0.5), ("1x", 1.0), ("2x", 2.0)):
        # A fresh engine per rate: admission slot bookkeeping must not
        # leak between runs.
        engine = (
            Engine.builder()
            .database(database)
            .network(SLOW_REMOTE)
            .admission(ADMISSION_LIMIT)
            .build()
        )
        report = OpenLoopLoadGenerator(
            engine.connect(),
            rate=capacity * multiplier,
            operations=ADMISSION_OPS,
            read_sql=read_sql,
            read_params=read_params,
            seed=29,
        ).run()
        admission = engine.admission.stats
        runs[label] = {
            "offered_rate": capacity * multiplier,
            "throughput": report.throughput,
            "p50": report.latency.p50,
            "p95": report.latency.p95,
            "p99": report.latency.p99,
            "queued": admission.queued,
            "queue_seconds": admission.queue_seconds,
            "peak_in_flight": admission.peak_in_flight,
        }
    if runs["2x"]["queued"] == 0:
        raise AssertionError("overload run never queued at the limit")
    knee = (
        runs["2x"]["p95"] / runs["0.5x"]["p95"]
        if runs["0.5x"]["p95"]
        else None
    )
    if knee is None or knee < 1.5:
        raise AssertionError(
            f"queueing knee not visible: overload p95 is only {knee}x the "
            f"underload p95"
        )
    return {
        "limit": ADMISSION_LIMIT,
        "operations_per_rate": ADMISSION_OPS,
        "network": SLOW_REMOTE.name,
        "service_seconds": service_seconds,
        "capacity_ops_per_second": capacity,
        "knee_p95_ratio": knee,
        "runs": runs,
    }


#: Alternation rounds of the tracing-overhead benchmark; each round times
#: one query per variant.
TRACING_ROUNDS = 300

#: Maximum tolerated traced/untraced ratio of median query times.
TRACING_OVERHEAD_LIMIT = 1.05


def bench_tracing_overhead(rows: int) -> dict:
    """Cost of structured tracing on the vectorized scan_filter query.

    The scan_filter predicate (the ``scan_filter_vectorized`` microbenchmark
    shape, as SQL) runs through the full connection path three ways: with no
    tracer configured, with a tracer configured but disabled, and with
    tracing enabled recording one multi-span trace per statement.  The
    variants alternate query by query (the order rotating every round), so
    drift in machine load hits all three alike, and each is summarised by
    its median query time.  Enabled tracing must stay within ``TRACING_OVERHEAD_LIMIT``
    (5%) of the untraced median — the per-query work is a handful of span
    objects against a multi-thousand-row scan — and a disabled tracer must
    be free (one attribute check per request).  Both bounds are asserted.
    """
    import gc
    from statistics import median

    from repro.net.connection import SimulatedConnection
    from repro.net.network import FAST_LOCAL
    from repro.obs.trace import Tracer

    database = build_benchmark_database(rows)
    sql = "select * from orders where o_total > 500.0 and o_status = 'OPEN'"

    def make_runner(tracer):
        connection = SimulatedConnection(database, FAST_LOCAL, tracer=tracer)
        statement = connection.prepare(sql)
        return lambda: len(connection.execute_prepared(statement).rows)

    tracer = Tracer(max_traces=64)
    runners = [
        ("untraced", make_runner(None)),
        ("disabled", make_runner(Tracer(enabled=False))),
        ("traced", make_runner(tracer)),
    ]
    output_rows = runners[0][1]()
    if any(run() != output_rows for _, run in runners[1:]):
        raise AssertionError("traced and untraced results differ")
    # The traced runner must actually have recorded vectorized executions
    # with sound span accounting — otherwise the ratio measures nothing.
    if not tracer.traces:
        raise AssertionError("tracing recorded no traces")
    last = tracer.traces[-1]
    last.check_accounting()
    execute_span = last.find("execute")
    if execute_span is None or execute_span.attributes.get("tier") != "vectorized":
        raise AssertionError(
            f"traced query did not run vectorized: {last.as_dict()}"
        )

    samples: dict[str, list[float]] = {label: [] for label, _ in runners}
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_ in range(TRACING_ROUNDS):
            shift = round_ % len(runners)
            for label, run in runners[shift:] + runners[:shift]:
                started = time.perf_counter()
                run()
                samples[label].append(time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    untraced_s = median(samples["untraced"])
    disabled_s = median(samples["disabled"])
    traced_s = median(samples["traced"])
    epsilon = 1e-5
    if traced_s > untraced_s * TRACING_OVERHEAD_LIMIT + epsilon:
        raise AssertionError(
            f"tracing overhead {traced_s / untraced_s:.3f}x exceeds "
            f"{TRACING_OVERHEAD_LIMIT}x"
        )
    if disabled_s > untraced_s * TRACING_OVERHEAD_LIMIT + epsilon:
        raise AssertionError(
            f"disabled tracer is not free: {disabled_s / untraced_s:.3f}x"
        )
    return {
        "rounds": TRACING_ROUNDS,
        "output_rows": output_rows,
        "untraced_median_seconds": untraced_s,
        "disabled_median_seconds": disabled_s,
        "traced_median_seconds": traced_s,
        "disabled_ratio": disabled_s / untraced_s if untraced_s else None,
        "traced_ratio": traced_s / untraced_s if untraced_s else None,
        "limit": TRACING_OVERHEAD_LIMIT,
    }


WRITE_READ_ROUNDS = 15


def bench_write_then_read(rows: int) -> dict:
    """A one-row PK ``UPDATE`` followed by a wide filter read.

    The ``analytic_sql_after_write`` shape as a microbenchmark: the write
    patches the built columnar view and scan templates in place, so the
    first read after it should cost what a warm read costs
    (``first_read_ratio``), and the ``where o_id = ?`` predicate probes the
    positional index instead of scanning (``point_vs_scan_update`` times it
    against the same update behind a compound predicate, which scans).
    Every write also runs on an interpreted-tier copy — whose updates
    always scan — and the reads are asserted row-identical; the run fails
    if a view was re-encoded or an update took the wrong access path.
    """
    import gc

    database = build_benchmark_database(rows)
    reference = build_benchmark_database(rows, "interpreted")
    read = "select * from orders where o_total >= ? and o_total < ?"
    window = (170.0, 340.0)
    point = "update orders set o_total = ? where o_id = ?"
    scan = "update orders set o_total = ? where o_id = ? and o_id >= 0"
    timings = {
        key: float("inf")
        for key in ("warm_read", "first_read", "point_update", "scan_update")
    }

    def timed(key: str, run: Callable[[], object]) -> object:
        started = time.perf_counter()
        result = run()
        timings[key] = min(timings[key], time.perf_counter() - started)
        return result

    database.execute_sql(read, window)  # build the views
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_ in range(WRITE_READ_ROUNDS):
            target = (round_ * 7919) % rows
            for sql, key in ((scan, "scan_update"), (point, "point_update")):
                params = (float(200 + round_), target)
                changed = timed(
                    key, lambda: database.execute_update_sql(sql, params)
                )
                if changed != 1 or reference.execute_update_sql(sql, params) != 1:
                    raise AssertionError(f"{key} changed {changed} rows")
            got = timed("first_read", lambda: database.execute_sql(read, window))
            timed("warm_read", lambda: database.execute_sql(read, window))
            if round_ in (0, WRITE_READ_ROUNDS - 1):
                if got.rows != reference.execute_sql(read, window).rows:
                    raise AssertionError(
                        "read after write differs from the interpreted tier"
                    )
    finally:
        if gc_was_enabled:
            gc.enable()
    storage = database.execution_stats()["storage"]
    expected = {
        "patched_updates": 2 * WRITE_READ_ROUNDS,
        "column_reencodes": 0,
        "point_updates": WRITE_READ_ROUNDS,
        "scan_updates": WRITE_READ_ROUNDS,
    }
    if storage != expected:
        raise AssertionError(f"write path took {storage}, expected {expected}")
    return {
        "rounds": WRITE_READ_ROUNDS,
        "output_rows": len(got.rows),
        "warm_read_seconds": timings["warm_read"],
        "first_read_after_write_seconds": timings["first_read"],
        "first_read_ratio": timings["first_read"] / timings["warm_read"],
        "point_update_seconds": timings["point_update"],
        "scan_update_seconds": timings["scan_update"],
        "point_vs_scan_update": timings["point_update"] / timings["scan_update"],
        "storage": storage,
    }


def bench_optimizer(wilos_scale: int = 2_000) -> dict:
    """End-to-end ``optimize()`` wall-clock on the Fig. 13 / Wilos workloads."""
    parameters = CostParameters.for_network(FAST_LOCAL)
    per_program: dict[str, float] = {}

    orders_db = tpcds.build_orders_database(num_orders=1_000, num_customers=500)
    registry = tpcds.build_registry()

    def run_p0():
        optimizer = CobraOptimizer(orders_db, parameters, registry=registry)
        return optimizer.optimize(P0_SOURCE)

    per_program["p0_process_orders"] = _best_time(run_p0)

    wilos_db = build_wilos_database(scale=wilos_scale)
    for pattern_id, pattern in build_patterns().items():

        def run_pattern(pattern=pattern):
            optimizer = CobraOptimizer(wilos_db, parameters)
            return optimizer.optimize(
                pattern.source, function_name=pattern.function_name
            )

        per_program[f"wilos_{pattern_id}"] = _best_time(run_pattern)

    return {
        "per_program_seconds": per_program,
        "total_seconds": sum(per_program.values()),
    }


def environment() -> dict:
    """What the timings were measured on."""
    checkout = Path(_REPO_ROOT)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(checkout),
        "src_modified": src_modified(checkout),
        "src_digest": src_digest(checkout),
    }


def write_report(
    report: dict, out_path: str | None = None, root: str = _REPO_ROOT
) -> str:
    """Write ``report`` as JSON and return the path written.

    Without ``out_path`` the report goes to ``BENCH_engine.json`` under
    ``root`` and is also appended, as one line, to the tracked history
    ``BENCH_engine.jsonl`` there.  An explicit ``out_path`` writes only
    that file.
    """
    path = out_path or os.path.join(root, "BENCH_engine.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if not out_path:
        history = os.path.join(root, "BENCH_engine.jsonl")
        with open(history, "a") as handle:
            handle.write(json.dumps(report, sort_keys=True) + "\n")
    return path


def main() -> dict:
    rows = int(os.environ.get("BENCH_ENGINE_ROWS", str(DEFAULT_ROWS)))
    started = time.perf_counter()
    report = {
        "benchmark": "engine",
        "environment": environment(),
        "rows": rows,
        "executor": bench_executor(rows),
        "codegen": bench_codegen(rows),
        "prepared_point_lookup": bench_prepared_point_lookup(rows),
        "pipelined_executemany": bench_pipelined_executemany(rows),
        "async_concurrent_clients": bench_async_concurrent_clients(rows),
        "wal_overhead": bench_wal_overhead(rows),
        "fault_retry_convergence": bench_fault_retry_convergence(rows),
        "mvcc_reader_writer": bench_mvcc_reader_writer(rows),
        "admission_open_loop": bench_admission_open_loop(rows),
        "tracing_overhead": bench_tracing_overhead(rows),
        "write_then_read": bench_write_then_read(rows),
        "optimizer": bench_optimizer(),
    }
    report.update(bench_sharded(rows))
    report.update(bench_parallel(rows))
    report["harness_seconds"] = time.perf_counter() - started
    out_path = write_report(report, os.environ.get("BENCH_ENGINE_OUT"))
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    main()
