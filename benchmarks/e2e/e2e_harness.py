"""The measurement protocol: set-up, timed passes, statistics, the traced run.

One call to :func:`measure_workload` is one run of one workload in the
calling process.  Protocol (same for every workload):

* set-up (build engine + load + ``analyze()`` + one warm-up round) is done
  ``SETUPS`` times from scratch; ``setup_s`` is the median, and the virtual
  time the warm-up round was charged must be bit-equal every time;
* the timed window is split into ``PASSES`` passes of whole rounds with
  ``gc.collect()`` between them and the collector left on inside; every
  statistic is computed per pass and the median across passes is reported;
* op latency covers ``Workload.run`` only — checking the outcome happens
  outside it — and ``ops_per_s`` is ops over the sum of op latencies;
* ``op_p50_ms`` is the median over rounds of each round's median latency:
  with an even number of op kinds per round the plain median of a pass sits
  on the edge between two kinds' clusters and flips between them run to run;
* ``peak_rss_mb`` is read before any reference data is built.

With ``trace`` the run instead spends its window on one short untraced pass
(the base of ``obs.trace_overhead_ratio`` and of the ``stmt.*`` rows) and two
passes under :class:`e2e_tracing.SpanRecorder`, then takes the workload's
side measurements, and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import importlib.util
import math
import os
import platform
import resource
import statistics
import traceback
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Optional

from e2e_tracing import LAYERS, SpanRecorder
from e2e_workloads import ANALYTIC_KINDS, PATTERN_IDS, WORKLOADS, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"

SETUPS = 3
PASSES = 5
TRACED_PASSES = 2
#: smoke scale: one set-up, two passes — names and plumbing, not numbers.
SMOKE_SETUPS = 1
SMOKE_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Repeat exactly for a seed, so they cannot carry a relative bound: compared
#: bit-for-bit by ``run.py --check-agreement`` and reported with the traced run.
EXACT_UNITS = {"virtual_ms_per_op": "vms", "failed_share": "ratio"}

COUNT_UNITS = {
    "net.connection.round_trips_per_op": "1/op",
    "net.connection.bytes_per_op": "B/op",
    "net.connection.rows_per_op": "1/op",
    "db.database.stmt_cache_hit_ratio": "ratio",
    "db.database.fast_path_ratio": "ratio",
    "orm.session.identity_hit_ratio": "ratio",
    "appsim.cache.hit_ratio": "ratio",
    "db.executor.tier_vectorized_share": "ratio",
    "db.vectorized.codegen_share": "ratio",
    "db.vectorized.fallbacks_per_op": "1/op",
    "db.vectorized.pipelines_compiled_timed": "count",
    "db.table.columns_rebuilds_per_op": "1/op",
    "db.table.rebuild_ms_per_op": "ms",
    "db.sharding.routed_per_op": "1/op",
    "db.sharding.scatter_per_op": "1/op",
    "db.sharding.fallback_per_op": "1/op",
    "core.dag.groups_per_op": "1/op",
    "core.dag.nodes_per_op": "1/op",
    "core.rules.alternatives_per_op": "1/op",
    "core.choice_regret": "ratio",
    "core.estimate_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.span_coverage_ratio": "ratio",
    "db.executor.compiled_ratio": "ratio",
    "db.executor.interpreted_ratio": "ratio",
    "db.parallel.thread_ratio": "ratio",
    "db.parallel.process_ratio": "ratio",
    "db.parallel.pickle_bytes_per_op": "B/op",
}

STATEMENT_ROWS = (
    *ANALYTIC_KINDS,
    "update_pk",
    "first_read_after_write",
    "warm_read",
)


def _per_layer_units() -> dict[str, str]:
    units = dict(EXACT_UNITS)
    for layer in LAYERS:
        units[f"{layer}.self_ms_per_op"] = "ms"
        units[f"{layer}.calls_per_op"] = "1/op"
    units.update(COUNT_UNITS)
    for row in STATEMENT_ROWS:
        units[f"stmt.{row}.p50_ms"] = "ms"
    for program_id in ("P0", *PATTERN_IDS):
        for column, unit in (
            ("original_wall_ms", "ms"),
            ("cobra_wall_ms", "ms"),
            ("original_virtual_ms", "vms"),
            ("cobra_virtual_ms", "vms"),
        ):
            units[f"program.{program_id}.{column}"] = unit
    return units


#: name -> unit of every per-layer metric, in reporting order.  A metric that
#: does not apply to a workload reads 0 there.
PER_LAYER_UNITS = _per_layer_units()


# -- statistics ---------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (not necessarily sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class PassResult:
    """What one pass over whole rounds measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        #: median op latency of each round (see ``op_p50_ms``).
        self.round_medians: list[float] = []
        self.cpu_seconds = 0.0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def statistics(self) -> dict[str, float]:
        wall = sum(self.latencies)
        return {
            "ops_per_s": self.ops / wall,
            "op_p50_ms": statistics.median(self.round_medians) * 1000.0,
            "op_p95_ms": quantile(self.latencies, 0.95) * 1000.0,
            "cpu_ms_per_op": self.cpu_seconds * 1000.0 / self.ops,
        }


def run_pass(
    workload: Workload, seconds: float, recorder: Optional[SpanRecorder] = None
) -> PassResult:
    """Whole rounds, closed loop, until ``seconds`` have passed."""
    result = PassResult()
    deadline = perf_counter() + seconds
    while True:
        round_start = result.ops
        for op in workload.next_round():
            if recorder is not None:
                recorder.begin_op()
            cpu_started = process_time()
            started = perf_counter()
            try:
                _, outcome = workload.run(op)
            except Exception:  # an op that raises is a failed op, not a crash
                outcome = None
                ok = False
                if len(result.errors) < 3:
                    result.errors.append(traceback.format_exc())
            else:
                ok = True
            finished = perf_counter()
            result.cpu_seconds += process_time() - cpu_started
            if recorder is not None:
                recorder.end_op()
            result.latencies.append(finished - started)
            result.kinds.append(op.kind)
            if not (ok and workload.verify(op, outcome)):
                result.failed += 1
        result.round_medians.append(
            statistics.median(result.latencies[round_start:])
        )
        if perf_counter() >= deadline:
            return result


def run_passes(
    workload: Workload,
    seconds: float,
    passes: int,
    recorder: Optional[SpanRecorder] = None,
) -> list[PassResult]:
    results = []
    for _ in range(passes):
        gc.collect()
        results.append(run_pass(workload, seconds / passes, recorder))
    return results


# -- environment ----------------------------------------------------------------


def environment(seed: int) -> dict[str, Any]:
    return {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run ----------------------------------------------------------------------


def set_up(name: str, seed: int, scale: str) -> tuple[Workload, list[float], list[float]]:
    """Set the workload up from scratch several times; keep the last."""
    setups = SMOKE_SETUPS if scale == "smoke" else SETUPS
    workload: Optional[Workload] = None
    seconds: list[float] = []
    virtual_ms: list[float] = []
    for _ in range(setups):
        if workload is not None:
            workload.teardown()
            workload = None
        gc.collect()
        started = perf_counter()
        workload = WORKLOADS[name](seed, scale)
        workload.setup()
        seconds.append(perf_counter() - started)
        virtual_ms.append(
            workload.warmup_virtual_seconds * 1000.0 / workload.warmup_ops
        )
    return workload, seconds, virtual_ms


def measure_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict[str, Any]:
    """One run of one workload; returns the full result record.

    ``record["metrics"]`` holds the end-to-end metrics (``trace`` off) or
    the per-layer metrics (``trace`` on) as ``{name: {"value", "unit"}}``;
    ``record["exact"]`` holds the metrics that must repeat bit-for-bit.
    """
    workload, setup_seconds, virtual_ms = set_up(name, seed, scale)
    try:
        if trace:
            record = _traced_run(workload, seconds)
        else:
            record = _timed_run(workload, seconds, scale)
            record["values"]["setup_s"] = statistics.median(setup_seconds)
        checked, check_failed = workload.check()
    finally:
        workload.teardown()
    attempted = record.pop("ops") + checked
    failed = record.pop("failed") + check_failed
    deterministic = len(set(virtual_ms)) == 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = record.pop("values")
    exact = {
        "virtual_ms_per_op": virtual_ms[-1],
        "failed_share": failed / attempted,
    }
    if trace:
        values.update(exact)
    record.update(
        workload=name,
        trace=int(trace),
        scale=scale,
        environment=environment(seed),
        sizes=workload.sizes,
        attempted=attempted,
        failed=failed,
        correct=failed == 0 and deterministic,
        virtual_deterministic=deterministic,
        setup_seconds=setup_seconds,
        exact=exact,
        metrics={
            metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
            for metric, unit in units.items()
        },
    )
    return record


def _tally(passes: list[PassResult]) -> dict[str, Any]:
    return {
        "ops": sum(result.ops for result in passes),
        "failed": sum(result.failed for result in passes),
        "errors": [error for result in passes for error in result.errors],
    }


def _timed_run(workload: Workload, seconds: float, scale: str) -> dict[str, Any]:
    passes = run_passes(
        workload, seconds, SMOKE_PASSES if scale == "smoke" else PASSES
    )
    per_pass = [result.statistics() for result in passes]
    values = {
        metric: statistics.median(entry[metric] for entry in per_pass)
        for metric in per_pass[0]
    }
    values["peak_rss_mb"] = peak_rss_mb()
    return {"values": values, "passes": per_pass, **_tally(passes)}


def _traced_run(workload: Workload, seconds: float) -> dict[str, Any]:
    slice_seconds = seconds / (TRACED_PASSES + 1)
    gc.collect()
    workload.statement_seconds.clear()
    untraced = run_pass(workload, slice_seconds)
    # Per-statement rows come from this untraced pass: wrapper cost would
    # otherwise inflate the statements that cross the most boundaries.
    by_row = {row: list(seconds) for row, seconds in workload.statement_seconds.items()}
    for kind, latency in zip(untraced.kinds, untraced.latencies):
        by_row.setdefault(kind, []).append(latency)

    recorder = SpanRecorder()
    before = workload.counters()
    recorder.install()
    try:
        traced = run_passes(
            workload, slice_seconds * TRACED_PASSES, TRACED_PASSES, recorder
        )
    finally:
        recorder.uninstall()
    after = workload.counters()
    delta = {key: after[key] - before[key] for key in after}
    ops = recorder.ops
    counts = recorder.counts

    values = recorder.layer_metrics()
    tiers = sum(delta[f"tier_{tier}"] for tier in ("vectorized", "compiled", "interpreted"))
    values.update(
        {
            "net.connection.round_trips_per_op": delta["round_trips"] / ops,
            "net.connection.bytes_per_op": delta["bytes"] / ops,
            "net.connection.rows_per_op": delta["rows"] / ops,
            "db.database.stmt_cache_hit_ratio": ratio(
                delta["stmt_cache_hits"],
                delta["stmt_cache_hits"] + delta["stmt_cache_misses"],
            ),
            "db.database.fast_path_ratio": ratio(
                counts["fast_path_executions"], counts["statements_executed"]
            ),
            "orm.session.identity_hit_ratio": ratio(
                delta["identity_hits"],
                delta["identity_hits"] + delta["lazy_loads"],
            ),
            "appsim.cache.hit_ratio": ratio(
                delta["cache_hits"], delta["cache_lookups"]
            ),
            "db.executor.tier_vectorized_share": ratio(
                delta["tier_vectorized"], tiers
            ),
            "db.vectorized.codegen_share": ratio(
                delta["codegen_executions"], delta["vec_executions"]
            ),
            "db.vectorized.fallbacks_per_op": delta["vec_fallbacks"] / ops,
            "db.vectorized.pipelines_compiled_timed": delta["pipelines_compiled"],
            "db.table.columns_rebuilds_per_op": counts["columns_rebuilds"] / ops,
            "db.table.rebuild_ms_per_op": counts["rebuild_seconds"] * 1000.0 / ops,
            "db.sharding.routed_per_op": delta["shard_routed"] / ops,
            "db.sharding.scatter_per_op": delta["shard_scatter"] / ops,
            "db.sharding.fallback_per_op": delta["shard_fallback"] / ops,
            "core.dag.groups_per_op": delta["dag_groups"] / ops,
            "core.dag.nodes_per_op": delta["dag_nodes"] / ops,
            "core.rules.alternatives_per_op": delta["alternatives"] / ops,
            "obs.trace_overhead_ratio": ratio(
                untraced.ops / sum(untraced.latencies),
                ops / recorder.op_seconds,
            ),
            "obs.span_coverage_ratio": recorder.coverage_ratio(),
        }
    )

    for row in STATEMENT_ROWS:
        if row in by_row:
            values[f"stmt.{row}.p50_ms"] = quantile(by_row[row], 0.50) * 1000.0

    values.update(workload.traced_extras())

    spans_written = recorder.write_spans(OUT_DIR / f"{workload.name}.spans.jsonl")
    return {
        "values": values,
        **_tally([untraced, *traced]),
        "traced_ops": ops,
        "spans_written": spans_written,
        "spans_dropped": recorder.spans_dropped,
    }
