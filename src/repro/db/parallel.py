"""Parallel shard execution: a pluggable worker pool for scatter-gather.

:class:`ShardExecutorPool` fans per-shard plan execution across
``concurrent.futures`` workers on behalf of the
:class:`~repro.db.sharding.ShardRouter`.  Three modes:

* ``"serial"`` — the property-test baseline: the router keeps its
  sequential scatter untouched and the pool is never consulted.
* ``"thread"`` (the default) — per-shard tasks run on a shared
  ``ThreadPoolExecutor``.  Shard partitions are disjoint ``Table`` objects
  and scatter plans are read-only, so workers touch disjoint executor and
  table state; the only shared structures are broadcast (unsharded)
  tables, whose lazy caches rebuild idempotently.  Workers hand
  :class:`~repro.db.vectorized.ColumnBatch` objects back by reference —
  zero-copy buffer views of the shard's typed column sidecars.
* ``"process"`` — per-shard tasks run in worker processes.  Shard data is
  seeded into each worker once per ``(table, shard, version)`` as packed
  typed/dictionary column buffers (:func:`~repro.db.table.pack_column`
  over ``memoryview`` slices), cached worker-side, and results ship back
  as **pickled ColumnBatches** built on the same typed sidecars
  (:func:`~repro.db.vectorized.pack_batch`) — never as row lists, per the
  PR-5 rule.  The request/response byte counts are surfaced in
  ``stats()["pickle_bytes"]``.

The pool records per-shard wall time for every parallel scatter; the
router attaches the most recent scatter's timings to its route marker so
tracing can render the per-shard breakdown and the max-not-sum parallel
span (:func:`repro.obs.trace.attach_parallel_scatter`).
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence

from repro.db.executor import Executor
from repro.db.table import Table, pack_column, unpack_column

#: Valid pool modes; ``serial`` disables the pool entirely.
PARALLEL_MODES = ("serial", "thread", "process")


class ParallelConfigError(Exception):
    """Raised for invalid worker-pool configurations."""


def _timed(task: Callable[[], Any]) -> tuple[Any, float]:
    started = time.perf_counter()
    result = task()
    return result, time.perf_counter() - started


class ShardExecutorPool:
    """A worker pool executing per-shard scatter tasks.

    Pools are created lazily (no threads or processes exist until the
    first parallel scatter) and shut down via :meth:`close` — the owning
    :class:`~repro.api.engine.Engine` closes them with the engine.
    """

    def __init__(
        self, workers: Optional[int] = None, mode: str = "thread"
    ) -> None:
        if mode not in PARALLEL_MODES:
            raise ParallelConfigError(
                f"unknown parallel mode {mode!r}; modes are {PARALLEL_MODES}"
            )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ParallelConfigError(
                f"worker count must be at least 1, got {workers}"
            )
        self.mode = mode
        self.workers = workers
        self._threads: Optional[ThreadPoolExecutor] = None
        self._processes: Optional[ProcessPoolExecutor] = None
        #: cumulative counters surfaced by :meth:`stats`.
        self.scatters = 0
        self.shard_seconds = 0.0
        self.parallel_seconds = 0.0
        self.pickle_bytes_sent = 0
        self.pickle_bytes_received = 0
        #: process-mode scatters that fell back to in-process execution
        #: because a plan or payload refused to pickle.
        self.degraded = 0

    # -- lifecycle -------------------------------------------------------

    def _thread_pool(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._threads

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._processes is None:
            context = None
            try:
                import multiprocessing

                if "fork" in multiprocessing.get_all_start_methods():
                    # Fork workers inherit the imported engine modules; the
                    # shard data itself is still shipped explicitly, keyed
                    # by table version, so post-fork mutations stay visible.
                    context = multiprocessing.get_context("fork")
            except Exception:  # pragma: no cover - platform-specific
                context = None
            self._processes = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._processes

    def close(self) -> None:
        """Shut down the worker pool(s); the pool may be reused after."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._processes is not None:
            self._processes.shutdown(wait=True)
            self._processes = None

    # -- thread-mode execution -------------------------------------------

    def run_tasks(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]:
        """Run ``tasks`` on the thread pool; results in task order.

        Every task runs to completion (a failed shard does not abandon its
        siblings mid-flight); if any task raised, the error of the
        *lowest* task index is re-raised — once — for deterministic error
        surfacing regardless of completion order.  Per-task wall times are
        returned alongside the results.
        """
        if len(tasks) <= 1 or self.workers == 1 or self.mode == "serial":
            results, seconds = [], []
            for task in tasks:
                result, elapsed = _timed(task)
                results.append(result)
                seconds.append(elapsed)
            return results, seconds
        pool = self._thread_pool()
        futures: list[Future] = [
            pool.submit(_timed, task) for task in tasks
        ]
        results: list[Any] = [None] * len(tasks)
        seconds: list[float] = [0.0] * len(tasks)
        error: Optional[tuple[int, BaseException]] = None
        for index, future in enumerate(futures):
            try:
                results[index], seconds[index] = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None or index < error[0]:
                    error = (index, exc)
        if error is not None:
            raise error[1]
        return results, seconds

    # -- process-mode execution ------------------------------------------

    def run_process_requests(
        self,
        requests: Sequence[dict],
        data_provider: Callable[[tuple], Any],
    ) -> tuple[list[dict], list[float]]:
        """Execute per-shard request dicts on the process pool.

        Each request is pickled here (so byte counts are observable) and
        handed to :func:`_worker_run`.  A worker missing shard data for a
        ``(table, shard, version)`` key responds with ``{"need": keys}``;
        the request is then re-submitted with ``data_provider(key)``
        payloads attached, which the worker caches for every later query
        against the same table version.  Responses come back in shard
        order; worker exceptions re-raise the lowest shard index's error.
        """
        pool = self._process_pool()

        def submit(request: dict) -> tuple[Future, int]:
            blob = pickle.dumps(request, pickle.HIGHEST_PROTOCOL)
            self.pickle_bytes_sent += len(blob)
            return pool.submit(_worker_run, blob), len(blob)

        futures = [submit(request) for request in requests]
        responses: list[Optional[dict]] = [None] * len(requests)
        seconds = [0.0] * len(requests)
        error: Optional[tuple[int, BaseException]] = None
        for index, (future, _) in enumerate(futures):
            try:
                blob = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None or index < error[0]:
                    error = (index, exc)
                continue
            self.pickle_bytes_received += len(blob)
            responses[index] = pickle.loads(blob)
        # Second wave: seed workers that reported missing shard data.
        retry = [
            index
            for index, response in enumerate(responses)
            if response is not None and "need" in response
        ]
        retried: list[tuple[int, Future]] = []
        for index in retry:
            request = dict(requests[index])
            request["tables"] = [
                (key, data_provider(key)) for key, _ in request["tables"]
            ]
            retried.append((index, submit(request)[0]))
        for index, future in retried:
            try:
                blob = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None or index < error[0]:
                    error = (index, exc)
                continue
            self.pickle_bytes_received += len(blob)
            responses[index] = pickle.loads(blob)
        if error is not None:
            raise error[1]
        for index, response in enumerate(responses):
            if response is None or "result" not in response:
                raise ParallelConfigError(
                    f"shard {index} worker returned no result"
                )
            seconds[index] = response.get("wall", 0.0)
        return responses, seconds  # type: ignore[return-value]

    # -- accounting ------------------------------------------------------

    def note_scatter(self, shard_seconds: Sequence[float]) -> None:
        """Fold one parallel scatter's per-shard wall times into totals."""
        self.scatters += 1
        self.shard_seconds += sum(shard_seconds)
        # Wall time the scatter *actually* took is bounded by the slowest
        # shard (max, not sum) — the number a parallel span may charge.
        self.parallel_seconds += max(shard_seconds, default=0.0)

    def stats(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "scatters": self.scatters,
            "shard_seconds": self.shard_seconds,
            "parallel_seconds": self.parallel_seconds,
            "pickle_bytes": {
                "sent": self.pickle_bytes_sent,
                "received": self.pickle_bytes_received,
            },
            "degraded": self.degraded,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardExecutorPool(mode={self.mode!r}, workers={self.workers})"


# -- shard-payload packing -------------------------------------------------


def pack_table(table: Table) -> tuple:
    """A picklable seed payload for one shard partition (or broadcast table).

    Columns are packed as typed/dictionary buffers via ``memoryview``
    slices (:func:`~repro.db.table.pack_column`), not as row-dict lists;
    the worker rebuilds rows from the buffers once and caches the table.
    """
    store = table.columns()
    return (
        table.schema,
        table.storage_mode,
        len(table.rows),
        tuple((name, pack_column(data)) for name, data in store.items()),
    )


def unpack_table(payload: tuple, version: int) -> Table:
    """Rebuild a :class:`Table` from a :func:`pack_table` payload.

    Row dicts are reassembled in schema declaration order (the stored-row
    invariant ``wide_rows`` depends on), the primary-key index is rebuilt,
    and the unpacked columns are installed as the table's columnar view so
    the first vectorized scan pays no re-encode.
    """
    schema, storage_mode, length, packed = payload
    table = Table(schema)
    table.set_storage_mode(storage_mode)
    columns = {name: unpack_column(column) for name, column in packed}
    names = list(schema.column_names)
    if length:
        table.rows = [
            dict(zip(names, values))
            for values in zip(*(columns[name] for name in names))
        ]
    if table._pk_index is not None:
        primary_key = schema.primary_key
        table._pk_index = {row[primary_key]: row for row in table.rows}
    table.version = version
    table._columnar = columns
    return table


# -- process-pool worker ---------------------------------------------------
#
# Module state below lives in the *worker* processes.  Tables are cached
# per (name, shard index, version) so steady-state queries ship only the
# plan; executors are cached per overlay so their lowered-plan and
# compiled-expression caches keep hitting; plans are cached by their
# pickle bytes so the executor caches (keyed by plan object identity) see
# the same object across executions of one prepared statement.

_WORKER_TABLES: dict[tuple, Table] = {}
_WORKER_EXECUTORS: "OrderedDict[tuple, Executor]" = OrderedDict()
_WORKER_PLANS: "OrderedDict[bytes, Any]" = OrderedDict()
_WORKER_CACHE_LIMIT = 64


def _worker_executor(overlay_keys: tuple, mode: str) -> Executor:
    cache_key = (overlay_keys, mode)
    executor = _WORKER_EXECUTORS.get(cache_key)
    if executor is None:
        overlay = {key[0]: _WORKER_TABLES[key] for key in overlay_keys}
        executor = Executor(overlay, mode=mode)
        if len(_WORKER_EXECUTORS) >= _WORKER_CACHE_LIMIT:
            _WORKER_EXECUTORS.popitem(last=False)
        _WORKER_EXECUTORS[cache_key] = executor
    else:
        _WORKER_EXECUTORS.move_to_end(cache_key)
    return executor


def _worker_plan(blob: bytes) -> Any:
    plan = _WORKER_PLANS.get(blob)
    if plan is None:
        plan = pickle.loads(blob)
        if len(_WORKER_PLANS) >= _WORKER_CACHE_LIMIT:
            _WORKER_PLANS.popitem(last=False)
        _WORKER_PLANS[blob] = plan
    else:
        _WORKER_PLANS.move_to_end(blob)
    return plan


def _counter_delta(after: dict, before: dict) -> dict:
    delta: dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, int):
            delta[key] = value - before.get(key, 0)
        elif isinstance(value, dict):  # reason -> count
            before_reasons = before.get(key, {})
            delta[key] = {
                reason: count - before_reasons.get(reason, 0)
                for reason, count in value.items()
                if count - before_reasons.get(reason, 0)
            }
    return delta


def _worker_run(blob: bytes) -> bytes:
    """Execute one shard's plan inside a worker process.

    ``blob`` is a pickled request::

        {"plan": <plan pickle bytes>, "mode": ...,
         "tables": [((name, shard, version), payload-or-None), ...]}

    Returns a pickled response: ``{"need": [keys]}`` when shard data for a
    key is neither attached nor cached, otherwise ``{"result": <packed
    ColumnBatch>, "tiers": ..., "vectorized": ..., "last": ..., "wall":
    ...}`` with the executor counter deltas this execution produced.
    Plan-evaluation errors propagate to the parent as ordinary exceptions.
    """
    from repro.db.vectorized import _batch_from_rows, pack_batch

    request = pickle.loads(blob)
    need = []
    for key, payload in request["tables"]:
        if payload is not None:
            stale = [
                cached
                for cached in _WORKER_TABLES
                if cached[:2] == key[:2] and cached != key
            ]
            for cached in stale:
                del _WORKER_TABLES[cached]
            _WORKER_TABLES[key] = unpack_table(payload, key[2])
        elif key not in _WORKER_TABLES:
            need.append(key)
    if need:
        return pickle.dumps({"need": need}, pickle.HIGHEST_PROTOCOL)
    overlay_keys = tuple(key for key, _ in request["tables"])
    executor = _worker_executor(overlay_keys, request["mode"])
    plan = _worker_plan(request["plan"])
    tiers_before = dict(executor.tier_counts)
    vectorized_before = executor.vectorized_stats
    started = time.perf_counter()
    rows = executor.execute(plan)
    wall = time.perf_counter() - started
    response = {
        "result": pack_batch(_batch_from_rows(rows)),
        "tiers": _counter_delta(executor.tier_counts, tiers_before),
        "vectorized": _counter_delta(
            executor.vectorized_stats, vectorized_before
        ),
        "last": (
            executor.last_tier,
            executor.last_execution_path,
            executor.last_fallback_reason,
        ),
        "wall": wall,
    }
    return pickle.dumps(response, pickle.HIGHEST_PROTOCOL)


def fold_worker_counters(
    executor: Executor, tiers: dict, vectorized: dict
) -> None:
    """Fold a worker's counter deltas into the parent's shard executor.

    Process-mode executions happen in the worker's executor, whose
    counters would vanish with the process; folding the deltas into the
    parent-side executor for the same shard keeps
    ``Database.execution_stats()`` complete — exactly as the sequential
    scatter's in-process accounting does.
    """
    for tier, count in tiers.items():
        if count:
            executor.tier_counts[tier] = (
                executor.tier_counts.get(tier, 0) + count
            )
    target = executor._vectorized
    if target is None or not vectorized:
        return
    for key, value in vectorized.items():
        if isinstance(value, dict):  # reason -> count
            reasons = getattr(target, key)
            for reason, count in value.items():
                reasons[reason] = reasons.get(reason, 0) + count
        elif isinstance(value, int) and value:
            setattr(target, key, getattr(target, key) + value)


__all__ = [
    "PARALLEL_MODES",
    "ParallelConfigError",
    "ShardExecutorPool",
    "fold_worker_counters",
    "pack_table",
    "unpack_table",
]
