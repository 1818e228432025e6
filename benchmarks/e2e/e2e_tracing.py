"""Span tracing from outside the program: timing wrappers around layer entry points.

Nothing under ``src/`` is edited.  :class:`SpanRecorder.install` replaces each
entry point *where its callers look the name up* (class attributes for
methods; every ``repro.*`` module global that holds the function for
module-level functions), and :meth:`SpanRecorder.uninstall` puts the
originals back.  A layer is one module of this repository; its self time is
the duration of its spans minus the part their child spans cover, so the
layers plus ``harness`` (op wall time not covered by any span: the program's
own Python and the benchmark loop) partition the traced op wall time.

Wrapper cost lands in the parent's self time (or in ``harness``), so layers
that make many short calls into wrapped code read high in the traced run;
``obs.trace_overhead_ratio`` says by how much the whole op is inflated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro.appsim.cache import ClientCache
from repro.appsim.runtime import AppRuntime
from repro.core import plans as core_plans
from repro.core import region_analysis
from repro.core.dag import RegionDag
from repro.core.regions import Region
from repro.core.rules import DEFAULT_REGION_RULES
from repro.db import sqlparser
from repro.db.database import Database, PreparedStatement
from repro.db.executor import Executor
from repro.db.parallel import ShardExecutorPool
from repro.db.sharding import ShardRouter
from repro.db.statistics import StatisticsCatalog
from repro.db.table import Table
from repro.db.vectorized import VectorizedExecutor
from repro.fir import builder as fir_builder
from repro.fir.rules import DEFAULT_RULES
from repro.net.connection import Cursor, SimulatedConnection
from repro.orm.session import EntityObject, Session

#: Layers reported by the traced run, in pipeline order.  ``harness`` is not
#: wrapped: it is the op wall time no span covers.
LAYERS = (
    "appsim.runtime",
    "appsim.cache",
    "orm.session",
    "net.connection",
    "db.database",
    "db.sqlparser",
    "db.statistics",
    "db.executor",
    "db.vectorized",
    "db.sharding",
    "db.parallel",
    "db.table",
    "fir.builder",
    "fir.rules",
    "core.region_analysis",
    "core.dag",
    "core.rules",
    "core.plans",
    "core.regions",
    "harness",
)

#: layer -> [(class, method names)]; a method is wrapped on the class and on
#: every subclass that overrides it.
METHOD_ENTRY_POINTS: dict[str, list[tuple[type, tuple[str, ...]]]] = {
    "appsim.runtime": [
        (
            AppRuntime,
            (
                "execute_query",
                "execute_query_result",
                "execute_update",
                "prefetch",
                "prefetch_query",
                "prefetch_group",
                "lookup",
                "lookup_group",
            ),
        )
    ],
    "appsim.cache": [
        (
            ClientCache,
            (
                "cache_by_column",
                "cache_groups_by_column",
                "lookup",
                "lookup_group",
            ),
        )
    ],
    # EntityObject.__getattr__ is the public face of a lazy load
    # (``order.customer``) and of every mapped-column read.
    "orm.session": [
        (Session, ("load_all", "get", "prefetch")),
        (EntityObject, ("__getattr__",)),
    ],
    "net.connection": [
        (Cursor, ("execute", "fetchall")),
        (
            SimulatedConnection,
            (
                "execute_query",
                "execute_prepared",
                "execute_update",
                "execute_update_prepared",
                "execute_lookup",
                "commit",
            ),
        ),
    ],
    "db.database": [
        (Database, ("prepare", "update_table")),
        (PreparedStatement, ("execute", "execute_update", "estimate")),
    ],
    "db.statistics": [
        (
            StatisticsCatalog,
            (
                "estimate_cardinality",
                "estimate_row_width",
                "estimate_server_time",
            ),
        )
    ],
    "db.executor": [(Executor, ("execute",))],
    "db.vectorized": [(VectorizedExecutor, ("try_execute", "try_codegen_rows"))],
    "db.sharding": [(ShardRouter, ("try_execute",))],
    "db.parallel": [(ShardExecutorPool, ("run_tasks", "run_process_requests"))],
    "db.table": [(Table, ("columns", "index_for", "wide_rows"))],
    "core.dag": [(RegionDag, ("build", "add_alternative"))],
    "core.plans": [
        (core_plans.DagCostCalculator, ("group_cost",)),
        (core_plans.PlanExtractor, ("extract",)),
    ],
    "core.regions": [(Region, ("to_source",))],
    # Rule objects: one ``apply`` per rule class in the default rule sets.
    "core.rules": [(type(rule), ("apply",)) for rule in DEFAULT_REGION_RULES],
    "fir.rules": [(type(rule), ("apply",)) for rule in DEFAULT_RULES],
}

#: layer -> module-level functions, patched in every ``repro.*`` module
#: whose globals hold them (that is where their callers look them up).
FUNCTION_ENTRY_POINTS: dict[str, list[Callable]] = {
    "db.sqlparser": [
        sqlparser.parse_sql,
        sqlparser.parse_update,
        sqlparser.bind_parameter_slots,
    ],
    "core.region_analysis": [region_analysis.analyze_program],
    "fir.builder": [fir_builder.build_fold, fir_builder.ast_to_fir],
    "core.plans": [core_plans.region_cost],
}

#: Spans kept for the span file; aggregates keep counting past the cap.
MAX_SPANS_KEPT = 200_000


def _overriding_classes(base: type, name: str) -> Iterator[type]:
    """``base`` and every (transitive) subclass defining ``name`` itself."""
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if name in vars(cls):
            yield cls


class SpanRecorder:
    """Records one span per wrapped call and aggregates self time per layer."""

    def __init__(self) -> None:
        #: (span id, parent id or -1, op id, layer, name, start, end)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.self_seconds: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        #: boundary counts the program has no public counter for.
        self.counts: dict[str, float] = {
            "statements_executed": 0,
            "fast_path_executions": 0,
            "columns_rebuilds": 0,
            "rebuild_seconds": 0.0,
        }
        self.ops = 0
        self.op_seconds = 0.0
        self._op_id = -1
        self._op_start = 0.0
        self._top_seconds = 0.0
        self._next_id = 0
        #: open spans, innermost last: [span id, seconds covered by children]
        self._stack: list[list] = []
        #: (table id, view kind, args) -> last view object handed out.
        self._views: dict[tuple, Any] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- per-op bracketing -------------------------------------------------

    def begin_op(self) -> None:
        self._op_id += 1
        self._top_seconds = 0.0
        self._op_start = perf_counter()

    def end_op(self) -> None:
        wall = perf_counter() - self._op_start
        self.ops += 1
        self.op_seconds += wall
        self.self_seconds["harness"] += wall - self._top_seconds
        self.calls["harness"] += 1

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        layer: str,
        name: str,
        func: Callable,
        probe: Optional[Callable[[tuple, Any, float], None]] = None,
    ) -> Callable:
        """A timing wrapper around ``func``; ``probe(args, result, seconds)``
        runs after a successful call to count what happened at the boundary."""
        stack = self._stack
        spans = self.spans
        self_seconds = self.self_seconds
        calls = self.calls

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                if parent is None:
                    self._top_seconds += seconds
                    parent_id = -1
                else:
                    parent[1] += seconds
                    parent_id = parent[0]
                self_seconds[layer] += seconds - frame[1]
                calls[layer] += 1
                if len(spans) < MAX_SPANS_KEPT:
                    spans.append(
                        (span_id, parent_id, self._op_id, layer, name, start, end)
                    )
                else:
                    self.spans_dropped += 1
            if probe is not None:
                probe(args, result, seconds)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- boundary probes ---------------------------------------------------

    def _probe_statement(self, args: tuple, result: Any, seconds: float) -> None:
        self.counts["statements_executed"] += 1
        if args[0].last_tier == "point-lookup":
            self.counts["fast_path_executions"] += 1

    def _probe_view(self, kind: str) -> Callable[[tuple, Any, float], None]:
        """Counts rebuilds of a cached table view.

        A view is rebuilt when the table hands out a different object than
        on the previous call; the first call seen after :meth:`install` only
        records the object (first-touch builds belong to set-up).
        """

        def probe(args: tuple, result: Any, seconds: float) -> None:
            key = (id(args[0]), kind, args[1:])
            previous = self._views.get(key)
            self._views[key] = result
            if previous is not None and previous is not result:
                self.counts["rebuild_seconds"] += seconds
                if kind == "columns":
                    self.counts["columns_rebuilds"] += 1

        return probe

    def _probe_for(self, cls: type, name: str):
        if cls is PreparedStatement and name == "execute":
            return self._probe_statement
        if issubclass(cls, Table):
            return self._probe_view(name)
        return None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point; idempotent until :meth:`uninstall`."""
        if self._restore:
            return
        for layer, targets in METHOD_ENTRY_POINTS.items():
            for base, names in targets:
                for name in names:
                    for cls in _overriding_classes(base, name):
                        original = vars(cls)[name]
                        if getattr(original, "__wrapped__", None) is not None:
                            continue  # a rule class already reached as a subclass
                        self._restore.append((cls, name, original))
                        setattr(
                            cls,
                            name,
                            self.wrap(
                                layer,
                                f"{cls.__name__}.{name}",
                                original,
                                self._probe_for(cls, name),
                            ),
                        )
        modules = [
            module
            for module_name, module in list(sys.modules.items())
            if module is not None
            and (module_name == "repro" or module_name.startswith("repro."))
        ]
        for layer, functions in FUNCTION_ENTRY_POINTS.items():
            for func in functions:
                wrapped = self.wrap(layer, func.__name__, func)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is func:
                            self._restore.append((module, attribute, func))
                            setattr(module, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original back (reverse order of patching)."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self._stack.clear()

    # -- output ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.self_ms_per_op`` and ``<layer>.calls_per_op``."""
        ops = max(self.ops, 1)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_ms_per_op"] = (
                self.self_seconds[layer] * 1000.0 / ops
            )
            metrics[f"{layer}.calls_per_op"] = self.calls[layer] / ops
        return metrics

    def coverage_ratio(self) -> float:
        """(sum of layer self time, harness included) / traced op wall time."""
        if self.op_seconds <= 0.0:
            return 0.0
        return sum(self.self_seconds.values()) / self.op_seconds

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, op, layer, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "layer": layer,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                handle.write("\n")
        return len(self.spans)
