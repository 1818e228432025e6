"""Structured query tracing on the virtual clock.

One :class:`QueryTrace` is recorded per statement exchange (query, update,
commit, or pipeline flush).  The root span's duration is exactly the
virtual latency charged for the statement — the ``elapsed`` returned by
the connection's fault-wrapped measure path — and child spans partition it:
network round trips, server execution, admission-queue waits, WAL flushes,
injected faults, and retry backoffs each claim a contiguous slice, while
zero-duration *event* spans (parse/cache-hit, plan, route, per-operator
rows, MVCC conflicts) annotate the timeline without consuming it.  That
gives the accounting invariant tests rely on::

    sum(child.duration) == root.duration        (and children never overlap)

Server work that overlaps result transfer on the wire is *not* split into
overlapping spans; the execute span carries ``server_first``/``server_rest``
/``transfer_time`` attributes and its duration is the max-overlap total the
cost model actually charged, so the invariant holds with overlap accounted
inside one span rather than between spans.

The tracer is safe under the async client because connection measure
closures run synchronously between awaits — a plain current-trace stack
needs no locking.  When ``enabled`` is False every hook is a cheap
attribute check; when no tracer is configured the hooks are skipped
entirely.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .metrics import MetricsRegistry


class Span:
    """One timed (or zero-duration event) slice of a query trace."""

    __slots__ = ("name", "offset", "duration", "attributes", "children")

    def __init__(
        self,
        name: str,
        offset: float = 0.0,
        duration: float = 0.0,
        attributes: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.offset = offset
        self.duration = duration
        self.attributes = attributes if attributes is not None else {}
        self.children: List[Span] = []

    @property
    def end(self) -> float:
        return self.offset + self.duration

    def child(self, name: str, duration: float = 0.0, **attributes: Any) -> "Span":
        """Attach an informational sub-span (does not affect accounting)."""
        span = Span(name, self.offset, duration, attributes or None)
        self.children.append(span)
        return span

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "offset": self.offset,
            "duration": self.duration,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, +{self.offset:.6f}, {self.duration:.6f}s)"


class QueryTrace:
    """All spans recorded for one statement exchange."""

    __slots__ = ("kind", "sql", "root", "sequence", "error", "_cursor")

    def __init__(self, kind: str, sql: Optional[str], sequence: int) -> None:
        self.kind = kind
        self.sql = sql
        self.root = Span(kind)
        self.sequence = sequence
        self.error: Optional[str] = None
        self._cursor = 0.0

    @property
    def duration(self) -> float:
        return self.root.duration

    @property
    def spans(self) -> List[Span]:
        return self.root.children

    def add_span(
        self, name: str, duration: float = 0.0, **attributes: Any
    ) -> Span:
        """Append a child span at the running cursor offset."""
        span = Span(name, self._cursor, duration, attributes or None)
        self._cursor += duration
        self.root.children.append(span)
        return span

    def find(self, name: str) -> Optional[Span]:
        for span in self.root.children:
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List[Span]:
        return [span for span in self.root.children if span.name == name]

    def check_accounting(self, tolerance: float = 1e-9) -> None:
        """Assert child spans partition the root without overlaps.

        Raises ``AssertionError`` describing the first violation; used by
        the span-accounting property tests and safe to call on any
        successfully finished trace.
        """
        budget = tolerance + abs(self.root.duration) * 1e-9
        total = 0.0
        previous_end = 0.0
        for span in self.root.children:
            if span.offset < previous_end - budget:
                raise AssertionError(
                    f"span {span.name!r} at +{span.offset} overlaps the "
                    f"previous span ending at +{previous_end} ({self.sql!r})"
                )
            if span.end > self.root.duration + budget:
                raise AssertionError(
                    f"span {span.name!r} ends at +{span.end}, past the root "
                    f"duration {self.root.duration} ({self.sql!r})"
                )
            previous_end = max(previous_end, span.end)
            total += span.duration
        if abs(total - self.root.duration) > budget:
            raise AssertionError(
                f"child spans sum to {total}, root charged "
                f"{self.root.duration} ({self.sql!r})"
            )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sql": self.sql,
            "sequence": self.sequence,
            "duration": self.root.duration,
            "error": self.error,
            "spans": [span.as_dict() for span in self.root.children],
        }

    def render(self) -> str:
        """Human-readable one-trace report (CLI ``--trace`` output)."""
        header = f"{self.kind} ({self.root.duration:.6f}s)"
        if self.sql:
            header += f": {self.sql}"
        if self.error:
            header += f"  [error: {self.error}]"
        lines = [header]

        def emit(span: Span, depth: int) -> None:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(span.attributes.items())
            )
            lines.append(
                "  " * depth
                + f"- {span.name} +{span.offset:.6f}s {span.duration:.6f}s"
                + (f"  {attrs}" if attrs else "")
            )
            for child in span.children:
                emit(child, depth + 1)

        for span in self.root.children:
            emit(span, 1)
        return "\n".join(lines)


class Tracer:
    """Records per-statement traces; owns the slow-query log.

    ``start``/``finish`` bracket one statement exchange and are called by
    the connection's fault wrapper; ``add_span`` hooks inside the measure
    paths attach children to whichever trace is currently open (a stack,
    so a nested exchange — e.g. a commit inside ``run_transaction`` —
    traces separately from its neighbours).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        max_traces: int = 256,
        slow_query_threshold: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_traces <= 0:
            raise ValueError(f"max_traces must be positive, got {max_traces}")
        self.enabled = enabled
        self.slow_query_threshold = slow_query_threshold
        self.traces: Deque[QueryTrace] = deque(maxlen=max_traces)
        self.slow_queries: Deque[QueryTrace] = deque(maxlen=64)
        self.traces_recorded = 0
        self.slow_queries_recorded = 0
        self.errors_recorded = 0
        self._stack: List[QueryTrace] = []
        self._sequence = 0
        self._last_prepare: Optional[tuple] = None
        self._latency: Optional[dict] = None
        if registry is not None:
            self.bind_registry(registry)

    # -- configuration -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Mirror trace outcomes into first-class metrics instruments."""
        self._traces_counter = registry.counter("tracer.traces_recorded")
        self._slow_counter = registry.counter("tracer.slow_queries")
        self._latency = {
            kind: registry.histogram(f"tracer.latency.{kind}")
            for kind in ("query", "update", "commit", "pipeline")
        }
        registry.register_view(
            "tracer", lambda: self.stats_dict()
        )

    # -- the statement lifecycle ------------------------------------------

    @property
    def active(self) -> bool:
        """True while a trace is open (hooks should record spans)."""
        return bool(self._stack)

    @property
    def current(self) -> Optional[QueryTrace]:
        return self._stack[-1] if self._stack else None

    def start(self, kind: str, sql: Optional[str] = None) -> QueryTrace:
        self._sequence += 1
        trace = QueryTrace(kind, sql, self._sequence)
        self._stack.append(trace)
        # A prepare observed immediately before the exchange belongs to it.
        if self._last_prepare is not None:
            prepared_sql, cache_hit = self._last_prepare
            self._last_prepare = None
            trace.add_span("parse", 0.0, sql=prepared_sql, cache_hit=cache_hit)
            if trace.sql is None:
                trace.sql = prepared_sql
        return trace

    def set_sql(self, sql: str) -> None:
        trace = self.current
        if trace is not None and trace.sql is None:
            trace.sql = sql

    def add_span(self, name: str, duration: float = 0.0, **attributes: Any):
        """Record a span on the open trace; no-op outside an exchange."""
        trace = self.current
        if trace is None:
            return None
        return trace.add_span(name, duration, **attributes)

    def finish(self, trace: QueryTrace, elapsed: float) -> None:
        trace.root.duration = elapsed
        self._pop(trace)
        self.traces.append(trace)
        self.traces_recorded += 1
        threshold = self.slow_query_threshold
        if threshold is not None and elapsed >= threshold:
            self.slow_queries.append(trace)
            self.slow_queries_recorded += 1
            if self._latency is not None:
                self._slow_counter.inc()
        if self._latency is not None:
            self._traces_counter.inc()
            histogram = self._latency.get(trace.kind)
            if histogram is not None:
                histogram.observe(elapsed)

    def finish_error(
        self, trace: QueryTrace, error: BaseException, elapsed: float = 0.0
    ) -> None:
        """Close a trace whose exchange raised; accounting is best-effort."""
        trace.error = f"{type(error).__name__}: {error}"
        trace.root.duration = elapsed
        self._pop(trace)
        self.traces.append(trace)
        self.traces_recorded += 1
        self.errors_recorded += 1
        if self._latency is not None:
            self._traces_counter.inc()

    def _pop(self, trace: QueryTrace) -> None:
        if self._stack and self._stack[-1] is trace:
            self._stack.pop()
        elif trace in self._stack:  # defensive: unwound out of order
            self._stack.remove(trace)

    # -- out-of-band notes -------------------------------------------------

    def note_prepare(self, sql: str, cache_hit: bool) -> None:
        """Called by ``Database.prepare``.

        A prepare issued *inside* an open exchange (server-side parse of a
        raw-SQL update, a statement queued mid-pipeline) belongs to the
        current trace and is attached immediately; one issued before the
        exchange starts (the client-side prepare of a query) is held and
        attached by the next ``start``.
        """
        trace = self.current
        if trace is not None:
            trace.add_span("parse", 0.0, sql=sql, cache_hit=cache_hit)
            if trace.sql is None:
                trace.sql = sql
        else:
            self._last_prepare = (sql, cache_hit)

    # -- reporting ---------------------------------------------------------

    def stats_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "traces_recorded": self.traces_recorded,
            "traces_retained": len(self.traces),
            "slow_queries": self.slow_queries_recorded,
            "slow_query_threshold": self.slow_query_threshold,
            "errors": self.errors_recorded,
        }

    def render(self, limit: int = 10) -> str:
        """Render the most recent ``limit`` traces, oldest first."""
        recent = list(self.traces)[-limit:]
        if not recent:
            return "(no traces recorded)"
        return "\n\n".join(trace.render() for trace in recent)


def attach_parallel_scatter(span: Span, parallel: dict) -> Span:
    """Attach a parallel-scatter breakdown under a route span.

    ``parallel`` is the router's scatter record (mode, workers, per-shard
    wall times, pickle byte counts in process mode).  The breakdown rides
    as *informational* sub-spans (:meth:`Span.child`), so
    :meth:`QueryTrace.check_accounting`'s exact partition of the root —
    which only inspects the root's direct children — is untouched.  The
    ``parallel`` child's duration is the **max** per-shard wall time, not
    the sum: shards ran concurrently, and the slowest one bounds the wall
    clock the scatter actually occupied.  Each shard's own wall time
    attaches as a ``shard-<i>`` grandchild.
    """
    attributes: dict = {
        "mode": parallel.get("mode"),
        "workers": parallel.get("workers"),
        "shards": parallel.get("shards"),
    }
    pickle_bytes = parallel.get("pickle_bytes")
    if pickle_bytes is not None:
        attributes["pickle_bytes"] = dict(pickle_bytes)
    child = span.child(
        "parallel", parallel.get("elapsed", 0.0), **attributes
    )
    for index, seconds in enumerate(parallel.get("shard_seconds", ())):
        child.child(f"shard-{index}", seconds)
    return child


__all__ = ["QueryTrace", "Span", "Tracer", "attach_parallel_scatter"]
