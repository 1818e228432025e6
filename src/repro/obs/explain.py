"""EXPLAIN / EXPLAIN ANALYZE plan rendering.

``Database.explain`` delegates here: the prepared statement's execution
template is walked into one line per operator carrying the optimizer's
cardinality estimate, the router's classification (routed / shard-local /
scatter / fallback, with shard ids when they are known before execution),
and the execution tier the plan is predicted to run on.

``EXPLAIN ANALYZE`` additionally executes the statement and annotates every
operator with the row count it *actually* produced and the virtual server
time modeled for that work — estimates and actuals side by side.
Per-operator actuals re-execute each subtree (the engine is deterministic,
so subtree results equal what the full run saw); the root's actual row
count is taken from the statement's own result, so it matches the executed
result size exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.db import algebra


def describe_node(node: algebra.PlanNode) -> tuple:
    """One-line (operator, detail) label for a plan node, non-recursive."""
    if isinstance(node, algebra.Scan):
        detail = node.table
        if node.alias and node.alias != node.table:
            detail += f" AS {node.alias}"
        return "Scan", detail
    if isinstance(node, algebra.Select):
        return "Select", node.predicate.to_sql()
    if isinstance(node, algebra.Project):
        return "Project", ", ".join(node.output_names)
    if isinstance(node, algebra.Join):
        condition = (
            node.condition.to_sql() if node.condition is not None else "TRUE"
        )
        return "Join", condition
    if isinstance(node, algebra.Aggregate):
        keys = ", ".join(c.qualified_name for c in node.group_by)
        aggs = ", ".join(repr(spec) for spec in node.aggregates)
        return "Aggregate", f"by=[{keys}] aggs=[{aggs}]"
    if isinstance(node, algebra.Sort):
        return "Sort", ", ".join(repr(key) for key in node.keys)
    if isinstance(node, algebra.Limit):
        return "Limit", str(node.count)
    return type(node).__name__, ""


@dataclass
class ExplainEntry:
    """One operator line of an EXPLAIN report."""

    depth: int
    operator: str
    detail: str
    estimated_rows: float
    estimated_time: float
    actual_rows: Optional[int] = None
    actual_time: Optional[float] = None

    def as_dict(self) -> dict:
        out: dict = {
            "depth": self.depth,
            "operator": self.operator,
            "detail": self.detail,
            "estimated_rows": self.estimated_rows,
            "estimated_time": self.estimated_time,
        }
        if self.actual_rows is not None:
            out["actual_rows"] = self.actual_rows
            out["actual_time"] = self.actual_time
        return out


@dataclass
class ExplainResult:
    """A rendered plan: operator lines plus routing class and tier."""

    sql: str
    entries: List[ExplainEntry]
    routing: Optional[dict]
    tier: str
    analyzed: bool
    #: EXPLAIN ANALYZE only: how the execution actually ran — the serving
    #: tier, the concrete path ("codegen" / "kernel" / row tier /
    #: "point-lookup"), the vectorized fallback reason, if any, and for a
    #: sharded aggregate which gather ran ("threaded state" / "merged
    #: partials").
    execution: Optional[dict] = None

    @property
    def root(self) -> ExplainEntry:
        return self.entries[0]

    def as_dict(self) -> dict:
        out = {
            "sql": self.sql,
            "routing": self.routing,
            "tier": self.tier,
            "analyzed": self.analyzed,
            "plan": [entry.as_dict() for entry in self.entries],
        }
        if self.execution is not None:
            out["execution"] = self.execution
        return out

    def render(self) -> str:
        verb = "EXPLAIN ANALYZE" if self.analyzed else "EXPLAIN"
        lines = [f"{verb} {self.sql}"]
        if self.routing is None:
            lines.append("routing: none (no shard router)")
        else:
            kind = self.routing["kind"]
            shards = self.routing.get("shards")
            if shards is None:
                lines.append(f"routing: {kind}")
            else:
                lines.append(
                    f"routing: {kind} over shard(s) {list(shards)}"
                )
        lines.append(f"tier: {self.tier}")
        if self.execution is not None:
            line = f"executed: {self.execution['tier']}"
            path = self.execution.get("path")
            if path is not None and path != self.execution["tier"]:
                line += f" via {path}"
            reason = self.execution.get("fallback_reason")
            if reason is not None:
                line += f" (fallback: {reason})"
            lines.append(line)
            gather = self.execution.get("gather")
            if gather is not None:
                lines.append(f"gather: {gather}")
        label_width = max(
            len("  " * entry.depth + f"{entry.operator}({entry.detail})")
            for entry in self.entries
        )
        for entry in self.entries:
            label = "  " * entry.depth + f"{entry.operator}({entry.detail})"
            line = f"{label:<{label_width}}  est_rows={entry.estimated_rows:.1f}"
            line += f" est_time={entry.estimated_time:.6f}s"
            if entry.actual_rows is not None:
                line += (
                    f"  act_rows={entry.actual_rows}"
                    f" act_time={entry.actual_time:.6f}s"
                )
            lines.append(line)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _predict_tier(database: Any, statement: Any, plan: algebra.PlanNode) -> str:
    """The tier the statement is expected to execute on."""
    if (
        statement.point_lookup is not None
        and database.execution_mode != "interpreted"
        and database._mvcc is None
    ):
        return "point-lookup"
    executor = database._executor
    if executor._vectorized is not None:
        return (
            "vectorized"
            if executor._vectorized._op(plan) is not None
            else "compiled"
        )
    return executor.mode


def explain_statement(
    database: Any,
    sql: str,
    params: Sequence[Any] = (),
    *,
    analyze: bool = False,
) -> ExplainResult:
    """Build the EXPLAIN (ANALYZE) report for ``sql`` against ``database``."""
    statement = database.prepare(sql)
    if not statement.is_query:
        raise ValueError(
            f"EXPLAIN supports SELECT statements only, got: {sql!r}"
        )
    params = tuple(params)
    if statement.parameter_count:
        statement._bind_slots(params)
    plan = statement._exec_plan
    statistics = database.statistics
    per_row_cost = getattr(database, "server_row_cost", 2e-6)

    router = database._router
    routing = router.classify(plan) if router is not None else None
    tier = _predict_tier(database, statement, plan)

    entries: List[ExplainEntry] = []
    nodes: List[algebra.PlanNode] = []

    def estimated_input(node: algebra.PlanNode) -> int:
        children = node.children()
        if not children:
            return statistics.estimate_cardinality(node)
        return sum(statistics.estimate_cardinality(child) for child in children)

    def visit(node: algebra.PlanNode, depth: int) -> None:
        operator, detail = describe_node(node)
        output = statistics.estimate_cardinality(node)
        entries.append(
            ExplainEntry(
                depth=depth,
                operator=operator,
                detail=detail,
                estimated_rows=output,
                estimated_time=per_row_cost * (estimated_input(node) + output),
            )
        )
        nodes.append(node)
        for child in node.children():
            visit(child, depth + 1)

    visit(plan, 0)

    result_trace = None
    execution = None
    if analyze:
        tracer = database._tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            result_trace = tracer.start("explain_analyze", sql)
        result = statement.execute(params)
        execution = {
            "tier": statement.last_tier,
            "path": statement.last_execution_path,
            "fallback_reason": statement.last_fallback_reason,
        }
        if statement.last_route and "gather" in statement.last_route:
            execution["gather"] = statement.last_route["gather"]
        executor = (
            database._executor
            if database._mvcc is None
            else database._mvcc.executor_for(database._txn)
        )
        # Per-node actuals: the root comes straight from the executed
        # result (exact by construction); inner operators re-execute their
        # subtree, which is deterministic and therefore equal to what the
        # full run produced at that node.
        actuals: dict = {}
        for entry, node in zip(entries, nodes):
            if entry is entries[0]:
                actual = len(result.rows)
            else:
                key = id(node)
                if key not in actuals:
                    actuals[key] = len(executor.execute(node))
                actual = actuals[key]
            entry.actual_rows = actual
        for entry, node in zip(entries, nodes):
            children = node.children()
            if children:
                actual_input = sum(
                    entries[nodes.index(child)].actual_rows
                    for child in children
                )
            else:
                table = database.tables.get(getattr(node, "table", None))
                actual_input = len(table.rows) if table is not None else 0
            entry.actual_time = per_row_cost * (
                actual_input + entry.actual_rows
            )
        total_time = sum(entry.actual_time for entry in entries)
        if tracing:
            for entry in entries:
                result_trace.add_span(
                    f"operator:{entry.operator}",
                    entry.actual_time,
                    depth=entry.depth,
                    detail=entry.detail,
                    rows=entry.actual_rows,
                    estimated_rows=entry.estimated_rows,
                )
            tracer.finish(result_trace, total_time)

    return ExplainResult(
        sql=sql,
        entries=entries,
        routing=routing,
        tier=tier,
        analyzed=analyze,
        execution=execution,
    )


__all__ = ["ExplainEntry", "ExplainResult", "describe_node", "explain_statement"]
