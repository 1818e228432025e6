"""SQL text generation from relational algebra plans.

The COBRA transformations (T1–T5, N1, N2) rewrite F-IR whose query leaves are
algebra trees; the final chosen program needs SQL text to ship to the
database.  ``to_sql`` renders the canonical
``SELECT ... FROM ... JOIN ... WHERE ... GROUP BY ... ORDER BY ... LIMIT``
shape for the plan forms produced by the parser and the rewrite rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.db import algebra
from repro.db.expressions import ColumnRef, Expression, conjunction


class SQLGenerationError(Exception):
    """Raised when a plan shape cannot be rendered as a single SELECT."""


@dataclass
class _QueryParts:
    """Accumulated clauses for one SELECT statement."""

    select: list[str] = field(default_factory=list)
    from_clause: str = ""
    joins: list[str] = field(default_factory=list)
    where: list[Expression] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    order_by: list[str] = field(default_factory=list)
    limit: Optional[int] = None

    def render(self) -> str:
        select = ", ".join(self.select) if self.select else "*"
        sql = f"select {select} from {self.from_clause}"
        for join in self.joins:
            sql += f" {join}"
        predicate = conjunction(self.where)
        if predicate is not None:
            sql += f" where {predicate.to_sql()}"
        if self.group_by:
            sql += " group by " + ", ".join(self.group_by)
        if self.order_by:
            sql += " order by " + ", ".join(self.order_by)
        if self.limit is not None:
            sql += f" limit {self.limit}"
        return sql


def to_sql(plan: algebra.PlanNode) -> str:
    """Render ``plan`` as a single SELECT statement."""
    parts = _QueryParts()
    _fill(plan, parts)
    return parts.render()


def _fill(plan: algebra.PlanNode, parts: _QueryParts) -> None:
    if isinstance(plan, algebra.Limit):
        parts.limit = plan.count
        _fill(plan.child, parts)
        return
    if isinstance(plan, algebra.Sort):
        parts.order_by = [
            f"{key.column.qualified_name}{'' if key.ascending else ' desc'}"
            for key in plan.keys
        ]
        _fill(plan.child, parts)
        return
    if isinstance(plan, algebra.Project):
        _fill_project(plan, parts)
        return
    if isinstance(plan, algebra.Aggregate):
        _fill_aggregate(plan, parts)
        return
    if isinstance(plan, algebra.Select):
        parts.where.insert(0, plan.predicate)
        _fill(plan.child, parts)
        return
    if isinstance(plan, algebra.Join):
        _fill_join(plan, parts)
        return
    if isinstance(plan, algebra.Scan):
        parts.from_clause = _scan_text(plan)
        return
    raise SQLGenerationError(f"cannot render {type(plan).__name__} as SQL")


def _fill_project(plan: algebra.Project, parts: _QueryParts) -> None:
    child = plan.child
    if isinstance(child, algebra.Aggregate):
        _fill_aggregate(child, parts, projection=plan)
        return
    rendered = []
    for output in plan.outputs:
        expr_sql = output.expression.to_sql()
        if isinstance(output.expression, ColumnRef) and output.name in (
            output.expression.name,
            output.expression.qualified_name,
        ):
            rendered.append(expr_sql)
        else:
            rendered.append(f"{expr_sql} as {output.name}")
    if parts.select:
        raise SQLGenerationError("nested projections cannot be rendered")
    parts.select = rendered
    _fill(child, parts)


def _fill_aggregate(
    plan: algebra.Aggregate,
    parts: _QueryParts,
    projection: Optional[algebra.Project] = None,
) -> None:
    select: list[str] = []
    for key in plan.group_by:
        select.append(key.qualified_name)
        parts.group_by.append(key.qualified_name)
    for spec in plan.aggregates:
        argument = spec.argument.to_sql() if spec.argument is not None else "*"
        rendered = f"{spec.function}({argument})"
        default_name = (
            f"{spec.function}_{spec.argument.name}"
            if isinstance(spec.argument, ColumnRef)
            else None
        )
        if spec.name and spec.name != default_name:
            rendered += f" as {spec.name}"
        select.append(rendered)
    parts.select = select
    _fill(plan.child, parts)


def _fill_join(plan: algebra.Join, parts: _QueryParts) -> None:
    # Left-deep join chains render as FROM <leftmost> JOIN ... ON ...
    if isinstance(plan.left, (algebra.Join, algebra.Scan, algebra.Select)):
        _fill_join_side(plan.left, parts)
    else:
        raise SQLGenerationError(
            f"unsupported join input {type(plan.left).__name__}"
        )
    right_text = _join_operand_text(plan.right, parts)
    condition = plan.condition.to_sql() if plan.condition is not None else "1 = 1"
    parts.joins.append(f"join {right_text} on {condition}")


def _fill_join_side(plan: algebra.PlanNode, parts: _QueryParts) -> None:
    if isinstance(plan, algebra.Scan):
        parts.from_clause = _scan_text(plan)
        return
    if isinstance(plan, algebra.Select):
        parts.where.insert(0, plan.predicate)
        _fill_join_side(plan.child, parts)
        return
    if isinstance(plan, algebra.Join):
        _fill_join(plan, parts)
        return
    raise SQLGenerationError(
        f"unsupported join input {type(plan).__name__}"
    )


def _join_operand_text(plan: algebra.PlanNode, parts: _QueryParts) -> str:
    if isinstance(plan, algebra.Scan):
        return _scan_text(plan)
    if isinstance(plan, algebra.Select) and isinstance(plan.child, algebra.Scan):
        # Push the right-side filter into the WHERE clause.
        parts.where.append(plan.predicate)
        return _scan_text(plan.child)
    raise SQLGenerationError(
        f"unsupported right join operand {type(plan).__name__}"
    )


def _scan_text(plan: algebra.Scan) -> str:
    if plan.alias and plan.alias != plan.table:
        return f"{plan.table} {plan.alias}"
    return plan.table
