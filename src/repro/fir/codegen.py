"""Code generation: from rewritten F-IR back to Python source.

The transformation rules (:mod:`repro.fir.rules`) decide *what* the rewritten
region should compute; this module produces the actual Python statements.  It
works by rewriting the original loop-body AST (so untouched computation is
preserved verbatim) with :class:`ast.NodeTransformer` passes:

* ``RowAccessRewriter``  — redirect accesses to the loop variable and to
  lookup-bound variables onto a join-result row variable
  (``o.o_id`` → ``r["o_id"]``, ``cust.c_birth_year`` → ``r["c_birth_year"]``,
  ``p.role_id`` → ``r["participant.role_id"]`` where both joined tables
  have a ``role_id``),
* ``SubscriptStyleRewriter`` — convert attribute-style accesses on a variable
  to subscript style (cache rows are plain dicts),
* SQL builders for join queries, aggregate queries, and predicate push-down.
"""

from __future__ import annotations

import ast
from typing import Collection, Iterable, Optional, Sequence

from repro.db import algebra
from repro.db.expressions import BinaryOp, ColumnRef, Expression, ExpressionError
from repro.db.schema import Schema, SchemaError
from repro.db.sqlgen import SQLGenerationError, to_sql
from repro.db.sqlparser import SQLSyntaxError, parse_sql
from repro.fir.builder import LookupBinding


class CodegenError(Exception):
    """Raised when rewritten source cannot be generated."""


# -- AST rewriting ----------------------------------------------------------


class RowAccessRewriter(ast.NodeTransformer):
    """Redirect variable accesses onto a (join-result) row dictionary.

    ``variable_map`` maps a variable name to ``(row_variable, qualifier)``
    and ``keys`` are the row's keys.  Both
    ``var.attr`` and ``var["attr"]`` become ``row[key]``, where ``key`` is
    the one the database reads for ``qualifier.attr``
    (:meth:`~repro.db.expressions.ColumnRef.key_in`): the bare name, or
    ``qualifier.attr`` where both joined tables have the column.  An access
    the row cannot serve raises :class:`CodegenError`.
    """

    def __init__(
        self,
        variable_map: dict[str, tuple[str, Optional[str]]],
        keys: Collection[str],
    ) -> None:
        self.variable_map = variable_map
        self.keys = keys

    def _rewrite(self, name: str, column: str, ctx: ast.expr_context) -> ast.AST:
        row, qualifier = self.variable_map[name]
        try:
            key = ColumnRef(column, qualifier).key_in(self.keys)
        except ExpressionError as error:
            raise CodegenError(str(error)) from None
        return ast.Subscript(
            value=ast.Name(id=row, ctx=ast.Load()),
            slice=ast.Constant(value=key),
            ctx=ctx,
        )

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.value, ast.Name) and node.value.id in self.variable_map:
            return self._rewrite(node.value.id, node.attr, node.ctx)
        return node

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        self.generic_visit(node)
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self.variable_map
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            return self._rewrite(node.value.id, node.slice.value, node.ctx)
        return node


class SubscriptStyleRewriter(ast.NodeTransformer):
    """Convert ``var.attr`` into ``var["attr"]`` for the given variables."""

    def __init__(self, variables: Iterable[str]) -> None:
        self.variables = set(variables)

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.value, ast.Name) and node.value.id in self.variables:
            return ast.Subscript(
                value=node.value,
                slice=ast.Constant(value=node.attr),
                ctx=node.ctx,
            )
        return node


def rewrite_statements(
    statements: Sequence[ast.stmt],
    transformer: ast.NodeTransformer,
    drop: Sequence[ast.stmt] = (),
) -> list[ast.stmt]:
    """Apply ``transformer`` to copies of ``statements``, skipping ``drop``."""
    drop_ids = {id(stmt) for stmt in drop}
    rewritten = []
    for stmt in statements:
        if id(stmt) in drop_ids:
            continue
        clone = _clone(stmt)
        new = transformer.visit(clone)
        ast.fix_missing_locations(new)
        rewritten.append(new)
    return rewritten


def rewrite_join_rows(
    statements: Sequence[ast.stmt],
    variable_map: dict[str, tuple[str, Optional[str]]],
    join_sql: str,
    schema: Optional[Schema],
    drop: Sequence[ast.stmt] = (),
) -> Optional[list[ast.stmt]]:
    """``statements`` reading the rows of ``join_sql`` through
    :class:`RowAccessRewriter`, or ``None`` without a schema, or when those
    rows' keys (:func:`repro.db.algebra.output_layout`) are unknown or
    cannot serve an access."""
    if schema is None:
        return None
    try:
        layout = algebra.output_layout(
            parse_sql(join_sql), lambda name: schema.table(name).column_names
        )
        keys = [entry.key for entry in layout]
        return rewrite_statements(
            statements, RowAccessRewriter(variable_map, keys), drop
        )
    except (
        CodegenError,
        ExpressionError,
        SQLSyntaxError,
        SchemaError,
        algebra.AlgebraError,
    ):
        return None


def _clone(node: ast.stmt) -> ast.stmt:
    return ast.parse(ast.unparse(node)).body[0]


def unparse_block(statements: Sequence[ast.stmt], indent: int = 0) -> str:
    """Render statements as source with the given indentation."""
    prefix = " " * indent
    lines: list[str] = []
    for stmt in statements:
        for line in ast.unparse(stmt).splitlines():
            lines.append(prefix + line)
    return "\n".join(lines)


# -- SQL builders -----------------------------------------------------------


def build_join_sql(outer_sql: str, binding: LookupBinding) -> Optional[str]:
    """Build the join query that replaces per-iteration lookups (rule T4).

    ``outer_sql`` is the query the loop iterates over; ``binding`` describes
    the inner lookup (table, key column, and the outer column providing the
    key).  Returns ``None`` when the outer query shape is not joinable.
    """
    try:
        outer_plan = parse_sql(outer_sql)
    except SQLSyntaxError:
        return None
    outer_plan = _strip_presentational(outer_plan)
    if not isinstance(outer_plan, (algebra.Scan, algebra.Select)):
        return None
    outer_scans = algebra.find_scans(outer_plan)
    if len(outer_scans) != 1 or binding.table is None or binding.key_column is None:
        return None
    outer_column = _outer_key_column(binding)
    if outer_column is None:
        return None
    outer_alias = outer_scans[0].effective_alias
    condition = BinaryOp(
        "=",
        ColumnRef(outer_column, outer_alias),
        ColumnRef(binding.key_column, binding.table),
    )
    join = algebra.Join(outer_plan, algebra.Scan(binding.table), condition)
    try:
        return to_sql(join)
    except SQLGenerationError:
        return None


def build_nested_join_sql(
    outer_sql: str, inner_sql: str, condition_sql: Optional[str]
) -> Optional[str]:
    """Build a join query replacing an imperative nested-loops join."""
    try:
        outer_plan = _strip_presentational(parse_sql(outer_sql))
        inner_plan = _strip_presentational(parse_sql(inner_sql))
    except SQLSyntaxError:
        return None
    condition: Optional[Expression] = None
    if condition_sql:
        try:
            probe = parse_sql(f"select * from t where {condition_sql}")
        except SQLSyntaxError:
            return None
        for node in algebra.walk(probe):
            if isinstance(node, algebra.Select):
                condition = node.predicate
                break
    join = algebra.Join(outer_plan, inner_plan, condition)
    try:
        return to_sql(join)
    except SQLGenerationError:
        return None


def build_aggregate_sql(
    query_sql: str, function: str, column: Optional[str]
) -> Optional[tuple[str, str]]:
    """Build ``select <function>(<column>) from ...`` over the loop's query.

    Returns ``(sql, output_name)`` or ``None`` when the query shape does not
    admit a single aggregate (rule T5).
    """
    try:
        plan = _strip_presentational(parse_sql(query_sql))
    except SQLSyntaxError:
        return None
    # Aggregating over a projection: aggregate the underlying relation.
    if isinstance(plan, algebra.Project):
        plan = plan.child
    if not isinstance(plan, (algebra.Scan, algebra.Select, algebra.Join)):
        return None
    if function == "count" and column is None:
        spec = algebra.AggregateSpec("count", None, "count_all")
        name = "count_all"
    else:
        if column is None:
            return None
        name = f"{function}_{column}"
        spec = algebra.AggregateSpec(function, ColumnRef(column), name)
    aggregate = algebra.Aggregate(plan, (), (spec,))
    try:
        return to_sql(aggregate), name
    except SQLGenerationError:
        return None


def push_predicate_sql(query_sql: str, predicate_sql: str) -> Optional[str]:
    """Add a WHERE predicate to a query (rule T2's push into the database)."""
    try:
        plan = parse_sql(query_sql)
        probe = parse_sql(f"select * from t where {predicate_sql}")
    except SQLSyntaxError:
        return None
    predicate: Optional[Expression] = None
    for node in algebra.walk(probe):
        if isinstance(node, algebra.Select):
            predicate = node.predicate
            break
    if predicate is None:
        return None
    pushed = _push_select(plan, predicate)
    try:
        return to_sql(pushed)
    except SQLGenerationError:
        return None


def predicate_to_sql(
    guard: ast.expr, loop_variable: str
) -> Optional[tuple[str, list[str]]]:
    """Translate a Python guard over the loop tuple into a SQL predicate.

    Operands may be columns of the current tuple (``o["x"]`` / ``o.x``),
    constants, or expressions over enclosing-scope values; the latter become
    positional ``?`` parameters.  Returns ``(predicate_sql, parameter_sources)``
    where ``parameter_sources`` are Python source snippets supplying the
    parameter values, or ``None`` when the guard is not translatable.
    """
    params: list[str] = []
    try:
        sql = _guard_to_sql(guard, loop_variable, params)
    except CodegenError:
        return None
    return sql, params


def _guard_to_sql(node: ast.expr, loop_variable: str, params: list[str]) -> str:
    if isinstance(node, ast.BoolOp):
        joiner = " and " if isinstance(node.op, ast.And) else " or "
        return "(" + joiner.join(
            _guard_to_sql(v, loop_variable, params) for v in node.values
        ) + ")"
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        operators = {
            ast.Eq: "=",
            ast.NotEq: "<>",
            ast.Lt: "<",
            ast.LtE: "<=",
            ast.Gt: ">",
            ast.GtE: ">=",
        }
        op = operators.get(type(node.ops[0]))
        if op is None:
            raise CodegenError("unsupported comparison operator")
        left = node.left
        right = node.comparators[0]
        # Keep the tuple column on the left so the parameter lands on the right.
        if guard_column(right, loop_variable) is not None and guard_column(
            left, loop_variable
        ) is None:
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        left_sql = _guard_operand_to_sql(left, loop_variable, params)
        right_sql = _guard_operand_to_sql(right, loop_variable, params)
        return f"{left_sql} {op} {right_sql}"
    raise CodegenError(f"unsupported guard {ast.unparse(node)}")


def _guard_operand_to_sql(
    node: ast.expr, loop_variable: str, params: list[str]
) -> str:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return "'" + node.value.replace("'", "''") + "'"
        return repr(node.value)
    column = guard_column(node, loop_variable)
    if column is not None:
        return column
    # Anything else that does not mention the loop variable becomes a
    # positional parameter supplied from the enclosing scope.
    if loop_variable not in {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name)
    }:
        params.append(ast.unparse(node))
        return "?"
    raise CodegenError(f"guard operand not translatable: {ast.unparse(node)}")


def guard_column(node: ast.expr, loop_variable: str) -> Optional[str]:
    """The column of the loop tuple referenced by ``node``, if any."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == loop_variable:
            return node.attr
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == loop_variable
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ):
        return node.slice.value
    return None


def _outer_key_column(binding: LookupBinding) -> Optional[str]:
    """The outer-tuple column supplying the lookup key, if derivable."""
    if binding.source_column:
        return binding.source_column
    key = binding.key_expression
    if isinstance(key, ast.Attribute):
        return key.attr
    if isinstance(key, ast.Subscript) and isinstance(key.slice, ast.Constant):
        value = key.slice.value
        return value if isinstance(value, str) else None
    return None


def _strip_presentational(plan: algebra.PlanNode) -> algebra.PlanNode:
    """Drop Sort/Limit wrappers (irrelevant for joins and aggregates)."""
    while isinstance(plan, (algebra.Sort, algebra.Limit)):
        plan = plan.child
    return plan


def _push_select(
    plan: algebra.PlanNode, predicate: Expression
) -> algebra.PlanNode:
    """Insert a Select under presentational operators of ``plan``."""
    if isinstance(plan, algebra.Sort):
        return algebra.Sort(_push_select(plan.child, predicate), plan.keys)
    if isinstance(plan, algebra.Limit):
        return algebra.Limit(_push_select(plan.child, predicate), plan.count)
    if isinstance(plan, algebra.Project):
        return algebra.Project(_push_select(plan.child, predicate), plan.outputs)
    return algebra.Select(plan, predicate)
