"""F-IR construction: from a cursor loop region to a fold expression.

This implements the algorithm of Figure 9 of the paper (``toFIR`` /
``loopToFold``) with the tuple/project extension of Section V-B: a cursor
loop whose body satisfies the preconditions is represented as::

    fold( tuple(e_1, ..., e_n), tuple(v1_0, ..., vn_0), Q )

where each ``e_i`` is the per-tuple update expression of one accumulated
variable, ``v_i0`` its value before the loop, and ``Q`` the query the loop
iterates over.  The precondition P2 of the earlier work (at most one
aggregated variable) is *not* enforced — dependent aggregations are allowed,
exactly as the paper's extension prescribes.

The builder also extracts structured facts that the transformation rules need
(:class:`LookupBinding` for per-iteration lookup queries / lazy loads,
:class:`AccumulatorSpec` for each accumulated variable,
:class:`NestedJoinInfo` for nested cursor loops that implement a join), so
rules T1-T5/N1/N2 can match without re-deriving everything from the raw AST.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.core.region_analysis import AnalysisContext, classify_data_access
from repro.core.regions import LoopRegion, QueryCallInfo
from repro.fir import expressions as fir
from repro.fir.dependence import LoopDependenceInfo, analyze_loop_body


@dataclass
class LookupBinding:
    """A loop-body binding produced by a per-iteration lookup query.

    Example (program P0): ``cust = o.customer`` binds ``cust`` from a lookup
    on ``customer`` keyed by ``c_customer_sk = o.o_customer_sk``.
    """

    variable: str
    kind: str  # 'lazy_load' | 'sql_lookup' | 'cache_lookup'
    table: Optional[str]
    key_column: Optional[str]
    key_expression: ast.expr
    source_column: Optional[str] = None
    entity: Optional[str] = None
    statement: Optional[ast.stmt] = None
    fir_node: Optional[fir.FIRNode] = None


@dataclass
class AccumulatorSpec:
    """One accumulated variable and its per-tuple update."""

    variable: str
    kind: str  # 'collection_insert' | 'scalar' | 'map_put'
    operator: Optional[str]
    value: ast.expr
    key: Optional[ast.expr] = None
    guard: Optional[ast.expr] = None
    statement: Optional[ast.stmt] = None
    fir_node: Optional[fir.FIRNode] = None
    depends_on: set = field(default_factory=set)


@dataclass
class NestedJoinInfo:
    """A nested cursor loop implementing a join inside the outer loop."""

    loop_node: ast.For
    inner_variable: str
    inner_query: QueryCallInfo
    inner_sql: str
    join_condition: Optional[ast.expr]


@dataclass
class FoldInfo:
    """Everything known about one cursor loop represented as a fold."""

    loop: LoopRegion
    query: QueryCallInfo
    query_sql: str
    loop_variable: str
    bindings: list[LookupBinding]
    local_bindings: dict[str, ast.expr]
    accumulators: list[AccumulatorSpec]
    nested_joins: list[NestedJoinInfo]
    dependence: LoopDependenceInfo
    fold: fir.Fold
    guard: Optional[ast.expr] = None
    #: statements kept verbatim in rewrites (e.g. recursive calls): rules that
    #: replace the whole loop must not apply when any are present.
    opaque_statements: list = field(default_factory=list)

    @property
    def has_opaque_statements(self) -> bool:
        """True when the loop body contains statements the rules cannot model."""
        return bool(self.opaque_statements)

    @property
    def has_dependent_aggregations(self) -> bool:
        """True when one accumulator reads another (Figure 7's cSum case)."""
        names = {a.variable for a in self.accumulators}
        return any(a.depends_on & (names - {a.variable}) for a in self.accumulators)

    def accumulator(self, variable: str) -> Optional[AccumulatorSpec]:
        for spec in self.accumulators:
            if spec.variable == variable:
                return spec
        return None


class FoldConstructionError(Exception):
    """Raised when a loop violates the F-IR preconditions."""


def query_sql_for(query: QueryCallInfo) -> Optional[str]:
    """The SQL text of the query a cursor loop iterates over."""
    if query.kind == "sql":
        return query.sql
    if query.kind == "load_all" and query.table:
        return f"select * from {query.table}"
    return None


def build_fold(
    loop: LoopRegion, context: AnalysisContext
) -> Optional[FoldInfo]:
    """Build the fold representation of ``loop``.

    Returns ``None`` when the loop is not a cursor loop or when the F-IR
    preconditions fail (external effects, unsupported statements); in that
    case the loop simply keeps only its original implementation in the Region
    DAG and other rules may still apply elsewhere in the program.
    """
    if not loop.is_cursor_loop or loop.loop_node is None:
        return None
    query_sql = query_sql_for(loop.query)
    if query_sql is None:
        return None
    body = list(loop.loop_node.body)
    dependence = analyze_loop_body(body, loop.loop_variable)
    if not dependence.is_foldable:
        return None

    bindings: list[LookupBinding] = []
    local_bindings: dict[str, ast.expr] = {}
    accumulators: list[AccumulatorSpec] = []
    nested_joins: list[NestedJoinInfo] = []
    opaque_statements: list[ast.stmt] = []

    try:
        for stmt in body:
            _process_statement(
                stmt,
                loop,
                context,
                bindings,
                local_bindings,
                accumulators,
                nested_joins,
                opaque_statements,
                guard=None,
            )
    except FoldConstructionError:
        return None

    if not accumulators and not nested_joins:
        # Nothing escapes the loop: nothing to optimise (or the loop's effect
        # is not representable); keep the original only.
        return None

    fold_expr = _formal_fold(
        loop, query_sql, accumulators, bindings, local_bindings
    )
    accumulator_names = {a.variable for a in accumulators}
    for spec in accumulators:
        spec.depends_on = _names_in(spec.value) & accumulator_names

    return FoldInfo(
        loop=loop,
        query=loop.query,
        query_sql=query_sql,
        loop_variable=loop.loop_variable,
        bindings=bindings,
        local_bindings=local_bindings,
        accumulators=accumulators,
        nested_joins=nested_joins,
        dependence=dependence,
        fold=fold_expr,
        opaque_statements=opaque_statements,
    )


# -- statement processing --------------------------------------------------


def _process_statement(
    stmt: ast.stmt,
    loop: LoopRegion,
    context: AnalysisContext,
    bindings: list[LookupBinding],
    local_bindings: dict[str, ast.expr],
    accumulators: list[AccumulatorSpec],
    nested_joins: list[NestedJoinInfo],
    opaque_statements: list[ast.stmt],
    guard: Optional[ast.expr],
) -> None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            _process_name_assignment(
                stmt, target.id, loop, context, bindings, local_bindings,
                accumulators, guard,
            )
            return
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            accumulators.append(
                AccumulatorSpec(
                    variable=target.value.id,
                    kind="map_put",
                    operator=None,
                    value=stmt.value,
                    key=target.slice,
                    guard=guard,
                    statement=stmt,
                )
            )
            return
        raise FoldConstructionError(f"unsupported assignment {ast.unparse(stmt)}")

    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        operator = _aug_operator(stmt.op)
        accumulators.append(
            AccumulatorSpec(
                variable=stmt.target.id,
                kind="scalar",
                operator=operator,
                value=stmt.value,
                guard=guard,
                statement=stmt,
            )
        )
        return

    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        if isinstance(call.func, ast.Attribute) and call.func.attr in {
            "append",
            "add",
        }:
            if isinstance(call.func.value, ast.Name) and call.args:
                accumulators.append(
                    AccumulatorSpec(
                        variable=call.func.value.id,
                        kind="collection_insert",
                        operator=None,
                        value=call.args[0],
                        guard=guard,
                        statement=stmt,
                    )
                )
                return
        if isinstance(call.func, ast.Attribute) and call.func.attr == "work":
            # Simulation bookkeeping: ignore.
            return
        # An opaque (recursive or helper) call: tolerated, kept verbatim in
        # rewrites; rules that replace the whole loop must not fire.
        opaque_statements.append(stmt)
        return

    if isinstance(stmt, ast.If):
        if stmt.orelse:
            raise FoldConstructionError("if/else inside a cursor loop")
        combined_guard = stmt.test if guard is None else ast.BoolOp(
            op=ast.And(), values=[guard, stmt.test]
        )
        for inner in stmt.body:
            _process_statement(
                inner, loop, context, bindings, local_bindings, accumulators,
                nested_joins, opaque_statements, combined_guard,
            )
        return

    if isinstance(stmt, ast.For):
        nested = _process_nested_loop(stmt, context)
        if nested is None:
            raise FoldConstructionError(
                f"unsupported nested loop {ast.unparse(stmt)[:60]}"
            )
        nested_joins.append(nested)
        return

    if isinstance(stmt, ast.Pass):
        return

    raise FoldConstructionError(f"unsupported statement {ast.unparse(stmt)[:60]}")


def _process_name_assignment(
    stmt: ast.Assign,
    target: str,
    loop: LoopRegion,
    context: AnalysisContext,
    bindings: list[LookupBinding],
    local_bindings: dict[str, ast.expr],
    accumulators: list[AccumulatorSpec],
    guard: Optional[ast.expr],
) -> None:
    value = stmt.value
    # Accumulation: target appears on the right-hand side.
    if target in _names_in(value):
        operator = None
        update_value = value
        if isinstance(value, ast.BinOp):
            operator = _bin_operator(value.op)
            update_value = _other_operand(value, target)
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in {"max", "min"}:
                operator = value.func.id
                update_value = _other_call_operand(value, target)
        accumulators.append(
            AccumulatorSpec(
                variable=target,
                kind="scalar",
                operator=operator,
                value=update_value if update_value is not None else value,
                guard=guard,
                statement=stmt,
            )
        )
        return

    # Lazy many-to-one load: cust = o.customer
    lazy = _lazy_load_binding(stmt, target, loop, context)
    if lazy is not None:
        bindings.append(lazy)
        return

    # Cache lookup: cust = rt.lookup(key, "region")
    cache = _cache_lookup_binding(stmt, target, context)
    if cache is not None:
        bindings.append(cache)
        return

    # Parameterised point query: rows = rt.execute_query("... where c = ?", (k,))
    sql_lookup = _sql_lookup_binding(stmt, target, context)
    if sql_lookup is not None:
        bindings.append(sql_lookup)
        return

    # Otherwise: a loop-local temporary computed from available values.
    local_bindings[target] = value


def _process_nested_loop(
    stmt: ast.For, context: AnalysisContext
) -> Optional[NestedJoinInfo]:
    """Recognise a nested cursor loop (a nested-loops join in imperative code)."""
    inner_query = classify_data_access(stmt.iter, context)
    if inner_query is None:
        return None
    inner_sql = query_sql_for(inner_query)
    if inner_sql is None:
        return None
    join_condition = None
    if len(stmt.body) == 1 and isinstance(stmt.body[0], ast.If):
        join_condition = stmt.body[0].test
    inner_variable = (
        stmt.target.id if isinstance(stmt.target, ast.Name) else ast.unparse(stmt.target)
    )
    return NestedJoinInfo(
        loop_node=stmt,
        inner_variable=inner_variable,
        inner_query=inner_query,
        inner_sql=inner_sql,
        join_condition=join_condition,
    )


# -- binding recognisers ----------------------------------------------------


def _lazy_load_binding(
    stmt: ast.Assign, target: str, loop: LoopRegion, context: AnalysisContext
) -> Optional[LookupBinding]:
    value = stmt.value
    if not isinstance(value, ast.Attribute):
        return None
    if not isinstance(value.value, ast.Name):
        return None
    if value.value.id != loop.loop_variable:
        return None
    registry = context.registry
    if registry is None:
        return None
    entity_name = None
    if loop.query is not None and loop.query.kind == "load_all":
        entity_name = loop.query.entity
    if entity_name is None or not registry.has_entity(entity_name):
        return None
    definition = registry.entity(entity_name)
    if not definition.has_relation(value.attr):
        return None
    relation = definition.relation(value.attr)
    target_def = registry.entity(relation.target_entity)
    key_expression = ast.Attribute(
        value=ast.Name(id=loop.loop_variable, ctx=ast.Load()),
        attr=relation.join_column,
        ctx=ast.Load(),
    )
    return LookupBinding(
        variable=target,
        kind="lazy_load",
        table=target_def.table,
        key_column=relation.target_key_column,
        key_expression=key_expression,
        source_column=relation.join_column,
        entity=relation.target_entity,
        statement=stmt,
    )


def _cache_lookup_binding(
    stmt: ast.Assign, target: str, context: AnalysisContext
) -> Optional[LookupBinding]:
    value = stmt.value
    if not isinstance(value, ast.Call):
        return None
    info = classify_data_access(value, context)
    if info is None or info.kind != "lookup":
        return None
    key_expression = value.args[0] if value.args else ast.Constant(value=None)
    return LookupBinding(
        variable=target,
        kind="cache_lookup",
        table=None,
        key_column=info.key_column,
        key_expression=key_expression,
        statement=stmt,
    )


def _sql_lookup_binding(
    stmt: ast.Assign, target: str, context: AnalysisContext
) -> Optional[LookupBinding]:
    value = stmt.value
    if not isinstance(value, ast.Call):
        return None
    info = classify_data_access(value, context)
    if info is None or info.kind != "sql" or not info.sql:
        return None
    if "?" not in info.sql:
        return None
    parsed = _parse_point_lookup(info.sql)
    if parsed is None:
        return None
    table, key_column = parsed
    key_expression = _first_parameter_expression(value)
    if key_expression is None:
        return None
    return LookupBinding(
        variable=target,
        kind="sql_lookup",
        table=table,
        key_column=key_column,
        key_expression=key_expression,
        statement=stmt,
    )


def _parse_point_lookup(sql: str) -> Optional[tuple[str, str]]:
    """Recognise ``select ... from <table> where <col> = ?`` shapes."""
    from repro.db import algebra
    from repro.db.expressions import BinaryOp, ColumnRef
    from repro.db.sqlparser import Parameter, SQLSyntaxError, parse_sql

    try:
        plan = parse_sql(sql)
    except SQLSyntaxError:
        return None
    scans = algebra.find_scans(plan)
    if len(scans) != 1:
        return None
    for node in algebra.walk(plan):
        if isinstance(node, algebra.Select):
            predicate = node.predicate
            if (
                isinstance(predicate, BinaryOp)
                and predicate.op in {"=", "=="}
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, Parameter)
            ):
                return scans[0].table, predicate.left.name
    return None


def _first_parameter_expression(call: ast.Call) -> Optional[ast.expr]:
    if len(call.args) < 2:
        return None
    params = call.args[1]
    if isinstance(params, (ast.Tuple, ast.List)) and params.elts:
        return params.elts[0]
    return params


# -- the formal fold expression ---------------------------------------------


def _formal_fold(
    loop: LoopRegion,
    query_sql: str,
    accumulators: list[AccumulatorSpec],
    bindings: list[LookupBinding],
    local_bindings: Optional[dict[str, ast.expr]] = None,
) -> fir.Fold:
    query = fir.QueryExpr(sql=query_sql)
    environment = {loop.loop_variable: "Q"}
    binding_nodes = {
        b.variable: fir.InnerLookupQuery(
            table=b.table or "cache",
            key_column=b.key_column or "key",
            key_expression=ast_to_fir(b.key_expression, environment, set()),
        )
        for b in bindings
    }
    accumulator_names = {a.variable for a in accumulators}
    # Loop-local temporaries are resolved into the expressions that use them
    # (F-IR represents values "only in terms of constants and values available
    # at the beginning of the region; any intermediate assignments are
    # resolved").
    for variable, expression in (local_bindings or {}).items():
        binding_nodes[variable] = ast_to_fir(
            expression, environment, accumulator_names, dict(binding_nodes)
        )
    items = []
    for spec in accumulators:
        value = ast_to_fir(
            spec.value, environment, accumulator_names, binding_nodes
        )
        if spec.kind == "collection_insert":
            node: fir.FIRNode = fir.Insert(fir.ParamVar(spec.variable), value)
        elif spec.kind == "map_put":
            key = ast_to_fir(
                spec.key, environment, accumulator_names, binding_nodes
            )
            node = fir.MapPut(fir.ParamVar(spec.variable), key, value)
        else:
            operator = spec.operator or "+"
            node = fir.BinOp(operator, fir.ParamVar(spec.variable), value)
        if spec.guard is not None:
            predicate = ast_to_fir(
                spec.guard, environment, accumulator_names, binding_nodes
            )
            node = fir.CondExec(predicate, node)
        spec.fir_node = node
        items.append(node)
    function: fir.FIRNode
    initial: fir.FIRNode
    if not items:
        # No accumulators at this level (e.g. the outer loop of an imperative
        # nested-loops join): the fold function is a placeholder; the nested
        # structure carries the actual computation.
        function = fir.Const(None)
        initial = fir.Const(None)
    elif len(items) == 1:
        function = items[0]
        initial = fir.Var(f"{accumulators[0].variable}_0")
    else:
        function = fir.TupleExpr(tuple(items))
        initial = fir.TupleExpr(
            tuple(fir.Var(f"{a.variable}_0") for a in accumulators)
        )
    return fir.Fold(function=function, initial=initial, query=query)


def ast_to_fir(
    node: ast.expr,
    environment: dict[str, str],
    accumulator_names: set,
    binding_nodes: Optional[dict[str, fir.FIRNode]] = None,
) -> fir.FIRNode:
    """Convert a Python expression AST to an F-IR node.

    ``environment`` maps loop variables to query labels (``{'o': 'Q'}``);
    ``accumulator_names`` become :class:`ParamVar` references; names bound by
    lookup queries are replaced by their :class:`InnerLookupQuery` nodes.
    """
    binding_nodes = binding_nodes or {}
    if isinstance(node, ast.Constant):
        return fir.Const(node.value)
    if isinstance(node, (ast.List, ast.Dict, ast.Set)) and not getattr(
        node, "elts", None
    ) and not getattr(node, "keys", None):
        return fir.Const({} if isinstance(node, ast.Dict) else [])
    if isinstance(node, ast.Name):
        if node.id in accumulator_names:
            return fir.ParamVar(node.id)
        if node.id in binding_nodes:
            return binding_nodes[node.id]
        if node.id in environment:
            return fir.Var(environment[node.id])
        return fir.Var(node.id)
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id in environment:
            return fir.ColumnOf(environment[base.id], node.attr)
        if isinstance(base, ast.Name) and base.id in binding_nodes:
            return fir.Attr(binding_nodes[base.id], node.attr)
        return fir.Attr(
            ast_to_fir(base, environment, accumulator_names, binding_nodes),
            node.attr,
        )
    if isinstance(node, ast.Subscript):
        base = node.value
        column = None
        if isinstance(node.slice, ast.Constant) and isinstance(
            node.slice.value, str
        ):
            column = node.slice.value
        if isinstance(base, ast.Name) and column is not None:
            if base.id in environment:
                return fir.ColumnOf(environment[base.id], column)
            if base.id in binding_nodes:
                return fir.Attr(binding_nodes[base.id], column)
        return fir.Call(
            "getitem",
            (
                ast_to_fir(base, environment, accumulator_names, binding_nodes),
                ast_to_fir(
                    node.slice, environment, accumulator_names, binding_nodes
                ),
            ),
        )
    if isinstance(node, ast.BinOp):
        return fir.BinOp(
            _bin_operator(node.op),
            ast_to_fir(node.left, environment, accumulator_names, binding_nodes),
            ast_to_fir(node.right, environment, accumulator_names, binding_nodes),
        )
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        return fir.BinOp(
            _compare_operator(node.ops[0]),
            ast_to_fir(node.left, environment, accumulator_names, binding_nodes),
            ast_to_fir(
                node.comparators[0], environment, accumulator_names, binding_nodes
            ),
        )
    if isinstance(node, ast.BoolOp):
        result = ast_to_fir(
            node.values[0], environment, accumulator_names, binding_nodes
        )
        operator = "and" if isinstance(node.op, ast.And) else "or"
        for value in node.values[1:]:
            result = fir.BinOp(
                operator,
                result,
                ast_to_fir(value, environment, accumulator_names, binding_nodes),
            )
        return result
    if isinstance(node, ast.Call):
        name = (
            node.func.id
            if isinstance(node.func, ast.Name)
            else ast.unparse(node.func)
        )
        return fir.Call(
            name,
            tuple(
                ast_to_fir(a, environment, accumulator_names, binding_nodes)
                for a in node.args
            ),
        )
    if isinstance(node, (ast.List, ast.Tuple)):
        return fir.Call(
            "collection",
            tuple(
                ast_to_fir(e, environment, accumulator_names, binding_nodes)
                for e in node.elts
            ),
        )
    return fir.Var(ast.unparse(node))


# -- tiny helpers -----------------------------------------------------------


def _names_in(node: ast.AST) -> set:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _bin_operator(op: ast.operator) -> str:
    mapping = {
        ast.Add: "+",
        ast.Sub: "-",
        ast.Mult: "*",
        ast.Div: "/",
        ast.Mod: "%",
    }
    return mapping.get(type(op), type(op).__name__)


def _compare_operator(op: ast.cmpop) -> str:
    mapping = {
        ast.Eq: "==",
        ast.NotEq: "!=",
        ast.Lt: "<",
        ast.LtE: "<=",
        ast.Gt: ">",
        ast.GtE: ">=",
    }
    return mapping.get(type(op), type(op).__name__)


def _aug_operator(op: ast.operator) -> str:
    return _bin_operator(op)


def _other_operand(node: ast.BinOp, target: str) -> Optional[ast.expr]:
    if isinstance(node.left, ast.Name) and node.left.id == target:
        return node.right
    if isinstance(node.right, ast.Name) and node.right.id == target:
        return node.left
    return None


def _other_call_operand(node: ast.Call, target: str) -> Optional[ast.expr]:
    others = [
        a
        for a in node.args
        if not (isinstance(a, ast.Name) and a.id == target)
    ]
    return others[0] if others else None
