"""F-IR transformation rules (Figure 11 of the paper).

Each rule inspects the fold representation of a cursor loop
(:class:`repro.fir.builder.FoldInfo`) and, when its pattern matches, produces
one or more :class:`LoopRewrite` alternatives — replacement Python source for
the loop region.  The COBRA optimizer adds every alternative to the Region
DAG; none of the rules decides by itself whether its rewrite is beneficial
(that is the cost model's job).

Implemented rules and the paper rules they correspond to:

================  =========================================================
``SqlTranslationRule``    T1 (+T2): fold of plain inserts → single SQL query,
                          pushing a translatable guard into the WHERE clause
``AggregationRule``       T5 (+T3): scalar fold of a query column → SQL
                          aggregate; also the "extra query" variant for loops
                          with additional (dependent) aggregations, which the
                          cost model is expected to reject (Section V-B)
``JoinRewriteRule``       T4: per-iteration lookups / lazy loads → one join
                          query (program P0 → P1)
``NestedJoinRule``        T4: imperative nested-loops join → one join query
``PrefetchRule``          N1: per-iteration lookups → prefetch + local cache
                          lookups (program P0 → P2)
``PrefetchNestedJoinRule``  N1 applied to an imperative nested-loops join
``PrefetchGroupRule``     N2 + N1: parameterised selection executed inside an
                          enclosing loop / across calls → prefetch the whole
                          relation once, filter locally
================  =========================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.db.schema import Schema
from repro.fir import codegen
from repro.fir.builder import (
    AccumulatorSpec,
    FoldInfo,
    NestedJoinInfo,
    _parse_point_lookup,
)


@dataclass(frozen=True)
class LoopRewrite:
    """One alternative implementation of a loop region."""

    strategy: str
    source: str
    description: str
    rule: str


@dataclass
class RuleContext:
    """Shared context for rule application.

    ``schema`` is the database's, which tells the join rules what keys
    their join rows carry; without one they produce no rewrite.
    """

    runtime_parameter: str = "rt"
    schema: Optional[Schema] = None


class FIRRule:
    """Base class for F-IR transformation rules."""

    name = "fir-rule"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        """Return alternative rewrites of the loop (possibly empty)."""
        raise NotImplementedError


# -- T1 / T2: SQL translation of filter/copy loops --------------------------


class SqlTranslationRule(FIRRule):
    """fold(insert, {}, Q) = Q, with optional predicate push (T1 + T2)."""

    name = "T1/T2 sql-translation"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        if fold.bindings or fold.nested_joins or len(fold.accumulators) != 1:
            return []
        if fold.has_opaque_statements:
            return []
        spec = fold.accumulators[0]
        if spec.kind != "collection_insert":
            return []
        if not _is_loop_variable(spec.value, fold.loop_variable):
            return []
        rt = context.runtime_parameter
        base_params = _loop_query_params(fold)
        rewrites = []
        if spec.guard is None:
            call = _query_call_source(rt, fold.query_sql, base_params)
            source = f"{spec.variable}.extend({call})"
            rewrites.append(
                LoopRewrite(
                    strategy="sql-translation",
                    source=source,
                    description="fold removal (T1): the loop only copies "
                    "query rows into a collection",
                    rule=self.name,
                )
            )
            return rewrites
        translated = codegen.predicate_to_sql(spec.guard, fold.loop_variable)
        if translated is None:
            return []
        predicate, guard_params = translated
        pushed = codegen.push_predicate_sql(fold.query_sql, predicate)
        if pushed is None:
            return []
        call = _query_call_source(rt, pushed, base_params + guard_params)
        source = f"{spec.variable}.extend({call})"
        rewrites.append(
            LoopRewrite(
                strategy="sql-filter",
                source=source,
                description="predicate push into the query (T2) followed by "
                "fold removal (T1)",
                rule=self.name,
            )
        )
        return rewrites


# -- T5: aggregation ---------------------------------------------------------


class AggregationRule(FIRRule):
    """fold(op, id, pi_A(Q)) = gamma_op(A)(Q) (T5)."""

    name = "T5 aggregation"

    _OPERATORS = {"+": "sum", "max": "max", "min": "min"}

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        if fold.bindings or fold.nested_joins:
            return []
        rewrites: list[LoopRewrite] = []
        rt = context.runtime_parameter
        base_params = _loop_query_params(fold)
        for spec in fold.accumulators:
            aggregate = self._aggregate_for(spec, fold)
            if aggregate is None:
                continue
            sql, output = aggregate
            call = _query_call_source(rt, sql, base_params)
            assignment = f"{spec.variable} = {call}[0][{output!r}]"
            if len(fold.accumulators) == 1 and not fold.has_opaque_statements:
                rewrites.append(
                    LoopRewrite(
                        strategy="sql-aggregate",
                        source=assignment,
                        description=f"aggregation pushed into SQL for "
                        f"{spec.variable!r} (T5); replaces the whole loop",
                        rule=self.name,
                    )
                )
            else:
                # The loop computes other (possibly dependent) aggregations,
                # so the loop must stay; the extra query is an alternative the
                # cost model is expected to reject (Section V-B discussion).
                original = fold.loop.to_source(0)
                rewrites.append(
                    LoopRewrite(
                        strategy="sql-aggregate-extra",
                        source=f"{original}\n{assignment}",
                        description=f"extra SQL aggregate query for "
                        f"{spec.variable!r} alongside the original loop "
                        "(the heuristic rewrite of Section V-B)",
                        rule=self.name,
                    )
                )
        return rewrites

    def _aggregate_for(
        self, spec: AccumulatorSpec, fold: FoldInfo
    ) -> Optional[tuple[str, str]]:
        if spec.kind != "scalar" or spec.guard is not None:
            return None
        function = self._OPERATORS.get(spec.operator or "")
        if function is None:
            return None
        column = _column_of_loop_tuple(spec.value, fold.loop_variable)
        if column is None:
            if _is_constant_one(spec.value) and spec.operator == "+":
                return codegen.build_aggregate_sql(fold.query_sql, "count", None)
            return None
        return codegen.build_aggregate_sql(fold.query_sql, function, column)


# -- T2 / N2+N1: predicate push and prefetch of filtered loops ----------------


class PredicatePushRule(FIRRule):
    """fold(?(pred, g), id, Q) = fold(g, id, sigma_pred(Q)) (T2).

    The loop's common guard is pushed into the query's WHERE clause (values
    from enclosing scope become query parameters) and removed from the body.
    This is the rewrite the heuristic optimizer favours for Wilos pattern A's
    inner loop — when the guard references an outer-loop value it turns a
    single scan into one query per outer iteration.
    """

    name = "T2 predicate push"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        match = _common_guard(fold)
        if match is None:
            return []
        guard, guarded = match
        translated = codegen.predicate_to_sql(guard, fold.loop_variable)
        if translated is None:
            return []
        predicate, guard_params = translated
        pushed = codegen.push_predicate_sql(fold.query_sql, predicate)
        if pushed is None:
            return []
        rt = context.runtime_parameter
        base_params = _loop_query_params(fold)
        call = _query_call_source(rt, pushed, base_params + guard_params)
        body_source = _body_without_guard(fold, guard)
        if body_source is None:
            return []
        source = (
            f"for {fold.loop_variable} in {call}:\n" + body_source
        )
        return [
            LoopRewrite(
                strategy="sql-filter",
                source=source,
                description="the loop's filter predicate pushed into the "
                "query's WHERE clause (T2)",
                rule=self.name,
            )
        ]


class PrefetchFilterRule(FIRRule):
    """N2 + N1 for loops filtered on a key from the enclosing scope.

    Matches a loop whose common guard is ``<tuple column> == <outer value>``;
    rewrites it to a one-time grouped prefetch of the relation plus a local
    keyed lookup — COBRA's choice for Wilos patterns A and C when iterative
    queries or large join results are too expensive.
    """

    name = "N2+N1 prefetch filtered loop"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        match = _common_guard(fold)
        if match is None:
            return []
        guard, _ = match
        key = _equality_guard_key(guard, fold.loop_variable)
        if key is None:
            return []
        column, outer_source = key
        table = _single_table(fold.query_sql)
        if table is None or "?" in fold.query_sql:
            return []
        rt = context.runtime_parameter
        region = f"{table}.{column}"
        body_source = _body_without_guard(fold, guard)
        if body_source is None:
            return []
        lines = [
            f"{rt}.prefetch_group({table!r}, {column!r}, {region!r})",
            f"for {fold.loop_variable} in "
            f"{rt}.lookup_group({outer_source}, {region!r}):",
            body_source,
        ]
        return [
            LoopRewrite(
                strategy="prefetch",
                source="\n".join(lines),
                description="filtered scan replaced by a one-time grouped "
                "prefetch of the relation plus a local keyed lookup (N2+N1)",
                rule=self.name,
            )
        ]


# -- T4: join identification --------------------------------------------------


class JoinRewriteRule(FIRRule):
    """Per-iteration lookups become one join query (T4; P0 → P1)."""

    name = "T4 join identification"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        if not fold.bindings or fold.nested_joins:
            return []
        lookups = [
            b for b in fold.bindings if b.kind in {"lazy_load", "sql_lookup"}
        ]
        if len(lookups) != len(fold.bindings) or not lookups:
            return []
        join_sql = fold.query_sql
        for binding in lookups:
            join_sql = codegen.build_join_sql(join_sql, binding)
            if join_sql is None:
                return []
        rt = context.runtime_parameter
        row_var = _fresh_name("r", fold)
        outer_alias = _single_scan_alias(fold.query_sql)
        variable_map = {fold.loop_variable: (row_var, outer_alias)}
        variable_map.update(
            {b.variable: (row_var, b.table) for b in lookups}
        )
        body = codegen.rewrite_join_rows(
            fold.loop.loop_node.body,
            variable_map,
            join_sql,
            context.schema,
            drop=[b.statement for b in lookups if b.statement is not None],
        )
        if not body:
            return []
        header = f"for {row_var} in {rt}.execute_query({join_sql!r}):"
        source = header + "\n" + codegen.unparse_block(body, indent=4)
        return [
            LoopRewrite(
                strategy="sql-join",
                source=source,
                description="iterative lookup queries replaced by a single "
                "join query executed at the database (T4)",
                rule=self.name,
            )
        ]


class NestedJoinRule(FIRRule):
    """An imperative nested-loops join becomes one SQL join (T4)."""

    name = "T4 nested-loops join"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        if len(fold.nested_joins) != 1 or fold.bindings or fold.accumulators:
            return []
        nested = fold.nested_joins[0]
        condition_sql = _join_condition_sql(fold, nested)
        join_sql = codegen.build_nested_join_sql(
            fold.query_sql, nested.inner_sql, condition_sql
        )
        if join_sql is None:
            return []
        inner_body = self._joined_body(nested)
        if inner_body is None:
            return []
        rt = context.runtime_parameter
        row_var = _fresh_name("r", fold)
        variable_map = {
            fold.loop_variable: (row_var, _single_scan_alias(fold.query_sql)),
            nested.inner_variable: (row_var, _single_scan_alias(nested.inner_sql)),
        }
        body = codegen.rewrite_join_rows(
            inner_body, variable_map, join_sql, context.schema
        )
        if body is None:
            return []
        header = f"for {row_var} in {rt}.execute_query({join_sql!r}):"
        source = header + "\n" + codegen.unparse_block(body, indent=4)
        return [
            LoopRewrite(
                strategy="sql-join",
                source=source,
                description="imperative nested-loops join replaced by a SQL "
                "join executed at the database (T4)",
                rule=self.name,
            )
        ]

    @staticmethod
    def _joined_body(nested: NestedJoinInfo) -> Optional[list[ast.stmt]]:
        body = nested.loop_node.body
        if nested.join_condition is not None:
            if len(body) == 1 and isinstance(body[0], ast.If):
                return list(body[0].body)
            return None
        return list(body)


# -- N1: prefetching ----------------------------------------------------------


class PrefetchRule(FIRRule):
    """Per-iteration lookups become prefetch + local lookups (N1; P0 → P2)."""

    name = "N1 prefetching"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        if not fold.bindings or fold.nested_joins:
            return []
        lookups = [
            b
            for b in fold.bindings
            if b.kind in {"lazy_load", "sql_lookup"}
            and b.table
            and b.key_column
        ]
        if len(lookups) != len(fold.bindings) or not lookups:
            return []
        rt = context.runtime_parameter
        prefetch_lines = []
        replacements: dict[int, str] = {}
        dict_vars = []
        for binding in lookups:
            region = f"{binding.table}.{binding.key_column}"
            key_source = ast.unparse(binding.key_expression)
            if binding.kind == "lazy_load":
                prefetch_lines.append(
                    f"{rt}.prefetch({binding.table!r}, {binding.key_column!r}, "
                    f"{region!r})"
                )
                replacements[id(binding.statement)] = (
                    f"{binding.variable} = {rt}.lookup({key_source}, {region!r})"
                )
            else:
                prefetch_lines.append(
                    f"{rt}.prefetch_group({binding.table!r}, "
                    f"{binding.key_column!r}, {region!r})"
                )
                replacements[id(binding.statement)] = (
                    f"{binding.variable} = {rt}.lookup_group({key_source}, "
                    f"{region!r})"
                )
            dict_vars.append(binding.variable)
        body_lines = []
        rewriter = codegen.SubscriptStyleRewriter(dict_vars)
        for stmt in fold.loop.loop_node.body:
            if id(stmt) in replacements:
                body_lines.append(replacements[id(stmt)])
                continue
            clone = ast.parse(ast.unparse(stmt)).body[0]
            new = rewriter.visit(clone)
            ast.fix_missing_locations(new)
            body_lines.extend(ast.unparse(new).splitlines())
        header = (
            f"for {fold.loop_variable} in {ast.unparse(fold.loop.iterable)}:"
        )
        loop_source = header + "\n" + "\n".join(
            "    " + line for line in body_lines
        )
        source = "\n".join(prefetch_lines + [loop_source])
        return [
            LoopRewrite(
                strategy="prefetch",
                source=source,
                description="iterative lookup queries replaced by a one-time "
                "prefetch of the looked-up relation plus local cache lookups "
                "(N1)",
                rule=self.name,
            )
        ]


class PrefetchNestedJoinRule(FIRRule):
    """An imperative nested-loops join becomes prefetch + local hash join (N1)."""

    name = "N1 prefetch nested join"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        if len(fold.nested_joins) != 1 or fold.bindings or fold.accumulators:
            return []
        nested = fold.nested_joins[0]
        columns = _join_condition_columns(fold, nested)
        if columns is None:
            return []
        outer_column, inner_column = columns
        inner_table = nested.inner_query.table
        if inner_table is None:
            parsed = _single_table(nested.inner_sql)
            if parsed is None:
                return []
            inner_table = parsed
        rt = context.runtime_parameter
        region = f"{inner_table}.{inner_column}"
        inner_body = NestedJoinRule._joined_body(nested)
        if inner_body is None:
            return []
        rewriter = codegen.SubscriptStyleRewriter([nested.inner_variable])
        body = codegen.rewrite_statements(inner_body, rewriter)
        outer_access = _column_access_source(
            fold.loop_variable, outer_column, fold
        )
        lines = [
            f"{rt}.prefetch_group({inner_table!r}, {inner_column!r}, {region!r})",
            f"for {fold.loop_variable} in {ast.unparse(fold.loop.iterable)}:",
            f"    for {nested.inner_variable} in "
            f"{rt}.lookup_group({outer_access}, {region!r}):",
        ]
        lines.extend(
            "        " + line
            for line in codegen.unparse_block(body).splitlines()
        )
        return [
            LoopRewrite(
                strategy="prefetch-join",
                source="\n".join(lines),
                description="nested-loops join performed locally after "
                "prefetching the inner relation (N1)",
                rule=self.name,
            )
        ]


class PrefetchGroupRule(FIRRule):
    """A parameterised selection loop becomes prefetch-all + local filter (N2+N1)."""

    name = "N2+N1 prefetch parameterised selection"

    def apply(self, fold: FoldInfo, context: RuleContext) -> list[LoopRewrite]:
        if fold.query.kind != "sql" or not fold.query_sql:
            return []
        if "?" not in fold.query_sql:
            return []
        parsed = _parse_point_lookup(fold.query_sql)
        if parsed is None:
            return []
        table, column = parsed
        key_source = self._key_source(fold)
        if key_source is None:
            return []
        rt = context.runtime_parameter
        region = f"{table}.{column}"
        body_source = codegen.unparse_block(fold.loop.loop_node.body, indent=4)
        lines = [
            f"{rt}.prefetch_group({table!r}, {column!r}, {region!r})",
            f"for {fold.loop_variable} in "
            f"{rt}.lookup_group({key_source}, {region!r}):",
            body_source,
        ]
        return [
            LoopRewrite(
                strategy="prefetch",
                source="\n".join(lines),
                description="parameterised selection replaced by a one-time "
                "prefetch of the whole relation plus a local keyed lookup "
                "(N2 followed by N1)",
                rule=self.name,
            )
        ]

    @staticmethod
    def _key_source(fold: FoldInfo) -> Optional[str]:
        iterable = fold.loop.iterable
        if not isinstance(iterable, ast.Call) or len(iterable.args) < 2:
            return None
        params = iterable.args[1]
        if isinstance(params, (ast.Tuple, ast.List)) and params.elts:
            return ast.unparse(params.elts[0])
        return ast.unparse(params)


#: The default rule set, in the order rules are attempted.
DEFAULT_RULES: tuple[FIRRule, ...] = (
    SqlTranslationRule(),
    AggregationRule(),
    PredicatePushRule(),
    PrefetchFilterRule(),
    JoinRewriteRule(),
    NestedJoinRule(),
    PrefetchRule(),
    PrefetchNestedJoinRule(),
    PrefetchGroupRule(),
)


# -- helpers ------------------------------------------------------------------


def _loop_query_params(fold: FoldInfo) -> list[str]:
    """Parameter-source snippets of the loop-header query call, if any."""
    iterable = fold.loop.iterable
    if not isinstance(iterable, ast.Call) or len(iterable.args) < 2:
        return []
    params = iterable.args[1]
    if isinstance(params, (ast.Tuple, ast.List)):
        return [ast.unparse(e) for e in params.elts]
    return [ast.unparse(params)]


def _query_call_source(rt: str, sql: str, params: list[str]) -> str:
    """Source text of an ``execute_query`` call with optional parameters."""
    if not params:
        return f"{rt}.execute_query({sql!r})"
    rendered = ", ".join(params)
    if len(params) == 1:
        rendered += ","
    return f"{rt}.execute_query({sql!r}, ({rendered}))"


def _common_guard(fold: FoldInfo) -> Optional[tuple[ast.expr, list]]:
    """The guard shared by every accumulator, when there is exactly one.

    Returns ``(guard, guarded_accumulators)`` or ``None`` when the loop has no
    accumulators, has bindings/nested joins, or the accumulators disagree on
    their guard.
    """
    if fold.bindings or fold.nested_joins or not fold.accumulators:
        return None
    guards = {ast.unparse(a.guard) if a.guard is not None else None
              for a in fold.accumulators}
    if len(guards) != 1:
        return None
    guard = fold.accumulators[0].guard
    if guard is None:
        return None
    return guard, list(fold.accumulators)


def _body_without_guard(fold: FoldInfo, guard: ast.expr) -> Optional[str]:
    """The loop body with the (single, top-level) guard ``if`` unwrapped."""
    guard_source = ast.unparse(guard)
    lines: list[str] = []
    for stmt in fold.loop.loop_node.body:
        if (
            isinstance(stmt, ast.If)
            and not stmt.orelse
            and ast.unparse(stmt.test) == guard_source
        ):
            lines.append(codegen.unparse_block(stmt.body, indent=4))
        else:
            lines.append(codegen.unparse_block([stmt], indent=4))
    if not lines:
        return None
    return "\n".join(lines)


def _equality_guard_key(
    guard: ast.expr, loop_variable: str
) -> Optional[tuple[str, str]]:
    """``(tuple column, outer value source)`` for ``col == outer`` guards."""
    if not isinstance(guard, ast.Compare) or len(guard.ops) != 1:
        return None
    if not isinstance(guard.ops[0], ast.Eq):
        return None
    left, right = guard.left, guard.comparators[0]
    left_col = codegen.guard_column(left, loop_variable)
    right_col = codegen.guard_column(right, loop_variable)
    if left_col and not right_col and not _mentions(right, loop_variable):
        return left_col, ast.unparse(right)
    if right_col and not left_col and not _mentions(left, loop_variable):
        return right_col, ast.unparse(left)
    return None


def _mentions(node: ast.expr, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)
    )


def _is_loop_variable(node: ast.expr, loop_variable: str) -> bool:
    return isinstance(node, ast.Name) and node.id == loop_variable


def _is_constant_one(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def _column_of_loop_tuple(node: ast.expr, loop_variable: str) -> Optional[str]:
    """The column name when ``node`` is ``o.col`` or ``o["col"]``."""
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


def _fresh_name(base: str, fold: FoldInfo) -> str:
    used = set()
    for node in ast.walk(fold.loop.loop_node):
        if isinstance(node, ast.Name):
            used.add(node.id)
    candidate = base
    counter = 0
    while candidate in used:
        counter += 1
        candidate = f"{base}{counter}"
    return candidate


def _join_condition_columns(
    fold: FoldInfo, nested: NestedJoinInfo
) -> Optional[tuple[str, str]]:
    """(outer column, inner column) of an equality join condition."""
    test = nested.join_condition
    if test is None or not isinstance(test, ast.Compare):
        return None
    if len(test.ops) != 1 or not isinstance(test.ops[0], ast.Eq):
        return None
    left = _column_of_loop_tuple(test.left, fold.loop_variable)
    right = _column_of_loop_tuple(test.comparators[0], nested.inner_variable)
    if left and right:
        return left, right
    left = _column_of_loop_tuple(test.left, nested.inner_variable)
    right = _column_of_loop_tuple(test.comparators[0], fold.loop_variable)
    if left and right:
        return right, left
    return None


def _join_condition_sql(
    fold: FoldInfo, nested: NestedJoinInfo
) -> Optional[str]:
    columns = _join_condition_columns(fold, nested)
    if columns is None:
        return None
    outer_column, inner_column = columns
    outer_table = _single_table(fold.query_sql)
    inner_table = nested.inner_query.table or _single_table(nested.inner_sql)
    if outer_table is None or inner_table is None:
        return None
    return f"{outer_table}.{outer_column} = {inner_table}.{inner_column}"


def _single_table(sql: str) -> Optional[str]:
    from repro.db import algebra
    from repro.db.sqlparser import SQLSyntaxError, parse_sql

    try:
        plan = parse_sql(sql)
    except SQLSyntaxError:
        return None
    scans = algebra.find_scans(plan)
    if len(scans) == 1:
        return scans[0].table
    return None


def _single_scan_alias(sql: str) -> Optional[str]:
    """The effective alias of the single scanned table of ``sql``, if any."""
    from repro.db import algebra
    from repro.db.sqlparser import SQLSyntaxError, parse_sql

    try:
        plan = parse_sql(sql)
    except SQLSyntaxError:
        return None
    scans = algebra.find_scans(plan)
    if len(scans) == 1:
        return scans[0].effective_alias
    return None


def _column_access_source(variable: str, column: str, fold: FoldInfo) -> str:
    """Source text accessing ``column`` of the loop variable.

    ORM entities use attribute style; SQL result rows use subscripts.  The
    loop-header query kind tells us which one the original program uses.
    """
    if fold.query.kind == "load_all":
        return f"{variable}.{column}"
    return f"{variable}[{column!r}]"
