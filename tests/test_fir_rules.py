"""Unit tests for the F-IR transformation rules (T1-T5, N1, N2)."""

import ast

import pytest

from repro.core.region_analysis import analyze_program
from repro.db.schema import Schema
from repro.fir.builder import build_fold
from repro.fir.rules import (
    AggregationRule,
    DEFAULT_RULES,
    JoinRewriteRule,
    NestedJoinRule,
    PredicatePushRule,
    PrefetchFilterRule,
    PrefetchGroupRule,
    PrefetchNestedJoinRule,
    PrefetchRule,
    RuleContext,
    SqlTranslationRule,
)
from repro.workloads import tpcds
from repro.workloads.wilos import build_wilos_database
from repro.workloads.programs import M0_SOURCE, P0_SOURCE
from repro.workloads.wilos_programs import (
    PATTERN_C_SOURCE,
    PATTERN_D_SOURCE,
    PATTERN_E_SOURCE,
)

#: The orders/customer and Wilos tables: the join rules name the keys of
#: their join rows by the schema.
SCHEMA = Schema(
    {
        **tpcds.build_orders_database(num_orders=10, num_customers=5).schema.tables,
        **build_wilos_database(scale=50).schema.tables,
    }
)
CONTEXT = RuleContext(runtime_parameter="rt", schema=SCHEMA)


def fold_for(source, registry=None, loop_index=0):
    info = analyze_program(source, registry=registry)
    return build_fold(info.cursor_loops()[loop_index], info.context)


def parses(source: str) -> bool:
    ast.parse(source)
    return True


class TestSqlTranslationRule:
    def test_copy_loop_becomes_single_query(self):
        source = """
def f(rt):
    rows = []
    for t in rt.execute_query("select * from role"):
        rows.append(t)
    return rows
"""
        rewrites = SqlTranslationRule().apply(fold_for(source), CONTEXT)
        assert len(rewrites) == 1
        assert rewrites[0].strategy == "sql-translation"
        assert "rows.extend(rt.execute_query" in rewrites[0].source
        assert parses(rewrites[0].source)

    def test_filtered_copy_loop_pushes_predicate(self):
        source = """
def f(rt):
    rows = []
    for t in rt.execute_query("select * from concrete_task"):
        if t["points"] > 10:
            rows.append(t)
    return rows
"""
        rewrites = SqlTranslationRule().apply(fold_for(source), CONTEXT)
        assert len(rewrites) == 1
        assert rewrites[0].strategy == "sql-filter"
        assert "where points > 10" in rewrites[0].source

    def test_does_not_apply_to_transforming_loops(self):
        source = """
def f(rt):
    rows = []
    for t in rt.execute_query("select * from role"):
        rows.append(t["name"])
    return rows
"""
        assert SqlTranslationRule().apply(fold_for(source), CONTEXT) == []


class TestAggregationRule:
    def test_single_sum_replaces_loop(self):
        source = """
def f(rt):
    total = 0
    for t in rt.execute_query("select * from iteration"):
        total = total + t["points"]
    return total
"""
        rewrites = AggregationRule().apply(fold_for(source), CONTEXT)
        assert any(r.strategy == "sql-aggregate" for r in rewrites)
        chosen = next(r for r in rewrites if r.strategy == "sql-aggregate")
        assert "sum(points)" in chosen.source
        assert parses(chosen.source)

    def test_count_uses_count_star(self, registry):
        rewrites = AggregationRule().apply(fold_for(PATTERN_D_SOURCE), CONTEXT)
        chosen = next(r for r in rewrites if r.strategy == "sql-aggregate")
        assert "count(*)" in chosen.source
        assert "activity_id" in chosen.source  # parameter retained
        assert "(activity_id,)" in chosen.source

    def test_dependent_aggregations_only_get_extra_query_variant(self):
        rewrites = AggregationRule().apply(fold_for(M0_SOURCE), CONTEXT)
        strategies = {r.strategy for r in rewrites}
        assert strategies == {"sql-aggregate-extra"}
        extra = rewrites[0]
        # The original loop is preserved alongside the extra query.
        assert "for t in" in extra.source and "sum(sale_amt)" in extra.source

    def test_max_aggregation(self):
        source = """
def f(rt):
    best = 0
    for t in rt.execute_query("select * from iteration"):
        best = max(best, t["points"])
    return best
"""
        rewrites = AggregationRule().apply(fold_for(source), CONTEXT)
        assert any("max(points)" in r.source for r in rewrites)


class TestJoinAndPrefetchRules:
    def test_p0_join_rewrite(self, registry):
        fold = fold_for(P0_SOURCE, registry)
        rewrites = JoinRewriteRule().apply(fold, CONTEXT)
        assert len(rewrites) == 1
        source = rewrites[0].source
        assert rewrites[0].strategy == "sql-join"
        assert "join customer" in source
        assert "o_customer_sk = customer.c_customer_sk" in source
        assert parses(source)
        # Accesses are redirected to the join-result row, by bare name:
        # orders and customer share no column name.
        assert "r['o_id']" in source and "r['c_birth_year']" in source
        # Without a schema the rule cannot know the row's keys.
        assert JoinRewriteRule().apply(fold, RuleContext()) == []

    def test_p0_prefetch_rewrite(self, registry):
        fold = fold_for(P0_SOURCE, registry)
        rewrites = PrefetchRule().apply(fold, CONTEXT)
        assert len(rewrites) == 1
        source = rewrites[0].source
        assert rewrites[0].strategy == "prefetch"
        assert "rt.prefetch('customer', 'c_customer_sk'" in source
        assert "rt.lookup(" in source
        assert parses(source)

    def test_rules_do_not_apply_without_lookups(self):
        source = """
def f(rt):
    total = 0
    for t in rt.execute_query("select * from iteration"):
        total = total + t["points"]
    return total
"""
        fold = fold_for(source)
        assert JoinRewriteRule().apply(fold, CONTEXT) == []
        assert PrefetchRule().apply(fold, CONTEXT) == []

    def test_nested_join_rules(self):
        fold = fold_for(PATTERN_C_SOURCE)
        join = NestedJoinRule().apply(fold, CONTEXT)
        prefetch = PrefetchNestedJoinRule().apply(fold, CONTEXT)
        assert len(join) == 1 and len(prefetch) == 1
        assert "join role" in join[0].source
        # participant and role share ``name`` and ``role_id``: the join row
        # carries them qualified, and the rewrite reads them so.
        assert "['participant_id']" in join[0].source
        assert "['role.name']" in join[0].source
        assert "prefetch_group('role', 'role_id'" in prefetch[0].source
        assert parses(join[0].source) and parses(prefetch[0].source)


class TestFilteredLoopRules:
    FILTER_SOURCE = """
def f(rt, key):
    out = []
    for t in rt.execute_query("select * from concrete_task"):
        if t["activity_id"] == key:
            out.append((t["task_id"], t["points"]))
    return out
"""

    def test_predicate_push_produces_parameterised_query(self):
        fold = fold_for(self.FILTER_SOURCE)
        rewrites = PredicatePushRule().apply(fold, CONTEXT)
        assert len(rewrites) == 1
        source = rewrites[0].source
        assert rewrites[0].strategy == "sql-filter"
        assert "where activity_id = ?" in source
        assert "(key,)" in source
        assert parses(source)

    def test_prefetch_filter_produces_grouped_lookup(self):
        fold = fold_for(self.FILTER_SOURCE)
        rewrites = PrefetchFilterRule().apply(fold, CONTEXT)
        assert len(rewrites) == 1
        source = rewrites[0].source
        assert "prefetch_group('concrete_task', 'activity_id'" in source
        assert "lookup_group(key" in source
        assert parses(source)

    def test_prefetch_group_rule_on_parameterised_loop(self):
        fold = fold_for(PATTERN_E_SOURCE)
        rewrites = PrefetchGroupRule().apply(fold, CONTEXT)
        assert len(rewrites) == 1
        source = rewrites[0].source
        assert "prefetch_group('breakdown_element', 'parent_id'" in source
        # The recursive call is preserved verbatim.
        assert "collect_descendants(rt," in source
        assert parses(source)

    def test_rules_skip_untranslatable_guards(self):
        source = """
def f(rt):
    out = []
    for t in rt.execute_query("select * from concrete_task"):
        if complex_check(t):
            out.append(t)
    return out
"""
        fold = fold_for(source)
        assert PredicatePushRule().apply(fold, CONTEXT) == []
        assert PrefetchFilterRule().apply(fold, CONTEXT) == []


class TestDefaultRuleSet:
    def test_every_rewrite_parses(self, registry):
        sources = [
            (P0_SOURCE, registry),
            (M0_SOURCE, None),
            (PATTERN_C_SOURCE, None),
            (PATTERN_D_SOURCE, None),
            (PATTERN_E_SOURCE, None),
        ]
        total = 0
        for source, reg in sources:
            fold = fold_for(source, reg)
            for rule in DEFAULT_RULES:
                for rewrite in rule.apply(fold, CONTEXT):
                    assert parses(rewrite.source)
                    assert rewrite.strategy
                    assert rewrite.rule
                    total += 1
        assert total >= 8
