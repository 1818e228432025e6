"""EXPLAIN / EXPLAIN ANALYZE tests.

``Database.explain`` renders the prepared plan with per-operator
cardinality estimates, the shard router's classification, and the
predicted execution tier — without executing anything.  ``explain_analyze``
executes the statement and annotates each operator with the row count it
actually produced and the modeled virtual time; the root's actual row
count must equal the executed result size *exactly*, and the run
records an ``explain_analyze`` trace (when tracing is on).
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.obs import ExplainResult


def make_engine(shards: int = 0, tracing: bool = False) -> Engine:
    builder = (
        Engine.builder()
        .orders_workload(num_orders=120, num_customers=12)
        .network("fast-local")
    )
    if shards:
        builder.shards(shards)
    if tracing:
        builder.tracing()
    return builder.build()


JOIN_SQL = (
    "select o.o_id, c.c_first_name from orders o "
    "join customer c on o.o_customer_sk = c.c_customer_sk"
)


class TestExplain:
    def test_explain_renders_plan_without_executing(self):
        engine = make_engine()
        database = engine.database
        executed_before = database.queries_executed
        result = database.explain("select * from orders where o_id < 10")
        assert isinstance(result, ExplainResult)
        assert result.analyzed is False
        assert database.queries_executed == executed_before
        assert result.entries, "expected at least one operator line"
        assert result.root.depth == 0
        for entry in result.entries:
            assert entry.estimated_rows >= 0.0
            assert entry.estimated_time >= 0.0
            assert entry.actual_rows is None

    def test_explain_rejects_non_select(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.database.explain(
                "update orders set o_quantity = 1 where o_id = 3"
            )

    def test_unsharded_database_has_no_routing(self):
        engine = make_engine()
        result = engine.database.explain("select * from orders")
        assert result.routing is None
        assert "routing: none" in result.render()

    def test_sharded_point_query_routes_to_one_shard(self):
        engine = make_engine(shards=4)
        result = engine.database.explain(
            "select * from orders where o_id = 7"
        )
        assert result.routing["kind"] == "routed"
        shards = result.routing["shards"]
        assert shards is not None and len(shards) == 1
        assert f"over shard(s) {list(shards)}" in result.render()

    def test_predicted_tier_for_a_vectorizable_scan(self):
        engine = make_engine()
        result = engine.database.explain(
            "select * from orders where o_quantity > 2"
        )
        assert result.tier == "vectorized"
        assert "tier: vectorized" in result.render()

    def test_parameterized_statement_explains_with_bound_values(self):
        engine = make_engine()
        result = engine.database.explain(
            "select * from orders where o_id = ?", (5,)
        )
        assert result.root.operator in ("Select", "Project", "Scan")
        assert result.root.estimated_rows >= 0.0

    def test_as_dict_round_trip(self):
        engine = make_engine(shards=2)
        result = engine.database.explain("select * from orders")
        exported = result.as_dict()
        assert exported["analyzed"] is False
        assert exported["tier"] == result.tier
        assert len(exported["plan"]) == len(result.entries)


class TestExplainAnalyze:
    def test_root_actual_rows_equal_executed_result_size(self):
        engine = make_engine()
        database = engine.database
        sql = "select * from orders where o_quantity > 2"
        expected = len(database.execute_sql(sql).rows)
        result = database.explain_analyze(sql)
        assert result.analyzed is True
        assert result.root.actual_rows == expected

    def test_sharded_join_actuals_are_exact(self):
        engine = make_engine(shards=4)
        database = engine.database
        expected = len(database.execute_sql(JOIN_SQL).rows)
        result = database.explain_analyze(JOIN_SQL)
        assert result.routing is not None
        assert result.root.actual_rows == expected
        for entry in result.entries:
            assert entry.actual_rows is not None
            assert entry.actual_time is not None and entry.actual_time >= 0.0
        rendered = result.render()
        assert "EXPLAIN ANALYZE" in rendered
        assert f"act_rows={expected}" in rendered

    def test_estimates_sit_next_to_actuals(self):
        engine = make_engine()
        result = engine.database.explain_analyze(
            "select * from orders where o_id < 10"
        )
        for entry in result.entries:
            exported = entry.as_dict()
            assert "estimated_rows" in exported
            assert "actual_rows" in exported

    def test_analyze_records_a_trace_with_operator_spans(self):
        engine = make_engine(shards=4, tracing=True)
        database = engine.database
        result = database.explain_analyze(JOIN_SQL)
        trace = engine.tracer.traces[-1]
        assert trace.kind == "explain_analyze"
        assert trace.sql == JOIN_SQL
        trace.check_accounting()
        operator_spans = [
            span
            for span in trace.spans
            if span.name.startswith("operator:")
        ]
        assert len(operator_spans) == len(result.entries)
        for span, entry in zip(operator_spans, result.entries):
            assert span.name == f"operator:{entry.operator}"
            assert span.attributes["rows"] == entry.actual_rows
            assert span.duration == entry.actual_time

    def test_analyze_without_tracer_still_produces_actuals(self):
        engine = make_engine(shards=2, tracing=False)
        result = engine.database.explain_analyze(JOIN_SQL)
        assert result.root.actual_rows is not None
