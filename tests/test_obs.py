"""Unit tests for the observability subsystem.

Covers the metrics primitives (:class:`~repro.obs.metrics.Counter`,
:class:`~repro.obs.metrics.Gauge`, :class:`~repro.obs.metrics.Histogram`,
:class:`~repro.obs.metrics.MetricsRegistry`), the tracer surface
(:class:`~repro.obs.trace.Span`, :class:`~repro.obs.trace.QueryTrace`,
:class:`~repro.obs.trace.Tracer` with its slow-query log and prepare-note
attribution), and the engine facade wiring (``EngineBuilder.tracing``,
``Engine.metrics()`` and its ``tracer`` view).
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QueryTrace,
    Tracer,
)


def make_engine(**tracing_kwargs) -> Engine:
    builder = (
        Engine.builder()
        .orders_workload(num_orders=120, num_customers=12)
        .network("slow-remote")
    )
    if tracing_kwargs.pop("tracing", True):
        builder.tracing(**tracing_kwargs)
    return builder.build()


# -- metrics primitives --------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        counter = Counter("requests")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_settable_gauge(self):
        gauge = Gauge("depth")
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_callback_backed_gauge_reads_live(self):
        state = {"depth": 1}
        gauge = Gauge("depth", fn=lambda: state["depth"])
        assert gauge.value == 1
        state["depth"] = 7
        assert gauge.value == 7

    def test_callback_backed_gauge_rejects_set(self):
        gauge = Gauge("depth", fn=lambda: 0.0)
        with pytest.raises(ValueError):
            gauge.set(1.0)


class TestHistogram:
    def test_empty_has_no_statistics(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean is None
        assert histogram.min is None
        assert histogram.max is None
        assert histogram.percentile(0.5) is None

    def test_single_sample_is_every_percentile(self):
        histogram = Histogram.from_samples([0.25])
        for quantile in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert histogram.percentile(quantile) == 0.25

    def test_exact_nearest_rank_with_tracked_values(self):
        histogram = Histogram.from_samples([4.0, 1.0, 3.0, 2.0])
        assert histogram.percentile(0.25) == 1.0
        assert histogram.percentile(0.50) == 2.0
        assert histogram.percentile(0.75) == 3.0
        assert histogram.percentile(1.00) == 4.0

    def test_bucketed_percentile_returns_bucket_upper_bound(self):
        histogram = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        # Ranks 1-2 land in the le_1 bucket, rank 3 in le_10, rank 4 in
        # le_100: the answer is the containing bucket's upper bound.
        assert histogram.percentile(0.50) == 1.0
        assert histogram.percentile(0.75) == 10.0
        assert histogram.percentile(1.00) == 100.0

    def test_overflow_bucket_answers_with_max(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(500.0)
        histogram.observe(900.0)
        assert histogram.percentile(0.99) == 900.0

    def test_quantile_domain_is_validated(self):
        histogram = Histogram.from_samples([1.0])
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_buckets_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0, 2.0))

    def test_default_buckets_strictly_increase(self):
        bounds = DEFAULT_LATENCY_BUCKETS
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_as_dict_exports_cumulative_buckets(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        exported = histogram.as_dict()
        assert exported["count"] == 3
        assert exported["min"] == 0.5
        assert exported["max"] == 50.0
        assert exported["buckets"]["le_1"] == 1
        assert exported["buckets"]["le_10"] == 2
        assert exported["buckets"]["le_inf"] == 3

    def test_mean_and_sum(self):
        histogram = Histogram.from_samples([1.0, 2.0, 3.0])
        assert histogram.sum == 6.0
        assert histogram.mean == 2.0


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_cross_kind_name_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("shared")
        with pytest.raises(ValueError):
            registry.gauge("shared")
        with pytest.raises(ValueError):
            registry.histogram("shared")

    def test_views_are_lazy_and_snapshotted(self):
        registry = MetricsRegistry()
        state = {"calls": 0}

        def view():
            state["calls"] += 1
            return {"calls": state["calls"]}

        registry.register_view("subsystem", view)
        assert state["calls"] == 0  # registration alone never evaluates
        snapshot = registry.as_dict()
        assert snapshot["views"]["subsystem"] == {"calls": 1}
        assert "subsystem" in registry.views

    def test_summary_counts_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        registry.register_view("d", dict)
        assert registry.summary() == {
            "counters": 1,
            "gauges": 1,
            "histograms": 1,
            "views": 1,
        }


# -- tracer surface ------------------------------------------------------------


class TestQueryTrace:
    def test_spans_append_at_the_running_cursor(self):
        trace = QueryTrace("query", "select 1", 1)
        trace.add_span("network_round_trip", 0.1)
        trace.add_span("execute", 0.2, tier="vectorized")
        execute = trace.find("execute")
        assert execute.offset == pytest.approx(0.1)
        assert execute.end == pytest.approx(0.3)
        trace.root.duration = 0.3
        trace.check_accounting()

    def test_accounting_rejects_sum_mismatch(self):
        trace = QueryTrace("query", "select 1", 1)
        trace.add_span("execute", 0.2)
        trace.root.duration = 0.5  # 0.3s of the root is unaccounted for
        with pytest.raises(AssertionError):
            trace.check_accounting()

    def test_accounting_rejects_overlapping_children(self):
        trace = QueryTrace("query", "select 1", 1)
        first = trace.add_span("execute", 0.2)
        second = trace.add_span("wal_flush", 0.1)
        second.offset = first.offset + 0.1  # force a 0.1s overlap
        trace.root.duration = 0.3
        with pytest.raises(AssertionError):
            trace.check_accounting()

    def test_informational_children_do_not_affect_accounting(self):
        trace = QueryTrace("pipeline", None, 1)
        batch = trace.add_span("execute", 0.4)
        batch.child("statement", 0.0, sql="select 1")
        batch.child("statement", 0.0, sql="select 2")
        trace.root.duration = 0.4
        trace.check_accounting()
        assert len(batch.children) == 2

    def test_find_all_and_as_dict(self):
        trace = QueryTrace("query", "select 1", 3)
        trace.add_span("fault", 0.01, kind="request")
        trace.add_span("fault", 0.01, kind="response")
        assert len(trace.find_all("fault")) == 2
        exported = trace.as_dict()
        assert exported["kind"] == "query"
        assert exported["sequence"] == 3
        assert [span["name"] for span in exported["spans"]] == [
            "fault",
            "fault",
        ]


class TestTracer:
    def test_start_finish_records_the_trace(self):
        tracer = Tracer()
        trace = tracer.start("query", "select 1")
        tracer.add_span("execute", 0.25)
        tracer.finish(trace, 0.25)
        assert tracer.traces_recorded == 1
        assert tracer.current is None
        recorded = tracer.traces[-1]
        assert recorded.duration == 0.25
        recorded.check_accounting()

    def test_trace_retention_is_bounded(self):
        tracer = Tracer(max_traces=4)
        for index in range(10):
            tracer.finish(tracer.start("query", f"q{index}"), 0.0)
        assert tracer.traces_recorded == 10
        assert len(tracer.traces) == 4
        assert tracer.traces[0].sql == "q6"

    def test_nested_exchanges_trace_separately(self):
        tracer = Tracer()
        outer = tracer.start("pipeline")
        inner = tracer.start("commit")
        tracer.add_span("wal_flush", 0.1)  # lands on the inner trace
        tracer.finish(inner, 0.1)
        assert tracer.current is outer
        tracer.finish(outer, 0.4)
        assert inner.find("wal_flush") is not None
        assert outer.find("wal_flush") is None

    def test_finish_error_marks_the_trace(self):
        tracer = Tracer()
        trace = tracer.start("update", "update t set x = 1")
        tracer.finish_error(trace, RuntimeError("boom"), elapsed=0.05)
        assert tracer.errors_recorded == 1
        assert tracer.traces[-1].error == "RuntimeError: boom"
        assert tracer.traces[-1].duration == 0.05

    def test_prepare_before_start_attaches_to_the_next_trace(self):
        tracer = Tracer()
        tracer.note_prepare("select 1", cache_hit=False)
        trace = tracer.start("query")
        tracer.finish(trace, 0.0)
        parse = trace.find("parse")
        assert parse.attributes == {"sql": "select 1", "cache_hit": False}
        assert trace.sql == "select 1"

    def test_prepare_inside_an_exchange_attaches_inline(self):
        # A server-side parse (raw-SQL update) happens after start(): the
        # parse span belongs to the *current* trace, not the next one.
        tracer = Tracer()
        trace = tracer.start("update")
        tracer.note_prepare("update t set x = 1", cache_hit=False)
        tracer.finish(trace, 0.0)
        assert trace.find("parse").attributes["sql"] == "update t set x = 1"
        assert trace.sql == "update t set x = 1"
        follow_up = tracer.start("query", "select 1")
        tracer.finish(follow_up, 0.0)
        assert follow_up.find("parse") is None  # nothing leaked forward

    def test_slow_query_log_applies_the_threshold(self):
        tracer = Tracer(slow_query_threshold=0.1)
        fast = tracer.start("query", "fast")
        tracer.finish(fast, 0.01)
        slow = tracer.start("query", "slow")
        tracer.finish(slow, 0.25)
        assert tracer.slow_queries_recorded == 1
        assert [trace.sql for trace in tracer.slow_queries] == ["slow"]

    def test_bound_registry_mirrors_outcomes(self):
        registry = MetricsRegistry()
        tracer = Tracer(slow_query_threshold=0.1, registry=registry)
        tracer.finish(tracer.start("query", "q"), 0.5)
        tracer.finish(tracer.start("commit"), 0.01)
        assert registry.counter("tracer.traces_recorded").value == 2
        assert registry.counter("tracer.slow_queries").value == 1
        assert registry.histogram("tracer.latency.query").count == 1
        assert registry.histogram("tracer.latency.commit").count == 1
        view = registry.as_dict()["views"]["tracer"]
        assert view["traces_recorded"] == 2

    def test_render_without_traces(self):
        assert Tracer().render() == "(no traces recorded)"

    def test_render_includes_spans_and_attributes(self):
        tracer = Tracer()
        trace = tracer.start("query", "select 1")
        tracer.add_span("execute", 0.25, tier="vectorized")
        tracer.finish(trace, 0.25)
        rendered = tracer.render()
        assert "query (0.250000s): select 1" in rendered
        assert "- execute" in rendered
        assert "tier=vectorized" in rendered

    def test_max_traces_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_traces=0)


# -- engine facade wiring ------------------------------------------------------


class TestEngineTracing:
    def test_untraced_engine_has_no_tracer(self):
        engine = make_engine(tracing=False)
        assert engine.tracer is None
        assert "tracer" not in engine.metrics().views

    def test_traced_engine_records_per_statement_traces(self):
        engine = make_engine()
        connection = engine.connect()
        connection.execute_query("select * from orders where o_id < 10")
        connection.execute_update(
            "update orders set o_quantity = 1 where o_id = 3"
        )
        kinds = [trace.kind for trace in engine.tracer.traces]
        assert kinds == ["query", "update"]
        for trace in engine.tracer.traces:
            trace.check_accounting()
        stats = engine.metrics().as_dict()["views"]
        assert stats["tracer"]["enabled"] is True
        assert stats["tracer"]["traces_recorded"] == 2

    def test_update_span_names_the_access_path(self):
        engine = make_engine()
        connection = engine.connect()
        connection.execute_update(
            "update orders set o_quantity = 1 where o_id = ?", (3,)
        )
        connection.execute_update(
            "update orders set o_quantity = 2 where o_id = 3 and o_quantity = 1"
        )
        point, scan = engine.tracer.traces
        assert point.find("execute").attributes["tier"] == "point-update"
        assert scan.find("execute").attributes["tier"] == "update"
        storage = engine.metrics().as_dict()["views"]["execution"]["storage"]
        assert storage["point_updates"] == 1 and storage["scan_updates"] == 1

    def test_traced_query_root_equals_charged_latency(self):
        engine = make_engine()
        connection = engine.connect()
        before = connection.clock.now
        connection.execute_query("select * from orders where o_id < 10")
        charged = connection.clock.now - before
        trace = engine.tracer.traces[-1]
        assert trace.duration == pytest.approx(charged, abs=1e-12)

    def test_statement_cache_hits_surface_in_parse_spans(self):
        engine = make_engine()
        connection = engine.connect()
        sql = "select * from orders where o_id = ?"
        connection.execute_query(sql, (1,))
        connection.execute_query(sql, (2,))
        first, second = engine.tracer.traces
        assert first.find("parse").attributes["cache_hit"] is False
        assert second.find("parse").attributes["cache_hit"] is True

    def test_latency_histograms_count_exchanges(self):
        engine = make_engine()
        connection = engine.connect()
        for key in range(3):
            connection.execute_query(
                "select * from orders where o_id = ?", (key,)
            )
        histogram = engine.metrics().histogram("tracer.latency.query")
        assert histogram.count == 3
        assert histogram.min > 0.0

    def test_metrics_views_cover_the_subsystems(self):
        engine = make_engine()
        views = engine.metrics().as_dict()["views"]
        for name in ("execution", "network", "statement_cache", "tracer"):
            assert name in views, name
        assert engine.metrics().summary()["views"] >= 4

    def test_slow_query_threshold_builder_knob(self):
        # slow-remote round trips are 10ms+: a 1ms threshold catches every
        # statement, and setting the threshold alone implies tracing.
        engine = (
            Engine.builder()
            .orders_workload(num_orders=60, num_customers=10)
            .network("slow-remote")
            .slow_query_threshold(0.001)
            .build()
        )
        assert engine.tracer is not None
        connection = engine.connect()
        connection.execute_query("select * from orders where o_id < 5")
        assert engine.tracer.slow_queries_recorded == 1
        assert engine.metrics().views["tracer"]()["slow_queries"] == 1

    def test_disabled_tracer_records_nothing(self):
        engine = make_engine(enabled=False)
        connection = engine.connect()
        connection.execute_query("select * from orders where o_id < 10")
        assert engine.tracer is not None
        assert engine.tracer.traces_recorded == 0
