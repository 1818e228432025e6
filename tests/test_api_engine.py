"""The `repro.api` facade: EngineBuilder wiring, Engine services, connect()."""

from __future__ import annotations

import pytest

from repro.api import Engine, EngineClosedError, EngineConfigError, connect
from repro.net.connection import ConnectionClosedError
from repro.core.catalog import catalog_for_network
from repro.core.optimizer import CobraOptimizer
from repro.db.database import Database
from repro.db.schema import Column, ColumnType
from repro.net.network import FAST_LOCAL, SLOW_REMOTE
from repro.workloads import tpcds
from repro.workloads.programs import P0_SOURCE


@pytest.fixture(scope="module")
def orders_engine() -> Engine:
    return (
        Engine.builder()
        .orders_workload(num_orders=300, num_customers=60)
        .network("slow-remote")
        .build()
    )


class TestEngineBuilder:
    def test_builder_is_fluent(self):
        builder = Engine.builder()
        assert builder.network("fast-local") is builder
        assert builder.amortization(2.0) is builder

    def test_orders_workload_wires_database_and_registry(self, orders_engine):
        assert "orders" in orders_engine.database.tables
        assert "customer" in orders_engine.database.tables
        assert orders_engine.registry is not None
        assert orders_engine.registry.entity("Order").table == "orders"

    def test_network_preset_resolution(self, orders_engine):
        assert orders_engine.network == SLOW_REMOTE

    def test_parameters_derived_from_network(self, orders_engine):
        assert orders_engine.parameters == catalog_for_network("slow-remote")

    def test_explicit_parameters_override_network(self):
        fast = catalog_for_network("fast-local")
        engine = (
            Engine.builder()
            .network("slow-remote")
            .cost_parameters(fast)
            .build()
        )
        assert engine.parameters == fast

    def test_amortization_applied(self):
        engine = Engine.builder().network("fast-local").amortization(4.0).build()
        assert engine.parameters.amortization_factor == 4.0

    def test_unknown_network_preset_raises(self):
        with pytest.raises(EngineConfigError, match="unknown network preset"):
            Engine.builder().network("warp-speed").build()

    def test_wilos_workload(self):
        engine = Engine.builder().wilos_workload(scale=60).build()
        assert "activity" in engine.database.tables

    def test_default_build_is_empty_database(self):
        engine = Engine.builder().build()
        assert engine.database.tables == {}
        assert engine.network == FAST_LOCAL


class TestEngineServices:
    def test_cursor_round_trip(self, orders_engine):
        with orders_engine.cursor() as cursor:
            cursor.execute("select * from orders where o_id = ?", (7,))
            row = cursor.fetchone()
        assert row["o_id"] == 7

    def test_connections_share_the_statement_cache(self, orders_engine):
        first = orders_engine.connect()
        second = orders_engine.connect()
        sql = "select * from orders where o_id = ?"
        first.execute_query(sql, (1,))
        second.execute_query(sql, (2,))
        assert orders_engine.statement_cache_stats.hits >= 1

    def test_connect_returns_independent_clocks(self, orders_engine):
        first = orders_engine.connect()
        second = orders_engine.connect()
        first.execute_query("select * from customer")
        assert first.elapsed > 0
        assert second.elapsed == 0

    def test_session_lazy_load(self, orders_engine):
        session = orders_engine.session()
        order = session.get("Order", 5)
        assert order is not None
        assert order.customer.entity_name == "Customer"

    def test_runtime_measures_programs(self, orders_engine):
        runtime = orders_engine.runtime()
        measurement = runtime.measure(
            lambda rt: len(rt.execute_query("select * from customer"))
        )
        assert measurement.result == 60
        assert measurement.queries == 1

    def test_prepare_exposes_prepared_statement(self, orders_engine):
        statement = orders_engine.prepare("select * from customer")
        assert statement.is_query
        assert statement is orders_engine.prepare("select * from customer")


class TestEngineOptimize:
    def test_optimize_matches_direct_optimizer(self):
        database = tpcds.build_orders_database(200, 40)
        registry = tpcds.build_registry()
        engine = connect(
            database=database, network="slow-remote", registry=registry
        )
        via_engine = engine.optimize(P0_SOURCE)
        direct = CobraOptimizer(
            database, catalog_for_network("slow-remote"), registry=registry
        ).optimize(P0_SOURCE)
        assert via_engine.primary_choice() == direct.primary_choice()
        assert via_engine.best_cost == pytest.approx(direct.best_cost)

    def test_optimizer_overrides_pass_through(self, orders_engine):
        optimizer = orders_engine.optimizer(max_passes=2)
        assert optimizer.max_passes == 2
        assert optimizer.registry is orders_engine.registry

    def test_heuristic_rewrite(self, orders_engine):
        outcome = orders_engine.heuristic_rewrite(P0_SOURCE)
        assert outcome.rewritten_source


class TestEngineLifecycle:
    def _fresh_engine(self) -> Engine:
        return (
            Engine.builder()
            .orders_workload(num_orders=60, num_customers=12)
            .network("fast-local")
            .build()
        )

    def test_connection_context_manager(self):
        engine = self._fresh_engine()
        with engine.connect() as connection:
            rows = connection.execute_query("select * from customer").rows
            assert rows
        assert connection.closed

    def test_engine_close_closes_handed_out_connections(self):
        engine = self._fresh_engine()
        first = engine.connect()
        second = engine.connect()
        engine.close()
        assert engine.closed
        assert first.closed and second.closed
        with pytest.raises(ConnectionClosedError):
            first.execute_query("select * from customer")

    def test_engine_close_is_idempotent(self):
        engine = self._fresh_engine()
        engine.close()
        engine.close()
        assert engine.closed

    def test_closed_engine_refuses_new_resources(self):
        engine = self._fresh_engine()
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.connect()
        with pytest.raises(EngineClosedError):
            engine.prepare("select * from customer")

    def test_engine_context_manager(self):
        engine = self._fresh_engine()
        with engine:
            connection = engine.connect()
        assert engine.closed and connection.closed

    def test_default_connection_closed_with_engine(self):
        engine = self._fresh_engine()
        cursor = engine.cursor()
        cursor.execute("select * from customer")
        engine.close()
        assert engine.connection.closed


class TestEngineStats:
    def test_stats_aggregate_cache_and_network_counters(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=60, num_customers=12)
            .network("fast-local")
            .build()
        )
        connection = engine.connect()
        for key in (1, 2, 3):
            connection.execute_query(
                "select * from orders where o_id = ?", (key,)
            )
        with connection.pipeline() as pipe:
            pipe.execute("select * from orders where o_id = ?", (4,))
            pipe.execute("select * from orders where o_id = ?", (5,))
        stats = engine.metrics().as_dict()["views"]
        assert stats["statement_cache"]["misses"] == 1
        assert stats["statement_cache"]["hits"] >= 3
        assert stats["network"]["connections"] == 1
        assert stats["network"]["queries"] == 5
        assert stats["network"]["round_trips"] == 4  # 3 singles + 1 batch
        assert stats["network"]["batches"] == 1
        assert stats["network"]["rows_transferred"] == 5
        assert stats["database"]["queries_executed"] == 5

    def test_stats_sum_over_multiple_connections(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=60, num_customers=12)
            .network("fast-local")
            .build()
        )
        for _ in range(3):
            engine.connect().execute_query("select * from customer")
        stats = engine.metrics().as_dict()["views"]
        assert stats["network"]["connections"] == 3
        assert stats["network"]["queries"] == 3

    def test_closed_connections_pruned_but_stats_retained(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=60, num_customers=12)
            .network("fast-local")
            .build()
        )
        for _ in range(5):
            with engine.connect() as connection:
                connection.execute_query("select * from customer")
        # Churned connections are folded into the retired totals, so the
        # tracking list stays bounded while stats() remain complete.
        assert len(engine._connections) <= 1
        stats = engine.metrics().as_dict()["views"]
        assert stats["network"]["connections"] == 5
        assert stats["network"]["queries"] == 5


class TestConnect:
    def test_connect_defaults(self):
        engine = connect()
        assert engine.network == FAST_LOCAL
        assert isinstance(engine.database, Database)

    def test_connect_with_existing_database(self):
        database = Database()
        database.create_table("t", [Column("a", ColumnType.INT)])
        engine = connect(database=database, network=SLOW_REMOTE)
        assert engine.database is database
        assert engine.network == SLOW_REMOTE
