"""Unit tests for the Hibernate-like ORM substrate."""

import pytest

from repro.appsim.runtime import AppRuntime
from repro.net.network import FAST_LOCAL
from repro.orm.mapping import (
    EntityDefinition,
    Field,
    ManyToOne,
    MappingError,
    MappingRegistry,
)
from repro.workloads import tpcds


class TestMappingRegistry:
    def test_register_and_lookup(self, registry):
        assert registry.has_entity("Order")
        assert registry.entity("Order").table == "orders"
        assert registry.by_table("customer").entity == "Customer"
        assert registry.entities() == ["Customer", "Order"]

    def test_unknown_entity_raises(self, registry):
        with pytest.raises(MappingError, match="unknown entity"):
            registry.entity("Ghost")

    def test_duplicate_registration_rejected(self):
        registry = MappingRegistry()
        definition = EntityDefinition("E", "e", "id")
        registry.register(definition)
        with pytest.raises(MappingError, match="already registered"):
            registry.register(EntityDefinition("E", "e2", "id"))

    def test_relation_lookup(self, registry):
        order = registry.entity("Order")
        relation = order.relation("customer")
        assert relation.target_entity == "Customer"
        assert relation.join_column == "o_customer_sk"
        assert order.has_relation("customer")
        assert not order.has_relation("supplier")
        with pytest.raises(MappingError, match="no relation"):
            order.relation("supplier")


@pytest.fixture()
def session(orders_runtime):
    return orders_runtime.orm


class TestSession:
    def test_load_all_returns_every_row(self, session):
        orders = session.load_all("Order")
        assert len(orders) == 200
        assert orders[0].entity_name == "Order"

    def test_load_all_issues_one_query(self, orders_runtime):
        orders_runtime.reset()
        orders_runtime.orm.load_all("Customer")
        assert orders_runtime.connection.stats.queries == 1

    def test_entity_attribute_access(self, session):
        order = session.load_all("Order")[0]
        assert isinstance(order.o_id, int)
        assert order.get("o_id") == order.o_id
        assert order.id == order.o_id

    def test_missing_attribute_raises(self, session):
        order = session.load_all("Order")[0]
        with pytest.raises(AttributeError):
            _ = order.nonexistent_column

    def test_lazy_relation_issues_a_query(self, orders_runtime):
        orders_runtime.reset()
        session = orders_runtime.orm
        order = session.load_all("Order")[0]
        before = orders_runtime.connection.stats.queries
        customer = order.customer
        after = orders_runtime.connection.stats.queries
        assert customer is not None
        assert after == before + 1
        assert customer.c_customer_sk == order.o_customer_sk

    def test_first_level_cache_prevents_repeat_queries(self, orders_runtime):
        orders_runtime.reset()
        session = orders_runtime.orm
        orders = session.load_all("Order")
        same_customer_orders = [
            o for o in orders if o.o_customer_sk == orders[0].o_customer_sk
        ]
        assert len(same_customer_orders) >= 1
        _ = same_customer_orders[0].customer
        queries_after_first = orders_runtime.connection.stats.queries
        for order in same_customer_orders:
            _ = order.customer
        assert orders_runtime.connection.stats.queries == queries_after_first
        assert session.cache_hits >= len(same_customer_orders) - 1

    def test_n_plus_one_behaviour_bounded_by_distinct_customers(
        self, orders_runtime
    ):
        orders_runtime.reset()
        session = orders_runtime.orm
        for order in session.load_all("Order"):
            _ = order.customer
        queries = orders_runtime.connection.stats.queries
        distinct = orders_runtime.database.table("orders").distinct_count(
            "o_customer_sk"
        )
        assert queries == 1 + distinct

    def test_get_uses_cache(self, orders_runtime):
        orders_runtime.reset()
        session = orders_runtime.orm
        first = session.get("Customer", 5)
        queries = orders_runtime.connection.stats.queries
        second = session.get("Customer", 5)
        assert first is second
        assert orders_runtime.connection.stats.queries == queries

    def test_get_missing_returns_none(self, session):
        assert session.get("Customer", 10_000) is None

    def test_native_sql_query(self, session):
        rows = session.execute_query("select count(*) from orders")
        assert rows[0]["count_all"] == 200 or list(rows[0].values())[0] == 200

    def test_clear_evicts_cache(self, orders_runtime):
        session = orders_runtime.orm
        session.get("Customer", 3)
        assert session.cache_size >= 1
        session.clear()
        assert session.cache_size == 0


def _collision_runtime() -> AppRuntime:
    """Parts whose columns are named like EntityObject's own attributes."""
    from repro.db.database import Database
    from repro.db.schema import Column, ColumnType

    database = Database()
    database.create_table(
        "part",
        [
            Column("part_sk", ColumnType.INT),
            Column("get", ColumnType.STRING),
            Column("row", ColumnType.STRING),
            Column("id", ColumnType.INT),
        ],
        primary_key="part_sk",
    )
    database.insert(
        "part",
        [
            {"part_sk": key, "get": f"g{key}", "row": f"r{key}", "id": -key}
            for key in (1, 2)
        ],
    )
    database.analyze()
    registry = MappingRegistry()
    registry.register(EntityDefinition("Part", "part", "part_sk"))
    return AppRuntime(database=database, network=FAST_LOCAL, registry=registry)


class TestEntityContract:
    """What an entity exposes, independent of how it stores its columns."""

    def test_column_read(self, session):
        order = session.get("Order", 1)
        assert order.o_id == 1
        assert order.o_customer_sk == order.row["o_customer_sk"]

    def test_relation_lazy_load_then_identity_cache_hit(self, orders_runtime):
        orders_runtime.reset()
        session = orders_runtime.orm
        order = session.get("Order", 1)
        customer = order.customer
        assert session.lazy_loads == 1
        assert customer.entity_name == "Customer"
        assert customer.c_customer_sk == order.o_customer_sk
        assert order.customer is customer
        assert session.get("Customer", order.o_customer_sk) is customer
        assert session.lazy_loads == 1
        assert session.cache_hits == 2

    def test_get_with_default(self, session):
        order = session.get("Order", 1)
        assert order.get("o_id") == 1
        assert order.get("o_missing") is None
        assert order.get("o_missing", 7) == 7
        assert order.get("customer", "x") == "x"  # relations are not columns

    def test_row_holds_bare_columns_only(self, orders_runtime):
        session = orders_runtime.orm
        order = session.get("Order", 1)
        columns = orders_runtime.database.table("orders").schema.column_names
        assert list(order.row) == list(columns)
        assert not any("." in key for key in order.row)
        loaded = session.load_all("Customer")[0]
        assert not any("." in key for key in loaded.row)

    def test_id_is_the_primary_key(self, session):
        assert session.get("Order", 3).id == 3
        assert session.get("Customer", 4).id == 4

    def test_unknown_attribute_message(self, session):
        order = session.get("Order", 1)
        with pytest.raises(AttributeError) as raised:
            _ = order.o_nothing
        assert str(raised.value) == (
            "Order object has no attribute or mapped column 'o_nothing'"
        )
        assert not hasattr(order, "o_nothing")
        assert getattr(order, "o_nothing", 5) == 5

    def test_columns_named_like_entity_attributes(self):
        session = _collision_runtime().orm
        part = session.get("Part", 2)
        # The entity's own attributes win over same-named mapped columns,
        # which stay reachable through ``row`` and ``get``.
        assert part.id == 2
        assert part.get("get") == "g2"
        assert part.get("row") == "r2"
        assert part.get("id") == -2
        assert part.row == {"part_sk": 2, "get": "g2", "row": "r2", "id": -2}
        assert part.part_sk == 2
        assert part.entity_name == "Part"
