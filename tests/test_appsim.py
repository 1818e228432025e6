"""Unit tests for the client cache and the application runtime."""

from types import MappingProxyType

import pytest

from repro.appsim.cache import CacheError, ClientCache
from repro.appsim.runtime import AppRuntime
from repro.net.network import FAST_LOCAL, SLOW_REMOTE
from repro.orm.mapping import EntityDefinition
from repro.orm.session import EntityObject
from repro.workloads import tpcds


class TestClientCache:
    def test_cache_by_column_and_lookup(self):
        cache = ClientCache()
        cached = cache.cache_by_column(
            [{"id": 1, "v": "a"}, {"id": 2, "v": "b"}], "id"
        )
        assert cached == 2
        assert cache.lookup(2, "id")["v"] == "b"
        assert cache.lookup(3, "id") is None
        assert cache.hits == 1 and cache.lookups == 2

    def test_rows_with_null_keys_are_skipped(self):
        cache = ClientCache()
        cached = cache.cache_by_column([{"id": None, "v": 1}, {"id": 2}], "id")
        assert cached == 1

    def test_lookup_in_unknown_region_raises(self):
        with pytest.raises(CacheError, match="never populated"):
            ClientCache().lookup(1, "missing")

    def test_grouped_cache(self):
        cache = ClientCache()
        rows = [{"k": 1, "v": i} for i in range(3)] + [{"k": 2, "v": 9}]
        cache.cache_groups_by_column(rows, "k", "groups")
        assert len(cache.lookup_group(1, "groups")) == 3
        assert cache.lookup_group(5, "groups") == []

    def test_region_management(self):
        cache = ClientCache()
        cache.cache_by_column([{"id": 1}], "id", region="r1")
        assert cache.has_region("r1")
        assert cache.region_size("r1") == 1
        assert cache.region_size("other") == 0
        cache.clear()
        assert not cache.has_region("r1")

    def test_entity_objects_can_be_cached(self, orders_runtime):
        orders = orders_runtime.orm.load_all("Order")
        cache = ClientCache()
        cached = cache.cache_by_column(orders, "o_id")
        assert cached == len(orders)
        assert cache.lookup(orders[0].o_id, "o_id") is orders[0]


#: ``None`` keys, a row missing the column, and repeated keys 1 and 2.
_ROWS = [
    {"k": 1, "v": "a"},
    {"k": None, "v": "b"},
    {"k": 2, "v": "c"},
    {"v": "d"},
    {"k": 1, "v": "e"},
    {"k": 2, "v": "f"},
    {"k": 3, "v": "g"},
]

_ENTITY = EntityDefinition("Row", "rows", "k")


def _as_entity(row: dict) -> EntityObject:
    return EntityObject(None, _ENTITY, dict(row))


def _as_mixed(rows: list) -> list:
    shapes = (dict, MappingProxyType, _as_entity)
    return [shapes[i % 3](row) for i, row in enumerate(rows)]


_SHAPES = {
    "dicts": lambda rows: [dict(row) for row in rows],
    "mapping": lambda rows: [MappingProxyType(row) for row in rows],
    "entities": lambda rows: [_as_entity(row) for row in rows],
    "generator": lambda rows: (dict(row) for row in rows),
    "mixed": _as_mixed,
}


def _values(cached) -> object:
    """The ``v`` column of a cached row, or of each row of a cached group."""
    if isinstance(cached, list):
        return [row.get("v") for row in cached]
    return None if cached is None else cached.get("v")


@pytest.mark.parametrize("shape", sorted(_SHAPES))
class TestCacheRowShapes:
    """Every row shape builds the same regions with the same counts."""

    def test_cache_by_column_last_row_wins(self, shape):
        cache = ClientCache()
        assert cache.cache_by_column(_SHAPES[shape](_ROWS), "k", "r") == 5
        assert cache.region_size("r") == 3
        assert [_values(cache.lookup(key, "r")) for key in (1, 2, 3)] == [
            "e",
            "f",
            "g",
        ]
        assert cache.lookup(None, "r") is None

    def test_groups_keep_input_order(self, shape):
        cache = ClientCache()
        rows = _SHAPES[shape](_ROWS)
        assert cache.cache_groups_by_column(rows, "k", "g") == 5
        assert cache.region_size("g") == 3
        groups = [cache.lookup_group(key, "g") for key in (1, 2, 3)]
        assert [_values(group) for group in groups] == [
            ["a", "e"],
            ["c", "f"],
            ["g"],
        ]
        assert cache.lookup_group(None, "g") == []

    def test_missing_column_caches_nothing(self, shape):
        make = _SHAPES[shape]
        cache = ClientCache()
        assert cache.cache_by_column(make(_ROWS), "nope", "r") == 0
        assert cache.cache_groups_by_column(make(_ROWS), "nope", "g") == 0
        assert cache.has_region("r") and cache.region_size("r") == 0
        assert cache.has_region("g") and cache.region_size("g") == 0

    def test_cached_rows_are_the_input_objects(self, shape):
        rows = list(_SHAPES[shape](_ROWS))
        cache = ClientCache()
        cache.cache_by_column(rows, "k", "r")
        cache.cache_groups_by_column(rows, "k", "g")
        assert cache.lookup(3, "r") is rows[-1]
        assert cache.lookup_group(3, "g")[0] is rows[-1]


class TestAppRuntime:
    def test_execute_query_charges_the_clock(self, slow_orders_runtime):
        rt = slow_orders_runtime
        rt.reset()
        rows = rt.execute_query("select * from customer")
        assert len(rows) == 50
        assert rt.elapsed >= SLOW_REMOTE.round_trip_seconds

    def test_work_charges_statement_cost(self, orders_runtime):
        rt = orders_runtime
        rt.reset()
        rt.work(1000)
        assert rt.elapsed == pytest.approx(1000 * rt.statement_cost)
        assert rt.statements_executed == 1000
        with pytest.raises(ValueError):
            rt.work(-1)

    def test_prefetch_and_lookup(self, orders_runtime):
        rt = orders_runtime
        rt.reset()
        cached = rt.prefetch("customer", "c_customer_sk")
        assert cached == 50
        row = rt.lookup(1, "c_customer_sk")
        assert row["c_customer_sk"] == 1

    def test_prefetch_is_idempotent(self, orders_runtime):
        rt = orders_runtime
        rt.reset()
        rt.prefetch("customer", "c_customer_sk")
        queries = rt.connection.stats.queries
        again = rt.prefetch("customer", "c_customer_sk")
        assert again == 0
        assert rt.connection.stats.queries == queries

    def test_prefetch_group_and_lookup_group(self, orders_runtime):
        rt = orders_runtime
        rt.reset()
        rt.prefetch_group("orders", "o_customer_sk")
        group = rt.lookup_group(1, "orders.o_customer_sk")
        assert all(row["o_customer_sk"] == 1 for row in group)
        # Grouped prefetch is also idempotent.
        assert rt.prefetch_group("orders", "o_customer_sk") == 0

    def test_execute_update_round_trips(self, orders_runtime):
        rt = orders_runtime
        rt.reset()
        changed = rt.execute_update(
            "update customer set c_birth_year = 2000 where c_customer_sk = ?", (1,)
        )
        assert changed == 1
        assert rt.connection.stats.round_trips == 1

    def test_measure_resets_state_between_runs(self, orders_runtime):
        rt = orders_runtime

        def program(runtime):
            runtime.execute_query("select * from customer")
            return "done"

        first = rt.measure(program)
        second = rt.measure(program)
        assert first.result == "done"
        assert first.elapsed_seconds == pytest.approx(second.elapsed_seconds)
        assert first.queries == second.queries == 1

    def test_measurement_counters(self, orders_runtime):
        rt = orders_runtime

        def program(runtime):
            rows = runtime.execute_query("select * from orders")
            runtime.work(len(rows))
            return len(rows)

        measurement = rt.measure(program)
        assert measurement.result == 200
        assert measurement.rows_transferred == 200
        assert measurement.statements_executed == 200
        assert measurement.bytes_transferred > 0
