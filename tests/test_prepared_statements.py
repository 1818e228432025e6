"""Statement-cache and prepared-statement semantics.

Covers the engine-level LRU statement cache (hit/miss/eviction counters,
DDL invalidation), lazy estimate revalidation (``analyze()``, insert-driven
table-version bumps), the index-backed point-lookup fast path, and
compiled/interpreted equivalence through the prepared path.
"""

from __future__ import annotations

import pytest

from repro.db.database import Database, PreparedStatement
from repro.db.executor import Executor
from repro.db.schema import Column, ColumnType
from repro.db.sqlparser import SQLSyntaxError, bind_parameters, parse_sql


def make_database(
    *, mode: str = "vectorized", cache_size: int = 128
) -> Database:
    database = Database(execution_mode=mode, statement_cache_size=cache_size)
    database.create_table(
        "items",
        [
            Column("item_id", ColumnType.INT),
            Column("label", ColumnType.STRING, width=12),
            Column("grp", ColumnType.INT),
        ],
        primary_key="item_id",
    )
    database.insert(
        "items",
        [
            {"item_id": i, "label": f"item{i}", "grp": i % 4}
            for i in range(40)
        ],
    )
    database.analyze()
    return database


class TestStatementCache:
    def test_prepare_returns_same_statement_for_same_text(self):
        database = make_database()
        first = database.prepare("select * from items where grp = ?")
        second = database.prepare("select * from items where grp = ?")
        assert first is second
        assert database.statement_cache.hits == 1
        assert database.statement_cache.misses == 1

    def test_distinct_text_is_a_miss(self):
        database = make_database()
        database.prepare("select * from items")
        database.prepare("select label from items")
        assert database.statement_cache.misses == 2
        assert database.statement_cache.hits == 0

    def test_lru_eviction_by_capacity(self):
        database = make_database(cache_size=2)
        database.prepare("select * from items where grp = 0")
        database.prepare("select * from items where grp = 1")
        database.prepare("select * from items where grp = 2")
        assert database.statement_cache.evictions == 1
        # The least recently used statement (grp = 0) was evicted.
        database.prepare("select * from items where grp = 0")
        assert database.statement_cache.misses == 4

    def test_lru_order_updated_on_hit(self):
        database = make_database(cache_size=2)
        database.prepare("select * from items where grp = 0")
        database.prepare("select * from items where grp = 1")
        database.prepare("select * from items where grp = 0")  # refresh
        database.prepare("select * from items where grp = 2")  # evicts grp=1
        database.prepare("select * from items where grp = 0")
        assert database.statement_cache.hits == 2

    def test_execute_sql_routes_through_cache(self):
        database = make_database()
        database.execute_sql("select * from items where grp = ?", (1,))
        database.execute_sql("select * from items where grp = ?", (2,))
        assert database.statement_cache.misses == 1
        assert database.statement_cache.hits == 1

    def test_estimate_sql_shares_the_prepared_plan(self):
        database = make_database()
        database.execute_sql("select * from items where grp = ?", (1,))
        database.estimate_sql("select * from items where grp = ?", (1,))
        assert database.statement_cache.misses == 1
        assert database.statement_cache.hits == 1

    def test_create_table_invalidates_cache(self):
        database = make_database()
        statement = database.prepare("select * from items")
        database.create_table("other", [Column("a", ColumnType.INT)])
        assert database.statement_cache.invalidations == 1
        fresh = database.prepare("select * from items")
        assert fresh is not statement
        assert database.statement_cache.misses == 2


class TestEstimateInvalidation:
    def test_estimate_computed_once_for_repeated_use(self):
        database = make_database()
        statement = database.prepare("select * from items where grp = ?")
        for _ in range(5):
            statement.estimate()
        assert statement.estimates_computed == 1

    def test_estimate_recomputed_after_analyze(self):
        database = make_database()
        statement = database.prepare("select * from items")
        assert statement.estimate().cardinality == 40
        database.insert(
            "items",
            [
                {"item_id": 100 + i, "label": "new", "grp": 0}
                for i in range(10)
            ],
        )
        database.analyze()
        assert statement.estimate().cardinality == 50
        assert statement.estimates_computed >= 2

    def test_estimate_recomputed_after_insert_version_bump(self):
        database = make_database()
        statement = database.prepare("select * from items")
        statement.estimate()
        database.insert("items", [{"item_id": 999, "label": "x", "grp": 0}])
        statement.estimate()
        assert statement.estimates_computed == 2

    def test_estimate_recomputed_after_set_table_statistics(self):
        from repro.db.statistics import TableStatistics

        database = make_database()
        statement = database.prepare("select * from items")
        statement.estimate()
        database.set_table_statistics(
            "items", TableStatistics(row_count=10_000, row_width=32)
        )
        assert statement.estimate().cardinality == 10_000
        assert statement.estimates_computed == 2

    def test_estimate_is_parameter_independent(self):
        database = make_database()
        statement = database.prepare("select * from items where grp = ?")
        assert statement.estimate((0,)) == statement.estimate((3,))
        assert statement.estimates_computed == 1


class TestPointLookupFastPath:
    def test_fast_path_detected_for_lookup_shape(self):
        database = make_database()
        statement = database.prepare("select * from items where item_id = ?")
        assert statement.point_lookup is not None

    def test_fast_path_not_used_for_range_predicates(self):
        database = make_database()
        statement = database.prepare("select * from items where grp > ?")
        assert statement.point_lookup is None

    def test_fast_path_matches_generic_executor(self):
        database = make_database()
        statement = database.prepare("select * from items where grp = ?")
        assert statement.point_lookup is not None
        plan = parse_sql("select * from items where grp = ?")
        reference = Executor(database.tables, mode="interpreted")
        for key in (0, 1, 2, 3, 99, None):
            expected = reference.execute(bind_parameters(plan, (key,)))
            assert statement.execute((key,)).rows == expected

    def test_fast_path_with_alias_and_literal(self):
        database = make_database()
        statement = database.prepare("select * from items i where i.item_id = 7")
        assert statement.point_lookup is not None
        rows = statement.execute().rows
        assert len(rows) == 1
        assert rows[0]["label"] == "item7"
        assert rows[0]["i.label"] == "item7"

    def test_fast_path_sees_new_rows_immediately(self):
        database = make_database()
        statement = database.prepare("select * from items where grp = ?")
        before = len(statement.execute((1,)).rows)
        database.insert("items", [{"item_id": 500, "label": "n", "grp": 1}])
        after = len(statement.execute((1,)).rows)
        assert after == before + 1

    def test_missing_parameter_raises(self):
        database = make_database()
        statement = database.prepare("select * from items where grp = ?")
        with pytest.raises(SQLSyntaxError, match="missing value"):
            statement.execute(())


class TestPreparedEquivalence:
    SQLS = [
        "select * from items where grp = ?",
        "select label from items where grp = ? order by label",
        "select grp, count(*) as n from items group by grp order by grp",
        "select * from items where item_id = ?",
    ]

    def test_interpreted_equivalence_through_prepared_path(self):
        compiled = make_database(mode="compiled")
        interpreted = make_database(mode="interpreted")
        for sql in self.SQLS:
            params = (2,) if "?" in sql else ()
            fast = compiled.execute_sql(sql, params)
            slow = interpreted.execute_sql(sql, params)
            assert fast.rows == slow.rows, sql

    def test_prepared_and_unprepared_results_identical(self):
        database = make_database()
        for sql in self.SQLS:
            params = (2,) if "?" in sql else ()
            statement = database.prepare(sql)
            plan = parse_sql(sql)
            if params:
                plan = bind_parameters(plan, params)
            expected = database.execute_plan(plan, sql=sql)
            assert statement.execute(params).rows == expected.rows, sql


class TestPreparedUpdates:
    def test_prepare_update_statement(self):
        database = make_database()
        statement = database.prepare(
            "update items set label = ? where item_id = ?"
        )
        assert not statement.is_query
        assert statement.execute_update(("renamed", 3)) == 1
        row = database.execute_sql(
            "select * from items where item_id = 3"
        ).rows[0]
        assert row["label"] == "renamed"

    def test_update_statement_cached(self):
        database = make_database()
        first = database.prepare("update items set grp = 0 where item_id = 1")
        second = database.prepare("update items set grp = 0 where item_id = 1")
        assert first is second

    def test_update_cannot_execute_as_query(self):
        database = make_database()
        statement = database.prepare("update items set grp = 0")
        with pytest.raises(SQLSyntaxError, match="cannot be executed"):
            statement.execute()

    def test_query_cannot_execute_as_update(self):
        database = make_database()
        statement = database.prepare("select * from items")
        with pytest.raises(SQLSyntaxError, match="cannot be executed"):
            statement.execute_update()

    def test_update_with_row_expression_and_compound_where(self):
        database = make_database()
        changed = database.execute_update_sql(
            "update items set grp = grp + 10 where grp = 1 and item_id < 20"
        )
        assert changed == 5
        rows = database.execute_sql("select * from items where grp = 11").rows
        assert len(rows) == 5


class TestPreparedStatementConstruction:
    def test_requires_exactly_one_of_plan_or_update(self):
        database = make_database()
        with pytest.raises(ValueError, match="exactly one"):
            PreparedStatement(database, "select 1")
