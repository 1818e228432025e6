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
        assert rows[0] == {"item_id": 7, "label": "item7", "grp": 7 % 4}
        # A copy: mutating the result leaves the stored row alone.
        rows[0]["label"] = "changed"
        assert statement.execute().rows[0]["label"] == "item7"

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

    @pytest.mark.parametrize("shards", [0, 3])
    def test_unhashable_stored_value_takes_the_generic_path(self, shards):
        # A list in the probed column leaves no index to probe: every tier
        # answers through its generic path, as the interpreted tier does.
        answers = []
        for mode in ("vectorized", "compiled", "interpreted"):
            database = make_database(mode=mode)
            database.insert(
                "items",
                [
                    {"item_id": 90, "label": "odd", "grp": [1]},
                    {"item_id": 91, "label": "one", "grp": 1},
                ],
            )
            if shards:
                database.shard_table("items", "grp", shards)
            statement = database.prepare("select * from items where grp = ?")
            assert statement.point_lookup is not None
            answers.append(
                [statement.execute((key,)).rows for key in (1, [1], 7)]
            )
        assert answers[0] == answers[1] == answers[2]
        ones, lists, misses = answers[2]
        assert [row["item_id"] for row in ones][-1] == 91
        assert [row["item_id"] for row in lists] == [90]
        assert misses == []


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


class TestPointUpdate:
    """A ``where column = <?|literal>`` UPDATE probes the positional index.

    The interpreted tier never probes (it is the scan-everything reference,
    as for the point-lookup fast path), so every case runs the same
    statements on both and compares rows changed, the resulting table and
    the raised error.
    """

    @staticmethod
    def pair(extra_rows=()):
        probing, scanning = make_database(), make_database(mode="interpreted")
        for database in (probing, scanning):
            database.insert("items", extra_rows)
            # Reads first, so the probing side patches built views.
            database.execute_sql("select * from items where grp >= 1")
            database.table("items").position_index("grp")
        return probing, scanning

    @staticmethod
    def run(database, sql, params=()):
        try:
            return database.execute_update_sql(sql, params)
        except Exception as exc:  # noqa: BLE001 - compared across the pair
            return type(exc)

    def assert_agree(self, probing, scanning, sql, params=()):
        outcome = self.run(probing, sql, params)
        assert outcome == self.run(scanning, sql, params)
        assert probing.table("items").rows == scanning.table("items").rows
        select = "select * from items where grp >= 0"
        assert (
            probing.execute_sql(select).rows == scanning.execute_sql(select).rows
        )
        return outcome

    def test_probe_and_scan_are_counted_apart(self):
        probing, scanning = self.pair()
        sql = "update items set grp = ? where item_id = ?"
        assert self.assert_agree(probing, scanning, sql, (9, 7)) == 1
        assert probing.prepare(sql).last_tier == "point-update"
        assert scanning.prepare(sql).last_tier == "update"
        storage = probing.execution_stats()["storage"]
        assert storage["point_updates"] == 1 and storage["scan_updates"] == 0
        assert storage["patched_updates"] == 1
        assert storage["column_reencodes"] == 0
        storage = scanning.execution_stats()["storage"]
        assert storage["point_updates"] == 0 and storage["scan_updates"] == 1
        # A compound predicate is not the point shape: it scans.
        self.assert_agree(
            probing, scanning, "update items set grp = 1 where item_id = 7 and grp = 9"
        )
        assert probing.storage_stats()["scan_updates"] == 1

    def test_literal_on_either_side(self):
        probing, scanning = self.pair()
        assert self.assert_agree(
            probing, scanning, "update items set label = 'x' where 5 = item_id"
        ) == 1
        assert probing.storage_stats()["point_updates"] == 1

    def test_duplicate_primary_keys_update_every_holder(self):
        duplicates = [
            {"item_id": 7, "label": "again", "grp": 2},
            {"item_id": 7, "label": "thrice", "grp": 3},
        ]
        probing, scanning = self.pair(duplicates)
        sql = "update items set grp = ? where item_id = ?"
        assert self.assert_agree(probing, scanning, sql, (50, 7)) == 3
        assert probing.storage_stats()["point_updates"] == 1

    @pytest.mark.parametrize(
        "value, changed", [(2.0, 1), (True, 1), ("2", 0), (None, 0), (99, 0)]
    )
    def test_odd_parameter_values(self, value, changed):
        probing, scanning = self.pair()
        sql = "update items set label = 'hit' where item_id = ?"
        assert self.assert_agree(probing, scanning, sql, (value,)) == changed
        assert probing.storage_stats()["point_updates"] == 1

    def test_unhashable_parameter_falls_back_to_the_scan(self):
        probing, scanning = self.pair()
        sql = "update items set label = 'hit' where item_id = ?"
        assert self.assert_agree(probing, scanning, sql, ([2],)) == 0
        storage = probing.storage_stats()
        assert storage["point_updates"] == 0 and storage["scan_updates"] == 1

    def test_unknown_column_raises_what_the_scan_raises(self):
        probing, scanning = self.pair()
        outcome = self.assert_agree(
            probing, scanning, "update items set grp = 1 where nope = 3"
        )
        assert isinstance(outcome, type) and issubclass(outcome, Exception)

    def test_primary_key_move_is_reindexed(self):
        probing, scanning = self.pair()
        move = "update items set item_id = item_id + 100 where item_id = ?"
        assert self.assert_agree(probing, scanning, move, (3,)) == 1
        for database in (probing, scanning):
            table = database.table("items")
            assert table.lookup_pk(3) is None
            assert table.lookup_pk(103)["label"] == "item3"
        # The positional index on the assigned column was dropped, so the
        # next probe sees the row under its new key only.
        touch = "update items set grp = 77 where item_id = ?"
        assert self.assert_agree(probing, scanning, touch, (3,)) == 0
        assert self.assert_agree(probing, scanning, touch, (103,)) == 1
        assert probing.storage_stats()["point_updates"] == 3

    def test_raising_assignment_leaves_the_table_untouched(self):
        probing, scanning = self.pair()
        before = [dict(row) for row in probing.table("items").rows]
        version = probing.table("items").version
        sql = "update items set grp = 10 / (grp - grp) where item_id = ?"
        assert self.assert_agree(probing, scanning, sql, (4,)) is ZeroDivisionError
        assert probing.table("items").rows == before
        assert probing.table("items").version == version
        # No row matches: the assignment is never evaluated on either path.
        assert self.assert_agree(probing, scanning, sql, (999,)) == 0

    def test_point_update_inside_transactions(self):
        for kwargs in ({}, {"mvcc": True}):
            database = Database(**kwargs)
            database.create_table(
                "items",
                [Column("item_id", ColumnType.INT), Column("grp", ColumnType.INT)],
                primary_key="item_id",
            )
            database.insert("items", [{"item_id": i, "grp": 0} for i in range(6)])
            database.execute_sql("select * from items where grp = 0")
            sql = "update items set grp = ? where item_id = ?"
            txn = database.begin()
            assert database.execute_update_sql(sql, (5, 2)) == 1
            txn.rollback()
            assert database.table("items").columns()["grp"] == [0] * 6
            with database.begin():
                assert database.execute_update_sql(sql, (7, 3)) == 1
            assert database.table("items").columns()["grp"] == [0, 0, 0, 7, 0, 0]
            assert database.execute_sql(
                "select item_id from items where grp = 7"
            ).rows == [{"item_id": 3}]
            assert database.storage_stats()["point_updates"] == 2
