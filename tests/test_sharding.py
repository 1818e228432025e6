"""Tests for the hash-sharded storage layer and the shard router.

Covers the :class:`~repro.db.sharding.ShardedTable` storage surface (the
inherited aggregate view must behave exactly like an unsharded table, with
rows additionally filed in their hash partitions), the router's four ways
of serving a statement (single-shard routed, per-shard fused scatter or
co-partitioned join, the threaded local aggregate, and the aggregate view
every decline falls back to) with their counters, statistics aggregation,
the shard-aware prepared point-lookup fast path, and the engine-facade
configuration (``EngineBuilder.shards`` and the ``sharding`` metrics view).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Engine
from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    ParameterSlot,
)
from repro.db.schema import Column, ColumnType, SchemaError
from repro.db.sharding import ShardedTable, ShardingError, shard_index
from repro.db.table import Table


def make_schema():
    from repro.db.schema import TableSchema

    return TableSchema(
        "items",
        [
            Column("id", ColumnType.INT),
            Column("bucket", ColumnType.INT),
            Column("label", ColumnType.STRING, width=12),
        ],
        primary_key="id",
    )


def make_sharded(shards: int = 4, rows: int = 40) -> ShardedTable:
    table = ShardedTable(make_schema(), "id", shards)
    table.insert_many(
        {"id": i, "bucket": i % 5, "label": f"item-{i}"} for i in range(rows)
    )
    return table


def build_database(shards: int = 0, mode: str = "vectorized") -> Database:
    database = Database(execution_mode=mode)
    database.create_table(
        "orders",
        [
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_total", ColumnType.INT),
        ],
        primary_key="o_id",
    )
    database.create_table(
        "customers",
        [
            Column("c_id", ColumnType.INT),
            Column("c_tier", ColumnType.INT),
        ],
        primary_key="c_id",
    )
    database.insert(
        "orders",
        (
            {"o_id": i, "o_c_id": i % 10, "o_total": (i * 13) % 97}
            for i in range(120)
        ),
    )
    database.insert(
        "customers",
        ({"c_id": i, "c_tier": i % 3} for i in range(10)),
    )
    if shards:
        database.shard_table("orders", "o_c_id", shards)
        database.shard_table("customers", "c_id", shards)
    database.analyze()
    return database


class TestShardedTableStorage:
    def test_rows_keep_global_insertion_order(self):
        table = make_sharded()
        assert [row["id"] for row in table.rows] == list(range(40))
        assert [row["id"] for row in table.scan()] == list(range(40))

    def test_rows_are_partitioned_by_hash_of_the_shard_key(self):
        table = make_sharded()
        for index, shard in enumerate(table.shards):
            for row in shard.rows:
                assert shard_index(row["id"], table.shard_count) == index
        assert sum(table.shard_row_counts()) == len(table)

    def test_partitions_share_the_stored_row_dicts(self):
        table = make_sharded()
        aggregate_ids = {id(row) for row in table.rows}
        shard_ids = {
            id(row) for shard in table.shards for row in shard.rows
        }
        assert shard_ids == aggregate_ids

    def test_update_is_visible_through_shard_partitions(self):
        table = make_sharded()
        updated = table.update_rows(
            lambda row: row["id"] == 7, {"label": "renamed"}
        )
        assert updated == 1
        shard = table.shard_for(7)
        assert any(row["label"] == "renamed" for row in shard.rows)

    def test_update_moving_the_shard_key_rehomes_the_row(self):
        table = make_sharded(shards=3)
        table.update_rows(lambda row: row["id"] == 5, {"id": 1005})
        assert table.lookup_pk(5) is None
        assert table.lookup_pk(1005)["label"] == "item-5"
        home = table.shard_for(1005)
        assert any(row["id"] == 1005 for row in home.rows)
        for index, shard in enumerate(table.shards):
            for row in shard.rows:
                assert table.shard_index(row["id"]) == index

    def test_update_touches_only_the_partitions_owning_a_changed_row(self):
        table = make_sharded()
        views = [shard.columns() for shard in table.shards]
        versions = [shard.version for shard in table.shards]
        table.update_rows(lambda row: row["id"] in (7, 11), {"label": "x"})
        owners = {table.shard_index(7), table.shard_index(11)}
        for index, shard in enumerate(table.shards):
            # Every partition hands out the same view object: the owners
            # patched theirs in place, the others were never touched.
            assert shard.columns() is views[index]
            assert (shard.version != versions[index]) == (index in owners)
            assert shard.patched_updates == sum(
                1 for key in (7, 11) if table.shard_index(key) == index
            )
            assert shard.columns()["label"] == [r["label"] for r in shard.rows]
            assert shard.column_reencodes == 0
        assert table.columns()["label"][7] == "x"

    def test_placement_survives_inserts_and_rehoming(self):
        table = make_sharded(shards=3, rows=12)
        for shard in table.shards:
            shard.columns()
        table.update_rows(lambda row: row["id"] == 4, {"bucket": 40})
        table.insert({"id": 12, "bucket": 0, "label": "late"})
        table.update_rows(lambda row: row["id"] == 12, {"bucket": 41})
        table.update_rows(lambda row: row["id"] == 5, {"id": 1005})  # re-home
        table.update_rows(lambda row: row["id"] == 1005, {"bucket": 42})
        table.insert({"id": 13, "bucket": 0, "label": "later"})
        table.truncate_to(13)  # re-home again
        table.update_rows(lambda row: row["id"] == 12, {"label": "kept"})
        for shard in table.shards:
            store = shard.columns()
            for name in ("id", "bucket", "label"):
                assert store[name] == [row[name] for row in shard.rows]
        assert sorted(
            (row["id"], row["bucket"])
            for shard in table.shards
            for row in shard.rows
            if row["bucket"] >= 40
        ) == [(4, 40), (12, 41), (1005, 42)]

    def test_primary_key_move_off_the_shard_key_patches_in_place(self):
        # Sharded on bucket, not on the primary key: moving keys is an
        # ordinary update, patched into the owning partitions.
        table = ShardedTable(make_schema(), "bucket", 3)
        plain = Table(make_schema())
        for target in (table, plain):
            target.insert_many(
                {"id": i, "bucket": i % 5, "label": f"item-{i}"}
                for i in range(30)
            )
        views = [shard.columns() for shard in table.shards]
        for shard in table.shards:
            shard.position_index("id")
        moves = [
            (lambda row: row["id"] == 7, {"id": 107}),
            (lambda row: row["id"] in (3, 4), {"id": 8}),  # two holders of 8
            (lambda row: row["bucket"] == 2, {"id": lambda row: -row["id"]}),
        ]
        for predicate, assignments in moves:
            assert table.update_rows(predicate, assignments) == plain.update_rows(
                predicate, assignments
            )
        assert table.rows == plain.rows
        for key in (7, 107, 8, 3, -2, -12, 99):
            assert table.lookup_pk(key) == plain.lookup_pk(key)
        assert table.position_index("id") == plain.position_index("id")
        for index, shard in enumerate(table.shards):
            assert shard.columns() is views[index]  # never re-homed
            assert all(table.shard_index(r["bucket"]) == index for r in shard.rows)
            fresh = Table(make_schema())
            fresh.adopt_rows([dict(row) for row in shard.rows])
            assert shard.columns() == fresh.columns()
            for name in ("id", "bucket", "label"):
                assert shard.position_index(name) == fresh.position_index(name)
                assert shard.distinct_count(name) == fresh.distinct_count(name)
            for row in shard.rows:
                assert shard.lookup_pk(row["id"]) == fresh.lookup_pk(row["id"])
        assert sum(shard.patched_updates for shard in table.shards) == 9

    def test_sql_primary_key_moves_match_unsharded(self):
        sharded, plain = build_database(shards=4), build_database()
        for database in (sharded, plain):
            database.execute_sql("select * from orders where o_id = 13")
            database.execute_update_sql(
                "update orders set o_id = ? where o_id = ?", (500, 13)
            )
            database.execute_update_sql(
                "update orders set o_id = o_id + 1000 where o_total > 50"
            )
        assert sharded.table("orders").rows == plain.table("orders").rows

        def answer(database, sql):
            return sorted(sorted(row.items()) for row in database.execute_sql(sql).rows)

        for sql in (
            "select * from orders where o_id = 500",
            "select * from orders where o_id = 13",
            "select * from orders where o_c_id = 3",
            "select o_c_id, count(*) as n from orders group by o_c_id",
        ):
            assert answer(sharded, sql) == answer(plain, sql)

    def test_clear_empties_every_partition(self):
        table = make_sharded()
        table.clear()
        assert len(table) == 0
        assert all(len(shard) == 0 for shard in table.shards)

    def test_lookup_pk_and_position_index_match_unsharded(self):
        table = make_sharded()
        plain = Table(make_schema())
        plain.insert_many(
            {"id": i, "bucket": i % 5, "label": f"item-{i}"} for i in range(40)
        )
        assert table.lookup_pk(11) == plain.lookup_pk(11)
        assert table.position_index("bucket") == plain.position_index("bucket")
        assert table.columns() == plain.columns()
        assert table.distinct_count("bucket") == plain.distinct_count("bucket")

    def test_unknown_shard_key_raises(self):
        with pytest.raises(SchemaError):
            ShardedTable(make_schema(), "nope", 2)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ShardingError):
            ShardedTable(make_schema(), "id", 0)

    def test_none_and_unhashable_values_route_to_shard_zero(self):
        assert shard_index(None, 8) == 0
        assert shard_index([1, 2], 8) == 0


class TestDatabaseSharding:
    def test_shard_table_preserves_rows_and_order(self):
        unsharded = build_database()
        sharded = build_database(shards=4)
        # The aggregate view keeps global insertion order ...
        assert list(sharded.table("orders").scan()) == list(
            unsharded.table("orders").scan()
        )
        # ... and a sorted query is row-identical end to end.
        sql = "select * from orders order by o_id"
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )

    def test_shard_table_requires_existing_table(self):
        database = build_database()
        with pytest.raises(KeyError):
            database.shard_table("nope", "x", 2)

    def test_shard_table_twice_raises(self):
        database = build_database(shards=2)
        with pytest.raises(ValueError):
            database.shard_table("orders", "o_c_id", 2)

    def test_shard_key_defaults_to_primary_key(self):
        database = build_database()
        sharded = database.shard_table("orders", shards=3)
        assert sharded.shard_key == "o_id"

    def test_point_query_on_shard_key_routes_to_one_shard(self):
        database = build_database(shards=4)
        rows = database.execute_sql(
            "select o_id, o_total from orders where o_c_id = 3 order by o_id"
        ).rows
        assert [row["o_id"] for row in rows] == [i for i in range(120) if i % 10 == 3]
        assert database.sharding_stats()["routed"] == 1

    def test_parameter_slot_routes_per_execution(self):
        database = build_database(shards=4)
        statement = database.prepare(
            "select o_id from orders where o_c_id = ? order by o_id"
        )
        for key in (0, 3, 7, 3):
            rows = statement.execute((key,)).rows
            assert [row["o_id"] for row in rows] == [
                i for i in range(120) if i % 10 == key
            ]
        assert database.sharding_stats()["routed"] == 4

    def test_scatter_gather_filter(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = "select o_id, o_total from orders where o_total > 50 order by o_id"
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        assert sharded.sharding_stats()["scatter"] == 1

    def test_partial_aggregate_merge(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = (
            "select o_c_id, count(*), sum(o_total), avg(o_total), "
            "min(o_total), max(o_total) from orders group by o_c_id "
            "order by o_c_id"
        )
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        assert sharded.sharding_stats()["local"] == 1

    def test_scalar_aggregate_over_empty_sharded_table(self):
        database = build_database(shards=4)
        database.table("orders").clear()
        row = database.execute_sql(
            "select count(*), sum(o_total), avg(o_total) from orders"
        ).rows[0]
        assert row["count_all"] == 0
        assert row["sum_o_total"] is None
        assert row["avg_o_total"] is None

    def test_partial_aggregate_group_keys_colliding_bare_names(self):
        # GROUP BY o.o_id, c.c_id: both group columns collide on no bare
        # name here, so use a join where both sides expose a column with
        # the same bare name via aliasing of the same logical key space —
        # the merge must group on the qualified names, not the (collided)
        # bare key.
        sharded = build_database()
        sharded.shard_table("orders", "o_c_id", 4)
        unsharded = build_database()
        plan = algebra.Aggregate(
            algebra.Join(
                algebra.Scan("orders", "l"),
                algebra.Scan("orders", "r"),
                BinaryOp(
                    "=", ColumnRef("o_total", "l"), ColumnRef("o_total", "r")
                ),
            ),
            group_by=(ColumnRef("o_c_id", "l"), ColumnRef("o_c_id", "r")),
            aggregates=(algebra.AggregateSpec("count", None, "n"),),
        )
        key = lambda r: sorted((k, repr(v)) for k, v in r.items())  # noqa: E731
        got = sorted(
            sharded.execute_plan(plan, sql="self-agg").rows, key=key
        )
        want = sorted(
            unsharded.execute_plan(plan, sql="self-agg").rows, key=key
        )
        assert got == want

    def test_partial_aggregate_qualified_group_keys_over_join(self):
        # The reviewer's shape: sharded x broadcast join, grouped by one
        # column from each side where the bare names collide ("k"-style).
        database = Database()
        database.create_table(
            "lt", [Column("k", ColumnType.INT), Column("a", ColumnType.INT)]
        )
        database.create_table(
            "u", [Column("k", ColumnType.INT), Column("b", ColumnType.INT)]
        )
        database.insert("lt", [{"k": 1, "a": 10}, {"k": 2, "a": 10}])
        database.insert("u", [{"k": 5, "b": 10}])
        reference = Database()
        reference.create_table(
            "lt", [Column("k", ColumnType.INT), Column("a", ColumnType.INT)]
        )
        reference.create_table(
            "u", [Column("k", ColumnType.INT), Column("b", ColumnType.INT)]
        )
        reference.insert("lt", [{"k": 1, "a": 10}, {"k": 2, "a": 10}])
        reference.insert("u", [{"k": 5, "b": 10}])
        database.shard_table("lt", "k", 2)
        for db in (database, reference):
            db.analyze()
        plan = algebra.Aggregate(
            algebra.Join(
                algebra.Scan("lt", "l"),
                algebra.Scan("u", "u"),
                BinaryOp("=", ColumnRef("a", "l"), ColumnRef("b", "u")),
            ),
            group_by=(ColumnRef("k", "l"), ColumnRef("k", "u")),
            aggregates=(algebra.AggregateSpec("count", None, "n"),),
        )
        got = database.execute_plan(plan, sql="x").rows
        assert got == reference.execute_plan(plan, sql="x").rows
        # An aggregate over a join has no fused loop: the aggregate view.
        stats = database.sharding_stats()
        assert (stats["local"], stats["fallback"]) == (0, 1)

    def test_co_partitioned_join_runs_shard_local(self):
        # A filtered ``select *`` join whose row is wide enough for the
        # fused probe loop runs join-per-shard.
        pads = [f"p{i}" for i in range(14)]

        def wide(shards: int) -> Database:
            database = Database()
            database.create_table(
                "l",
                [Column(name, ColumnType.INT) for name in ("id", "k", *pads)],
                primary_key="id",
            )
            database.create_table(
                "r",
                [Column("k", ColumnType.INT), Column("v", ColumnType.INT)],
                primary_key="k",
            )
            database.insert(
                "l",
                [{"id": i, "k": i % 7, **dict.fromkeys(pads, i)} for i in range(60)],
            )
            database.insert("r", [{"k": k, "v": k * k} for k in range(7)])
            if shards:
                database.shard_table("l", "k", shards)
                database.shard_table("r", "k", shards)
            database.analyze()
            return database

        sharded, unsharded = wide(4), wide(0)
        sql = "select * from l join r on l.k = r.k where l.p0 >= 9"
        key = lambda r: sorted(r.items())  # noqa: E731
        assert sorted(sharded.execute_sql(sql).rows, key=key) == sorted(
            unsharded.execute_sql(sql).rows, key=key
        )
        assert sharded.sharding_stats()["local"] == 1
        assert sharded.prepare(sql).last_execution_path == "codegen (join)"
        # A projection over the join is no fused spine: the aggregate view.
        sql = "select l.id, v from l join r on l.k = r.k order by l.id"
        assert sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        stats = sharded.sharding_stats()
        assert (stats["local"], stats["fallback"]) == (1, 1)

    def test_mismatched_shard_counts_fall_back(self):
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)
        database.shard_table("customers", "c_id", 3)
        unsharded = build_database()
        sql = (
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id order by o.o_id"
        )
        assert (
            database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        stats = database.sharding_stats()
        assert stats["local"] == 0
        assert stats["fallback"] == 1

    def test_limit_falls_back_to_aggregate_view(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = "select * from orders limit 7"
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        assert sharded.sharding_stats()["fallback"] == 1

    def test_sharded_join_with_unsharded_broadcast_side(self):
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)  # customers unsharded
        unsharded = build_database()
        sql = (
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id order by o.o_id"
        )
        assert (
            database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        # A projection over the join has no fused loop: the aggregate view.
        assert database.sharding_stats()["fallback"] == 1

    def test_update_through_sharded_table(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = "update orders set o_total = o_total + 1 where o_c_id = 3"
        assert sharded.execute_update_sql(sql) == unsharded.execute_update_sql(sql)
        query = "select * from orders order by o_id"
        assert (
            sharded.execute_sql(query).rows == unsharded.execute_sql(query).rows
        )

    def test_limit_below_the_shard_key_filter_is_not_routed(self):
        # Select(k = v, Limit(Scan)) must NOT pin to one shard: the Limit
        # picks the first N *global* rows, which a single partition cannot
        # reproduce.  The router falls back to the aggregate view, which is
        # exactly the unsharded execution.
        sharded = build_database(shards=4)
        unsharded = build_database()
        plan = algebra.Select(
            algebra.Limit(algebra.Scan("orders"), 5),
            BinaryOp("=", ColumnRef("o_c_id"), Literal(3)),
        )
        assert (
            sharded.execute_plan(plan).rows == unsharded.execute_plan(plan).rows
        )
        stats = sharded.sharding_stats()
        assert stats["routed"] == 0
        assert stats["fallback"] == 1

    def test_projection_renaming_the_shard_key_is_not_routed(self):
        # Select(k = v, Project(Scan, (a AS k,))) filters the *renamed*
        # column; hashing v against the real shard key would drop rows.
        sharded = build_database(shards=4)
        unsharded = build_database()
        plan = algebra.Select(
            algebra.Project(
                algebra.Scan("orders"),
                (algebra.OutputColumn(ColumnRef("o_total"), "o_c_id"),),
            ),
            BinaryOp("=", ColumnRef("o_c_id"), Literal(26)),
        )
        assert sorted(
            row["o_c_id"] for row in sharded.execute_plan(plan).rows
        ) == sorted(row["o_c_id"] for row in unsharded.execute_plan(plan).rows)
        assert sharded.sharding_stats()["routed"] == 0

    def test_join_side_renaming_the_shard_key_is_not_co_partitioned(self):
        # Project(Scan(customers), (c_tier AS c_id,)) as a join side must
        # not be classified co-partitioned: the condition compares the
        # renamed column, not the shard key.
        sharded = build_database(shards=4)
        unsharded = build_database()
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Project(
                algebra.Scan("customers"),
                (algebra.OutputColumn(ColumnRef("c_tier"), "c_id"),),
            ),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id")),
        )
        key = lambda r: sorted(r.items())  # noqa: E731
        # (explicit sql label: the SQL generator cannot render a Project
        # as a join operand, which is irrelevant to this test)
        assert sorted(
            sharded.execute_plan(plan, sql="renamed-join").rows, key=key
        ) == sorted(
            unsharded.execute_plan(plan, sql="renamed-join").rows, key=key
        )
        assert sharded.sharding_stats()["local"] == 0

    def test_routing_preserves_predicate_error_semantics(self):
        # `10 / o_total > 0 and o_c_id = 3` evaluates the division on EVERY
        # row before the shard-key conjunct, so a zero in another shard
        # must still raise — the plan must not pin to one shard.  With the
        # shard-key conjunct first, unsharded execution short-circuits the
        # other shards' rows identically, so routing is sound.
        for mode in ("vectorized", "compiled", "interpreted"):
            sharded = build_database(shards=4, mode=mode)
            sharded.table("orders").update_rows(
                lambda row: row["o_id"] == 0, {"o_total": 0}
            )
            unsharded = build_database(mode=mode)
            unsharded.table("orders").update_rows(
                lambda row: row["o_id"] == 0, {"o_total": 0}
            )
            risky = "select * from orders where 10 / o_total > 0 and o_c_id = 3"
            with pytest.raises(ZeroDivisionError):
                unsharded.execute_sql(risky)
            with pytest.raises(ZeroDivisionError):
                sharded.execute_sql(risky)
            assert sharded.sharding_stats()["routed"] == 0
            # Shard-key conjunct first: short-circuit prunes the zero row
            # on both sides, and the plan routes.
            safe = "select * from orders where o_c_id = 3 and 10 / o_total > 0"
            assert (
                sharded.execute_sql(safe).rows == unsharded.execute_sql(safe).rows
            )
            if mode == "vectorized":
                assert sharded.sharding_stats()["routed"] == 1

    def test_pass_through_projection_still_routes(self):
        # A projection above the filter that merely passes the shard key
        # through (select o_c_id, ... where o_c_id = v) keeps routing.
        sharded = build_database(shards=4)
        rows = sharded.execute_sql(
            "select o_c_id, o_total from orders where o_c_id = 3"
        ).rows
        assert rows
        assert all(row["o_c_id"] == 3 for row in rows)
        assert sharded.sharding_stats()["routed"] == 1

    def test_sharding_counters_survive_sharding_another_table(self):
        # shard_table on a second table must reuse (and invalidate) the
        # router, not replace it — stats and folded per-shard executor
        # counters carry over.
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)
        database.execute_sql("select o_id from orders where o_c_id = 3")
        database.execute_sql("select * from orders where o_total > 50")
        before = database.sharding_stats()
        assert before["routed"] == 1 and before["scatter"] == 1
        tiers_before = database.execution_stats()["tiers"]["vectorized"]
        assert tiers_before == 5  # 1 routed + 4 scatter shard executions
        database.shard_table("customers", "c_id", 4)
        after = database.sharding_stats()
        assert after["routed"] == 1 and after["scatter"] == 1
        assert database.execution_stats()["tiers"]["vectorized"] == 5

    def test_routing_counters_start_at_zero_without_sharding(self):
        database = build_database()
        database.execute_sql("select * from orders where o_c_id = 3")
        assert database.sharding_stats() == {
            "routed": 0,
            "local": 0,
            "scatter": 0,
            "fallback": 0,
            "threaded_aggregates": 0,
            "tables": {},
            "parallel": {"mode": "serial", "workers": 1, "scatters": 0},
        }


class TestShardAwarePointLookup:
    def test_prepared_lookup_on_shard_key_uses_one_shard_index(self):
        database = build_database(shards=4)
        statement = database.prepare("select * from orders where o_c_id = ?")
        assert statement.point_lookup is not None
        before = database.sharding_stats()["routed"]
        rows = statement.execute((3,)).rows
        assert sorted(row["o_id"] for row in rows) == [
            i for i in range(120) if i % 10 == 3
        ]
        assert database.sharding_stats()["routed"] == before + 1
        # Only the value's home shard built its positional index.
        table = database.table("orders")
        built = [
            bool(shard._positions.get("o_c_id")) for shard in table.shards
        ]
        assert built.count(True) == 1

    def test_prepared_lookup_on_other_column_uses_aggregate_index(self):
        database = build_database(shards=4)
        statement = database.prepare("select * from orders where o_total = ?")
        rows = statement.execute((26,)).rows
        unsharded = build_database()
        expected = unsharded.prepare(
            "select * from orders where o_total = ?"
        ).execute((26,)).rows
        assert rows == expected
        assert database.sharding_stats()["fallback"] >= 1

    def test_point_lookup_matches_generic_path_across_modes(self):
        for mode in ("vectorized", "compiled", "interpreted"):
            database = build_database(shards=4, mode=mode)
            rows = database.execute_sql(
                "select * from orders where o_c_id = 7"
            ).rows
            reference = build_database(mode=mode).execute_sql(
                "select * from orders where o_c_id = 7"
            ).rows
            assert sorted(r["o_id"] for r in rows) == sorted(
                r["o_id"] for r in reference
            )


class TestStatisticsAggregation:
    def test_refresh_merges_per_shard_statistics(self):
        database = build_database(shards=4)
        stats = database.statistics.table_stats("orders")
        assert stats.row_count == 120
        assert stats.distinct["o_c_id"] == 10
        per_shard = database.statistics.shard_stats("orders")
        assert per_shard is not None
        assert len(per_shard) == 4
        assert sum(s.row_count for s in per_shard) == 120
        # The shard key's distinct counts are disjoint across shards.
        assert sum(s.distinct["o_c_id"] for s in per_shard) == 10

    def test_unsharded_tables_have_no_shard_stats(self):
        database = build_database()
        assert database.statistics.shard_stats("orders") is None

    def test_estimates_match_unsharded(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        for sql in (
            "select * from orders where o_c_id = 3",
            "select o_c_id, count(*) from orders group by o_c_id",
        ):
            a = sharded.estimate_sql(sql)
            b = unsharded.estimate_sql(sql)
            assert a.cardinality == pytest.approx(b.cardinality)
            assert a.row_width == b.row_width


class TestFallbackSubtreesUnderSharding:
    """Theta joins and unknown functions over a ShardedTable stay exact."""

    def test_theta_join_of_two_sharded_tables_matches_interpreted(self):
        sharded = build_database(shards=4)
        reference = build_database(mode="interpreted")
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        assert (
            sharded.execute_plan(plan).rows == reference.execute_plan(plan).rows
        )
        assert sharded.sharding_stats()["fallback"] == 1

    def test_theta_join_sharded_with_broadcast_side(self):
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)
        reference = build_database(mode="interpreted")
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        # No fused loop for a theta join: the aggregate view, in order.
        assert database.execute_plan(plan).rows == reference.execute_plan(plan).rows
        assert database.sharding_stats()["fallback"] == 1

    def test_unknown_function_over_sharded_table_raises_identically(self):
        sharded = build_database(shards=4)
        reference = build_database(mode="interpreted")
        plan = algebra.Project(
            algebra.Scan("orders"),
            (
                algebra.OutputColumn(
                    FunctionCall("no_such_function", (ColumnRef("o_id"),)),
                    "out",
                ),
            ),
        )
        with pytest.raises(Exception) as sharded_error:
            sharded.execute_plan(plan)
        with pytest.raises(Exception) as reference_error:
            reference.execute_plan(plan)
        assert str(sharded_error.value) == str(reference_error.value)

    def test_known_function_scatter_matches_unsharded(self):
        sharded = build_database(shards=4)
        unsharded = build_database(mode="interpreted")
        plan = algebra.Sort(
            algebra.Project(
                algebra.Scan("orders"),
                (
                    algebra.OutputColumn(ColumnRef("o_id"), "o_id"),
                    algebra.OutputColumn(
                        FunctionCall("abs", (ColumnRef("o_total"),)), "t"
                    ),
                ),
            ),
            (algebra.SortKey(ColumnRef("o_id")),),
        )
        assert (
            sharded.execute_plan(plan).rows == unsharded.execute_plan(plan).rows
        )

    def test_fallback_reasons_fold_into_retired_totals_across_ddl(self):
        # A co-partitioned filtered join whose row is too narrow for the
        # fused probe loop: shard 0 records the ``narrow_row`` decline on
        # its own executor, and the statement falls back to the aggregate
        # view, whose executor records it once more.  DDL (sharding
        # another table) retires the shard executors, so their reasons
        # must fold into the retired totals and post-DDL executions must
        # merge on top.
        database = build_database(shards=4)
        router = database._router
        plan = algebra.Select(
            algebra.Join(
                algebra.Scan("orders", "o"),
                algebra.Scan("customers", "c"),
                BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
            ),
            BinaryOp(">", ColumnRef("o_total", "o"), Literal(20)),
        )
        database.execute_plan(plan)
        database.execute_plan(plan)
        assert router.execution_counters()[1]["join_declines"] == {"narrow_row": 2}
        live = database.execution_stats()["vectorized"]
        assert live["join_declines"] == {"narrow_row": 4}
        assert database.sharding_stats()["fallback"] == 2
        # DDL: sharding another table reuses (and invalidates) the
        # router, folding live per-shard counters into retired totals.
        database.create_table(
            "regions",
            [
                Column("r_id", ColumnType.INT),
                Column("r_pop", ColumnType.INT),
            ],
            primary_key="r_id",
        )
        database.shard_table("regions", "r_id", 2)
        assert not router._executors
        assert router.execution_counters()[1]["join_declines"] == {"narrow_row": 2}
        assert database.execution_stats()["vectorized"]["join_declines"] == {
            "narrow_row": 4
        }
        # Fresh per-shard executors after the DDL merge on top of the
        # retired totals rather than resetting them.
        database.execute_plan(plan)
        assert router.execution_counters()[1]["join_declines"] == {"narrow_row": 3}
        assert database.execution_stats()["vectorized"]["join_declines"] == {
            "narrow_row": 6
        }


class TestEngineFacade:
    def test_builder_shards_with_explicit_keys(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(
                4,
                key_by={
                    "orders": "o_customer_sk",
                    "customer": "c_customer_sk",
                },
            )
            .build()
        )
        sharding = engine.metrics().views["sharding"]()
        assert sharding["tables"] == {"orders": 4, "customer": 4}

    def test_builder_shards_default_primary_keys(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=100, num_customers=10)
            .shards(3)
            .build()
        )
        tables = engine.metrics().views["sharding"]()["tables"]
        assert tables.get("orders") == 3
        assert tables.get("customer") == 3

    def test_builder_rejects_bad_shard_count(self):
        from repro.api.engine import EngineConfigError

        with pytest.raises(EngineConfigError):
            Engine.builder().shards(0)

    def test_stats_report_routing_counts_through_cursor(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4, key_by={"orders": "o_customer_sk"})
            .build()
        )
        with engine.cursor() as cursor:
            cursor.execute(
                "select * from orders where o_customer_sk = ?", (5,)
            )
            cursor.fetchall()
            cursor.execute("select count(*) from orders")
            cursor.fetchall()
        sharding = engine.metrics().views["sharding"]()
        assert sharding["routed"] >= 1
        assert sharding["local"] >= 1

    def test_orm_session_over_sharded_database(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .build()
        )
        session = engine.session()
        order = session.get("Order", 5)
        assert order is not None
        # Lazy many-to-one load crosses into the sharded customer table.
        assert order.customer is not None
        assert order.customer.c_customer_sk == order.o_customer_sk
        assert len(session.load_all("Customer")) == 20


class TestShardedExecutionModes:
    """Routing participates identically in all three executor tiers."""

    @pytest.mark.parametrize("mode", ["vectorized", "compiled", "interpreted"])
    def test_tier_rows_identical_under_sharding(self, mode):
        sharded = build_database(shards=4, mode=mode)
        reference = build_database(mode="interpreted")
        for sql in (
            "select * from orders where o_c_id = 3",
            "select o_id, o_total from orders where o_total > 50 order by o_id, o_total",
            "select o_c_id, count(*), sum(o_total), avg(o_total) from orders "
            "group by o_c_id order by o_c_id",
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id order by o.o_id",
        ):
            got = sharded.execute_sql(sql).rows
            want = reference.execute_sql(sql).rows
            if mode != "vectorized":
                # The row tiers route or take the aggregate view: exact.
                assert got == want, (mode, sql)
            key = lambda r: sorted(  # noqa: E731
                (k, repr(v)) for k, v in r.items()
            )
            assert sorted(got, key=key) == sorted(want, key=key), (mode, sql)

    @pytest.mark.parametrize("mode", ["vectorized", "compiled", "interpreted"])
    def test_sharded_matches_unsharded_after_interleaved_writes(self, mode):
        sharded = build_database(shards=4, mode=mode)
        unsharded = build_database(mode=mode)
        queries = (
            "select * from orders where o_c_id = 3",
            "select * from orders where o_total > 50",
            "select o_c_id, count(*), sum(o_total) from orders group by o_c_id",
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id where o.o_total > 20",
        )
        writes = (
            ("update orders set o_total = ? where o_id = ?", (500, 17)),
            ("update orders set o_total = o_total + 1 where o_c_id = ?", (3,)),
            ("update orders set o_total = ? where o_id = ?", (None, 18)),
            ("update orders set o_c_id = ? where o_id = ?", (3, 40)),  # re-home
            ("update orders set o_id = ? where o_id = ?", (1041, 41)),  # PK move
            ("update orders set o_total = ? where o_id = ?", (7, 1041)),
            ("update customers set c_tier = ? where c_id = ?", (9, 3)),
        )
        key = lambda r: sorted((k, repr(v)) for k, v in r.items())  # noqa: E731
        for round_, (sql, params) in enumerate(writes):
            # Reads first: every partition's views are built when patched.
            for database in (sharded, unsharded):
                for query in queries:
                    database.execute_sql(query)
            assert sharded.execute_update_sql(
                sql, params
            ) == unsharded.execute_update_sql(sql, params)
            row = {"o_id": 200 + round_, "o_c_id": round_, "o_total": round_}
            sharded.insert("orders", [row])
            unsharded.insert("orders", [row])
            assert sharded.table("orders").rows == unsharded.table("orders").rows
            for query in queries:
                got = sharded.execute_sql(query).rows
                want = unsharded.execute_sql(query).rows
                assert sorted(got, key=key) == sorted(want, key=key), (sql, query)
            for shard in sharded.table("orders").shards:
                store = shard.columns()
                for name, data in store.items():
                    assert data == [r[name] for r in shard.rows]
        storage = sharded.execution_stats()["storage"]
        assert storage == {
            **unsharded.execution_stats()["storage"],
            "patched_updates": storage["patched_updates"],
            "column_reencodes": storage["column_reencodes"],
        }
        if mode == "vectorized":
            # Aggregate view and owning partitions were both patched.
            assert storage["patched_updates"] > 0

    def test_execution_stats_fold_in_shard_executor_counters(self):
        database = build_database(shards=4, mode="vectorized")
        # Routed through the executor (a projection defeats the prepared
        # point-lookup fast path, which never enters the executor).
        database.execute_sql("select o_id from orders where o_c_id = 3")
        database.execute_sql("select * from orders where o_total > 50")  # scatter
        database.execute_sql(
            "select o_c_id, count(*) from orders group by o_c_id"
        )  # threaded local aggregate
        stats = database.execution_stats()
        # routed = 1 shard execution; scatter + local aggregate = 4 shards each.
        assert stats["tiers"]["vectorized"] == 9
        assert stats["vectorized"]["executions"] == 9
        # Counters survive DDL-driven shard-executor invalidation.
        database.create_table(
            "extra", [Column("x", ColumnType.INT)], primary_key="x"
        )
        assert database.execution_stats()["tiers"]["vectorized"] == 9

    def test_vectorized_sum_raises_like_row_tiers_on_non_numeric(self):
        # sum() over strings must raise on every tier (the row tiers seed
        # with 0); the vectorized kernel must not silently concatenate.
        for shards in (0, 3):
            database = Database()
            database.create_table(
                "s",
                [
                    Column("g", ColumnType.INT),
                    Column("name", ColumnType.STRING, width=8),
                ],
            )
            if shards:
                database.shard_table("s", "g", shards)
            database.insert(
                "s", [{"g": i % 2, "name": c} for i, c in enumerate("abcd")]
            )
            database.analyze()
            with pytest.raises(TypeError):
                database.execute_sql("select sum(name) from s")
            with pytest.raises(TypeError):
                database.execute_sql("select g, sum(name) from s group by g")

    def test_vectorized_scatter_runs_every_shards_fused_loop(self):
        database = build_database(shards=4, mode="vectorized")
        plan = algebra.Select(
            algebra.Scan("orders"),
            BinaryOp(">", ColumnRef("o_total"), Literal(50)),
        )
        rows = database._executor.execute(plan)
        assert rows
        router = database._router
        # Every shard executor served its rows from its fused loop.
        shard_executors = [
            executor
            for (names, _), executor in router._executors.items()
            if "orders" in names
        ]
        assert shard_executors
        assert all(
            executor._vectorized.codegen_executions == 1 for executor in shard_executors
        )


# -- threaded aggregate state, and the aggregate view behind every decline ------

MODES = ("vectorized", "compiled", "interpreted")
LABELS = ("red", "green", "blue", "cyan")
AGG_TABLE = frozenset({"t"})


def build_agg_database(rows, shards: int = 0, mode: str = "vectorized"):
    database = Database(execution_mode=mode)
    database.create_table(
        "t",
        [
            Column("id", ColumnType.INT),
            Column("g", ColumnType.INT),
            Column("s", ColumnType.STRING, width=8),
            Column("v", ColumnType.INT),
            Column("w", ColumnType.INT),
            Column("f", ColumnType.FLOAT),
        ],
        primary_key="id",
    )
    database.insert("t", (dict(row) for row in rows))
    if shards:
        database.shard_table("t", "id", shards)
    database.analyze()
    return database


def shard_executors(database: Database) -> list:
    router = database._router
    count = router._shard_count(AGG_TABLE)
    return [router._shard_executor(AGG_TABLE, i) for i in range(count)]


def disable_shard_codegen(database: Database) -> None:
    """No shard executor runs a fused loop: every local aggregate declines."""
    for executor in shard_executors(database):
        executor._vectorized.codegen_enabled = False


def close_to(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return got == pytest.approx(want, rel=1e-9)
    return got == want and type(got) is type(want)


def rows_close(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        a.keys() == b.keys() and all(close_to(a[k], b[k]) for k in a)
        for a, b in zip(got, want)
    )


def by_group(rows: list, keys: list) -> list:
    """Rows ordered by their (unique, possibly NULL) group-key values."""
    return sorted(
        rows,
        key=lambda row: [
            (row[key] is None, "" if row[key] is None else str(row[key]))
            for key in keys
        ],
    )


AGGREGATES = [
    ("count", None),
    ("count", "w"),
    ("count", "v"),
    ("sum", "v"),
    ("sum", "w"),
    ("sum", "f"),
    ("min", "w"),
    ("max", "v"),
    ("max", "f"),
    ("min", "s"),
    ("avg", "v"),
    ("avg", "w"),
    ("avg", "f"),
]

agg_rows = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.integers(0, 47),
            "g": st.one_of(st.none(), st.integers(0, 2)),
            "s": st.one_of(st.none(), st.sampled_from(LABELS)),
            "v": st.integers(-5, 20),
            "w": st.one_of(st.none(), st.integers(-50, 50)),
            # quarters: float sums are exact whatever the addition order
            "f": st.one_of(
                st.none(), st.integers(-40, 40).map(lambda q: q / 4)
            ),
        }
    ),
    max_size=30,
)


@st.composite
def aggregate_case(draw):
    """(rows, plan, slots, parameter values, output group-key names)."""
    rows = draw(agg_rows)
    # spread 8 homes every row in shard 0 of 8 (seven empty shards),
    # spread 4 in shards 0 and 4; spread 1 uses them all.
    spread = draw(st.sampled_from([1, 1, 4, 8]))
    rows = [dict(row, id=row["id"] * spread) for row in rows]
    if spread == 1 and draw(st.booleans()):
        # Shard i's first string is LABELS[i % 4]: per-shard dictionaries
        # assign the same code to different strings.
        rows = [
            {"id": i, "g": i % 3, "s": LABELS[i % 4], "v": i, "w": None, "f": 0.5}
            for i in range(8)
        ] + rows
    group = draw(st.sampled_from([(), ("g",), ("s",), ("g", "s"), ("s", "g")]))
    chosen = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=4))
    specs = [
        algebra.AggregateSpec(
            function, None if column is None else ColumnRef(column), f"a{i}"
        )
        for i, (function, column) in enumerate(chosen)
    ]
    specs.append(algebra.AggregateSpec("count", None, "n"))
    slots = [None]
    plan = algebra.Aggregate(
        algebra.Select(
            algebra.Scan("t"),
            BinaryOp(">=", ColumnRef("v"), ParameterSlot(0, slots)),
        ),
        tuple(ColumnRef(column) for column in group),
        tuple(specs),
    )
    names = {name: name for name in (*group, *(spec.name for spec in specs))}
    if draw(st.booleans()):  # the parser's Project: reorder and rename
        names = {name: f"o_{name}" for name in reversed(names)}
        plan = algebra.Project(
            plan,
            tuple(
                algebra.OutputColumn(ColumnRef(name), renamed)
                for name, renamed in names.items()
            ),
        )
    if draw(st.booleans()):  # HAVING
        plan = algebra.Select(
            plan, BinaryOp(">=", ColumnRef(names["n"]), Literal(2))
        )
    if draw(st.booleans()):
        plan = algebra.Sort(
            plan,
            (algebra.SortKey(ColumnRef(names["a0"]), draw(st.booleans())),),
        )
    values = draw(st.lists(st.integers(-6, 12), min_size=2, max_size=2))
    return rows, plan, slots, values, [names[column] for column in group]


class TestThreadedAggregateProperty:
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=60, deadline=None)
    @given(case=aggregate_case())
    def test_threaded_or_aggregate_view_equals_unsharded(self, mode, case):
        rows, plan, slots, values, group_keys = case
        unsharded = build_agg_database(rows, mode=mode)
        for shards in (1, 8):
            sharded = build_agg_database(rows, shards, mode)
            for execution, value in enumerate(values, start=1):
                slots[0] = value  # same prepared template, new parameter
                fallbacks = sharded.sharding_stats()["fallback"]
                got = sharded._executor.execute(plan)
                reference = unsharded._executor.execute(plan)
                stats = sharded.sharding_stats()
                assert stats["local"] + stats["fallback"] == execution
                assert stats["threaded_aggregates"] == stats["local"]
                if mode != "vectorized":
                    assert stats["local"] == 0
                if stats["fallback"] > fallbacks:
                    # The aggregate view: unsharded order, floats bit for bit.
                    assert got == reference
                else:
                    assert rows_close(
                        by_group(got, group_keys), by_group(reference, group_keys)
                    ), (got, reference)


def spread_rows(count: int = 64) -> list:
    """Every group (on ``g`` or ``s``) has rows in every one of 8 shards."""
    return [
        {
            "id": i,
            "g": (i // 8) % 3,
            "s": LABELS[(i + i // 8) % 4],
            "v": i % 11,
            "w": (i * 7) % 13,
            "f": i / 4,
        }
        for i in range(count)
    ]


GROUPED_SQL = (
    "select s, count(*), sum(w), avg(f), min(v), max(w) from t "
    "where v >= 2 group by s"
)


class TestThreadedAggregate:
    def test_string_group_keys_thread_through_every_shard(self):
        database = build_agg_database(spread_rows(), shards=8)
        unsharded = build_agg_database(spread_rows())
        got = database.execute_sql(GROUPED_SQL).rows
        assert database.sharding_stats()["threaded_aggregates"] == 1
        assert by_group(got, ["s"]) == by_group(
            unsharded.execute_sql(GROUPED_SQL).rows, ["s"]
        )

    def test_counters_and_explain_say_which_route_ran(self):
        engine = Engine.builder().database(
            build_agg_database(spread_rows(), shards=8)
        ).build()
        database = engine.database
        database.execute_sql(GROUPED_SQL)
        sharding = engine.metrics().views["sharding"]()
        assert (sharding["local"], sharding["threaded_aggregates"]) == (1, 1)
        for executor in shard_executors(database):
            assert executor._vectorized.executions == 1
            assert executor._vectorized.codegen_executions == 1
            assert executor.tier_counts["vectorized"] == 1
        views = engine.metrics().as_dict()["views"]
        assert views["sharding"]["threaded_aggregates"] == 1
        report = database.explain_analyze(GROUPED_SQL).render()
        assert "routing: local-aggregate over shard(s)" in report
        assert "executed: vectorized via codegen" in report
        assert "gather:" not in report
        disable_shard_codegen(database)
        before = database.sharding_stats()
        database.execute_sql(GROUPED_SQL)
        sharding = engine.metrics().views["sharding"]()
        assert sharding["local"] == before["local"]
        assert sharding["fallback"] == before["fallback"] + 1
        report = database.explain_analyze(GROUPED_SQL).render()
        assert "routing: fallback" in report
        assert "executed: vectorized via codegen" in report
        # A pool leaves aggregates to the serial threaded state.
        pooled = build_agg_database(spread_rows(), shards=8)
        pooled.set_parallel(workers=2, mode="thread")
        try:
            pooled.execute_sql(GROUPED_SQL)
            assert pooled.sharding_stats()["threaded_aggregates"] == 1
            assert pooled.sharding_stats()["parallel"]["scatters"] == 0
        finally:
            pooled.close_parallel()

    def test_spine_above_the_fused_subtree_runs_as_post(self):
        sql = (
            "select g, count(*) as n, avg(w) as a from t group by g "
            "order by n desc, g"
        )
        database = build_agg_database(spread_rows(60), shards=8)
        unsharded = build_agg_database(spread_rows(60))
        assert database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        assert database.sharding_stats()["threaded_aggregates"] == 1

    def test_layouts_that_disagree_on_the_state_fall_back_to_the_aggregate_view(
        self,
    ):
        # Only shard 0 holds a NULL ``w``: its pipeline guards avg's count,
        # the other shards' pipelines do not — one state cannot serve both.
        rows = spread_rows()
        rows[0]["w"] = None
        database = build_agg_database(rows, shards=8)
        unsharded = build_agg_database(rows)
        sql = "select g, avg(w) from t group by g"
        assert database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        stats = database.sharding_stats()
        assert (stats["local"], stats["fallback"]) == (0, 1)
        # count(w) alone keeps the same value-list state on every layout.
        sql = "select g, count(w) from t group by g"
        assert by_group(database.execute_sql(sql).rows, ["g"]) == by_group(
            unsharded.execute_sql(sql).rows, ["g"]
        )
        assert database.sharding_stats()["threaded_aggregates"] == 1
        errors = database.execution_stats()["vectorized"]["codegen_errors"]
        assert errors == 0  # a decline, not an error


#: A scatter over ``t``: every shard runs the fused select loop.
SCATTER_SQL = "select id, s, w, f from t where v >= 2"
#: (statement, the counter a shard-served run bumps).
DECLINE_CASES = [(GROUPED_SQL, "local"), (SCATTER_SQL, "scatter")]


class TestThreadedAggregateDeclines:
    """One shard's decline or error sends a local aggregate or a scatter to
    the aggregate view: unsharded rows in unsharded order."""

    @pytest.mark.parametrize("sql, kind", DECLINE_CASES)
    def test_codegen_off_on_one_shard_takes_the_aggregate_view(self, sql, kind):
        database = build_agg_database(spread_rows(), shards=8)
        unsharded = build_agg_database(spread_rows())
        executors = shard_executors(database)
        executors[5]._vectorized.codegen_enabled = False
        assert database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        stats = database.sharding_stats()
        assert (stats[kind], stats["threaded_aggregates"], stats["fallback"]) == (
            0,
            0,
            1,
        )
        for executor in executors:
            # The abandoned shards count nothing.
            assert executor._vectorized.executions == 0
            assert executor.tier_counts["vectorized"] == 0
        vectorized = database.execution_stats()["vectorized"]
        assert vectorized["codegen_errors"] == 0
        assert vectorized["fallbacks"] == 0
        # The aggregate view ran once, on its own fused loop.
        assert vectorized["codegen_executions"] == 1

    @pytest.mark.parametrize("sql, kind", DECLINE_CASES)
    def test_pipeline_raising_on_shard_3_takes_the_aggregate_view(self, sql, kind):
        database = build_agg_database(spread_rows(), shards=8)
        unsharded = build_agg_database(spread_rows())
        database.execute_sql(sql)  # compiles the shard pipelines
        executors = shard_executors(database)
        pipelines = executors[3]._vectorized._pipelines
        (key,) = pipelines

        def broken(*args):
            raise RuntimeError("shard 3 is broken")

        if kind == "local":
            pipelines[key].accumulate = broken
        else:
            pipelines[key] = broken
        assert database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        stats = database.sharding_stats()
        assert (stats[kind], stats["fallback"]) == (1, 1)
        assert [
            executor._vectorized.codegen_errors for executor in executors
        ] == [0, 0, 0, 1, 0, 0, 0, 0]
        for executor in executors:
            assert executor._vectorized.executions == 1
            assert executor._vectorized.codegen_executions == 1
            assert executor._vectorized.fallbacks == 0

    def test_sharding_stats_keep_the_keys_the_e2e_harness_reads(self):
        database = build_agg_database(spread_rows(), shards=8)
        assert set(database.sharding_stats()) == {
            "routed",
            "local",
            "scatter",
            "fallback",
            "threaded_aggregates",
            "tables",
            "parallel",
        }
        # Configuring a process pool starts no worker until a scatter.
        database.set_parallel(workers=2, mode="process")
        try:
            pickled = database.sharding_stats()["parallel"]["pickle_bytes"]
            assert pickled == {"sent": 0, "received": 0}
        finally:
            database.close_parallel()
