"""One name per output column: the layout function and every reader of it.

:func:`repro.db.algebra.output_layout` states which keys a plan's output
rows carry.  These tests pin the rule itself, hold every execution path to
it (all three tiers, sharded and unsharded, the point-lookup fast path and
the fused select / top-k / join / aggregate loops), and use SQLite as the
oracle for the names and for which bare references are ambiguous.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter

import pytest

from repro.db import algebra
from repro.db.database import Database
from repro.db.executor import Executor
from repro.db.expressions import AmbiguousColumnError, BinaryOp, ColumnRef
from repro.db.sqlparser import UnsupportedSqlError, parse_sql
from repro.workloads import tpcds

MODES = ("vectorized", "compiled", "interpreted")


def clone(source: Database, mode: str, shards: int = 0) -> Database:
    """A copy of ``source``'s tables in a database of another tier."""
    database = Database(execution_mode=mode)
    for name, table in source.tables.items():
        schema = table.schema
        database.create_table(name, schema.columns, primary_key=schema.primary_key)
        database.insert(name, [dict(row) for row in table.rows])
        if shards:
            database.shard_table(name, schema.column_names[0], shards)
    database.analyze()
    return database


def _close(value, other) -> bool:
    if isinstance(value, float) and isinstance(other, float):
        return math.isclose(value, other)
    return value == other


def _by_values(rows: list) -> list:
    """Rows in one canonical order (floats rounded for the sort)."""
    return sorted(
        rows,
        key=lambda row: [
            repr(round(value, 6) if isinstance(value, float) else value)
            for value in row.values()
        ],
    )


def layout_keys(database: Database, sql: str) -> list[str]:
    return [
        entry.key
        for entry in algebra.output_layout(
            parse_sql(sql), lambda name: database.schema.table(name).column_names
        )
    ]


class TestOutputLayout:
    def columns(self, name):
        return {
            "t": ["id", "v", "w"],
            "u": ["id", "v", "x"],
        }[name]

    def keys(self, plan):
        return [entry.key for entry in algebra.output_layout(plan, self.columns)]

    def test_scan_select_sort_limit(self):
        plan = algebra.Limit(
            algebra.Select(
                algebra.Scan("t", "a"),
                BinaryOp("=", ColumnRef("v"), ColumnRef("w")),
            ),
            3,
        )
        assert algebra.output_layout(plan, self.columns) == (
            algebra.OutputKey("id", "a", "id"),
            algebra.OutputKey("v", "a", "v"),
            algebra.OutputKey("w", "a", "w"),
        )

    def test_join_is_right_then_left_with_shared_names_qualified(self):
        plan = algebra.Join(algebra.Scan("t", "a"), algebra.Scan("u", "b"))
        assert self.keys(plan) == ["b.id", "b.v", "x", "a.id", "a.v", "w"]
        # A third input sharing a name already qualified on the left.
        three = algebra.Join(plan, algebra.Scan("t", "c"))
        assert self.keys(three) == [
            "c.id", "c.v", "c.w", "b.id", "b.v", "x", "a.id", "a.v", "a.w",
        ]

    def test_self_join_without_aliases_fails_loudly(self):
        with pytest.raises(algebra.AlgebraError, match="duplicate"):
            self.keys(algebra.Join(algebra.Scan("t"), algebra.Scan("t")))

    def test_shared_computed_name_fails_loudly(self):
        computed = algebra.Project(
            algebra.Scan("t"),
            (algebra.OutputColumn(BinaryOp("+", ColumnRef("v"), ColumnRef("w")), "v"),),
        )
        with pytest.raises(algebra.AlgebraError, match="no scan alias"):
            self.keys(algebra.Join(computed, algebra.Scan("u")))

    def test_projected_column_keeps_its_scan_alias(self):
        left = algebra.Project(
            algebra.Scan("t", "a"), (algebra.OutputColumn(ColumnRef("v", "a"), "v"),)
        )
        plan = algebra.Join(left, algebra.Scan("u", "b"))
        assert self.keys(plan) == ["id", "b.v", "x", "a.v"]

    def test_bare_shared_name_in_a_join_condition_is_ambiguous(self):
        plan = algebra.Join(
            algebra.Scan("t", "a"),
            algebra.Scan("u", "b"),
            BinaryOp("=", ColumnRef("id"), ColumnRef("x", "b")),
        )
        with pytest.raises(AmbiguousColumnError, match="ambiguous column 'id'"):
            self.keys(plan)

    def test_group_keys_and_duplicates(self):
        join = algebra.Join(algebra.Scan("t", "a"), algebra.Scan("u", "b"))
        count = algebra.AggregateSpec("count", None, "n")
        grouped = algebra.Aggregate(
            join, (ColumnRef("id", "a"), ColumnRef("id", "b"), ColumnRef("w")), (count,)
        )
        assert algebra.output_layout(grouped, self.columns) == (
            algebra.OutputKey("a.id", "a", "id"),
            algebra.OutputKey("b.id", "b", "id"),
            algebra.OutputKey("w", "a", "w"),
            algebra.OutputKey("n", None, "n"),
        )
        clash = algebra.Aggregate(
            algebra.Scan("t"), (ColumnRef("v"),), (algebra.AggregateSpec("count", None, "v"),)
        )
        with pytest.raises(algebra.AlgebraError, match="duplicate"):
            self.keys(clash)


class TestSelectListNames:
    SQL = (
        "select e.dept_id, d.dept_id from employee e "
        "join department d on e.dept_id = d.dept_id"
    )

    @pytest.mark.parametrize("mode", MODES)
    def test_items_differing_by_qualifier_keep_both_columns(
        self, simple_database, mode
    ):
        database = clone(simple_database, mode)
        rows = database.execute_sql(self.SQL).rows
        assert len(rows) == 5
        assert all(list(row) == ["e.dept_id", "d.dept_id"] for row in rows)
        assert all(row["e.dept_id"] == row["d.dept_id"] for row in rows)

    @pytest.mark.parametrize(
        "sql",
        [
            "select dept_id as x, budget as x from department",
            "select d.dept_id, d.dept_id from department d",
            "select count(*), count(*) from department",
            "select count(*) as dept_id from department group by dept_id",
        ],
    )
    def test_names_no_key_tells_apart_are_refused(self, simple_database, sql):
        with pytest.raises(UnsupportedSqlError) as raised:
            simple_database.prepare(sql)
        assert raised.value.construct == "duplicate output name"


#: Bare references to a name both joined inputs have: in the select list,
#: WHERE, GROUP BY and ON.
AMBIGUOUS_CORPUS = [
    "select dept_id from employee e join department d on e.dept_id = d.dept_id",
    "select * from employee e join department d on e.dept_id = d.dept_id "
    "where dept_id = 1",
    "select d.dept_name, count(*) as n from employee e "
    "join department d on e.dept_id = d.dept_id group by dept_id",
    "select * from employee e join department d on dept_id = d.dept_id",
]
#: The sqlite oracle's corpus over the department/employee fixture.
ORACLE_CORPUS = [
    "select * from employee",
    "select * from employee e join department d on e.dept_id = d.dept_id",
    "select * from employee a join employee b on a.dept_id = b.dept_id",
    "select dept_id, count(*) as n, max(salary) as top from employee "
    "group by dept_id",
    "select e.dept_id, d.dept_id from employee e "
    "join department d on e.dept_id = d.dept_id",
    "select e.name, d.dept_name from employee e "
    "join department d on e.dept_id = d.dept_id where d.budget > 30",
    *AMBIGUOUS_CORPUS,
]


def _sqlite(database: Database, rows: bool = True) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    for name, table in database.tables.items():
        columns = table.schema.column_names
        connection.execute(f"create table {name} ({', '.join(columns)})")
        connection.executemany(
            f"insert into {name} values ({', '.join('?' * len(columns))})",
            [tuple(row[column] for column in columns) for row in table.rows]
            if rows
            else [],
        )
    return connection


class TestSqliteOracle:
    @pytest.mark.parametrize("sql", ORACLE_CORPUS)
    def test_names_and_ambiguity_match_sqlite(self, simple_database, sql):
        connection = _sqlite(simple_database)
        try:
            cursor = connection.execute(sql)
        except sqlite3.OperationalError as error:
            assert "ambiguous column name" in str(error)
            for mode in MODES:
                database = clone(simple_database, mode)
                with pytest.raises(AmbiguousColumnError, match="ambiguous column"):
                    database.execute_sql(sql)
            return
        theirs = [entry[0] for entry in cursor.description]
        expected_rows = cursor.fetchall()
        repeated = {name for name, count in Counter(theirs).items() if count > 1}
        for mode in MODES:
            database = clone(simple_database, mode)
            statement = database.prepare(sql)
            rows = statement.execute().rows
            ours = statement.output_columns()
            assert all(list(row) == ours for row in rows), mode
            if not repeated:
                assert ours == theirs, mode
            else:
                # Each repeated name is alias-qualified, once per column.
                assert len(ours) == len(theirs)
                assert sorted(key for key in ours if "." not in key) == sorted(
                    name for name in theirs if name not in repeated
                )
                qualified = [key for key in ours if "." in key]
                assert Counter(key.split(".")[1] for key in qualified) == Counter(
                    name for name in theirs if name in repeated
                )
                assert len(set(qualified)) == len(qualified)
            assert Counter(
                tuple(sorted(map(repr, row.values()))) for row in rows
            ) == Counter(tuple(sorted(map(repr, row))) for row in expected_rows)

    @pytest.mark.parametrize("sql", AMBIGUOUS_CORPUS)
    def test_ambiguity_fails_at_prepare_on_empty_tables(self, simple_database, sql):
        # sqlite resolves names when it compiles the statement, so a bare
        # shared name fails with no row to read; so does every tier here.
        with pytest.raises(sqlite3.OperationalError, match="ambiguous column name"):
            _sqlite(simple_database, rows=False).execute(sql)
        for mode in MODES:
            database = clone(simple_database, mode)
            for table in database.tables.values():
                table.clear()
            with pytest.raises(AmbiguousColumnError, match="ambiguous column"):
                database.prepare(sql)
            vectorized = database.execution_stats()["vectorized"]
            assert vectorized["fallback_reasons"] == {}, mode


#: (database, SQL, parameters, the path the vectorized tier must take).
_ORDERS = "orders"
_STAFF = "staff"
LAYOUT_CORPUS = [
    (_ORDERS, "select * from orders where o_quantity >= ?", (40,), "codegen"),
    (
        _ORDERS,
        "select o_id, o.o_net_paid from orders o where o_quantity < ?",
        (50,),
        "codegen",
    ),
    (
        _ORDERS,
        "select * from orders where o_quantity >= ? "
        "order by o_net_paid desc, o_id limit 5",
        (10,),
        "codegen (top-k)",
    ),
    (
        _ORDERS,
        "select o_id, o_net_paid from orders where o_quantity >= ? "
        "order by o_net_paid desc, o_id limit 5",
        (10,),
        "codegen (top-k)",
    ),
    (
        _ORDERS,
        "select * from orders o join customer c "
        "on o.o_customer_sk = c.c_customer_sk where o.o_item_sk >= ?",
        (2_000,),
        "codegen (join)",
    ),
    (
        _ORDERS,
        "select o_status, count(*) as n, sum(o_net_paid) as total, "
        "avg(o_quantity) as q from orders where o_quantity > ? group by o_status",
        (5,),
        "codegen",
    ),
    (
        _ORDERS,
        "select * from orders o where o.o_quantity > ? group by o.o_status",
        (5,),
        "codegen",
    ),
    (
        _ORDERS,
        "select o.o_id, c.c_birth_year from orders o join customer c "
        "on o.o_customer_sk = c.c_customer_sk where o.o_quantity < ?",
        (30,),
        "kernel",
    ),
    (_ORDERS, "select * from orders where o_id = ?", (17,), "point-lookup"),
    (
        _STAFF,
        "select * from employee e join department d on e.dept_id = d.dept_id "
        "where e.salary > ?",
        (50,),
        "kernel",
    ),
    (
        _STAFF,
        "select * from employee a join employee b on a.dept_id = b.dept_id "
        "where a.age > ?",
        (0,),
        "kernel",
    ),
    (
        _STAFF,
        "select e.dept_id, d.dept_id, name from employee e "
        "join department d on e.dept_id = d.dept_id where budget > ?",
        (0,),
        "kernel",
    ),
    (
        _STAFF,
        "select * from employee e join department d on e.dept_id = d.dept_id "
        "where e.age > ? group by e.dept_id, d.dept_id",
        (0,),
        "kernel",
    ),
    (
        _STAFF,
        "select * from employee e join department d on e.dept_id = d.dept_id "
        "join employee m on m.emp_id = e.emp_id where m.age > ?",
        (0,),
        "kernel",
    ),
]


class TestOneLayoutEverywhere:
    """Every path emits exactly the layout function's keys, in order."""

    def configurations(self, source: Database):
        for shards in (0, 3):
            for mode in MODES:
                yield f"{mode}/{shards}", clone(source, mode, shards)
        kernels = clone(source, "vectorized")
        kernels._executor._vectorized.codegen_enabled = False
        yield "kernels/0", kernels

    def test_rows_carry_the_layout_keys_in_order(self, simple_database):
        sources = {
            _ORDERS: tpcds.build_orders_database(300, 30),
            _STAFF: simple_database,
        }
        paths = set()
        for source_name, source in sources.items():
            corpus = [entry for entry in LAYOUT_CORPUS if entry[0] == source_name]
            reference = {}
            for config, database in self.configurations(source):
                for _, sql, params, path in corpus:
                    statement = database.prepare(sql)
                    rows = statement.execute(params).rows
                    keys = layout_keys(database, sql)
                    assert rows, (config, sql)
                    assert statement.output_columns() == keys
                    for row in rows:
                        assert list(row) == keys, (config, sql)
                    # The vectorized tier's shards concatenate in shard
                    # order and a threaded sum adds in shard order:
                    # compare it as a multiset; every other configuration
                    # in order.  Floats approximately.
                    expected = reference.setdefault(sql, rows)
                    assert len(rows) == len(expected), (config, sql)
                    if config == "vectorized/3":
                        rows, expected = _by_values(rows), _by_values(expected)
                    for row, other in zip(rows, expected):
                        assert list(row) == list(other)
                        assert all(
                            _close(row[key], other[key]) for key in row
                        ), (config, sql)
                    if config == "vectorized/0":
                        assert statement.last_execution_path == path, sql
                        paths.add(path)
        assert paths == {
            "codegen",
            "codegen (top-k)",
            "codegen (join)",
            "kernel",
            "point-lookup",
        }

    def test_no_tier_hands_out_a_stored_row(self, simple_database):
        for mode in MODES:
            database = clone(simple_database, mode)
            stored = {id(row) for row in database.table("employee").rows}
            for sql in (
                "select * from employee",
                "select * from employee where salary > 50",
                "select * from employee where emp_id = 2",
                "select * from employee order by salary desc limit 2",
            ):
                rows = Executor(database.tables, mode=mode).execute(
                    parse_sql(sql)
                ) + database.execute_sql(sql).rows
                assert rows and not stored & {id(row) for row in rows}, (mode, sql)


class TestShardedFloatSums:
    """A float ``sum`` over 3 shards: bit for bit on the row tiers, which
    run it on the aggregate view; within ``isclose`` on the vectorized
    tier, whose threaded state adds the shards in shard order."""

    SQL = (
        "select o_status, count(*) as n, sum(o_net_paid) as total, "
        "avg(o_quantity) as q from orders where o_quantity > ? group by o_status"
    )

    def test_sum_over_floats_in_3_shards(self):
        source = tpcds.build_orders_database(300, 30)
        for mode in MODES:
            unsharded = clone(source, mode).execute_sql(self.SQL, (5,)).rows
            database = clone(source, mode, shards=3)
            rows = database.execute_sql(self.SQL, (5,)).rows
            stats = database.sharding_stats()
            if mode != "vectorized":
                assert rows == unsharded, mode
                assert (stats["local"], stats["fallback"]) == (0, 1)
                continue
            assert stats["threaded_aggregates"] == 1
            by_status = {row["o_status"]: row for row in unsharded}
            assert len(rows) == len(by_status)
            for row in rows:
                other = by_status[row["o_status"]]
                assert list(row) == list(other)
                assert all(_close(row[key], other[key]) for key in row), row
