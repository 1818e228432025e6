"""The PEP 249-shaped cursor and the connection's prepared execution path."""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.db.schema import Column, ColumnType
from repro.net.connection import CursorError, SimulatedConnection
from repro.net.network import FAST_LOCAL


def make_connection() -> SimulatedConnection:
    database = Database()
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
            {"item_id": i, "label": f"item{i}", "grp": i % 3}
            for i in range(12)
        ],
    )
    database.analyze()
    return SimulatedConnection(database, FAST_LOCAL)


class TestCursorSelect:
    def test_execute_returns_cursor_and_fetchall(self):
        cursor = make_connection().cursor()
        rows = cursor.execute("select * from items where grp = ?", (1,)).fetchall()
        assert [r["item_id"] for r in rows] == [1, 4, 7, 10]
        assert cursor.rowcount == 4

    def test_fetchone_walks_the_result_set(self):
        cursor = make_connection().cursor()
        cursor.execute("select * from items where grp = 0")
        seen = []
        while (row := cursor.fetchone()) is not None:
            seen.append(row["item_id"])
        assert seen == [0, 3, 6, 9]
        assert cursor.fetchone() is None

    def test_fetchmany_respects_size_and_arraysize(self):
        cursor = make_connection().cursor()
        cursor.execute("select * from items")
        assert len(cursor.fetchmany(5)) == 5
        cursor.arraysize = 3
        assert len(cursor.fetchmany()) == 3
        assert len(cursor.fetchall()) == 4

    def test_iteration_yields_rows(self):
        cursor = make_connection().cursor()
        cursor.execute("select * from items where grp = 2")
        assert [row["item_id"] for row in cursor] == [2, 5, 8, 11]

    def test_description_names_columns(self):
        cursor = make_connection().cursor()
        cursor.execute("select label from items where item_id = 3")
        assert cursor.description is not None
        assert cursor.description[0][0] == "label"
        assert len(cursor.description[0]) == 7

    @pytest.mark.parametrize(
        "sql,names",
        [
            ("select * from items where item_id = ?", ["item_id", "label", "grp"]),
            # A join: the shared names are qualified on each side.
            (
                "select * from items a join items b on a.grp = b.item_id "
                "where a.item_id = ?",
                ["b.item_id", "b.label", "b.grp", "a.item_id", "a.label", "a.grp"],
            ),
            # Grouped by a qualified column: one name per key the rows carry.
            (
                "select * from items i where i.item_id = ? group by i.grp",
                ["grp"],
            ),
            (
                "select i.grp, count(*) as n from items i where i.item_id = ? "
                "group by i.grp",
                ["grp", "n"],
            ),
        ],
    )
    def test_description_populated_for_empty_result(self, sql, names):
        cursor = make_connection().cursor()
        cursor.execute(sql, (12345,))
        assert cursor.fetchall() == []
        assert cursor.description is not None
        assert [d[0] for d in cursor.description] == names
        # A non-empty result is described by the same names its rows carry.
        cursor.execute(sql, (1,))
        rows = cursor.fetchall()
        assert rows and all(list(row) == names for row in rows)
        assert [d[0] for d in cursor.description] == names

    def test_description_for_empty_projection(self):
        cursor = make_connection().cursor()
        cursor.execute("select label from items where item_id = ?", (12345,))
        assert cursor.description is not None
        assert cursor.description[0][0] == "label"

    def test_charges_the_virtual_clock(self):
        connection = make_connection()
        cursor = connection.cursor()
        cursor.execute("select * from items")
        assert connection.elapsed > 0
        assert connection.stats.queries == 1


class TestCursorUpdate:
    def test_update_sets_rowcount_without_result_set(self):
        cursor = make_connection().cursor()
        cursor.execute("update items set label = 'x' where grp = 0")
        assert cursor.rowcount == 4
        assert cursor.description is None
        with pytest.raises(CursorError, match="no result set"):
            cursor.fetchall()

    def test_executemany_accumulates_rowcount(self):
        connection = make_connection()
        cursor = connection.cursor()
        cursor.executemany(
            "update items set label = ? where item_id = ?",
            [("a", 1), ("b", 2), ("c", 99)],
        )
        assert cursor.rowcount == 2
        # One prepared statement served all three executions.
        assert connection.database.statement_cache.misses == 1

    def test_executemany_empty_sequence(self):
        cursor = make_connection().cursor()
        cursor.executemany("update items set grp = 0 where item_id = ?", [])
        assert cursor.rowcount == 0


class TestCursorLifecycle:
    def test_close_prevents_use(self):
        cursor = make_connection().cursor()
        cursor.close()
        with pytest.raises(CursorError, match="closed"):
            cursor.execute("select * from items")

    def test_context_manager_closes(self):
        connection = make_connection()
        with connection.cursor() as cursor:
            cursor.execute("select * from items")
        with pytest.raises(CursorError, match="closed"):
            cursor.fetchall()


class TestPreparedConnectionPath:
    def test_repeated_queries_parse_once(self):
        connection = make_connection()
        for key in range(6):
            connection.execute_query(
                "select * from items where item_id = ?", (key,)
            )
        cache = connection.database.statement_cache
        assert cache.misses == 1
        assert cache.hits == 5

    def test_single_estimate_per_statement(self):
        """The old driver estimated (and parsed) every call; now the
        plan-keyed estimate is computed once per prepared statement."""
        connection = make_connection()
        for key in range(6):
            connection.execute_query(
                "select * from items where item_id = ?", (key,)
            )
        statement = connection.prepare("select * from items where item_id = ?")
        assert statement.estimates_computed == 1
        assert statement.executions == 6

    def test_execute_lookup_reuses_one_prepared_statement(self):
        connection = make_connection()
        for key in range(8):
            connection.execute_lookup("items", "item_id", key)
        cache = connection.database.statement_cache
        # One miss to build the lookup statement; the per-(table, column)
        # cache then bypasses even the text-keyed lookup.
        assert cache.misses == 1
        assert cache.hits == 0
        statement = connection.lookup_statement("items", "item_id")
        assert statement.executions == 8

    def test_lookup_statement_refreshed_after_ddl(self):
        connection = make_connection()
        stale = connection.lookup_statement("items", "item_id")
        connection.database.create_table("other", [Column("a", ColumnType.INT)])
        fresh = connection.lookup_statement("items", "item_id")
        assert fresh is not stale
        result = connection.execute_lookup("items", "item_id", 4)
        assert result.rows[0]["label"] == "item4"

    def test_lookup_results_match_plain_query(self):
        connection = make_connection()
        lookup = connection.execute_lookup("items", "item_id", 5)
        plain = connection.execute_query(
            "select * from items where item_id = 5"
        )
        assert lookup.rows == plain.rows

    def test_cost_accounting_matches_estimate_components(self):
        connection = make_connection()
        statement = connection.prepare("select * from items")
        estimate = statement.estimate()
        result = connection.execute_prepared(statement)
        transfer = connection.network.transfer_time(result.byte_size)
        rest = max(0.0, estimate.last_row_time - estimate.first_row_time)
        expected = (
            connection.network.round_trip_seconds
            + estimate.first_row_time
            + max(transfer, rest)
        )
        assert connection.elapsed == pytest.approx(expected)
