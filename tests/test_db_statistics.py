"""Unit tests for statistics and cardinality estimation."""

import pytest

from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import BinaryOp, ColumnRef, Literal, equals
from repro.db.schema import Column, ColumnType
from repro.db.sqlparser import parse_sql
from repro.db.statistics import (
    DEFAULT_SELECTIVITY,
    StatisticsCatalog,
    TableStatistics,
)


class TestTableStatistics:
    def test_distinct_count_clamped_to_row_count(self):
        stats = TableStatistics(row_count=10, distinct={"a": 100})
        assert stats.distinct_count("a") == 10

    def test_distinct_count_defaults_to_row_count(self):
        stats = TableStatistics(row_count=10)
        assert stats.distinct_count("missing") == 10

    def test_distinct_count_strips_qualifier(self):
        stats = TableStatistics(row_count=10, distinct={"a": 4})
        assert stats.distinct_count("t.a") == 4

    def test_distinct_count_minimum_one(self):
        assert TableStatistics(row_count=0).distinct_count("a") == 1

    @pytest.mark.parametrize("shards", [0, 2])
    def test_analyze_counts_unhashable_values_by_equality(self, shards):
        database = Database()
        database.create_table("t", [Column("id", ColumnType.INT),
                                    Column("v", ColumnType.INT)])
        values = [[1], 2, [1], None, {"k": 1}, 2, [2], {"k": 1}, 3.0]
        database.insert(
            "t", [{"id": i, "v": value} for i, value in enumerate(values)]
        )
        if shards:
            database.shard_table("t", "id", shards)
        database.analyze()  # once raised TypeError: unhashable type
        table = database.table("t")
        # 2, 3.0, [1], [2], {"k": 1}; NULL is not a value.
        assert table.distinct_count("v") == 5
        assert database.statistics.table_stats("t").distinct["v"] == 5

    @pytest.mark.parametrize(
        "values,distinct",
        [
            ([1, 1.0, True], 1),  # equal values hash equally
            ([[1], [1.0], None], 1),  # unhashable values compare by ==
            ([(1,), [1]], 2),  # a tuple never equals a list
            ([{"a": [1]}, {"a": [1]}, "a"], 2),
            ([None, None], 0),
        ],
    )
    def test_distinct_count_follows_value_equality(self, values, distinct):
        database = Database()
        database.create_table("t", [Column("v", ColumnType.INT)])
        database.insert("t", [{"v": value} for value in values])
        assert database.table("t").distinct_count("v") == distinct

    def test_unhashable_insert_refreshes_a_cached_distinct_count(self):
        database = Database()
        database.create_table("t", [Column("v", ColumnType.INT)])
        database.insert("t", [{"v": 1}, {"v": 2}])
        table = database.table("t")
        assert table.distinct_count("v") == 2
        database.insert("t", [{"v": [1]}, {"v": [1]}])
        assert table.distinct_count("v") == 3


class TestCardinalityEstimation:
    def test_scan_cardinality(self, simple_database):
        stats = simple_database.statistics
        assert stats.estimate_cardinality(algebra.Scan("employee")) == 6

    def test_equality_selection_uses_distinct(self, simple_database):
        stats = simple_database.statistics
        plan = algebra.Select(algebra.Scan("employee"), equals("dept_id", 1))
        # dept_id has 3 distinct non-null values.
        assert stats.estimate_cardinality(plan) == pytest.approx(6 / 3)

    def test_parameter_equality_treated_like_literal(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql("select * from employee where dept_id = ?")
        estimate = stats.estimate_cardinality(plan)
        assert estimate == pytest.approx(6 / 3)

    def test_range_selection(self, simple_database):
        stats = simple_database.statistics
        plan = algebra.Select(
            algebra.Scan("employee"),
            BinaryOp(">", ColumnRef("salary"), Literal(50)),
        )
        assert stats.estimate_cardinality(plan) == pytest.approx(6 / 3)

    def test_conjunction_multiplies_selectivities(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql(
            "select * from employee where dept_id = 1 and salary > 50"
        )
        expected = 6 * (1 / 3) * (1 / 3)
        assert stats.estimate_cardinality(plan) == pytest.approx(expected)

    def test_join_cardinality_uses_fk_distincts(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql(
            "select * from employee e join department d on e.dept_id = d.dept_id"
        )
        # 6 * 3 / max(3, 3) = 6
        assert stats.estimate_cardinality(plan) == pytest.approx(6.0)

    def test_scalar_aggregate_cardinality_is_one(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql("select count(*) from employee")
        assert stats.estimate_cardinality(plan) == 1.0

    def test_grouped_aggregate_cardinality(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql("select dept_id, count(*) from employee group by dept_id")
        assert 1.0 <= stats.estimate_cardinality(plan) <= 6.0

    def test_limit_caps_cardinality(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql("select * from employee limit 2")
        assert stats.estimate_cardinality(plan) == 2.0

    def test_unanalysed_table_has_zero_rows(self):
        from repro.db.schema import Schema

        catalog = StatisticsCatalog(Schema())
        assert catalog.estimate_cardinality(algebra.Scan("ghost")) == 0.0


class TestRowWidthAndServerTime:
    def test_scan_row_width_matches_schema(self, simple_database):
        stats = simple_database.statistics
        width = stats.estimate_row_width(algebra.Scan("employee"))
        assert width == simple_database.schema.table("employee").row_width

    def test_projection_row_width_is_smaller(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql("select name from employee")
        full = stats.estimate_row_width(algebra.Scan("employee"))
        projected = stats.estimate_row_width(plan)
        assert 0 < projected < full

    def test_join_row_width_is_sum(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql(
            "select * from employee e join department d on e.dept_id = d.dept_id"
        )
        expected = stats.estimate_row_width(
            algebra.Scan("employee")
        ) + stats.estimate_row_width(algebra.Scan("department"))
        assert stats.estimate_row_width(plan) == expected

    def test_pipelined_plan_has_fast_first_row(self, simple_database):
        stats = simple_database.statistics
        first, last = stats.estimate_server_time(algebra.Scan("employee"))
        assert first <= last
        assert first < last or last == first

    def test_blocking_plan_first_equals_last(self, simple_database):
        stats = simple_database.statistics
        plan = parse_sql("select * from employee order by salary")
        first, last = stats.estimate_server_time(plan)
        assert first == pytest.approx(last)

    def test_explicit_statistics_override(self, simple_database):
        simple_database.set_table_statistics(
            "employee",
            TableStatistics(row_count=1_000_000, distinct={"emp_id": 1_000_000}),
        )
        stats = simple_database.statistics
        assert stats.estimate_cardinality(algebra.Scan("employee")) == 1_000_000
        # Restore for other tests sharing the fixture instance.
        simple_database.analyze()
