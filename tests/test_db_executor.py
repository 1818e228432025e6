"""Unit tests for the plan executor (against the department/employee fixture)."""

import pytest

from repro.db import algebra
from repro.db.executor import ExecutionError, Executor
from repro.db.expressions import BinaryOp, ColumnRef, Literal, equals


@pytest.fixture()
def executor(simple_database):
    return Executor(simple_database.tables)


class TestScanSelectProject:
    def test_scan_rows_carry_each_column_once(self, executor, simple_database):
        rows = executor.execute(algebra.Scan("employee", "e"))
        assert len(rows) == 6
        table = simple_database.table("employee")
        assert list(rows[0]) == table.schema.column_names
        assert rows[0] == table.rows[0] and rows[0] is not table.rows[0]

    def test_scan_unknown_table(self, executor):
        with pytest.raises(ExecutionError, match="unknown table"):
            executor.execute(algebra.Scan("nope"))

    def test_select_filters(self, executor):
        plan = algebra.Select(
            algebra.Scan("employee"),
            BinaryOp(">", ColumnRef("salary"), Literal(65)),
        )
        rows = executor.execute(plan)
        assert sorted(r["name"] for r in rows) == ["ann", "bob", "carol"]

    def test_project_computes_expressions(self, executor):
        plan = algebra.Project(
            algebra.Scan("employee"),
            (
                algebra.OutputColumn(ColumnRef("name"), "name"),
                algebra.OutputColumn(
                    BinaryOp("*", ColumnRef("salary"), Literal(2)), "double_salary"
                ),
            ),
        )
        rows = executor.execute(plan)
        assert rows[0].keys() == {"name", "double_salary"}
        by_name = {r["name"]: r["double_salary"] for r in rows}
        assert by_name["ann"] == 180.0


class TestJoins:
    def test_hash_join_on_equality(self, executor):
        plan = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        rows = executor.execute(plan)
        # frank has a NULL dept_id and must not join.
        assert len(rows) == 5
        eng = [r for r in rows if r["dept_name"] == "eng"]
        assert sorted(r["name"] for r in eng) == ["ann", "bob"]

    def test_join_qualifies_only_the_shared_name(self, executor):
        plan = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        row = executor.execute(plan)[0]
        assert list(row) == [
            "d.dept_id", "dept_name", "budget",
            "emp_id", "name", "e.dept_id", "salary", "age",
        ]
        assert row["e.dept_id"] == row["d.dept_id"]

    def test_cross_join(self, executor):
        plan = algebra.Join(
            algebra.Scan("employee"), algebra.Scan("department"), None
        )
        assert len(executor.execute(plan)) == 6 * 3

    def test_theta_join_falls_back_to_nested_loops(self, executor):
        plan = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp(">", ColumnRef("salary", "e"), ColumnRef("budget", "d")),
        )
        rows = executor.execute(plan)
        assert all(r["salary"] > r["budget"] for r in rows)
        assert len(rows) > 0

    def test_equi_join_swapped_condition_sides(self, executor):
        plan = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "d"), ColumnRef("dept_id", "e")),
        )
        assert len(executor.execute(plan)) == 5


class TestAggregation:
    def test_scalar_aggregates(self, executor):
        plan = algebra.Aggregate(
            algebra.Scan("employee"),
            (),
            (
                algebra.AggregateSpec("count", None, "n"),
                algebra.AggregateSpec("sum", ColumnRef("salary"), "total"),
                algebra.AggregateSpec("min", ColumnRef("age"), "youngest"),
                algebra.AggregateSpec("max", ColumnRef("age"), "oldest"),
                algebra.AggregateSpec("avg", ColumnRef("salary"), "mean"),
            ),
        )
        (row,) = executor.execute(plan)
        assert row["n"] == 6
        assert row["total"] == pytest.approx(395.0)
        assert row["youngest"] == 23 and row["oldest"] == 52
        assert row["mean"] == pytest.approx(395.0 / 6)

    def test_grouped_aggregate(self, executor):
        plan = algebra.Aggregate(
            algebra.Scan("employee"),
            (ColumnRef("dept_id"),),
            (algebra.AggregateSpec("count", None, "n"),),
        )
        rows = executor.execute(plan)
        by_dept = {r["dept_id"]: r["n"] for r in rows}
        assert by_dept[1] == 2 and by_dept[2] == 2 and by_dept[3] == 1
        assert by_dept[None] == 1

    def test_count_column_ignores_nulls(self, executor):
        plan = algebra.Aggregate(
            algebra.Scan("employee"),
            (),
            (algebra.AggregateSpec("count", ColumnRef("dept_id"), "n"),),
        )
        (row,) = executor.execute(plan)
        assert row["n"] == 5

    def test_aggregate_over_empty_input(self, executor):
        plan = algebra.Aggregate(
            algebra.Select(
                algebra.Scan("employee"), equals("name", "nobody")
            ),
            (),
            (
                algebra.AggregateSpec("sum", ColumnRef("salary"), "total"),
                algebra.AggregateSpec("count", None, "n"),
            ),
        )
        (row,) = executor.execute(plan)
        assert row["n"] == 0 and row["total"] is None


class TestSortLimit:
    def test_sort_ascending_descending(self, executor):
        plan = algebra.Sort(
            algebra.Scan("employee"),
            (algebra.SortKey(ColumnRef("salary"), ascending=False),),
        )
        rows = executor.execute(plan)
        salaries = [r["salary"] for r in rows]
        assert salaries == sorted(salaries, reverse=True)

    def test_multi_key_sort(self, executor):
        plan = algebra.Sort(
            algebra.Scan("employee"),
            (
                algebra.SortKey(ColumnRef("dept_id")),
                algebra.SortKey(ColumnRef("salary"), ascending=False),
            ),
        )
        rows = executor.execute(plan)
        with_dept = [r for r in rows if r["dept_id"] == 1]
        assert [r["name"] for r in with_dept] == ["ann", "bob"]

    def test_sort_handles_nulls(self, executor):
        plan = algebra.Sort(
            algebra.Scan("employee"), (algebra.SortKey(ColumnRef("dept_id")),)
        )
        rows = executor.execute(plan)
        assert rows[0]["dept_id"] is None

    def test_limit(self, executor):
        plan = algebra.Limit(algebra.Scan("employee"), 2)
        assert len(executor.execute(plan)) == 2

    def test_limit_zero(self, executor):
        assert executor.execute(algebra.Limit(algebra.Scan("employee"), 0)) == []


class TestJoinFixes:
    """Hash-join build skipping and side-resolution robustness."""

    def test_empty_probe_side_skips_right_side_entirely(self, simple_database):
        executor = Executor(simple_database.tables, mode="interpreted")
        scanned = []
        original_scan = Executor._scan

        def recording_scan(self, plan):
            scanned.append(plan.table)
            return original_scan(self, plan)

        Executor._scan = recording_scan
        try:
            plan = algebra.Join(
                algebra.Select(
                    algebra.Scan("employee", "e"), equals("name", "nobody", "e")
                ),
                algebra.Scan("department", "d"),
                BinaryOp(
                    "=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")
                ),
            )
            assert executor.execute(plan) == []
        finally:
            Executor._scan = original_scan
        # The probe (left) side produced no rows, so the build (right) side
        # must never have been executed, let alone hashed.
        assert scanned == ["employee"]

    def test_empty_probe_never_builds_table_index(self, simple_database):
        from repro.db.table import Table

        built = []
        original_position_index = Table.position_index

        def recording_position_index(self, column):
            built.append((self.schema.name, column))
            return original_position_index(self, column)

        Table.position_index = recording_position_index
        try:
            plan = algebra.Join(
                algebra.Select(
                    algebra.Scan("employee", "e"), equals("name", "nobody", "e")
                ),
                algebra.Scan("department", "d"),
                BinaryOp(
                    "=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")
                ),
            )
            for mode in Executor.MODES:
                assert Executor(simple_database.tables, mode=mode).execute(
                    plan
                ) == [], mode
        finally:
            Table.position_index = original_position_index
        assert built == []

    @pytest.mark.parametrize("mode", ["interpreted", "compiled", "vectorized"])
    def test_condition_sides_resolve_against_both_samples(
        self, simple_database, mode
    ):
        # The equi condition names the right side first; orientation must be
        # derived from both sides' shapes, not just the first left row.
        executor = Executor(simple_database.tables, mode=mode)
        plan = algebra.Join(
            algebra.Scan("department", "d"),
            algebra.Scan("employee", "e"),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        rows = executor.execute(plan)
        assert len(rows) == 5
        assert all(r["e.dept_id"] == r["d.dept_id"] for r in rows)

    def test_bare_scan_build_side_matches_interpreted(self, simple_database):
        plan = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        expected = Executor(simple_database.tables, mode="interpreted").execute(
            plan
        )
        assert len(expected) == 5
        for mode in ("compiled", "vectorized"):
            assert Executor(simple_database.tables, mode=mode).execute(
                plan
            ) == expected

    def test_join_sees_fresh_rows_after_insert(self):
        from repro.db.database import Database
        from repro.db.schema import Column, ColumnType

        database = Database()
        database.create_table(
            "parent",
            [Column("pid", ColumnType.INT), Column("label", ColumnType.STRING)],
            primary_key="pid",
        )
        database.create_table(
            "child",
            [Column("cid", ColumnType.INT), Column("pid", ColumnType.INT)],
            primary_key="cid",
        )
        database.insert("parent", [{"pid": 1, "label": "a"}])
        database.insert("child", [{"cid": 1, "pid": 1}])
        plan = algebra.Join(
            algebra.Scan("child", "c"),
            algebra.Scan("parent", "p"),
            BinaryOp("=", ColumnRef("pid", "c"), ColumnRef("pid", "p")),
        )
        executors = [Executor(database.tables, mode=m) for m in Executor.MODES]
        assert [len(e.execute(plan)) for e in executors] == [1, 1, 1]
        # A mutation must reach whatever an executor built for the join.
        database.insert("parent", [{"pid": 2, "label": "b"}])
        database.insert("child", [{"cid": 2, "pid": 2}])
        assert [len(e.execute(plan)) for e in executors] == [2, 2, 2]

    @pytest.mark.parametrize("probe", ["scan", "join"])
    def test_unhashable_build_key_raises_like_the_row_tiers(
        self, simple_database, probe
    ):
        # A list cannot key a hash-join build table, so every tier raises
        # what the interpreted hash join raises, over a scanned or a joined
        # probe side.
        simple_database.insert(
            "department", [{"dept_id": [1], "dept_name": "odd", "budget": 1.0}]
        )
        left = algebra.Scan("employee", "e")
        if probe == "join":
            left = algebra.Join(
                left,
                algebra.Scan("employee", "m"),
                BinaryOp("=", ColumnRef("emp_id", "e"), ColumnRef("emp_id", "m")),
            )
        plan = algebra.Join(
            left,
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        for mode in Executor.MODES:
            with pytest.raises(TypeError):
                Executor(simple_database.tables, mode=mode).execute(plan)


class TestJoinErrorAndCacheBehaviour:
    @pytest.mark.parametrize("mode", ["interpreted", "compiled", "vectorized"])
    def test_unknown_right_table_raises_even_with_empty_probe(
        self, simple_database, mode
    ):
        executor = Executor(simple_database.tables, mode=mode)
        plan = algebra.Join(
            algebra.Select(
                algebra.Scan("employee", "e"), equals("name", "nobody", "e")
            ),
            algebra.Scan("missing", "m"),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("id", "m")),
        )
        with pytest.raises(ExecutionError, match="unknown table"):
            executor.execute(plan)

    def test_compile_cache_is_bounded(self, simple_database):
        executor = Executor(simple_database.tables, mode="compiled")
        # Each distinct literal lands in the shared compile cache; it must
        # stay bounded.
        join = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        for value in range(Executor.COMPILE_CACHE_LIMIT + 10):
            plan = algebra.Select(
                join, BinaryOp("=", ColumnRef("salary", "e"), Literal(value))
            )
            executor.execute(plan)
        assert len(executor._compile_cache) <= Executor.COMPILE_CACHE_LIMIT
