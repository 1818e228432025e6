"""Unit tests for the vectorized batch execution tier.

Covers mode selection, row-identical results against both row tiers over
every operator, late-materialization layouts, per-subtree fallback to the
compiled tier, error parity, tier counters, prepared-statement slot reuse,
and the columnar-view plumbing the tier scans.
"""

from __future__ import annotations

import pytest

from repro.db import algebra
from repro.db.database import Database
from repro.db.executor import ExecutionError, Executor
from repro.db.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Expression,
    ExpressionError,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Not,
)
from repro.db.schema import Column, ColumnType
from repro.db.vectorized import (
    BatchResolutionError,
    ColumnBatch,
    VectorizedExecutor,
    _batch_from_rows,
)


def make_database() -> Database:
    database = Database()
    database.create_table(
        "orders",
        [
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_total", ColumnType.FLOAT),
            Column("o_status", ColumnType.STRING, width=8),
        ],
        primary_key="o_id",
    )
    database.create_table(
        "customers",
        [
            Column("c_id", ColumnType.INT),
            Column("c_name", ColumnType.STRING, width=16),
        ],
        primary_key="c_id",
    )
    database.insert(
        "orders",
        [
            {
                "o_id": i,
                "o_c_id": i % 5 if i % 7 else None,
                "o_total": float(i * 3 % 11) if i % 4 else None,
                "o_status": "OPEN" if i % 3 else "DONE",
            }
            for i in range(40)
        ],
    )
    database.insert(
        "customers",
        [{"c_id": i, "c_name": f"customer-{i}"} for i in range(5)],
    )
    database.analyze()
    return database


def executors(database: Database) -> tuple[Executor, Executor, Executor]:
    return (
        Executor(database.tables, mode="vectorized"),
        Executor(database.tables, mode="compiled"),
        Executor(database.tables, mode="interpreted"),
    )


def assert_tiers_agree(database: Database, plan: algebra.PlanNode) -> list:
    vectorized, compiled, interpreted = executors(database)
    expected = interpreted.execute(plan)
    assert compiled.execute(plan) == expected
    assert vectorized.execute(plan) == expected
    return expected


class TestModeSelection:
    def test_default_mode_is_vectorized(self):
        database = make_database()
        assert Executor(database.tables).mode == "vectorized"
        assert database.execution_mode == "vectorized"

    def test_unknown_mode_rejected(self):
        database = make_database()
        with pytest.raises(ValueError, match="unknown execution mode"):
            Executor(database.tables, mode="turbo")

    def test_database_execution_mode_selects_the_tier(self):
        for mode in Executor.MODES:
            assert Database(execution_mode=mode).execution_mode == mode


class TestTierCounters:
    def test_vectorized_plan_counts_vectorized(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        plan = algebra.Select(
            algebra.Scan("orders", "o"),
            BinaryOp(">", ColumnRef("o_total", "o"), Literal(2.0)),
        )
        executor.execute(plan)
        executor.execute(plan)
        assert executor.tier_counts["vectorized"] == 2
        assert executor.tier_counts["compiled"] == 0
        assert executor.vectorized_stats["executions"] == 2
        assert executor.vectorized_stats["fallbacks"] == 0

    def test_unvectorizable_plan_falls_back_to_compiled(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        # Theta joins have no vectorized lowering.
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        rows = executor.execute(plan)
        assert rows == Executor(database.tables, mode="compiled").execute(plan)
        assert executor.tier_counts["vectorized"] == 0
        assert executor.tier_counts["compiled"] == 1
        assert executor.vectorized_stats["fallbacks"] == 1

    def test_unsupported_subtree_falls_back_per_subtree(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        theta_join = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        # The Sort above the theta join still runs vectorized; the join
        # subtree executes compiled and is adapted into a batch.
        plan = algebra.Sort(theta_join, (algebra.SortKey(ColumnRef("o_id"), False),))
        rows = executor.execute(plan)
        assert rows == Executor(database.tables, mode="compiled").execute(plan)
        assert executor.tier_counts["vectorized"] == 1
        assert executor.vectorized_stats["subtree_fallbacks"] == 1

    def test_interpreted_mode_counts_interpreted(self):
        database = make_database()
        executor = Executor(database.tables, mode="interpreted")
        executor.execute(algebra.Scan("orders"))
        assert executor.tier_counts == {
            "vectorized": 0,
            "compiled": 0,
            "interpreted": 1,
        }


class TestFallbackReasons:
    """Why the vectorized tier fell back, as counters per reason."""

    def test_theta_join_reason(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        executor.execute(plan)
        executor.execute(plan)  # the cached lowering keeps the reason
        assert executor.vectorized_stats["fallback_reasons"] == {
            "theta_join": 2
        }

    def test_unknown_function_reason(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        plan = algebra.Project(
            algebra.Scan("orders"),
            (
                algebra.OutputColumn(
                    FunctionCall("abs", (FunctionCall("nope", ()),)), "out"
                ),
            ),
        )
        with pytest.raises(ExpressionError):
            executor.execute(plan)
        assert (
            executor.vectorized_stats["fallback_reasons"]["unknown_function"]
            == 1
        )

    def test_kernel_error_reason(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        # o_total contains NULLs mixed with floats: comparing against a
        # string raises inside the kernel, re-runs compiled, and raises the
        # row-tier error to the caller.
        plan = algebra.Select(
            algebra.Scan("orders"),
            BinaryOp(">", ColumnRef("o_total"), Literal("oops")),
        )
        with pytest.raises(TypeError):
            executor.execute(plan)
        assert executor.vectorized_stats["fallback_reasons"] == {
            "kernel_error": 1
        }

    def test_subtree_fallback_counts_its_reason(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        theta_join = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        plan = algebra.Sort(
            theta_join, (algebra.SortKey(ColumnRef("o_id"), False),)
        )
        executor.execute(plan)
        assert executor.vectorized_stats["fallback_reasons"] == {
            "theta_join": 1
        }
        assert executor.vectorized_stats["subtree_fallbacks"] == 1

    def test_reasons_surface_in_database_and_engine_stats(self):
        from repro.api import connect

        database = make_database()
        engine = connect(database=database)
        with engine.cursor() as cursor:
            cursor.execute("select * from orders where o_total > 2.0")
            cursor.fetchall()
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        database.execute_plan(plan)
        reasons = database.execution_stats()["vectorized"]["fallback_reasons"]
        assert reasons == {"theta_join": 1}
        vectorized = engine.metrics().views["execution"]()["vectorized"]
        assert vectorized["fallback_reasons"] == reasons

    def test_cli_metrics_render_fallback_reasons(self, tmp_path, capsys):
        import io

        from repro import cli

        program = tmp_path / "program.py"
        program.write_text(
            "def report(runtime):\n"
            "    return runtime.query('select * from orders limit 1')\n"
        )
        out = io.StringIO()
        cli.main(
            ["optimize", str(program), "--metrics", "--shards", "2"], out=out
        )
        rendered = out.getvalue()
        assert "execution.vectorized.fallback_reasons" in rendered
        assert "sharding.routed" in rendered


class TestOperatorEquivalence:
    def test_scan_layout(self):
        database = make_database()
        rows = assert_tiers_agree(database, algebra.Scan("orders", "o"))
        assert set(rows[0]) == {
            "o_id",
            "o_c_id",
            "o_total",
            "o_status",
            "o.o_id",
            "o.o_c_id",
            "o.o_total",
            "o.o_status",
        }

    def test_filter_conjunction_with_nulls(self):
        database = make_database()
        plan = algebra.Select(
            algebra.Scan("orders", "o"),
            BooleanOp(
                "and",
                (
                    BinaryOp(">", ColumnRef("o_total", "o"), Literal(1.0)),
                    BinaryOp("=", ColumnRef("o_status", "o"), Literal("OPEN")),
                ),
            ),
        )
        rows = assert_tiers_agree(database, plan)
        assert rows  # non-trivial selection

    def test_or_not_isnull_inlist(self):
        database = make_database()
        predicate = BooleanOp(
            "or",
            (
                IsNull(ColumnRef("o_total")),
                Not(InList(ColumnRef("o_status"), ("DONE",))),
                BinaryOp("<", ColumnRef("o_id"), Literal(3)),
            ),
        )
        plan = algebra.Select(algebra.Scan("orders"), predicate)
        assert_tiers_agree(database, plan)

    def test_projection_arithmetic_and_functions(self):
        database = make_database()
        plan = algebra.Project(
            algebra.Scan("orders", "o"),
            (
                algebra.OutputColumn(
                    BinaryOp("*", ColumnRef("o_total", "o"), Literal(2.0)),
                    "doubled",
                ),
                algebra.OutputColumn(
                    FunctionCall("coalesce", (ColumnRef("o_total"), Literal(-1.0))),
                    "total_or_default",
                ),
                algebra.OutputColumn(
                    FunctionCall("lower", (ColumnRef("o_status"),)), "status"
                ),
            ),
        )
        assert_tiers_agree(database, plan)

    def test_wide_equi_join_with_null_keys(self):
        database = make_database()
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        rows = assert_tiers_agree(database, plan)
        # NULL keys never join.
        assert all(row["o.o_c_id"] is not None for row in rows)

    def test_join_with_duplicate_build_keys(self):
        database = make_database()
        # Build side is orders keyed by o_c_id: each key has many rows,
        # exercising the bucket (non-unique) probe path.
        plan = algebra.Join(
            algebra.Scan("customers", "c"),
            algebra.Scan("orders", "o"),
            BinaryOp("=", ColumnRef("c_id", "c"), ColumnRef("o_c_id", "o")),
        )
        assert_tiers_agree(database, plan)

    def test_join_condition_written_right_to_left(self):
        database = make_database()
        plan = algebra.Join(
            algebra.Scan("customers", "c"),
            algebra.Scan("orders", "o"),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        assert_tiers_agree(database, plan)

    def test_bare_name_collision_keeps_left_value(self):
        database = Database()
        database.create_table(
            "l", [Column("k", ColumnType.INT), Column("v", ColumnType.INT)]
        )
        database.create_table(
            "r", [Column("k", ColumnType.INT), Column("v", ColumnType.INT)]
        )
        database.insert("l", [{"k": 1, "v": 10}, {"k": 2, "v": 20}])
        database.insert("r", [{"k": 1, "v": 100}, {"k": 2, "v": 200}])
        plan = algebra.Join(
            algebra.Scan("l", "a"),
            algebra.Scan("r", "b"),
            BinaryOp("=", ColumnRef("k", "a"), ColumnRef("k", "b")),
        )
        rows = assert_tiers_agree(database, plan)
        assert all(row["v"] == row["a.v"] for row in rows)

    def test_filter_above_join(self):
        database = make_database()
        join = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        plan = algebra.Select(
            algebra.Select(
                join, BinaryOp(">", ColumnRef("o_total", "o"), Literal(2.0))
            ),
            BinaryOp("!=", ColumnRef("c_name", "c"), Literal("customer-0")),
        )
        assert_tiers_agree(database, plan)

    def test_grouped_and_scalar_aggregates(self):
        database = make_database()
        grouped = algebra.Aggregate(
            algebra.Scan("orders"),
            group_by=(ColumnRef("o_c_id"),),
            aggregates=(
                algebra.AggregateSpec("sum", ColumnRef("o_total"), "total"),
                algebra.AggregateSpec("avg", ColumnRef("o_total"), "avg_total"),
                algebra.AggregateSpec("count", None, "n"),
                algebra.AggregateSpec("min", ColumnRef("o_id"), "first_id"),
                algebra.AggregateSpec("max", ColumnRef("o_id"), "last_id"),
            ),
        )
        assert_tiers_agree(database, grouped)
        scalar = algebra.Aggregate(
            algebra.Scan("orders"),
            group_by=(),
            aggregates=(
                algebra.AggregateSpec("sum", ColumnRef("o_total"), "total"),
                algebra.AggregateSpec("count", None, "n"),
            ),
        )
        assert_tiers_agree(database, scalar)

    def test_multi_key_group_by(self):
        database = make_database()
        plan = algebra.Aggregate(
            algebra.Scan("orders", "o"),
            group_by=(ColumnRef("o_c_id", "o"), ColumnRef("o_status", "o")),
            aggregates=(algebra.AggregateSpec("count", None, "n"),),
        )
        assert_tiers_agree(database, plan)

    def test_multi_key_sort_with_nulls_and_limit(self):
        database = make_database()
        plan = algebra.Limit(
            algebra.Sort(
                algebra.Scan("orders"),
                (
                    algebra.SortKey(ColumnRef("o_total"), False),
                    algebra.SortKey(ColumnRef("o_id"), True),
                ),
            ),
            7,
        )
        assert_tiers_agree(database, plan)

    def test_aggregate_over_join_pipeline(self):
        database = make_database()
        join = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        plan = algebra.Aggregate(
            join,
            group_by=(ColumnRef("c_name", "c"),),
            aggregates=(
                algebra.AggregateSpec("sum", ColumnRef("o_total", "o"), "total"),
            ),
        )
        assert_tiers_agree(database, plan)

    def test_empty_table_shapes(self):
        database = make_database()
        database.table("orders").clear()
        plans = [
            algebra.Scan("orders"),
            algebra.Select(
                algebra.Scan("orders"),
                BinaryOp(">", ColumnRef("o_total"), Literal(0.0)),
            ),
            algebra.Aggregate(
                algebra.Scan("orders"),
                group_by=(),
                aggregates=(algebra.AggregateSpec("count", None, "n"),),
            ),
            algebra.Join(
                algebra.Scan("orders", "o"),
                algebra.Scan("customers", "c"),
                BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
            ),
        ]
        for plan in plans:
            assert_tiers_agree(database, plan)


class TestErrorParity:
    def test_unknown_table_raises(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        with pytest.raises(ExecutionError, match="unknown table"):
            executor.execute(algebra.Scan("missing"))

    def test_unknown_right_table_raises_with_empty_probe(self):
        database = make_database()
        database.table("orders").clear()
        executor = Executor(database.tables, mode="vectorized")
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("missing", "m"),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("id", "m")),
        )
        with pytest.raises(ExecutionError, match="unknown table"):
            executor.execute(plan)

    def test_unresolvable_sort_key_error_identical_across_tiers(self):
        database = make_database()
        plan = algebra.Sort(
            algebra.Scan("orders", "o"),
            (algebra.SortKey(ColumnRef("nope"), True),),
        )
        messages = set()
        for mode in Executor.MODES:
            executor = Executor(database.tables, mode=mode)
            with pytest.raises(ExpressionError) as excinfo:
                executor.execute(plan)
            messages.add(str(excinfo.value))
        # Not just the same error type: the same message (which lists the
        # row keys), in every tier.
        assert len(messages) == 1

    def test_unknown_column_error_matches_row_tiers(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        plan = algebra.Project(
            algebra.Scan("orders"),
            (algebra.OutputColumn(ColumnRef("nope"), "nope"),),
        )
        with pytest.raises(ExpressionError, match="not found"):
            executor.execute(plan)
        # The failure fell back to (and was raised by) the compiled tier.
        assert executor.vectorized_stats["fallbacks"] == 1


class TestPreparedStatementsVectorized:
    def test_slot_replay_is_row_identical_and_lowered_once(self):
        database = make_database()
        statement = database.prepare(
            "select o_id, o_total from orders where o_total > ? order by o_id"
        )
        first = statement.execute((2.0,)).rows
        second = statement.execute((5.0,)).rows
        assert first != second
        vectorized = database._executor._vectorized
        assert vectorized is not None
        assert vectorized.executions >= 2
        # Both executions reuse one cached lowering of the template plan.
        assert statement._exec_plan in vectorized._ops
        interpreted = Executor(database.tables, mode="interpreted")
        from repro.db.sqlparser import bind_parameters, parse_sql

        for params, rows in [((2.0,), first), ((5.0,), second)]:
            bound = bind_parameters(
                parse_sql(
                    "select o_id, o_total from orders where o_total > ? "
                    "order by o_id"
                ),
                params,
            )
            assert interpreted.execute(bound) == rows

    def test_engine_stats_report_tiers(self):
        from repro.api import connect

        engine = connect(database=make_database())
        with engine.cursor() as cursor:
            cursor.execute("select o_id from orders where o_total > ?", (1.0,))
            cursor.fetchall()
        stats = engine.metrics().as_dict()["views"]
        assert stats["execution"]["mode"] == "vectorized"
        assert stats["execution"]["tiers"]["vectorized"] >= 1
        engine.close()


class TestColumnarInvalidation:
    def test_vectorized_sees_inserts(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        plan = algebra.Select(
            algebra.Scan("orders"),
            BinaryOp("=", ColumnRef("o_id"), Literal(999)),
        )
        assert executor.execute(plan) == []
        database.insert(
            "orders",
            [{"o_id": 999, "o_c_id": 1, "o_total": 5.0, "o_status": "OPEN"}],
        )
        assert len(executor.execute(plan)) == 1

    def test_vectorized_sees_updates_and_clear(self):
        database = make_database()
        executor = Executor(database.tables, mode="vectorized")
        plan = algebra.Select(
            algebra.Scan("orders"),
            BinaryOp("=", ColumnRef("o_status"), Literal("VOID")),
        )
        assert executor.execute(plan) == []
        database.table("orders").update_rows(
            lambda row: row["o_id"] == 3, {"o_status": "VOID"}
        )
        assert len(executor.execute(plan)) == 1
        database.table("orders").clear()
        assert executor.execute(plan) == []


class TestBatchKernels:
    """The batch scope of the one lowering agrees with evaluate per element.

    (``tests/test_compiled_expressions.py`` sweeps generated expressions
    through all three scopes; these pin the kernel entry point itself.)
    """

    def batch(self):
        rows = [
            {"a": 1, "b": 2.0, "s": "x"},
            {"a": None, "b": 0.0, "s": "y"},
            {"a": 3, "b": None, "s": None},
        ]
        return rows, _batch_from_rows(rows)

    @pytest.mark.parametrize(
        "expression",
        [
            BinaryOp("+", ColumnRef("a"), Literal(10)),
            BinaryOp("*", Literal(2), ColumnRef("a")),
            BinaryOp(">", ColumnRef("a"), Literal(1)),
            BinaryOp("=", ColumnRef("s"), Literal("x")),
            BinaryOp("<", ColumnRef("a"), ColumnRef("b")),
            BooleanOp(
                "and",
                (IsNull(ColumnRef("a")), BinaryOp(">", ColumnRef("b"), Literal(-1.0))),
            ),
            BooleanOp(
                "or",
                (IsNull(ColumnRef("b")), BinaryOp("=", ColumnRef("a"), Literal(1))),
            ),
            Not(IsNull(ColumnRef("s"))),
            IsNull(ColumnRef("b"), negated=True),
            InList(ColumnRef("a"), (1, 3)),
            FunctionCall("upper", (ColumnRef("s"),)),
            FunctionCall("coalesce", (ColumnRef("a"), ColumnRef("b"), Literal(0))),
            Literal(7),
            ColumnRef("a"),
        ],
    )
    def test_kernel_matches_interpreter(self, expression):
        rows, batch = self.batch()
        expected = [expression.evaluate(row) for row in rows]
        kernel = VectorizedExecutor._kernel(expression)
        assert kernel is not None
        assert list(kernel(batch)) == expected
        keep = VectorizedExecutor._kernel(expression, positions=True)
        assert keep(batch) == [i for i, value in enumerate(expected) if value]

    def test_unknown_function_is_not_vectorizable(self):
        expression = FunctionCall("median", (ColumnRef("a"),))
        assert VectorizedExecutor._kernel(expression) is None

    def test_unsupported_expression_type_is_not_vectorizable(self):
        class Custom(Expression):
            def evaluate(self, row):
                return 1

        assert VectorizedExecutor._kernel(Custom()) is None
        assert (
            VectorizedExecutor._kernel(BinaryOp("+", Custom(), ColumnRef("a")))
            is None
        )

    def test_missing_column_raises_for_the_row_tier_to_decide(self):
        rows, batch = self.batch()
        kernel = VectorizedExecutor._kernel(
            BinaryOp(">", ColumnRef("nope"), Literal(1))
        )
        with pytest.raises(BatchResolutionError):
            kernel(batch)


class TestColumnBatch:
    def test_take_composes_selections_sharing_vectors(self):
        array_a = [10, 11, 12, 13]
        array_b = ["w", "x", "y", "z"]
        batch = ColumnBatch(
            {"a": (array_a, None), "b": (array_b, None)}, 4, ("a", "b")
        )
        taken = batch.take([3, 1])
        assert taken.values_for("a") == [13, 11]
        assert taken.values_for("b") == ["z", "x"]
        # Both columns share one selection object.
        assert taken.columns["a"][1] is taken.columns["b"][1]
        again = taken.take([1])
        assert again.values_for("a") == [11]
        assert again.values_for("b") == ["x"]

    def test_resolution_mirrors_column_ref_semantics(self):
        batch = ColumnBatch(
            {"k": ([1], None), "t.k": ([1], None), "t.v": ([2], None)},
            1,
            ("k", "t.k", "t.v"),
        )
        assert batch.resolve(ColumnRef("k", "t")) == "t.k"
        assert batch.resolve(ColumnRef("k")) == "k"
        assert batch.resolve(ColumnRef("v")) == "t.v"  # unique suffix
        assert batch.resolve(ColumnRef("missing")) is None


class TestContextCacheLRU:
    def test_eviction_is_lru_not_wholesale(self):
        database = make_database()
        executor = Executor(database.tables, mode="compiled")
        limit = Executor.COMPILE_CACHE_LIMIT
        hot = algebra.Select(
            algebra.Scan("orders", "o"),
            BinaryOp(">", ColumnRef("o_total", "o"), Literal(-1.0)),
        )
        executor.execute(hot)
        hot_keys = set(executor._context_cache)
        for value in range(limit + 16):
            executor.execute(hot)  # keep the hot entries recently used
            executor.execute(
                algebra.Select(
                    algebra.Scan("orders", "o"),
                    BinaryOp(">", ColumnRef("o_total", "o"), Literal(float(value))),
                )
            )
        assert len(executor._context_cache) <= limit
        # The hot shape survived the churn instead of being flushed.
        assert hot_keys <= set(executor._context_cache)
