"""Parameter-slot prepared plans: compile once, bind values per execution.

The prepared-statement fast path used to cover only the point-lookup shape;
every other parameterized statement rebuilt its plan (``bind_parameters``)
and re-lowered the fresh expression trees on each call.  With slot
compilation the template is rewritten once (every ``?`` becomes a
:class:`repro.db.expressions.ParameterSlot` reading the statement's buffer)
and repeated executions perform **zero** parsing and zero expression
compilation.  These tests pin both the row-identical semantics and the
no-recompile property.
"""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.db.expressions import BinaryOp, ColumnRef, Expression, ParameterSlot
from repro.db.schema import Column, ColumnType
from repro.db.sqlparser import (
    SQLSyntaxError,
    bind_parameter_slots,
    bind_parameters,
    parse_sql,
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
                "o_c_id": i % 10,
                "o_total": float(i * 7 % 100),
                "o_status": "OPEN" if i % 3 else "DONE",
            }
            for i in range(200)
        ],
    )
    database.insert(
        "customers",
        [{"c_id": i, "c_name": f"customer-{i}"} for i in range(10)],
    )
    database.analyze()
    return database


#: Parameterized SELECT shapes well beyond the point-lookup fast path, with
#: parameter tuples to replay through each.
SHAPES = [
    ("select * from orders where o_total > ?", [(10.0,), (50.0,), (95.0,)]),
    (
        "select * from orders where o_total > ? and o_status = ?",
        [(10.0, "OPEN"), (40.0, "DONE")],
    ),
    (
        "select o_id, o_total * ? as scaled from orders where o_c_id = ?",
        [(2, 3), (10, 7)],
    ),
    (
        "select o_c_id, count(*) from orders where o_total >= ? group by o_c_id",
        [(0.0,), (60.0,)],
    ),
    (
        "select o.o_id, c.c_name from orders o join customers c "
        "on o.o_c_id = c.c_id where o.o_total > ?",
        [(80.0,), (97.0,)],
    ),
    (
        "select * from orders where o_total > ? order by o_total desc limit 5",
        [(20.0,), (90.0,)],
    ),
]


class TestSlotExecutionEquivalence:
    @pytest.mark.parametrize("sql,param_sets", SHAPES)
    def test_prepared_rows_match_literal_bound_plan(self, sql, param_sets):
        """Slot execution is row-identical to the unprepared (literal) path."""
        database = make_database()
        statement = database.prepare(sql)
        for params in param_sets:
            expected = database.execute_plan(
                bind_parameters(parse_sql(sql), params), sql=sql
            )
            actual = statement.execute(params)
            assert actual.rows == expected.rows

    @pytest.mark.parametrize("sql,param_sets", SHAPES)
    def test_interleaved_parameters_do_not_leak(self, sql, param_sets):
        """Re-binding must fully overwrite the previous execution's slots."""
        database = make_database()
        statement = database.prepare(sql)
        first = statement.execute(param_sets[0]).rows
        statement.execute(param_sets[-1])
        again = statement.execute(param_sets[0]).rows
        assert again == first

    def test_none_parameter_matches_literal_semantics(self):
        """A bound NULL compares like the interpreter's NULL (no match)."""
        database = make_database()
        statement = database.prepare("select * from orders where o_total > ?")
        assert statement.execute((None,)).rows == []

    def test_missing_parameter_raises(self):
        database = make_database()
        statement = database.prepare(
            "select * from orders where o_total > ? and o_status = ?"
        )
        with pytest.raises(SQLSyntaxError, match="missing value"):
            statement.execute((1.0,))

    def test_extra_parameters_ignored(self):
        database = make_database()
        statement = database.prepare("select * from orders where o_c_id = ?")
        rows = statement.execute((3, "ignored", 42)).rows
        assert rows and all(r["o_c_id"] == 3 for r in rows)


class TestNoRecompilePerExecution:
    def _count_compiles(self, database, statement, param_sets):
        """Expression.compile invocations during repeated executions."""
        counter = {"calls": 0}
        original = Expression.compile

        def counting(self):
            counter["calls"] += 1
            return original(self)

        Expression.compile = counting
        try:
            # Warm-up execution may lower the template once per operator.
            statement.execute(param_sets[0])
            warmup = counter["calls"]
            for params in param_sets:
                statement.execute(params)
            return warmup, counter["calls"] - warmup
        finally:
            Expression.compile = original

    @pytest.mark.parametrize("sql,param_sets", SHAPES)
    def test_steady_state_executions_compile_nothing(self, sql, param_sets):
        database = make_database()
        statement = database.prepare(sql)
        warmup, steady = self._count_compiles(database, statement, param_sets)
        assert steady == 0, (
            f"{sql!r} recompiled {steady} expressions after warm-up"
        )

    def test_update_compiles_once(self):
        database = make_database()
        statement = database.prepare(
            "update orders set o_total = o_total + ? where o_c_id = ?"
        )
        counter = {"calls": 0}
        original = Expression.compile

        def counting(self):
            counter["calls"] += 1
            return original(self)

        Expression.compile = counting
        try:
            statement.execute_update((1.0, 3))
            warmup = counter["calls"]
            for increment in range(5):
                statement.execute_update((float(increment), 3))
            assert counter["calls"] == warmup
        finally:
            Expression.compile = original

    def test_template_plan_object_is_stable(self):
        """The executed plan is the same object on every call (no rebuild)."""
        database = make_database()
        statement = database.prepare("select * from orders where o_total > ?")
        template = statement._exec_plan
        statement.execute((10.0,))
        statement.execute((90.0,))
        assert statement._exec_plan is template


class TestSlottedUpdates:
    def test_prepared_update_binds_per_execution(self):
        database = make_database()
        statement = database.prepare(
            "update orders set o_status = ? where o_id = ?"
        )
        assert statement.execute_update(("SHIPPED", 5)) == 1
        assert statement.execute_update(("SHIPPED", 6)) == 1
        rows = database.execute_sql(
            "select * from orders where o_status = 'SHIPPED'"
        ).rows
        assert sorted(r["o_id"] for r in rows) == [5, 6]

    def test_update_expression_reads_row_and_slot(self):
        database = make_database()
        before = {
            r["o_id"]: r["o_total"]
            for r in database.execute_sql("select * from orders").rows
        }
        statement = database.prepare(
            "update orders set o_total = o_total + ? where o_id = ?"
        )
        statement.execute_update((5.0, 7))
        after = database.execute_sql(
            "select * from orders where o_id = 7"
        ).rows[0]
        assert after["o_total"] == pytest.approx(before[7] + 5.0)

    def test_update_missing_parameter_raises(self):
        database = make_database()
        statement = database.prepare(
            "update orders set o_status = ? where o_id = ?"
        )
        with pytest.raises(SQLSyntaxError, match="missing value"):
            statement.execute_update(("X",))

    def test_simultaneous_assignment_semantics_preserved(self):
        database = make_database()
        database.create_table(
            "pairs",
            [Column("a", ColumnType.INT), Column("b", ColumnType.INT)],
        )
        database.insert("pairs", [{"a": 1, "b": 2}])
        statement = database.prepare("update pairs set a = b, b = a")
        statement.execute_update()
        row = database.execute_sql("select * from pairs").rows[0]
        assert (row["a"], row["b"]) == (2, 1)


class TestParameterSlotExpression:
    def test_slot_reads_current_buffer_value(self):
        slots = [None]
        slot = ParameterSlot(0, slots)
        compiled = slot.compile()
        slots[0] = 42
        assert compiled({}) == 42
        assert slot.evaluate({}) == 42
        slots[0] = "other"
        assert compiled({}) == "other"

    def test_slots_use_identity_equality(self):
        slots = [None]
        a = ParameterSlot(0, slots)
        b = ParameterSlot(0, slots)
        assert a != b
        assert a == a
        assert len({a, b}) == 2

    def test_bind_parameter_slots_rewrites_every_parameter(self):
        slots = [None, None]
        plan = bind_parameter_slots(
            parse_sql(
                "select * from orders where o_total > ? and o_status = ?"
            ),
            slots,
        )
        predicate = plan.predicate
        found = []

        def walk(expression):
            if isinstance(expression, ParameterSlot):
                found.append(expression)
            for attr in ("left", "right", "operand"):
                child = getattr(expression, attr, None)
                if isinstance(child, Expression):
                    walk(child)
            for child in getattr(expression, "operands", ()):
                walk(child)

        walk(predicate)
        assert [slot.index for slot in found] == [0, 1]
        assert all(slot.slots is slots for slot in found)

    def test_to_sql_renders_placeholder(self):
        assert ParameterSlot(0, [None]).to_sql() == "?"


class TestSlotInvalidationInteraction:
    def test_estimates_revalidate_after_analyze(self):
        database = make_database()
        statement = database.prepare("select * from orders where o_c_id = ?")
        statement.execute((1,))
        first = statement.estimates_computed
        database.analyze()
        statement.execute((1,))
        statement.estimate()
        assert statement.estimates_computed == first + 1

    def test_ddl_drops_slotted_statements(self):
        database = make_database()
        statement = database.prepare("select * from orders where o_c_id = ?")
        database.create_table("extra", [Column("x", ColumnType.INT)])
        fresh = database.prepare("select * from orders where o_c_id = ?")
        assert fresh is not statement
        assert fresh.execute((2,)).rows == [
            r for r in fresh.execute((2,)).rows
        ]

    def test_shard_table_clears_vectorized_plan_cache(self):
        """Sharding is DDL: it drops the executor's lowered plans too."""
        database = make_database()
        statement = database.prepare("select * from orders where o_total > ?")
        statement.execute((10.0,))
        vectorized = database._executor._vectorized
        assert vectorized is not None and vectorized._pipelines
        assert vectorized._shapes
        database.shard_table("orders", "o_id", 2)
        assert not vectorized._ops
        assert not vectorized._pipelines
        assert not vectorized._shapes

    def test_ddl_clears_vectorized_plan_cache(self):
        """DDL drops the vectorized tier's plan and pipeline caches too."""
        database = make_database()
        statement = database.prepare("select * from orders where o_total > ?")
        statement.execute((10.0,))
        vectorized = database._executor._vectorized
        assert vectorized is not None and vectorized._pipelines
        ordered = database.prepare(
            "select o_id from orders where o_total > ? order by o_id"
        )
        ordered.execute((10.0,))
        assert vectorized._ops
        database.create_table("extra", [Column("x", ColumnType.INT)])
        assert not vectorized._ops
        assert not vectorized._pipelines
        assert not vectorized._shapes

    def test_table_mutation_reflected_on_next_execution(self):
        database = make_database()
        statement = database.prepare("select * from orders where o_c_id = ?")
        before = len(statement.execute((4,)).rows)
        database.insert("orders", [{"o_id": 999, "o_c_id": 4, "o_total": 1.0}])
        assert len(statement.execute((4,)).rows) == before + 1
