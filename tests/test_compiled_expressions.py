"""Equivalence of lowered expression evaluation and the interpreter.

There is one lowering of an expression tree to code
(``repro.db.expressions.lower_expression``), instantiated in three scopes:
row closures (``Expression.compile``), batch kernels and fused pipelines
(``repro.db.vectorized``).  Every scope must agree with the tree-walking
interpreter (``Expression.evaluate``) on every node type — values *and*
raised errors: NULL semantics, qualified/unqualified column fallback,
ambiguity errors, short-circuiting, unknown functions — and the compiled
executor must return exactly the rows of the interpreted executor on every
query shape the benchmarks use.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import algebra
from repro.db.database import Database
from repro.db.executor import Executor
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
    ParameterSlot,
)
from repro.db.schema import Column, ColumnType
from repro.db.sqlparser import parse_sql
from repro.db.vectorized import (
    _CODEGEN_UNSUPPORTED,
    VectorizedExecutor,
    _batch_from_rows,
)

ROWS = [
    {"a": 3, "b": 10, "name": "ann", "maybe": None, "t.a": 3, "t.flag": True},
    {"a": None, "b": -2, "name": "BOB", "maybe": 7, "t.a": None, "t.flag": False},
    {"a": 0, "b": 0, "name": "", "maybe": 0, "t.a": 0, "t.flag": False},
]


def assert_equivalent(expression: Expression, row: dict) -> None:
    """Compiled and interpreted evaluation agree on value or error type."""
    try:
        expected = expression.evaluate(row)
        failed = None
    except Exception as exc:  # noqa: BLE001 - comparing failure modes
        expected, failed = None, type(exc)
    compiled = expression.compile()
    if failed is None:
        assert compiled(row) == expected
        assert type(compiled(row)) is type(expected)
    else:
        with pytest.raises(failed):
            compiled(row)


class TestNodeEquivalence:
    @pytest.mark.parametrize("value", [1, 1.5, "x", None, True, [1, 2]])
    def test_literal(self, value):
        for row in ROWS:
            assert_equivalent(Literal(value), row)

    def test_column_ref_bare(self):
        for row in ROWS:
            assert_equivalent(ColumnRef("a"), row)
            assert_equivalent(ColumnRef("name"), row)

    def test_column_ref_qualified_present(self):
        for row in ROWS:
            assert_equivalent(ColumnRef("a", "t"), row)

    def test_column_ref_qualified_falls_back_to_bare(self):
        # Qualifier "z" never matches; the bare key resolves.
        for row in ROWS:
            assert_equivalent(ColumnRef("b", "z"), row)

    def test_column_ref_suffix_fallback(self):
        # "flag" only exists as the qualified key "t.flag".
        for row in ROWS:
            assert_equivalent(ColumnRef("flag"), row)

    def test_column_ref_missing_raises_both_ways(self):
        for row in ROWS:
            assert_equivalent(ColumnRef("nope"), row)
            assert_equivalent(ColumnRef("nope", "t"), row)

    def test_column_ref_ambiguous_raises_both_ways(self):
        row = {"x.c": 1, "y.c": 2}
        assert_equivalent(ColumnRef("c"), row)

    @pytest.mark.parametrize(
        "op", ["+", "-", "*", "/", "%", "=", "==", "!=", "<>", "<", "<=", ">", ">="]
    )
    def test_binary_ops_including_nulls(self, op):
        operands = [
            (ColumnRef("a"), ColumnRef("b")),
            (ColumnRef("a"), Literal(2)),
            (Literal(7), ColumnRef("maybe")),
            (Literal(None), ColumnRef("b")),
            (ColumnRef("maybe"), Literal(None)),
        ]
        for left, right in operands:
            for row in ROWS:
                assert_equivalent(BinaryOp(op, left, right), row)

    def test_boolean_ops(self):
        a = BinaryOp(">", ColumnRef("b"), Literal(0))
        b = IsNull(ColumnRef("maybe"))
        c = BinaryOp("=", ColumnRef("name"), Literal("ann"))
        for row in ROWS:
            assert_equivalent(BooleanOp("and", (a, b)), row)
            assert_equivalent(BooleanOp("or", (a, b, c)), row)
            assert_equivalent(Not(a), row)

    def test_is_null_and_negation(self):
        for row in ROWS:
            assert_equivalent(IsNull(ColumnRef("maybe")), row)
            assert_equivalent(IsNull(ColumnRef("maybe"), negated=True), row)

    def test_in_list(self):
        for row in ROWS:
            assert_equivalent(InList(ColumnRef("a"), (0, 3, 9)), row)
            assert_equivalent(InList(ColumnRef("name"), ("ann", "BOB")), row)
            assert_equivalent(InList(ColumnRef("maybe"), ()), row)

    def test_in_list_unhashable_values(self):
        # frozenset conversion must fall back for unhashable members.
        expr = InList(Literal([1]), ([1], [2]))
        for row in ROWS:
            assert_equivalent(expr, row)

    def test_function_calls(self):
        for row in ROWS:
            assert_equivalent(FunctionCall("upper", (ColumnRef("name"),)), row)
            assert_equivalent(FunctionCall("lower", (ColumnRef("name"),)), row)
            assert_equivalent(FunctionCall("abs", (ColumnRef("b"),)), row)
            assert_equivalent(FunctionCall("length", (ColumnRef("name"),)), row)
            assert_equivalent(
                FunctionCall("coalesce", (ColumnRef("maybe"), Literal(9))), row
            )

    def test_unknown_function_raises_at_call_time(self):
        expr = FunctionCall("median", (ColumnRef("a"),))
        compiled = expr.compile()  # must not raise eagerly
        with pytest.raises(ExpressionError):
            compiled(ROWS[0])


class TestPropertyStyleEquivalence:
    """Randomly generated expression trees agree on randomly generated rows."""

    COLUMNS = ["a", "b", "maybe", "name"]

    def _random_expression(self, rng: random.Random, depth: int) -> Expression:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return ColumnRef(rng.choice(self.COLUMNS))
            return Literal(rng.choice([None, 0, 1, 7, -3, "ann", 2.5]))
        choice = rng.randrange(6)
        if choice == 0:
            op = rng.choice(["+", "-", "*", "=", "!=", "<", ">="])
            return BinaryOp(
                op,
                self._random_expression(rng, depth - 1),
                self._random_expression(rng, depth - 1),
            )
        if choice == 1:
            return BooleanOp(
                rng.choice(["and", "or"]),
                (
                    self._random_expression(rng, depth - 1),
                    self._random_expression(rng, depth - 1),
                ),
            )
        if choice == 2:
            return Not(self._random_expression(rng, depth - 1))
        if choice == 3:
            return IsNull(
                self._random_expression(rng, depth - 1),
                negated=rng.random() < 0.5,
            )
        if choice == 4:
            return InList(
                self._random_expression(rng, depth - 1), (0, 1, "ann", None)
            )
        return FunctionCall(
            "coalesce",
            (
                self._random_expression(rng, depth - 1),
                self._random_expression(rng, depth - 1),
            ),
        )

    def _random_row(self, rng: random.Random) -> dict:
        return {
            "a": rng.choice([None, 0, 1, 5, -2]),
            "b": rng.choice([None, 0, 3, 9]),
            "maybe": rng.choice([None, 2]),
            "name": rng.choice(["ann", "BOB", ""]),
        }

    def test_random_trees_match_interpreter(self):
        rng = random.Random(20260728)
        for _ in range(300):
            expression = self._random_expression(rng, depth=4)
            for _ in range(5):
                assert_equivalent(expression, self._random_row(rng))


#: Query shapes covering every operator the benchmark workloads execute.
BENCHMARK_QUERIES = [
    "select * from employee",
    "select * from employee e",
    "select * from employee where salary > 60",
    "select name, salary * 2 from employee where dept_id = 1",
    "select * from employee e join department d on e.dept_id = d.dept_id",
    "select e.name, d.dept_name from employee e "
    "join department d on e.dept_id = d.dept_id",
    "select e.name, d.dept_name from employee e "
    "join department d on d.dept_id = e.dept_id where e.salary > 60",
    "select dept_id, count(*), sum(salary), avg(salary) from employee "
    "group by dept_id",
    "select count(*) from employee where salary >= 65",
    "select name, salary from employee order by salary desc limit 3",
    "select * from employee where dept_id in (1, 2)",
    "select upper(name) from employee where salary is not null",
    "select dept_id, max(salary) from employee where salary > 50 "
    "group by dept_id",
    "select * from employee where salary > 50 order by salary desc, name",
]


class TestExecutorModeEquivalence:
    """Compiled and interpreted executors return identical rows in order."""

    @pytest.mark.parametrize("sql", BENCHMARK_QUERIES)
    def test_query_equivalence(self, simple_database, sql):
        plan = parse_sql(sql)
        expected = Executor(simple_database.tables, mode="interpreted").execute(
            plan
        )
        for mode in ("compiled", "vectorized"):
            executor = Executor(simple_database.tables, mode=mode)
            assert executor.execute(plan) == expected, mode

    def test_join_of_filtered_scans(self, simple_database):
        plan = algebra.Join(
            algebra.Select(
                algebra.Scan("employee", "e"),
                BinaryOp(">", ColumnRef("salary", "e"), Literal(60)),
            ),
            algebra.Select(
                algebra.Scan("department", "d"),
                BinaryOp("=", ColumnRef("dept_name", "d"), Literal("eng")),
            ),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        interpreted = Executor(simple_database.tables, mode="interpreted")
        compiled = Executor(simple_database.tables, mode="compiled")
        assert compiled.execute(plan) == interpreted.execute(plan)

    @pytest.mark.parametrize("above", ["select", "project"])
    def test_operator_above_join_of_filtered_scans(self, simple_database, above):
        join = algebra.Join(
            algebra.Select(
                algebra.Scan("employee", "e"),
                BinaryOp(">", ColumnRef("salary", "e"), Literal(50)),
            ),
            algebra.Select(
                algebra.Scan("department", "d"),
                BinaryOp("!=", ColumnRef("dept_name", "d"), Literal("ops")),
            ),
            BinaryOp("=", ColumnRef("dept_id", "d"), ColumnRef("dept_id", "e")),
        )
        plan: algebra.PlanNode = algebra.Select(
            join,
            BooleanOp(
                "and",
                (
                    BinaryOp("<", ColumnRef("salary", "e"), ColumnRef("budget")),
                    Not(IsNull(ColumnRef("dept_name", "d"))),
                ),
            ),
        )
        if above == "project":
            plan = algebra.Project(
                plan,
                (
                    algebra.OutputColumn(ColumnRef("name"), "name"),
                    algebra.OutputColumn(
                        BinaryOp(
                            "+", ColumnRef("salary", "e"), ColumnRef("budget", "d")
                        ),
                        "total",
                    ),
                ),
            )
        expected = Executor(simple_database.tables, mode="interpreted").execute(
            plan
        )
        assert expected
        for mode in ("compiled", "vectorized"):
            executor = Executor(simple_database.tables, mode=mode)
            assert executor.execute(plan) == expected, mode

    def test_reversed_equi_condition(self, simple_database):
        # Condition written right-side-first must join identically.
        plan = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "d"), ColumnRef("dept_id", "e")),
        )
        interpreted = Executor(simple_database.tables, mode="interpreted")
        compiled = Executor(simple_database.tables, mode="compiled")
        assert compiled.execute(plan) == interpreted.execute(plan)

    def test_projected_join_pipelines_identically(self, simple_database):
        plan = algebra.Project(
            algebra.Join(
                algebra.Scan("employee", "e"),
                algebra.Scan("department", "d"),
                BinaryOp(
                    "=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")
                ),
            ),
            (
                algebra.OutputColumn(ColumnRef("name", "e"), "name"),
                algebra.OutputColumn(ColumnRef("dept_name", "d"), "dept"),
                algebra.OutputColumn(
                    BinaryOp("*", ColumnRef("salary", "e"), Literal(2)),
                    "double_salary",
                ),
            ),
        )
        interpreted = Executor(simple_database.tables, mode="interpreted")
        compiled = Executor(simple_database.tables, mode="compiled")
        assert compiled.execute(plan) == interpreted.execute(plan)


class TestInListUnhashableRowValue:
    def test_unhashable_row_value_matches_interpreter(self):
        expr = InList(ColumnRef("x"), (1, 2, 3))
        row = {"x": [1]}
        assert expr.evaluate(row) is False
        assert expr.compile()(row) is False

    def test_unhashable_row_value_can_still_match(self):
        expr = InList(ColumnRef("x"), ([1], [2]))
        assert expr.evaluate({"x": [1]}) == expr.compile()({"x": [1]}) == True  # noqa: E712
        assert expr.evaluate({"x": [3]}) == expr.compile()({"x": [3]}) == False  # noqa: E712


# -- one lowering, three scopes ------------------------------------------------

SCOPE_COLUMNS = ("a", "b", "maybe", "name")

#: The slot buffer every generated ``ParameterSlot`` reads.
SLOTS = [None, None]


class Foreign(Expression):
    """An expression type the lowering has never heard of."""

    def evaluate(self, row):
        return row["a"]


def is_opaque(expression: Expression) -> bool:
    """Whether the tree holds a node only the row scope can run."""
    if isinstance(expression, Foreign):
        return True
    if isinstance(expression, FunctionCall):
        return expression.name == "median" or any(map(is_opaque, expression.args))
    if isinstance(expression, BinaryOp):
        return is_opaque(expression.left) or is_opaque(expression.right)
    if isinstance(expression, BooleanOp):
        return any(map(is_opaque, expression.operands))
    if isinstance(expression, (Not, IsNull, InList)):
        return is_opaque(expression.operand)
    return False


def outcomes(evaluate, rows) -> list:
    """Per row: ``(value, type)`` or the raised exception's type."""
    results = []
    for row in rows:
        try:
            value = evaluate(row)
        except Exception as exc:  # noqa: BLE001 - comparing failure modes
            results.append(type(exc))
        else:
            results.append((value, type(value)))
    return results


def column_outcome(run, expected: list) -> None:
    """A whole-column evaluation: all values, or the first row's error."""
    error = next((o for o in expected if isinstance(o, type)), None)
    if error is not None:
        with pytest.raises(error):
            run()
        return
    values = list(run())
    assert [(value, type(value)) for value in values] == expected


def assert_scopes_agree(expression: Expression, rows: list[dict]) -> None:
    """All three scopes of the lowering reproduce ``evaluate`` on ``rows``."""
    expected = outcomes(expression.evaluate, rows)
    # Row scope: one generic getter per column reference.
    assert outcomes(expression.compile(), rows) == expected
    # Batch scope: one fused comprehension per expression.
    kernel = VectorizedExecutor._kernel(expression)
    assert (kernel is None) == is_opaque(expression)
    if kernel is not None:
        batch = _batch_from_rows(rows)
        column_outcome(lambda: kernel(batch), expected)
        keep = VectorizedExecutor._kernel(expression, positions=True)
        if not any(isinstance(o, type) for o in expected):
            assert keep(batch) == [i for i, (v, _) in enumerate(expected) if v]
    # Fused-pipeline scope, under the columns' layout facts and under
    # trial mode's pessimistic ones (every column boxed and nullable).
    plan = algebra.Project(
        algebra.Scan("t"), (algebra.OutputColumn(expression, "v"),)
    )
    database = Database()
    database.create_table(
        "t",
        [
            Column("a", ColumnType.INT),
            Column("b", ColumnType.FLOAT),
            Column("maybe", ColumnType.INT),
            Column("name", ColumnType.STRING),
        ],
    )
    table = database.table("t")
    database.insert("t", rows)
    vectorized = database._executor._vectorized
    shape = vectorized._pipeline_shape(plan)
    assert (shape is _CODEGEN_UNSUPPORTED) == is_opaque(expression)
    if shape is _CODEGEN_UNSUPPORTED:
        # Both vectorized scopes reject the shape, for the same reason.
        assert vectorized.try_execute(plan) is None
        assert vectorized.fallback_reasons == {
            "codegen_unsupported": 1,
            "unknown_function": 1,
        }
        return
    store = table.columns()
    for facts in (table.column_facts(), None):
        pipeline = vectorized._compile_pipeline(shape, table.schema, facts)
        column_outcome(
            lambda: [row["v"] for row in pipeline(store, len(rows), table.rows)],
            expected,
        )


A, B, MAYBE, NAME = (ColumnRef(name) for name in SCOPE_COLUMNS)
DIVIDE = BinaryOp("/", Literal(1), A)  # raises where a == 0
POSITIVE_QUOTIENT = BinaryOp(">", DIVIDE, Literal(0))

EXPLICIT_CASES = [
    # NULL operands and NULL slots.
    BinaryOp("+", A, MAYBE),
    BinaryOp("<", MAYBE, Literal(None)),
    BinaryOp("=", A, ParameterSlot(0, SLOTS)),
    BinaryOp("*", ParameterSlot(0, SLOTS), ParameterSlot(1, SLOTS)),
    IsNull(ParameterSlot(0, SLOTS)),
    IsNull(Literal(3), negated=True),
    IsNull(BinaryOp("+", Literal(1), Literal(2))),
    IsNull(BinaryOp("<", DIVIDE, B), negated=True),
    # Mixed-type comparison raises TypeError; both operands always evaluate.
    BinaryOp("<", A, NAME),
    BinaryOp("<", BinaryOp("+", MAYBE, Literal(1)), DIVIDE),
    # Division by zero behind a short-circuiting and / or.
    BooleanOp("and", (BinaryOp("!=", A, Literal(0)), POSITIVE_QUOTIENT)),
    BooleanOp("or", (BinaryOp("=", A, Literal(0)), POSITIVE_QUOTIENT)),
    BooleanOp("and", (POSITIVE_QUOTIENT, IsNull(B))),
    Not(BinaryOp("%", B, A)),
    # IN lists: unhashable operand values, unhashable members.
    InList(MAYBE, (0, 2, None)),
    InList(MAYBE, ([1], 2)),
    InList(BinaryOp("+", A, Literal(1)), (1, 2)),
    # String compares against literals and slots.
    BinaryOp("=", NAME, Literal("ann")),
    BinaryOp("!=", Literal("ann"), NAME),
    BinaryOp("<>", NAME, ParameterSlot(1, SLOTS)),
    # Functions: NULL-tolerant, raising, unknown; foreign node types.
    FunctionCall("upper", (NAME,)),
    FunctionCall("abs", (NAME,)),
    FunctionCall("coalesce", (MAYBE, A, Literal(0))),
    FunctionCall("median", (A,)),
    BooleanOp("or", (IsNull(A), BinaryOp(">", FunctionCall("median", (A,)), B))),
    Foreign(),
    BinaryOp("+", Foreign(), Literal(1)),
]

EXPLICIT_ROWS = [
    {"a": 3, "b": 2.5, "maybe": None, "name": "ann"},
    {"a": None, "b": 0.0, "maybe": 2, "name": "BOB"},
    {"a": 0, "b": None, "maybe": [1], "name": None},
    {"a": -2, "b": 9.0, "maybe": 0, "name": ""},
    {"a": 0, "b": 1.0, "maybe": None, "name": "x"},
]


@pytest.mark.filterwarnings("error::SyntaxWarning")  # e.g. ``3 is None``
class TestThreeScopes:
    """One expression/row set, checked against evaluate in every scope."""

    @pytest.mark.parametrize("expression", EXPLICIT_CASES, ids=repr)
    @pytest.mark.parametrize("slots", [(None, "ann"), (3, 2)])
    def test_explicit_cases(self, expression, slots):
        SLOTS[:] = slots
        assert_scopes_agree(expression, EXPLICIT_ROWS)
        # Rows before the first failing one still evaluate (error position).
        assert_scopes_agree(expression, EXPLICIT_ROWS[:2])
        assert_scopes_agree(expression, [])

    leaves = st.one_of(
        st.sampled_from([A, B, MAYBE, NAME]),
        st.sampled_from([None, 0, 1, 7, -3, 2.5, "ann", True]).map(Literal),
        st.sampled_from([0, 1]).map(lambda index: ParameterSlot(index, SLOTS)),
        st.just(Foreign()),
    )

    @staticmethod
    def nodes(children):
        unary = st.sampled_from(["upper", "lower", "abs", "length", "median"])
        return st.one_of(
            st.builds(
                BinaryOp,
                st.sampled_from(
                    ["+", "-", "*", "/", "%", "=", "!=", "<>", "<", "<=", ">", ">="]
                ),
                children,
                children,
            ),
            st.builds(
                BooleanOp,
                st.sampled_from(["and", "or"]),
                st.lists(children, min_size=2, max_size=3).map(tuple),
            ),
            st.builds(Not, children),
            st.builds(IsNull, children, st.booleans()),
            st.builds(
                InList,
                children,
                st.sampled_from([(0, 1, "ann", None), (), ([1], 2.5)]),
            ),
            st.builds(
                FunctionCall, unary, children.map(lambda child: (child,))
            ),
            st.builds(
                FunctionCall,
                st.just("coalesce"),
                st.lists(children, min_size=1, max_size=3).map(tuple),
            ),
        )

    rows = st.lists(
        st.fixed_dictionaries(
            {
                "a": st.sampled_from([None, 0, 1, 5, -2, "x"]),
                "b": st.sampled_from([None, 0.0, 3.0, 2.5]),
                "maybe": st.sampled_from([None, 2, 2, [1]]),
                "name": st.sampled_from(["ann", "BOB", "", None]),
            }
        ),
        max_size=6,
    )

    @given(
        expression=st.recursive(leaves, nodes.__func__, max_leaves=8),
        rows=rows,
        slots=st.tuples(
            st.sampled_from([None, 0, 3, "ann"]),
            st.sampled_from([None, 2, "BOB"]),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_expressions(self, expression, rows, slots):
        SLOTS[:] = slots
        assert_scopes_agree(expression, rows)


class TestRowClosuresAreBuiltOnce:
    def test_prepared_template_reexecutes_without_recompiling(
        self, simple_database, monkeypatch
    ):
        """One ``exec``-compiled closure per expression.

        A prepared template's expression objects are identical across
        executions, so ``_compile_cache`` hits and the lowering never runs
        again.
        """
        compiles = []
        real_compile = Expression.compile

        def counting_compile(self):
            compiles.append(self)
            return real_compile(self)

        monkeypatch.setattr(Expression, "compile", counting_compile)
        database = Database(execution_mode="compiled")
        for name, table in simple_database.tables.items():
            database.create_table(
                name, table.schema.columns, primary_key=table.schema.primary_key
            )
            database.insert(name, table.rows)
        statements = [
            # a filtered scan, a filtered join, a grouped aggregate
            database.prepare(
                "select name, salary * 2 from employee where salary > ?"
            ),
            database.prepare(
                "select e.name, d.dept_name from employee e join department d "
                "on e.dept_id = d.dept_id where e.salary > ?"
            ),
            database.prepare(
                "select dept_id, count(*) as n from employee where salary > ? "
                "group by dept_id order by n"
            ),
        ]
        first = [statement.execute((50,)).rows for statement in statements]
        executor = database._executor
        assert compiles and executor._compile_cache
        built = len(compiles)
        cached = len(executor._compile_cache)
        for _ in range(3):
            assert [s.execute((50,)).rows for s in statements] == first
        assert [s.execute((70,)).rows for s in statements] != first
        assert len(compiles) == built
        assert len(executor._compile_cache) == cached
