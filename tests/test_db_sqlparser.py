"""Unit tests for the SQL parser."""

import sqlite3

import pytest

from repro.db import algebra
from repro.db.expressions import BinaryOp, BooleanOp, ColumnRef, InList, IsNull, Literal
from repro.db.sqlparser import (
    Parameter,
    SQLSyntaxError,
    UnsupportedSqlError,
    bind_parameters,
    count_parameters,
    parse_sql,
    tokenize,
)


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("select a, b from t where a >= 10")
        kinds = [t.kind for t in tokens]
        assert "name" in kinds and "op" in kinds and "number" in kinds

    def test_string_literal_with_escape(self):
        tokens = tokenize("select * from t where name = 'it''s'")
        strings = [t for t in tokens if t.kind == "string"]
        assert strings[0].text == "'it''s'"

    def test_unknown_character_raises(self):
        with pytest.raises(SQLSyntaxError, match="unexpected character"):
            tokenize("select # from t")


class TestSelectShapes:
    def test_select_star(self):
        plan = parse_sql("select * from orders")
        assert isinstance(plan, algebra.Scan)
        assert plan.table == "orders"

    def test_table_alias(self):
        plan = parse_sql("select * from orders o")
        assert isinstance(plan, algebra.Scan) and plan.alias == "o"

    def test_projection(self):
        plan = parse_sql("select month, sale_amt from sales")
        assert isinstance(plan, algebra.Project)
        assert plan.output_names == ["month", "sale_amt"]

    def test_projection_with_alias_and_expression(self):
        plan = parse_sql("select sale_amt * 2 as double_amt from sales")
        assert isinstance(plan, algebra.Project)
        assert plan.output_names == ["double_amt"]

    def test_where_clause(self):
        plan = parse_sql("select * from t where a = 1 and b > 2")
        assert isinstance(plan, algebra.Select)
        assert isinstance(plan.predicate, BooleanOp)

    def test_where_with_or_and_not(self):
        plan = parse_sql("select * from t where not a = 1 or b < 2")
        assert isinstance(plan, algebra.Select)

    def test_in_list(self):
        plan = parse_sql("select * from t where state in ('OPEN', 'CLOSED')")
        assert isinstance(plan.predicate, InList)
        assert plan.predicate.values == ("OPEN", "CLOSED")

    def test_is_null(self):
        plan = parse_sql("select * from t where x is not null")
        assert isinstance(plan.predicate, IsNull) and plan.predicate.negated

    def test_join_with_on(self):
        plan = parse_sql(
            "select * from orders o join customer c "
            "on o.o_customer_sk = c.c_customer_sk"
        )
        assert isinstance(plan, algebra.Join)
        assert isinstance(plan.condition, BinaryOp)
        assert plan.condition.left.qualifier == "o"

    def test_multiple_joins(self):
        plan = parse_sql(
            "select * from a join b on a.x = b.x join c on b.y = c.y"
        )
        assert isinstance(plan, algebra.Join)
        assert isinstance(plan.left, algebra.Join)

    def test_order_by_and_limit(self):
        plan = parse_sql("select * from t order by a desc, b limit 5")
        assert isinstance(plan, algebra.Limit) and plan.count == 5
        sort = plan.child
        assert isinstance(sort, algebra.Sort)
        assert sort.keys[0].ascending is False and sort.keys[1].ascending is True

    def test_group_by_with_aggregate(self):
        plan = parse_sql("select month, sum(sale_amt) from sales group by month")
        assert isinstance(plan, algebra.Project)
        aggregate = plan.child
        assert isinstance(aggregate, algebra.Aggregate)
        assert aggregate.group_by[0].name == "month"
        assert aggregate.aggregates[0].function == "sum"

    def test_scalar_aggregate(self):
        plan = parse_sql("select sum(sale_amt) from sales")
        assert isinstance(plan, algebra.Project)
        assert isinstance(plan.child, algebra.Aggregate)

    def test_count_star(self):
        plan = parse_sql("select count(*) from t")
        aggregate = plan.child
        assert aggregate.aggregates[0].function == "count"
        assert aggregate.aggregates[0].argument is None

    def test_case_insensitive_keywords(self):
        plan = parse_sql("SELECT * FROM t WHERE a = 1 ORDER BY a")
        assert isinstance(plan, algebra.Sort)


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "update t set a = 1",
            "select * from",
            "select from t",
            "select * from t where",
            "select * from t limit x",
            "select * from t extra garbage",
            "select max(*) from t",
        ],
    )
    def test_malformed_sql_raises(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse_sql(sql)


class TestParameters:
    def test_parameter_counted(self):
        plan = parse_sql("select * from customer where c_customer_sk = ?")
        assert count_parameters(plan) == 1

    def test_bind_parameters(self):
        plan = parse_sql("select * from customer where c_customer_sk = ?")
        bound = bind_parameters(plan, (42,))
        assert count_parameters(bound) == 0
        assert isinstance(bound.predicate.right, Literal)
        assert bound.predicate.right.value == 42

    def test_bind_missing_parameter_raises(self):
        plan = parse_sql("select * from t where a = ? and b = ?")
        with pytest.raises(SQLSyntaxError, match="missing value"):
            bind_parameters(plan, (1,))

    def test_multiple_parameters_bound_in_order(self):
        plan = parse_sql("select * from t where a = ? and b = ?")
        bound = bind_parameters(plan, (1, 2))
        operands = bound.predicate.operands
        assert operands[0].right.value == 1 and operands[1].right.value == 2

    def test_unbound_parameter_cannot_evaluate(self):
        parameter = Parameter(0)
        with pytest.raises(SQLSyntaxError):
            parameter.evaluate({})


class TestUnsupportedConstructs:
    """Valid SQL outside the grammar fails at prepare time, by name."""

    CASES = [
        ("select distinct x from a", "DISTINCT"),
        ("select count(distinct x) from a", "DISTINCT"),
        ("select x from a where x between 4 and 6", "BETWEEN"),
        ("select x from a where (x between 4 and 6) and y = 1", "BETWEEN"),
        ("select x from a where x not between 4 and 6", "NOT BETWEEN"),
        ("select * from a left join b on a.x = b.x", "LEFT JOIN"),
        ("select * from a left outer join b on a.x = b.x", "LEFT OUTER JOIN"),
        ("select * from a right join b on a.x = b.x", "RIGHT JOIN"),
    ]

    @staticmethod
    def sqlite():
        connection = sqlite3.connect(":memory:")
        connection.execute("create table a (x int, y int)")
        connection.execute("create table b (x int, z int)")
        return connection

    @pytest.mark.parametrize("sql, construct", CASES)
    def test_sqlite_accepts_and_the_engine_names_the_construct(
        self, sql, construct
    ):
        from repro.db.database import Database

        if construct == "RIGHT JOIN" and sqlite3.sqlite_version_info < (3, 39):
            pytest.skip("RIGHT JOIN needs SQLite 3.39")
        self.sqlite().execute(sql).fetchall()
        with pytest.raises(UnsupportedSqlError) as raised:
            Database().prepare(sql)
        assert raised.value.construct == construct
        assert construct in str(raised.value)
        assert isinstance(raised.value, SQLSyntaxError)

    def test_distinct_is_never_a_column(self):
        # SQLite rejects it too; the engine used to read a column here.
        with pytest.raises(sqlite3.OperationalError):
            self.sqlite().execute("select distinct from a")
        with pytest.raises(UnsupportedSqlError) as raised:
            parse_sql("select distinct from a")
        assert raised.value.construct == "DISTINCT"

    @pytest.mark.parametrize(
        "word", ["distinct", "between", "left", "right", "outer"]
    )
    def test_reserved_words_are_not_column_names(self, word):
        with pytest.raises(SQLSyntaxError, match="reserved word"):
            parse_sql(f"select x, {word} from a")

    def test_right_is_not_an_alias(self):
        # ``a right join b`` once parsed as an inner join of ``a`` aliased
        # ``right``.
        with pytest.raises(UnsupportedSqlError):
            parse_sql("select * from a right join b on a.x = b.x")
