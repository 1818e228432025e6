"""Unit tests for F-IR code generation helpers."""

import ast

import pytest

from repro.fir import codegen
from repro.fir.builder import LookupBinding


def stmt(source: str) -> ast.stmt:
    return ast.parse(source).body[0]


class TestRewriters:
    def test_row_access_rewriter_attribute_and_subscript(self):
        rewriter = codegen.RowAccessRewriter(
            {"o": ("r", "orders"), "cust": ("r", "customer")},
            ["c_customer_sk", "c_birth_year", "o_id", "o_customer_sk"],
        )
        rewritten = codegen.rewrite_statements(
            [stmt("val = my_func(o.o_id, cust['c_birth_year'])")], rewriter
        )
        text = ast.unparse(rewritten[0])
        assert "r['o_id']" in text
        assert "r['c_birth_year']" in text

    def test_row_access_rewriter_reads_shared_names_qualified(self):
        rewriter = codegen.RowAccessRewriter(
            {"p": ("r", "participant"), "role": ("r", "role")},
            ["role.role_id", "role.name", "participant_id", "participant.name"],
        )
        rewritten = codegen.rewrite_statements(
            [stmt("x = (p.participant_id, p['name'], role.name)")], rewriter
        )
        assert ast.unparse(rewritten[0]) == (
            "x = (r['participant_id'], r['participant.name'], r['role.name'])"
        )
        with pytest.raises(codegen.CodegenError, match="not found"):
            codegen.rewrite_statements([stmt("x = p.missing")], rewriter)

    def test_row_access_rewriter_without_qualifier(self):
        rewriter = codegen.RowAccessRewriter({"o": ("row", None)}, ["amount"])
        rewritten = codegen.rewrite_statements([stmt("x = o.amount")], rewriter)
        assert "row['amount']" in ast.unparse(rewritten[0])

    def test_rewrite_join_rows_reads_the_layout_keys(self, wilos_database):
        sql = (
            "select * from participant join role "
            "on participant.role_id = role.role_id"
        )
        body = [stmt("x = (p.role_id, p.participant_id, r.name, r.category)")]
        variables = {"p": ("row", "participant"), "r": ("row", "role")}
        rewritten = codegen.rewrite_join_rows(
            body, variables, sql, wilos_database.schema
        )
        assert ast.unparse(rewritten[0]) == (
            "x = (row['participant.role_id'], row['participant_id'], "
            "row['role.name'], row['category'])"
        )
        # No schema, an unknown table, or an access the row cannot serve.
        assert codegen.rewrite_join_rows(body, variables, sql, None) is None
        assert (
            codegen.rewrite_join_rows(
                body, variables, "select * from nope", wilos_database.schema
            )
            is None
        )
        missing = [stmt("x = p.missing")]
        assert (
            codegen.rewrite_join_rows(missing, variables, sql, wilos_database.schema)
            is None
        )

    def test_rewrite_statements_drops_requested_statements(self):
        keep = stmt("x = 1")
        drop = stmt("y = 2")
        result = codegen.rewrite_statements(
            [keep, drop], codegen.RowAccessRewriter({}, []), drop=[drop]
        )
        assert len(result) == 1
        assert ast.unparse(result[0]) == "x = 1"

    def test_subscript_style_rewriter(self):
        rewriter = codegen.SubscriptStyleRewriter(["cust"])
        rewritten = codegen.rewrite_statements(
            [stmt("v = cust.c_birth_year + other.field")], rewriter
        )
        text = ast.unparse(rewritten[0])
        assert "cust['c_birth_year']" in text
        assert "other.field" in text

    def test_unparse_block_indentation(self):
        text = codegen.unparse_block([stmt("a = 1"), stmt("b = 2")], indent=4)
        assert text == "    a = 1\n    b = 2"


class TestSqlBuilders:
    def _binding(self) -> LookupBinding:
        return LookupBinding(
            variable="cust",
            kind="lazy_load",
            table="customer",
            key_column="c_customer_sk",
            key_expression=ast.parse("o.o_customer_sk", mode="eval").body,
            source_column="o_customer_sk",
        )

    def test_build_join_sql(self):
        sql = codegen.build_join_sql("select * from orders", self._binding())
        assert sql == (
            "select * from orders join customer "
            "on orders.o_customer_sk = customer.c_customer_sk"
        )

    def test_build_join_sql_preserves_outer_filter(self):
        sql = codegen.build_join_sql(
            "select * from orders where o_status = 'OPEN'", self._binding()
        )
        assert "where o_status = 'OPEN'" in sql and "join customer" in sql

    def test_build_join_sql_rejects_unjoinable_outer(self):
        sql = codegen.build_join_sql(
            "select count(*) from orders", self._binding()
        )
        assert sql is None

    def test_build_nested_join_sql(self):
        sql = codegen.build_nested_join_sql(
            "select * from participant",
            "select * from role",
            "participant.role_id = role.role_id",
        )
        assert "join role on participant.role_id = role.role_id" in sql

    def test_build_aggregate_sql(self):
        result = codegen.build_aggregate_sql(
            "select month, sale_amt from sales order by month", "sum", "sale_amt"
        )
        assert result is not None
        sql, name = result
        assert sql == "select sum(sale_amt) from sales"
        assert name == "sum_sale_amt"

    def test_build_aggregate_count_star(self):
        result = codegen.build_aggregate_sql(
            "select * from concrete_task where activity_id = ?", "count", None
        )
        assert result is not None
        sql, name = result
        assert "count(*)" in sql and "where activity_id = ?" in sql
        assert name == "count_all"

    def test_push_predicate_sql(self):
        sql = codegen.push_predicate_sql(
            "select * from concrete_task", "activity_id = ?"
        )
        assert sql == "select * from concrete_task where activity_id = ?"

    def test_push_predicate_preserves_order_by(self):
        sql = codegen.push_predicate_sql(
            "select * from sales order by month", "amount > 5"
        )
        assert "where amount > 5" in sql and "order by month" in sql


class TestPredicateTranslation:
    def test_simple_column_constant(self):
        guard = ast.parse("t['points'] > 10", mode="eval").body
        predicate, params = codegen.predicate_to_sql(guard, "t")
        assert predicate == "points > 10"
        assert params == []

    def test_column_equals_outer_value_becomes_parameter(self):
        guard = ast.parse("t['activity_id'] == a['activity_id']", mode="eval").body
        predicate, params = codegen.predicate_to_sql(guard, "t")
        assert predicate == "activity_id = ?"
        assert params == ["a['activity_id']"]

    def test_swapped_operands_keep_column_on_left(self):
        guard = ast.parse("key < t['points']", mode="eval").body
        predicate, params = codegen.predicate_to_sql(guard, "t")
        assert predicate == "points > ?"
        assert params == ["key"]

    def test_boolean_combination(self):
        guard = ast.parse(
            "t['points'] > 3 and t['state'] == 'done'", mode="eval"
        ).body
        predicate, params = codegen.predicate_to_sql(guard, "t")
        assert "points > 3" in predicate and "state = 'done'" in predicate
        assert params == []

    def test_untranslatable_guard_returns_none(self):
        guard = ast.parse("helper(t)", mode="eval").body
        assert codegen.predicate_to_sql(guard, "t") is None

    def test_guard_column_helper(self):
        assert codegen.guard_column(ast.parse("t.x", mode="eval").body, "t") == "x"
        assert (
            codegen.guard_column(ast.parse("t['y']", mode="eval").body, "t") == "y"
        )
        assert codegen.guard_column(ast.parse("other.x", mode="eval").body, "t") is None
