"""A small SQL parser for the SELECT/UPDATE subset used throughout the
reproduction.

Supported grammar (case insensitive keywords)::

    query     := SELECT select_list FROM table_ref (join_clause)*
                 [WHERE predicate] [GROUP BY column_list]
                 [ORDER BY order_list] [LIMIT number]
    select_list := '*' | select_item (',' select_item)*
    select_item := expression [AS name] | agg '(' ('*' | expression) ')' [AS name]
    table_ref  := name [name]            -- optional alias
    join_clause:= [INNER] JOIN table_ref ON predicate
    update    := UPDATE name SET assignment (',' assignment)*
                 [WHERE predicate]
    assignment:= column '=' expression
    predicate  := disjunction of conjunctions of comparisons,
                  IS [NOT] NULL, IN (literals), NOT, parentheses
    expression := column | qualified column | literal | '?' parameter |
                  arithmetic over expressions | function(expression, ...)

The parser produces a relational algebra tree (:mod:`repro.db.algebra`):
Scan → Join* → Select → Aggregate → Project → Sort → Limit, mirroring SQL
semantics closely enough for the workloads in the paper.  When a
non-aggregate query orders by a column its select list drops, the Sort goes
below the Project instead (… → Select → Sort → Project → Limit), where
SQLite too resolves such keys: against the table.  UPDATE statements
parse to :class:`UpdateStatement` — a table name, SET assignments whose
right-hand sides are full expressions (so ``set visits = visits + 1`` works),
and an optional WHERE predicate; both sides support positional ``?``
parameters bound with :func:`bind_update_parameters`.

Valid SQL outside the grammar — ``DISTINCT`` (in the select list or an
aggregate argument), ``[NOT] BETWEEN`` and ``LEFT`` / ``RIGHT`` / ``OUTER``
joins — raises :class:`UnsupportedSqlError` naming the construct, and
those keywords never parse as column or alias names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.db import algebra
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
    conjunction,
)

_AGGREGATES = set(algebra.AGGREGATE_FUNCTIONS)


class SQLSyntaxError(Exception):
    """Raised when the SQL text cannot be parsed."""


class UnsupportedSqlError(SQLSyntaxError):
    """Valid SQL the engine does not implement.

    ``construct`` names it (``"DISTINCT"``, ``"BETWEEN"``, ``"LEFT JOIN"``,
    ...), so a caller can tell a missing feature from a typo.
    """

    def __init__(self, construct: str) -> None:
        super().__init__(f"unsupported SQL construct: {construct}")
        self.construct = construct


#: Keywords of constructs the grammar rejects; never column or alias names.
_UNSUPPORTED_WORDS = frozenset(
    {"distinct", "between", "left", "right", "outer"}
)


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional ``?`` parameter; bound before execution."""

    index: int

    def evaluate(self, row):  # pragma: no cover - bound before execution
        raise SQLSyntaxError(
            f"parameter ?{self.index} was not bound before execution"
        )

    def to_sql(self) -> str:
        return "?"


@dataclass(frozen=True)
class UpdateStatement:
    """A parsed UPDATE statement.

    ``assignments`` maps each target column to the expression producing its
    new value; expressions may reference columns of the updated row (e.g.
    ``counter + 1``) and positional parameters.  ``predicate`` is ``None``
    when the statement has no WHERE clause (every row is updated).
    """

    table: str
    assignments: tuple[tuple[str, Expression], ...]
    predicate: Optional[Expression]

    def to_sql(self) -> str:
        sets = ", ".join(
            f"{column} = {expression.to_sql()}"
            for column, expression in self.assignments
        )
        sql = f"update {self.table} set {sets}"
        if self.predicate is not None:
            sql += f" where {self.predicate.to_sql()}"
        return sql


# -- tokenizer -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
  | (?P<op><>|!=|>=|<=|=|<|>|\*|\+|-|/|%|,|\(|\)|\?)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SQLSyntaxError` on unknown input."""
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {sql[position]!r} at offset {position}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append(Token(kind, match.group()))
    return tokens


# -- parser --------------------------------------------------------------


class _Parser:
    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._index = 0
        self._param_count = 0

    # token helpers

    def _peek(self) -> Optional[Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError(f"unexpected end of input in: {self._sql}")
        self._index += 1
        return token

    def _accept_keyword(self, *keywords: str) -> Optional[str]:
        token = self._peek()
        if token and token.kind == "name" and token.text.lower() in keywords:
            self._index += 1
            return token.text.lower()
        return None

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            token = self._peek()
            got = token.text if token else "<eof>"
            raise SQLSyntaxError(f"expected {keyword.upper()!r}, got {got!r}")

    def _accept_op(self, text: str) -> bool:
        token = self._peek()
        if token and token.kind == "op" and token.text == text:
            self._index += 1
            return True
        return False

    def _expect_op(self, text: str) -> None:
        if not self._accept_op(text):
            token = self._peek()
            got = token.text if token else "<eof>"
            raise SQLSyntaxError(f"expected {text!r}, got {got!r}")

    # grammar

    def parse(self) -> algebra.PlanNode:
        self._expect_keyword("select")
        if self._accept_keyword("distinct"):
            raise UnsupportedSqlError("DISTINCT")
        select_items = self._parse_select_list()
        self._expect_keyword("from")
        plan = self._parse_table_ref()
        while True:
            joined = self._parse_join(plan)
            if joined is None:
                break
            plan = joined
        predicate = None
        if self._accept_keyword("where"):
            predicate = self._parse_predicate()
        group_by: list[ColumnRef] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = self._parse_column_list()
        order_keys: list[algebra.SortKey] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_keys = self._parse_order_list()
        limit: Optional[int] = None
        if self._accept_keyword("limit"):
            token = self._next()
            if token.kind != "number":
                raise SQLSyntaxError(f"expected a number after LIMIT, got {token.text!r}")
            limit = int(token.text)
        if self._peek() is not None:
            raise SQLSyntaxError(
                f"unexpected trailing input near {self._peek().text!r}"
            )
        return self._assemble(
            plan, select_items, predicate, group_by, order_keys, limit
        )

    def parse_update(self) -> UpdateStatement:
        self._expect_keyword("update")
        token = self._next()
        if token.kind != "name" or "." in token.text:
            raise SQLSyntaxError(f"expected a table name, got {token.text!r}")
        table = token.text
        self._expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self._accept_op(","):
            assignments.append(self._parse_assignment())
        predicate = None
        if self._accept_keyword("where"):
            predicate = self._parse_predicate()
        if self._peek() is not None:
            raise SQLSyntaxError(
                f"unexpected trailing input near {self._peek().text!r}"
            )
        return UpdateStatement(table, tuple(assignments), predicate)

    def _parse_assignment(self) -> tuple[str, Expression]:
        token = self._next()
        if token.kind != "name" or "." in token.text:
            raise SQLSyntaxError(
                f"expected a column name to assign, got {token.text!r}"
            )
        self._expect_op("=")
        return (token.text, self._parse_expression())

    # select list

    def _parse_select_list(self):
        if self._accept_op("*"):
            return "*"
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self):
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("as"):
            alias_token = self._next()
            alias = alias_token.text
        return (expression, alias)

    # table refs / joins

    def _parse_table_ref(self) -> algebra.Scan:
        token = self._next()
        if token.kind != "name":
            raise SQLSyntaxError(f"expected a table name, got {token.text!r}")
        table = token.text
        alias = None
        nxt = self._peek()
        reserved = {
            "join", "on", "where", "group", "order", "limit", "inner",
            *_UNSUPPORTED_WORDS,
        }
        if nxt and nxt.kind == "name" and nxt.text.lower() not in reserved:
            alias = self._next().text
        return algebra.Scan(table, alias)

    def _parse_join(self, left: algebra.PlanNode) -> Optional[algebra.PlanNode]:
        outer = self._accept_keyword("left", "right", "outer")
        if outer:
            words = [outer]
            if outer != "outer" and self._accept_keyword("outer"):
                words.append("outer")
            raise UnsupportedSqlError(" ".join([*words, "join"]).upper())
        if self._accept_keyword("inner"):
            self._expect_keyword("join")
        elif not self._accept_keyword("join"):
            return None
        right = self._parse_table_ref()
        self._expect_keyword("on")
        condition = self._parse_predicate()
        return algebra.Join(left, right, condition)

    # predicates

    def _parse_predicate(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        operands = [self._parse_and()]
        while self._accept_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("or", tuple(operands))

    def _parse_and(self) -> Expression:
        operands = [self._parse_not()]
        while self._accept_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("and", tuple(operands))

    def _parse_not(self) -> Expression:
        if self._accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        if self._accept_op("("):
            saved = self._index
            try:
                inner = self._parse_predicate()
                self._expect_op(")")
                return inner
            except UnsupportedSqlError:
                raise
            except SQLSyntaxError:
                self._index = saved - 1
        left = self._parse_expression()
        if self._accept_keyword("between"):
            raise UnsupportedSqlError("BETWEEN")
        upcoming = self._tokens[self._index : self._index + 2]
        if [token.text.lower() for token in upcoming] == ["not", "between"]:
            raise UnsupportedSqlError("NOT BETWEEN")
        if self._accept_keyword("is"):
            negated = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return IsNull(left, negated)
        if self._accept_keyword("in"):
            self._expect_op("(")
            values = [self._parse_literal_value()]
            while self._accept_op(","):
                values.append(self._parse_literal_value())
            self._expect_op(")")
            return InList(left, tuple(values))
        token = self._peek()
        if token and token.kind == "op" and token.text in {
            "=", "!=", "<>", "<", "<=", ">", ">=",
        }:
            op = self._next().text
            right = self._parse_expression()
            return BinaryOp(op, left, right)
        return left

    def _parse_literal_value(self) -> Any:
        token = self._next()
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        raise SQLSyntaxError(f"expected a literal, got {token.text!r}")

    # expressions

    def _parse_expression(self) -> Expression:
        return self._parse_additive()

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self._accept_op("+"):
                left = BinaryOp("+", left, self._parse_multiplicative())
            elif self._accept_op("-"):
                left = BinaryOp("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_primary()
        while True:
            if self._accept_op("*"):
                left = BinaryOp("*", left, self._parse_primary())
            elif self._accept_op("/"):
                left = BinaryOp("/", left, self._parse_primary())
            elif self._accept_op("%"):
                left = BinaryOp("%", left, self._parse_primary())
            else:
                return left

    def _parse_primary(self) -> Expression:
        token = self._next()
        if token.kind == "number":
            value = float(token.text) if "." in token.text else int(token.text)
            return Literal(value)
        if token.kind == "string":
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "op" and token.text == "?":
            param = Parameter(self._param_count)
            self._param_count += 1
            return param
        if token.kind == "op" and token.text == "(":
            inner = self._parse_expression()
            self._expect_op(")")
            return inner
        if token.kind == "name":
            lowered = token.text.lower()
            if lowered == "null":
                return Literal(None)
            if lowered in {"true", "false"}:
                return Literal(lowered == "true")
            if self._accept_op("("):
                return self._parse_call(token.text)
            if lowered in _UNSUPPORTED_WORDS:
                raise SQLSyntaxError(
                    f"reserved word {token.text!r} cannot name a column"
                )
            if "." in token.text:
                qualifier, name = token.text.split(".", 1)
                return ColumnRef(name, qualifier)
            return ColumnRef(token.text)
        raise SQLSyntaxError(f"unexpected token {token.text!r}")

    def _parse_call(self, name: str) -> Expression:
        lowered = name.lower()
        if self._accept_op("*"):
            self._expect_op(")")
            if lowered != "count":
                raise SQLSyntaxError(f"{name}(*) is only valid for COUNT")
            return _AggregateCall("count", None)
        if self._accept_keyword("distinct"):
            raise UnsupportedSqlError("DISTINCT")
        args = []
        if not self._accept_op(")"):
            args.append(self._parse_expression())
            while self._accept_op(","):
                args.append(self._parse_expression())
            self._expect_op(")")
        if lowered in _AGGREGATES:
            if len(args) != 1:
                raise SQLSyntaxError(
                    f"aggregate {name} requires exactly one argument"
                )
            return _AggregateCall(lowered, args[0])
        return FunctionCall(lowered, tuple(args))

    def _parse_column_list(self) -> list[ColumnRef]:
        columns = [self._parse_column_ref()]
        while self._accept_op(","):
            columns.append(self._parse_column_ref())
        return columns

    def _parse_column_ref(self) -> ColumnRef:
        token = self._next()
        if token.kind != "name":
            raise SQLSyntaxError(f"expected a column name, got {token.text!r}")
        if "." in token.text:
            qualifier, name = token.text.split(".", 1)
            return ColumnRef(name, qualifier)
        return ColumnRef(token.text)

    def _parse_order_list(self) -> list[algebra.SortKey]:
        keys = [self._parse_order_key()]
        while self._accept_op(","):
            keys.append(self._parse_order_key())
        return keys

    def _parse_order_key(self) -> algebra.SortKey:
        column = self._parse_column_ref()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return algebra.SortKey(column, ascending)

    # assembly

    def _assemble(
        self,
        plan: algebra.PlanNode,
        select_items,
        predicate: Optional[Expression],
        group_by: list[ColumnRef],
        order_keys: list[algebra.SortKey],
        limit: Optional[int],
    ) -> algebra.PlanNode:
        if predicate is not None:
            plan = algebra.Select(plan, predicate)

        aggregates: list[algebra.AggregateSpec] = []
        outputs: list[algebra.OutputColumn] = []
        if select_items != "*":
            for position, (expression, alias) in enumerate(select_items):
                if isinstance(expression, _AggregateCall):
                    name = alias or _default_aggregate_name(expression, position)
                    aggregates.append(
                        algebra.AggregateSpec(
                            expression.function, expression.argument, name
                        )
                    )
                    outputs.append(
                        algebra.OutputColumn(ColumnRef(name), name)
                    )
                else:
                    name = alias or _default_output_name(expression, position)
                    outputs.append(algebra.OutputColumn(expression, name))

        if aggregates or group_by:
            plan = algebra.Aggregate(plan, tuple(group_by), tuple(aggregates))
            if select_items != "*" and outputs:
                plan = algebra.Project(plan, tuple(outputs))
        elif select_items != "*" and outputs:
            if _sorts_below_projection(order_keys, outputs):
                # ORDER BY a column the projection drops: sort the rows
                # while they still carry it.
                plan = algebra.Sort(plan, tuple(order_keys))
                order_keys = []
            plan = algebra.Project(plan, tuple(outputs))

        if order_keys:
            plan = algebra.Sort(plan, tuple(order_keys))
        if limit is not None:
            plan = algebra.Limit(plan, limit)
        return plan


@dataclass(frozen=True)
class _AggregateCall(Expression):
    """Internal marker produced by the parser for aggregate calls."""

    function: str
    argument: Optional[Expression]

    def evaluate(self, row):  # pragma: no cover - never evaluated directly
        raise SQLSyntaxError("aggregate call evaluated outside Aggregate node")

    def to_sql(self) -> str:
        arg = self.argument.to_sql() if self.argument is not None else "*"
        return f"{self.function}({arg})"


def _sorts_below_projection(
    order_keys: list[algebra.SortKey], outputs: list[algebra.OutputColumn]
) -> bool:
    """Whether the Sort must run on the rows before the projection.

    True when some ORDER BY key names no projected column, and every key
    that does names an output that is that very column reference, so the
    key reads the same value below the projection.  Otherwise the Sort
    stays above it.
    """
    projected = {output.name: output.expression for output in outputs}
    dropped = False
    for key in order_keys:
        try:
            expression = key.column.evaluate(projected)
        except ExpressionError:
            dropped = True
            continue
        if expression != key.column:
            return False
    return dropped


def _default_output_name(expression: Expression, position: int) -> str:
    if isinstance(expression, ColumnRef):
        return expression.name
    return f"col{position}"


def _default_aggregate_name(call: _AggregateCall, position: int) -> str:
    if call.argument is not None and isinstance(call.argument, ColumnRef):
        return f"{call.function}_{call.argument.name}"
    if call.argument is None:
        return "count_all"
    return f"{call.function}{position}"


def parse_sql(sql: str) -> algebra.PlanNode:
    """Parse SQL text into a relational algebra plan."""
    return _Parser(sql).parse()


def parse_update(sql: str) -> UpdateStatement:
    """Parse an UPDATE statement into an :class:`UpdateStatement`."""
    return _Parser(sql).parse_update()


def bind_update_parameters(
    statement: UpdateStatement, params: Sequence[Any]
) -> UpdateStatement:
    """Return a copy of ``statement`` with positional parameters bound."""
    return _transform_update(statement, _literal_replacer(params))


def bind_update_slots(
    statement: UpdateStatement, slots: list
) -> UpdateStatement:
    """Rewrite every ``?`` in ``statement`` to read from ``slots``.

    The returned statement is the compile-once template of a prepared
    UPDATE: its expressions can be compiled a single time and re-executed by
    writing fresh values into ``slots`` (see
    :class:`repro.db.expressions.ParameterSlot`).
    """
    return _transform_update(statement, _slot_replacer(slots))


def _transform_update(
    statement: UpdateStatement, replace: "Callable[[Parameter], Expression]"
) -> UpdateStatement:
    assignments = tuple(
        (column, _transform_expr(expression, replace))
        for column, expression in statement.assignments
    )
    predicate = (
        _transform_expr(statement.predicate, replace)
        if statement.predicate is not None
        else None
    )
    return UpdateStatement(statement.table, assignments, predicate)


def count_update_parameters(statement: UpdateStatement) -> int:
    """Number of unbound positional parameters in ``statement``."""
    count = sum(
        _count_params(expression) for _, expression in statement.assignments
    )
    if statement.predicate is not None:
        count += _count_params(statement.predicate)
    return count


def bind_parameters(
    plan: algebra.PlanNode, params: Sequence[Any]
) -> algebra.PlanNode:
    """Return a copy of ``plan`` with positional parameters bound to values."""
    return _transform_plan(plan, _literal_replacer(params))


def bind_parameter_slots(
    plan: algebra.PlanNode, slots: list
) -> algebra.PlanNode:
    """Rewrite every ``?`` in ``plan`` to read from the mutable ``slots``.

    This produces the compile-once template of a prepared query: the
    returned plan is a fixed object whose expressions can be lowered a
    single time, after which each execution merely writes fresh parameter
    values into ``slots`` (see
    :class:`repro.db.expressions.ParameterSlot`) — no tree rebuild, no
    recompilation.
    """
    return _transform_plan(plan, _slot_replacer(slots))


def _literal_replacer(params: Sequence[Any]):
    params = list(params)

    def replace(parameter: Parameter) -> Expression:
        if parameter.index >= len(params):
            raise SQLSyntaxError(
                f"missing value for parameter ?{parameter.index}"
            )
        return Literal(params[parameter.index])

    return replace


def _slot_replacer(slots: list):
    def replace(parameter: Parameter) -> Expression:
        return ParameterSlot(parameter.index, slots)

    return replace


def _transform_plan(plan: algebra.PlanNode, replace) -> algebra.PlanNode:
    if isinstance(plan, algebra.Scan):
        return plan
    if isinstance(plan, algebra.Select):
        return algebra.Select(
            _transform_plan(plan.child, replace),
            _transform_expr(plan.predicate, replace),
        )
    if isinstance(plan, algebra.Project):
        outputs = tuple(
            algebra.OutputColumn(_transform_expr(o.expression, replace), o.name)
            for o in plan.outputs
        )
        return algebra.Project(_transform_plan(plan.child, replace), outputs)
    if isinstance(plan, algebra.Join):
        condition = (
            _transform_expr(plan.condition, replace)
            if plan.condition is not None
            else None
        )
        return algebra.Join(
            _transform_plan(plan.left, replace),
            _transform_plan(plan.right, replace),
            condition,
        )
    if isinstance(plan, algebra.Aggregate):
        aggregates = tuple(
            algebra.AggregateSpec(
                a.function,
                _transform_expr(a.argument, replace)
                if a.argument is not None
                else None,
                a.name,
            )
            for a in plan.aggregates
        )
        return algebra.Aggregate(
            _transform_plan(plan.child, replace), plan.group_by, aggregates
        )
    if isinstance(plan, algebra.Sort):
        return algebra.Sort(_transform_plan(plan.child, replace), plan.keys)
    if isinstance(plan, algebra.Limit):
        return algebra.Limit(_transform_plan(plan.child, replace), plan.count)
    raise TypeError(f"cannot bind parameters in {type(plan).__name__}")


def _transform_expr(expression: Expression, replace) -> Expression:
    if isinstance(expression, Parameter):
        return replace(expression)
    if isinstance(expression, BinaryOp):
        return BinaryOp(
            expression.op,
            _transform_expr(expression.left, replace),
            _transform_expr(expression.right, replace),
        )
    if isinstance(expression, BooleanOp):
        return BooleanOp(
            expression.op,
            tuple(_transform_expr(o, replace) for o in expression.operands),
        )
    if isinstance(expression, Not):
        return Not(_transform_expr(expression.operand, replace))
    if isinstance(expression, IsNull):
        return IsNull(
            _transform_expr(expression.operand, replace), expression.negated
        )
    if isinstance(expression, InList):
        return InList(
            _transform_expr(expression.operand, replace), expression.values
        )
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name,
            tuple(_transform_expr(a, replace) for a in expression.args),
        )
    return expression


def count_parameters(plan: algebra.PlanNode) -> int:
    """Number of unbound positional parameters in ``plan``."""
    count = 0
    for node in algebra.walk(plan):
        for expression in _node_expressions(node):
            count += _count_params(expression)
    return count


def _node_expressions(node: algebra.PlanNode):
    if isinstance(node, algebra.Select) and node.predicate is not None:
        yield node.predicate
    if isinstance(node, algebra.Join) and node.condition is not None:
        yield node.condition
    if isinstance(node, algebra.Project):
        for output in node.outputs:
            yield output.expression
    if isinstance(node, algebra.Aggregate):
        for spec in node.aggregates:
            if spec.argument is not None:
                yield spec.argument


def _count_params(expression: Expression) -> int:
    if isinstance(expression, Parameter):
        return 1
    count = 0
    if isinstance(expression, BinaryOp):
        count += _count_params(expression.left) + _count_params(expression.right)
    elif isinstance(expression, BooleanOp):
        count += sum(_count_params(o) for o in expression.operands)
    elif isinstance(expression, (Not, IsNull)):
        count += _count_params(expression.operand)
    elif isinstance(expression, InList):
        count += _count_params(expression.operand)
    elif isinstance(expression, FunctionCall):
        count += sum(_count_params(a) for a in expression.args)
    return count
