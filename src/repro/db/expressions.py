"""Scalar and boolean expressions evaluated over rows.

These expressions are shared by the relational algebra (predicates, projection
expressions, aggregate arguments) and by the SQL parser.  Expressions are
immutable trees; evaluation takes a row dictionary.

Column references may be qualified (``o.o_id``) or unqualified (``o_id``);
qualified references resolve against rows whose keys carry the qualifier
(``"o.o_id"``) first and fall back to the bare name, so the same expression
works on both base-table rows and join-output rows.

Besides the tree-walking :meth:`Expression.evaluate` interpreter — the
reference every other evaluation strategy is tested against — there is
exactly one lowering of an expression tree to code:
:func:`lower_expression` emits a Python *source fragment* for the tree, and
a :class:`LoweringScope` says how the leaves (column references, parameter
slots, constants) become source atoms.  SQL NULL handling, comparison and
arithmetic semantics, AND/OR short-circuiting and operand evaluation order
are stated once, there.  Three scopes instantiate it:

* the **row** scope behind :meth:`Expression.compile` (``row['col']`` atoms
  from a caller-supplied resolver, a bound generic getter otherwise), used
  by the compiled row tier;
* the **batch** scope of :mod:`repro.db.vectorized` (one fused comprehension
  over a batch's column arrays per expression);
* the **fused-pipeline** scope of :mod:`repro.db.vectorized` (typed
  sidecars, dictionary-code compares, null bitmaps).

Generated code must agree with ``evaluate`` on every row, raised errors
included.  Node types without a lowering (unknown scalar functions, foreign
:class:`Expression` subclasses) call back into ``evaluate`` in the row scope
and raise :class:`LoweringError` in the other two, whose callers fall back to
the row tier.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

Row = Mapping[str, Any]

#: A compiled expression: a closure evaluating one row.
CompiledExpression = Callable[[Row], Any]

#: A column resolver lets callers that know the row layout supply the source
#: atom reading a column off the variable ``row`` (``"row['o_id']"``,
#: ``"row[0]['c_name']"``); the atom must not be able to raise.  Returning
#: ``None`` falls back to the generic qualified/bare/suffix resolution of
#: :meth:`ColumnRef.evaluate`.
ColumnResolver = Callable[["ColumnRef"], Optional[str]]


class ExpressionError(Exception):
    """Raised when an expression cannot be evaluated against a row."""


class Expression:
    """Base class for row expressions."""

    def evaluate(self, row: Row) -> Any:
        """Evaluate this expression against ``row``."""
        raise NotImplementedError

    def compile(self, resolver: ColumnResolver | None = None) -> CompiledExpression:
        """Lower the expression to a closure ``row -> value``.

        The closure agrees exactly with :meth:`evaluate` on every row,
        including raised errors (see :func:`lower_expression`).
        """
        scope = _RowScope(resolver)
        source = lower_expression(self, scope).src
        opaque = scope.opaque_calls.get(source)
        if opaque is not None:
            return opaque  # the whole tree is one bound call: skip the wrapper
        return eval(  # noqa: S307 - internal codegen, identifiers repr-escaped
            f"lambda row: {source}", scope.globals
        )

    def referenced_columns(self) -> set[str]:
        """All column names (possibly qualified) referenced by the expression."""
        return set()

    def to_sql(self) -> str:
        """Render the expression in SQL syntax."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Row) -> Any:
        return self.value

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally qualified by a table/alias name."""

    name: str
    qualifier: str | None = None

    @property
    def qualified_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def evaluate(self, row: Row) -> Any:
        if self.qualifier:
            qualified = f"{self.qualifier}.{self.name}"
            if qualified in row:
                return row[qualified]
        if self.name in row:
            return row[self.name]
        # Fall back to any qualified key ending in ".name".
        suffix = f".{self.name}"
        matches = [k for k in row if k.endswith(suffix)]
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise ExpressionError(
                f"ambiguous column {self.name!r}: candidates {sorted(matches)}"
            )
        raise ExpressionError(
            f"column {self.qualified_name!r} not found in row with keys "
            f"{sorted(row)}"
        )

    def referenced_columns(self) -> set[str]:
        return {self.qualified_name}

    def to_sql(self) -> str:
        return self.qualified_name

    def __repr__(self) -> str:
        return f"ColumnRef({self.qualified_name!r})"


class ParameterSlot(Expression):
    """A positional parameter compiled against a shared slot buffer.

    Where :class:`repro.db.sqlparser.Parameter` must be substituted with a
    :class:`Literal` (rebuilding the expression tree) before every execution,
    a ``ParameterSlot`` reads its value out of a mutable ``slots`` sequence
    *at evaluation time*.  A prepared statement therefore rewrites its plan
    template once — every ``?`` becomes a slot bound to the statement's
    buffer — compiles that template once, and then merely writes fresh values
    into the buffer per execution.

    Slots deliberately use identity hashing/equality (no ``@dataclass``):
    each prepared statement owns distinct slot objects, so its rewritten plan
    stays equal to itself across executions (compile caches keyed on the
    expression hit every time) while never colliding with another statement's
    plan.
    """

    __slots__ = ("index", "slots")

    def __init__(self, index: int, slots: list) -> None:
        self.index = index
        self.slots = slots

    def evaluate(self, row: Row) -> Any:
        return self.slots[self.index]

    def to_sql(self) -> str:
        return "?"

    def __repr__(self) -> str:
        return f"ParameterSlot(?{self.index})"


_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Operators with NULL-propagating (rather than NULL-is-false) semantics.
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})

#: Operator symbol -> Python source operator; every operator in
#: :data:`_BINARY_OPS` has an entry.
_BINARY_OP_SOURCE: dict[str, str] = {
    op: {"=": "==", "<>": "!="}.get(op, op) for op in _BINARY_OPS
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary arithmetic or comparison operation."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ExpressionError(f"unsupported binary operator {self.op!r}")

    def evaluate(self, row: Row) -> Any:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            # SQL three-valued logic collapsed to None/False for simplicity.
            return None if self.op in {"+", "-", "*", "/", "%"} else False
        return _BINARY_OPS[self.op](left, right)

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        op = "=" if self.op == "==" else self.op
        return f"{self.left.to_sql()} {op} {self.right.to_sql()}"

    def __repr__(self) -> str:
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """AND/OR over a sequence of boolean expressions."""

    op: str  # "and" | "or"
    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op not in {"and", "or"}:
            raise ExpressionError(f"unsupported boolean operator {self.op!r}")
        if len(self.operands) < 2:
            raise ExpressionError("BooleanOp requires at least two operands")

    def evaluate(self, row: Row) -> Any:
        values = (bool(o.evaluate(row)) for o in self.operands)
        return all(values) if self.op == "and" else any(values)

    def referenced_columns(self) -> set[str]:
        cols: set[str] = set()
        for operand in self.operands:
            cols |= operand.referenced_columns()
        return cols

    def to_sql(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(o.to_sql() for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def evaluate(self, row: Row) -> Any:
        return not bool(self.operand.evaluate(row))

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` test."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: Row) -> Any:
        is_null = self.operand.evaluate(row) is None
        return not is_null if self.negated else is_null

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {suffix}"


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)`` membership test over literal values."""

    operand: Expression
    values: tuple[Any, ...]

    def evaluate(self, row: Row) -> Any:
        return self.operand.evaluate(row) in self.values

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        rendered = ", ".join(Literal(v).to_sql() for v in self.values)
        return f"{self.operand.to_sql()} IN ({rendered})"


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "upper": lambda v: v.upper() if v is not None else None,
    "lower": lambda v: v.lower() if v is not None else None,
    "abs": lambda v: abs(v) if v is not None else None,
    "length": lambda v: len(v) if v is not None else None,
    "coalesce": lambda *vs: next((v for v in vs if v is not None), None),
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call (e.g. ``upper(name)``, ``abs(x)``)."""

    name: str
    args: tuple[Expression, ...]

    def evaluate(self, row: Row) -> Any:
        func = _SCALAR_FUNCTIONS.get(self.name.lower())
        if func is None:
            raise ExpressionError(f"unknown scalar function {self.name!r}")
        return func(*(a.evaluate(row) for a in self.args))

    def referenced_columns(self) -> set[str]:
        cols: set[str] = set()
        for arg in self.args:
            cols |= arg.referenced_columns()
        return cols

    def to_sql(self) -> str:
        return f"{self.name}({', '.join(a.to_sql() for a in self.args)})"


def conjunction(predicates: Sequence[Expression]) -> Expression | None:
    """Combine ``predicates`` into a single AND expression.

    Returns ``None`` for an empty sequence and the lone predicate for a
    singleton, which keeps generated SQL tidy.
    """
    predicates = [p for p in predicates if p is not None]
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return BooleanOp("and", tuple(predicates))


def equals(column: str, value: Any, qualifier: str | None = None) -> BinaryOp:
    """Convenience constructor for ``column = value`` predicates."""
    return BinaryOp("=", ColumnRef(column, qualifier), Literal(value))


# -- the one lowering of expressions to code -------------------------------


class LoweringError(Exception):
    """The scope has no code for a leaf or node of the expression."""


class Lowered(NamedTuple):
    """One lowered expression: a source fragment plus its static facts.

    ``trivial`` marks plain variable/constant atoms — the only fragments
    that can be freely repeated *or skipped* by a parent's null guard,
    because their evaluation cannot raise.  Anything composite (including a
    bare comparison, which can raise ``TypeError`` on mixed operands) must
    be evaluated exactly as often as ``evaluate`` would evaluate it.
    """

    src: str
    nullable: bool
    is_bool: bool
    trivial: bool


class LoweringScope:
    """Where one generated function's leaves come from.

    A scope owns the function's global bindings and fresh names, and says
    how a :class:`ColumnRef`, a :class:`ParameterSlot` and a constant become
    source atoms; :func:`lower_expression` does everything else.
    """

    def __init__(self) -> None:
        self.globals: dict[str, Any] = {}
        self._counter = 0

    def gensym(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def bind(self, value: Any) -> str:
        """Bind ``value`` into the generated function's globals."""
        var = self.gensym("_b")
        self.globals[var] = value
        return var

    def const(self, value: Any) -> str:
        """A source literal for ``value`` (bound when repr is not exact)."""
        if value is None or value is True or value is False:
            return repr(value)
        kind = type(value)
        if kind is str:
            return repr(value)
        if kind is int or (kind is float and math.isfinite(value)):
            return repr(value) if value >= 0 else f"({value!r})"
        return self.bind(value)

    def column(self, column: "ColumnRef") -> Lowered:
        raise NotImplementedError

    def slot(self, slot: "ParameterSlot") -> Lowered:
        raise NotImplementedError

    def compare(self, expression: "BinaryOp") -> Optional[Lowered]:
        """A representation-specific lowering of a comparison, if any."""
        return None

    def opaque(self, expression: Expression, what: str) -> Lowered:
        """A node with no lowering (unknown function, foreign subclass)."""
        raise LoweringError(what)


class _RowScope(LoweringScope):
    """Leaves read off the generated lambda's ``row`` argument."""

    def __init__(self, resolver: ColumnResolver | None) -> None:
        super().__init__()
        self._resolver = resolver
        #: source of each bound ``f(row)`` call -> ``f`` itself.
        self.opaque_calls: dict[str, CompiledExpression] = {}

    def _call(self, function: CompiledExpression) -> Lowered:
        source = f"{self.bind(function)}(row)"
        self.opaque_calls[source] = function
        return Lowered(source, True, False, False)

    def column(self, column: "ColumnRef") -> Lowered:
        if self._resolver is not None:
            atom = self._resolver(column)
            if atom is not None:
                return Lowered(atom, True, False, True)
        return self._call(_generic_getter(column))

    def slot(self, slot: "ParameterSlot") -> Lowered:
        # Read at call time, so a prepared template stays reusable.
        return Lowered(f"{self.bind(slot.slots)}[{slot.index}]", True, False, True)

    def opaque(self, expression: Expression, what: str) -> Lowered:
        # The interpreter raises (or computes) at call time, per row.
        return self._call(expression.evaluate)


def _generic_getter(column: "ColumnRef") -> CompiledExpression:
    """``row -> value`` for a column whose row layout is not known.

    Direct key lookups first; the interpreter handles the rare
    suffix-fallback and error cases so the semantics stay identical.
    """
    name = column.name
    evaluate = column.evaluate
    if not column.qualifier:

        def getter(row: Row) -> Any:
            try:
                return row[name]
            except KeyError:
                return evaluate(row)

        return getter
    qualified = f"{column.qualifier}.{name}"

    def qualified_getter(row: Row) -> Any:
        try:
            return row[qualified]
        except KeyError:
            pass
        try:
            return row[name]
        except KeyError:
            return evaluate(row)

    return qualified_getter


def _membership(values: tuple) -> Callable[[Any], bool]:
    """``value -> value in values``, hashed when the values allow it."""
    try:
        hashed = frozenset(values)
    except TypeError:
        return values.__contains__

    def contains(value: Any) -> bool:
        try:
            return value in hashed
        except TypeError:
            # Unhashable row value: match the interpreter's tuple scan.
            return value in values

    return contains


def lower_expression(expression: Expression, scope: LoweringScope) -> Lowered:
    """Lower ``expression`` to a Python source fragment within ``scope``.

    The fragment computes exactly what :meth:`Expression.evaluate` computes
    and raises exactly when it raises: a binary operation evaluates both
    operands before its NULL check, AND/OR short-circuit left to right, and
    nothing that can raise is evaluated more or less often than the
    interpreter would.  NULL guards are elided for operands the scope
    declares non-nullable.
    """
    if isinstance(expression, Literal):
        value = expression.value
        return Lowered(
            scope.const(value), value is None, isinstance(value, bool), True
        )
    if isinstance(expression, ColumnRef):
        return scope.column(expression)
    if isinstance(expression, ParameterSlot):
        return scope.slot(expression)
    if isinstance(expression, BooleanOp):
        operands = [lower_expression(o, scope) for o in expression.operands]
        src = f" {expression.op} ".join(
            o.src if o.is_bool else f"bool({o.src})" for o in operands
        )
        return Lowered(f"({src})", False, True, False)
    if isinstance(expression, Not):
        operand = lower_expression(expression.operand, scope)
        return Lowered(f"(not {operand.src})", False, True, False)
    if isinstance(expression, IsNull):
        operand = lower_expression(expression.operand, scope)
        if not operand.nullable:
            # Never NULL: a constant answer, once the operand has been
            # evaluated for whatever it may raise.
            answer = repr(expression.negated)
            if operand.trivial:
                return Lowered(answer, False, True, True)
            return Lowered(f"({operand.src}, {answer})[1]", False, True, False)
        test = "is not" if expression.negated else "is"
        return Lowered(f"({operand.src} {test} None)", False, True, False)
    if isinstance(expression, InList):
        operand = lower_expression(expression.operand, scope)
        contains = scope.bind(_membership(expression.values))
        return Lowered(f"{contains}({operand.src})", False, True, False)
    if isinstance(expression, FunctionCall):
        function = _SCALAR_FUNCTIONS.get(expression.name.lower())
        if function is None:
            return scope.opaque(expression, expression.name)
        arguments = [lower_expression(a, scope) for a in expression.args]
        src = f"{scope.bind(function)}({', '.join(a.src for a in arguments)})"
        return Lowered(src, True, False, False)
    if not isinstance(expression, BinaryOp):
        return scope.opaque(expression, type(expression).__name__)
    arithmetic = expression.op in _ARITHMETIC_OPS
    if not arithmetic:
        special = scope.compare(expression)
        if special is not None:
            return special
    op = _BINARY_OP_SOURCE[expression.op]
    left = lower_expression(expression.left, scope)
    right = lower_expression(expression.right, scope)
    if not left.nullable and not right.nullable:
        return Lowered(f"({left.src} {op} {right.src})", False, not arithmetic, False)
    if left.trivial and right.trivial:
        # Atoms are free to repeat, so no temporaries are needed.
        prefix = ""
    else:
        # A composite operand can raise, and the interpreter always
        # evaluates both operands before the null check — so evaluate both
        # into temporaries unconditionally (a tuple display fixes the
        # order), then guard.
        temps = (scope.gensym("_t"), scope.gensym("_t"))
        prefix = f"(({temps[0]} := {left.src}), ({temps[1]} := {right.src}), "
        left, right = left._replace(src=temps[0]), right._replace(src=temps[1])
    nullable = [o.src for o in (left, right) if o.nullable]
    if arithmetic:
        guard = " or ".join(f"{src} is None" for src in nullable)
        src = f"(None if {guard} else ({left.src} {op} {right.src}))"
    else:
        guard = " and ".join(f"{src} is not None" for src in nullable)
        src = f"({guard} and {left.src} {op} {right.src})"
    if prefix:
        src = f"{prefix}{src})[2]"
    return Lowered(src, arithmetic, not arithmetic, False)
