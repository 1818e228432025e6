"""Relational algebra plan nodes.

These nodes form the logical/physical plan language of the in-memory engine,
and double as the relational part of F-IR (COBRA's intermediate
representation embeds query expressions as algebra trees).

Nodes
-----
``Scan``            full table scan (with optional alias)
``Select``          filter by a predicate
``Project``         projection onto named output expressions
``Join``            inner equi-/theta-join of two inputs
``Aggregate``       grouped or scalar aggregation
``Sort``            order by one or more columns
``Limit``           first-N rows

All nodes are immutable; rewrites build new trees.  The executor
(:mod:`repro.db.executor`) interprets them; the statistics module estimates
their output cardinality and row width; :mod:`repro.db.sqlgen` renders them
back to SQL text.

:func:`output_layout` states, once, which keys a plan's output rows carry:
one per output column, the bare name unless two joined inputs share it.
Every execution tier, the cursor description, the ORM and the join
rewriter read it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from repro.db.expressions import (
    AmbiguousColumnError,
    ColumnRef,
    Expression,
    ExpressionError,
)
from repro.db.schema import SchemaError


class AlgebraError(Exception):
    """Raised for malformed algebra trees."""


class PlanNode:
    """Base class for relational algebra nodes."""

    def children(self) -> tuple["PlanNode", ...]:
        """Child plan nodes."""
        return ()

    def base_tables(self) -> set[str]:
        """Names of all base tables referenced in the subtree."""
        tables: set[str] = set()
        for child in self.children():
            tables |= child.base_tables()
        return tables

    def height(self) -> int:
        """Height of the plan tree (a single Scan has height 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.height() for child in kids)


@dataclass(frozen=True)
class Scan(PlanNode):
    """Full scan of a base table, optionally under an alias."""

    table: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.table

    def base_tables(self) -> set[str]:
        return {self.table}

    def __repr__(self) -> str:
        if self.alias and self.alias != self.table:
            return f"Scan({self.table!r} AS {self.alias!r})"
        return f"Scan({self.table!r})"


@dataclass(frozen=True)
class Select(PlanNode):
    """Filter the input by ``predicate``."""

    child: PlanNode
    predicate: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"Select({self.predicate.to_sql()}, {self.child!r})"


@dataclass(frozen=True)
class OutputColumn:
    """One output column of a projection or aggregation: expression + name."""

    expression: Expression
    name: str

    def __repr__(self) -> str:
        return f"{self.expression.to_sql()} AS {self.name}"


@dataclass(frozen=True)
class Project(PlanNode):
    """Project the input onto the given output columns."""

    child: PlanNode
    outputs: tuple[OutputColumn, ...]

    def __post_init__(self) -> None:
        if not self.outputs:
            raise AlgebraError("Project requires at least one output column")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def output_names(self) -> list[str]:
        return [o.name for o in self.outputs]

    def __repr__(self) -> str:
        cols = ", ".join(o.name for o in self.outputs)
        return f"Project([{cols}], {self.child!r})"


@dataclass(frozen=True)
class Join(PlanNode):
    """Inner join of ``left`` and ``right`` on ``condition``.

    ``condition`` may be ``None`` for a cross join.  The executor uses a hash
    join when the condition is a simple equality between one column from each
    side and falls back to nested loops otherwise.
    """

    left: PlanNode
    right: PlanNode
    condition: Optional[Expression] = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        cond = self.condition.to_sql() if self.condition is not None else "TRUE"
        return f"Join({cond}, {self.left!r}, {self.right!r})"


#: Aggregate function names supported by the engine.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: function, argument expression, output name.

    ``argument`` may be ``None`` only for ``count`` (meaning ``count(*)``).
    """

    function: str
    argument: Optional[Expression]
    name: str

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise AlgebraError(f"unsupported aggregate {self.function!r}")
        if self.argument is None and self.function != "count":
            raise AlgebraError(
                f"aggregate {self.function!r} requires an argument"
            )

    def __repr__(self) -> str:
        arg = self.argument.to_sql() if self.argument is not None else "*"
        return f"{self.function}({arg}) AS {self.name}"


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Grouped (or, with no group keys, scalar) aggregation."""

    child: PlanNode
    group_by: tuple[ColumnRef, ...]
    aggregates: tuple[AggregateSpec, ...]

    def __post_init__(self) -> None:
        if not self.aggregates and not self.group_by:
            raise AlgebraError("Aggregate requires group keys or aggregates")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        keys = ", ".join(c.qualified_name for c in self.group_by)
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"Aggregate(by=[{keys}], aggs=[{aggs}], {self.child!r})"


@dataclass(frozen=True)
class SortKey:
    """A sort key: column reference plus direction."""

    column: ColumnRef
    ascending: bool = True

    def __repr__(self) -> str:
        direction = "ASC" if self.ascending else "DESC"
        return f"{self.column.qualified_name} {direction}"


@dataclass(frozen=True)
class Sort(PlanNode):
    """Order the input by the given keys."""

    child: PlanNode
    keys: tuple[SortKey, ...]

    def __post_init__(self) -> None:
        if not self.keys:
            raise AlgebraError("Sort requires at least one key")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        keys = ", ".join(repr(k) for k in self.keys)
        return f"Sort([{keys}], {self.child!r})"


@dataclass(frozen=True)
class Limit(PlanNode):
    """Return at most ``count`` rows of the input."""

    child: PlanNode
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise AlgebraError("Limit count must be non-negative")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"Limit({self.count}, {self.child!r})"


def walk(plan: PlanNode):
    """Yield every node of the plan tree in pre-order."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def find_scans(plan: PlanNode) -> list[Scan]:
    """Return all Scan leaves in the plan, left to right."""
    return [node for node in walk(plan) if isinstance(node, Scan)]


def has_operator(plan: PlanNode, node_type: type) -> bool:
    """Return True if any node in the plan is an instance of ``node_type``."""
    return any(isinstance(node, node_type) for node in walk(plan))


class OutputKey(NamedTuple):
    """One output column of a plan: its row key and where it came from.

    ``column`` is the bare name and ``alias`` the scan alias whose column
    it is (``None`` for a computed output).  ``key`` is ``column``, or
    ``alias.column`` where two inputs of a join share ``column``.
    """

    key: str
    alias: Optional[str]
    column: str


def output_names(columns: Sequence[ColumnRef]) -> list[str]:
    """Names of column references emitted side by side (group keys, select
    items): the bare name, or the qualified one where several share it."""
    shared = Counter(column.name for column in columns)
    return [
        column.qualified_name if shared[column.name] > 1 else column.name
        for column in columns
    ]


def output_layout(
    plan: PlanNode, table_columns: Callable[[str], Sequence[str]]
) -> tuple[OutputKey, ...]:
    """The ordered keys of ``plan``'s output rows, with their sources.

    ``table_columns`` maps a table name to its column names (and raises for
    an unknown table).  A scan yields its table's columns; select, sort and
    limit pass their input through; a join yields its right input's keys,
    then its left input's, with a bare name both inputs have qualified on
    each side by the scan alias it came from; a projection and an
    aggregate name their outputs (group keys by :func:`output_names`).
    Raises :class:`AlgebraError` when two outputs would share a key, or a
    shared join name has no scan alias, and :class:`ExpressionError` when
    a join condition names a shared column without telling the sides
    apart.
    """
    if isinstance(plan, Scan):
        alias = plan.effective_alias
        return tuple(
            OutputKey(name, alias, name) for name in table_columns(plan.table)
        )
    if isinstance(plan, (Select, Sort, Limit)):
        return output_layout(plan.child, table_columns)
    if isinstance(plan, Join):
        left = output_layout(plan.left, table_columns)
        right = output_layout(plan.right, table_columns)
        shared = {e.column for e in left} & {e.column for e in right}
        keys = []
        for entry in (*right, *left):
            if entry.column in shared:
                if entry.alias is None:
                    raise AlgebraError(
                        f"join inputs share column {entry.column!r}, which "
                        "has no scan alias to tell them apart"
                    )
                entry = entry._replace(key=f"{entry.alias}.{entry.column}")
            keys.append(entry)
        layout = _unique(keys)
        if plan.condition is not None:
            # unresolvable references are fine: a hash join matches nothing
            _check_references(plan.condition, [entry.key for entry in layout])
        return layout
    if isinstance(plan, (Project, Aggregate)):
        child = {e.key: e for e in output_layout(plan.child, table_columns)}
        if isinstance(plan, Project):
            named = [(output.name, output.expression) for output in plan.outputs]
        else:
            named = [
                *zip(output_names(plan.group_by), plan.group_by),
                *((spec.name, None) for spec in plan.aggregates),
            ]
        entries = []
        for name, expression in named:
            alias, column = None, name
            if isinstance(expression, ColumnRef):
                try:
                    alias = child[expression.key_in(child)].alias
                except ExpressionError:
                    pass  # the executors raise when a row is read
                if name in (expression.name, expression.qualified_name):
                    column = expression.name
            entries.append(OutputKey(name, alias, column))
        return _unique(entries)
    raise AlgebraError(f"no output layout for {type(plan).__name__}")


def check_references(
    plan: PlanNode, table_columns: Callable[[str], Sequence[str]]
) -> None:
    """Raise :class:`AmbiguousColumnError` for a bare reference that
    several inputs could satisfy, before anything executes.

    Every ``Select`` / ``Project`` / ``Aggregate`` reference resolves
    against its child's :func:`output_layout`, and every join condition
    against the joined layout, as SQLite resolves names at prepare time.
    Any other failure (an unknown table or column) is left to execution,
    which reports it as before; ``Sort`` keys are not checked, since
    ORDER BY resolves a bare name against the select list first.
    """
    for node in walk(plan):
        if isinstance(node, Join):
            source, expressions = node, ()
        elif isinstance(node, Select):
            source, expressions = node.child, (node.predicate,)
        elif isinstance(node, Project):
            source = node.child
            expressions = tuple(output.expression for output in node.outputs)
        elif isinstance(node, Aggregate):
            source = node.child
            expressions = (
                *node.group_by,
                *(s.argument for s in node.aggregates if s.argument is not None),
            )
        else:
            continue
        try:
            keys = [entry.key for entry in output_layout(source, table_columns)]
        except AmbiguousColumnError:
            raise
        except (AlgebraError, ExpressionError, SchemaError):
            continue  # execution reports it, as before
        for expression in expressions:
            _check_references(expression, keys)


def _check_references(expression: Expression, keys: Sequence[str]) -> None:
    """Raise :class:`AmbiguousColumnError` if a reference in ``expression``
    is ambiguous among ``keys``; a missing one is not checked here."""
    for reference in expression.referenced_columns():
        qualifier, _, name = reference.rpartition(".")
        try:
            ColumnRef(name, qualifier or None).key_in(keys)
        except AmbiguousColumnError:
            raise
        except ExpressionError:
            pass


def _unique(entries: list[OutputKey]) -> tuple[OutputKey, ...]:
    keys = Counter(entry.key for entry in entries)
    duplicates = sorted(key for key, count in keys.items() if count > 1)
    if duplicates:
        raise AlgebraError(f"duplicate output name(s) {duplicates}")
    return tuple(entries)
