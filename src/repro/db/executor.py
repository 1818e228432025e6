"""Execution of relational algebra plans against in-memory tables.

The executor runs :mod:`repro.db.algebra` trees over rows flowing as
dictionaries.  A row carries one key per output column, as
:func:`repro.db.algebra.output_layout` names it: the bare column name, or
``alias.column`` where two joined inputs share the name.  A qualified
reference still reads a bare key (:meth:`~repro.db.expressions.ColumnRef.
key_in`); a bare reference to a shared name raises "ambiguous column".

Three execution modes are supported (``Executor(tables, mode=...)``):

* **vectorized** (the default) — plans are lowered to batch pipelines over
  columnar storage by :class:`repro.db.vectorized.VectorizedExecutor`:
  scans wrap :meth:`repro.db.table.Table.columns`, filters compose
  selection vectors, hash joins build and probe on key arrays, and output
  row dicts are built only at the root of the operator tree (*late
  materialization*).  Plans, operators, or expressions outside the
  vectorizable subset fall back per-subtree to the compiled tier below, and
  a kernel error re-runs the whole plan compiled so error semantics never
  diverge.  Results are row-identical to both row tiers.

* **compiled** and **interpreted** — the two *row tiers*.  They run the
  same operator per algebra node (scan, select, project, hash or
  nested-loops join, aggregate, sort, limit) and differ only in how an
  operator evaluates an expression per row (:meth:`Executor._expr`): the
  compiled tier lowers it once via
  :meth:`repro.db.expressions.Expression.compile` — the row scope of the
  one lowering in :mod:`repro.db.expressions` — and reuses the closure
  across queries; the interpreted tier walks the tree with
  ``Expression.evaluate``, the reference every other evaluation strategy is
  tested against.  A scan yields a copy of each stored row dict, so no
  tier hands out the table's own rows.  ``Select`` and ``Limit`` stream
  their input without materialising intermediates.

All modes produce identical output rows in identical order;
:attr:`Executor.tier_counts` records which tier served each ``execute``.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.db import algebra
from repro.db.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    CompiledExpression,
    Expression,
    ExpressionError,
)
from repro.db.table import Row, Table


class ExecutionError(Exception):
    """Raised when a plan cannot be executed."""


class Executor:
    """Executes algebra plans against a mapping of table name -> Table."""

    #: Compile-cache entries kept before least-recently-used eviction.
    #: Expression trees embed query literals, so a long-lived executor
    #: serving parameterized queries would otherwise accumulate one entry
    #: per distinct literal forever.
    COMPILE_CACHE_LIMIT = 512

    #: Valid execution modes, fastest first.
    MODES = ("vectorized", "compiled", "interpreted")

    def __init__(
        self,
        tables: Mapping[str, Table],
        *,
        mode: str = "vectorized",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"unknown execution mode {mode!r}; modes are {self.MODES}"
            )
        self._tables = tables
        self.mode = mode
        #: the row tiers below the vectorized one: compiled closures unless
        #: the executor is fully interpreted.
        self._compiled = mode != "interpreted"
        #: expression -> compiled closure, reused across queries (LRU), so a
        #: slot-compiled prepared plan re-executes with zero compilation.
        self._compile_cache: OrderedDict[Expression, CompiledExpression] = (
            OrderedDict()
        )
        #: execute() calls served per tier (a vectorized attempt that falls
        #: back is counted under the tier that produced the rows).
        self.tier_counts: dict[str, int] = {
            "vectorized": 0,
            "compiled": 0,
            "interpreted": 0,
        }
        #: optional :class:`repro.db.sharding.ShardRouter` consulted before
        #: normal execution; plans it declines run unrouted against the
        #: (aggregate) table views.  Shard-local executors never carry a
        #: router themselves.
        self.router = None
        #: which tier served the most recent execute() call, and — when the
        #: vectorized tier declined it — why.  Plain attribute stores, cheap
        #: enough to maintain unconditionally; read by prepared statements
        #: for tracing and EXPLAIN.
        self.last_tier: Optional[str] = None
        self.last_fallback_reason: Optional[str] = None
        #: how the most recent execute() call actually produced its rows:
        #: "codegen" / "kernel" inside the vectorized tier, otherwise the
        #: row-tier name.  Finer-grained than last_tier, read by EXPLAIN.
        self.last_execution_path: Optional[str] = None
        if mode == "vectorized":
            from repro.db.vectorized import VectorizedExecutor

            self._vectorized: Optional[VectorizedExecutor] = (
                VectorizedExecutor(self)
            )
        else:
            self._vectorized = None

    # -- public API ------------------------------------------------------

    def execute(self, plan: algebra.PlanNode) -> list[Row]:
        """Execute ``plan`` and return the output rows as a list of dicts."""
        if self.router is not None:
            routed = self.router.try_execute(plan)
            if routed is not None:
                self.last_tier = self.router.last_tier
                self.last_fallback_reason = self.router.last_fallback_reason
                self.last_execution_path = getattr(
                    self.router, "last_execution_path", self.router.last_tier
                )
                return routed
        if self._vectorized is not None:
            rows = self._vectorized.try_execute(plan)
            if rows is not None:
                self.tier_counts["vectorized"] += 1
                self.last_tier = "vectorized"
                self.last_fallback_reason = None
                self.last_execution_path = self._vectorized.last_path
                return rows
        tier = "compiled" if self._compiled else "interpreted"
        rows = list(self._execute(plan))
        self.tier_counts[tier] += 1
        self.last_tier = tier
        self.last_execution_path = tier
        self.last_fallback_reason = (
            self._vectorized.last_fallback_reason
            if self._vectorized is not None
            else None
        )
        return rows

    @property
    def vectorized_stats(self) -> dict[str, Any]:
        """Vectorized-tier counters (zeros outside vectorized mode)."""
        from repro.db.vectorized import zero_vectorized_stats

        if self._vectorized is None:
            return zero_vectorized_stats()
        return self._vectorized.stats()

    def invalidate_plan_cache(self) -> None:
        """Drop the vectorized tier's lowered plans (call on DDL).

        Lowered pipelines close over table objects and schemas, which DDL
        may replace.  The compiled tier's expression cache is
        schema-independent and stays.
        """
        if self._vectorized is not None:
            self._vectorized.invalidate()

    # -- dispatch --------------------------------------------------------

    def _execute(self, plan: algebra.PlanNode) -> Iterable[Row]:
        if isinstance(plan, algebra.Scan):
            return self._scan(plan)
        if isinstance(plan, algebra.Select):
            return self._select(plan)
        if isinstance(plan, algebra.Project):
            return self._project(plan)
        if isinstance(plan, algebra.Join):
            return self._join(plan)
        if isinstance(plan, algebra.Aggregate):
            return self._aggregate(plan)
        if isinstance(plan, algebra.Sort):
            return self._sort(plan)
        if isinstance(plan, algebra.Limit):
            return self._limit(plan)
        raise ExecutionError(f"unsupported plan node {type(plan).__name__}")

    def layout(self, plan: algebra.PlanNode) -> tuple[algebra.OutputKey, ...]:
        """``plan``'s output keys over these tables (see
        :func:`repro.db.algebra.output_layout`)."""
        return algebra.output_layout(plan, self._table_columns)

    def _table_columns(self, name: str) -> list[str]:
        try:
            return self._tables[name].schema.column_names
        except KeyError:
            raise ExecutionError(f"unknown table {name!r}") from None

    # -- expression compilation ------------------------------------------

    def _expr(self, expression: Expression) -> CompiledExpression:
        """The per-row evaluator for ``expression`` in the current mode."""
        if not self._compiled:
            return expression.evaluate
        try:
            cached = self._compile_cache.get(expression)
        except TypeError:  # unhashable literal buried in the tree
            return expression.compile()
        if cached is None:
            cached = expression.compile()
            if len(self._compile_cache) >= self.COMPILE_CACHE_LIMIT:
                self._compile_cache.popitem(last=False)
            self._compile_cache[expression] = cached
        else:
            self._compile_cache.move_to_end(expression)
        return cached

    def _key_getter(self, column: ColumnRef) -> CompiledExpression:
        """A join-key evaluator that maps unresolvable rows to ``None``."""
        base = self._expr(column)

        def get(row: Row) -> Any:
            try:
                return base(row)
            except Exception:
                return None

        return get

    # -- operators -------------------------------------------------------

    def _scan(self, plan: algebra.Scan) -> Iterable[Row]:
        try:
            table = self._tables[plan.table]
        except KeyError:
            raise ExecutionError(f"unknown table {plan.table!r}") from None
        return map(dict.copy, table.rows)

    def _select(self, plan: algebra.Select) -> Iterable[Row]:
        return filter(self._expr(plan.predicate), self._execute(plan.child))

    def _project(self, plan: algebra.Project) -> Iterable[Row]:
        outputs = [(o.name, self._expr(o.expression)) for o in plan.outputs]
        return (
            {name: evaluate(row) for name, evaluate in outputs}
            for row in self._execute(plan.child)
        )

    def _join(self, plan: algebra.Join) -> Iterator[Row]:
        # The layout names every table, so a typo'd one raises here even
        # when an empty probe side skips executing the other side.
        merge = _row_merger(*join_renames(plan, self.layout))
        left_rows = list(self._execute(plan.left))
        if not left_rows:
            return iter(())
        right_rows = list(self._execute(plan.right))
        equi = orient_equi_columns(plan, self.layout)
        if equi is not None:
            return self._hash_join(left_rows, right_rows, equi, merge)
        return self._nested_loops_join(left_rows, right_rows, plan, merge)

    def _hash_join(
        self,
        left_rows: list[Row],
        right_rows: list[Row],
        equi: tuple[ColumnRef, ColumnRef],
        merge: Callable[[Row, Row], Row],
    ) -> Iterator[Row]:
        if not right_rows:
            return
        left_col, right_col = equi
        right_key = self._key_getter(right_col)
        build: dict[Any, list[Row]] = {}
        for row in right_rows:
            key = right_key(row)
            if key is None:
                continue
            bucket = build.get(key)
            if bucket is None:
                build[key] = [row]
            else:
                bucket.append(row)
        left_key = self._key_getter(left_col)
        for left_row in left_rows:
            key = left_key(left_row)
            if key is None:
                continue
            for right_row in build.get(key, ()):
                yield merge(left_row, right_row)

    def _nested_loops_join(
        self,
        left_rows: list[Row],
        right_rows: list[Row],
        plan: algebra.Join,
        merge: Callable[[Row, Row], Row],
    ) -> Iterator[Row]:
        condition = (
            self._expr(plan.condition) if plan.condition is not None else None
        )
        for left_row in left_rows:
            for right_row in right_rows:
                merged = merge(left_row, right_row)
                if condition is None or condition(merged):
                    yield merged

    def _aggregate(self, plan: algebra.Aggregate) -> Iterator[Row]:
        names = [entry.key for entry in self.layout(plan)[: len(plan.group_by)]]
        rows_iter = self._execute(plan.child)
        # Aggregates often share their argument (sum(x) next to avg(x)):
        # compile each distinct argument once and evaluate it once per group.
        planned = plan_aggregate_arguments(plan.aggregates, self._expr)
        assert planned is not None  # row compilers never fail
        arg_fns, spec_slots = planned

        def emit_into(out: Row, rows: list[Row]) -> Row:
            cache: list[Optional[list]] = [None] * len(arg_fns)
            for spec, slot in spec_slots:
                if slot is None:
                    out[spec.name] = len(rows)
                    continue
                values = cache[slot]
                if values is None:
                    values = [v for v in map(arg_fns[slot], rows) if v is not None]
                    cache[slot] = values
                out[spec.name] = _compute_aggregate(spec.function, values)
            return out

        if not plan.group_by:
            yield emit_into({}, list(rows_iter))
            return
        # The vectorized tier computes the same grouping with single-pass
        # partial-aggregate kernels (_lower_aggregate); group order must
        # stay first-encounter in both — change the two together.
        keys = [self._expr(column) for column in plan.group_by]
        single = len(keys) == 1  # a scalar group key: no per-row tuple
        key_fn = keys[0] if single else (
            lambda row: tuple(evaluate(row) for evaluate in keys)
        )
        groups: dict[Any, list[Row]] = {}
        for row in rows_iter:
            key = key_fn(row)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [row]
            else:
                bucket.append(row)
        for key, group_rows in groups.items():
            values = (key,) if single else key
            yield emit_into(dict(zip(names, values)), group_rows)

    def _sort(self, plan: algebra.Sort) -> Iterable[Row]:
        rows = list(self._execute(plan.child))
        # Sort by the last key first so earlier keys take precedence.
        for key in reversed(plan.keys):
            evaluate = self._expr(key.column)
            rows.sort(
                key=lambda row: _sort_key(evaluate(row)),
                reverse=not key.ascending,
            )
        return rows

    def _limit(self, plan: algebra.Limit) -> Iterable[Row]:
        return islice(self._execute(plan.child), plan.count)


# -- helpers ------------------------------------------------------------


def plan_aggregate_arguments(
    aggregates: Sequence[algebra.AggregateSpec],
    compile_arg: Callable[[Expression], Optional[Any]],
) -> Optional[tuple[list, list[tuple[algebra.AggregateSpec, Optional[int]]]]]:
    """Deduplicate aggregate arguments into evaluation slots.

    Returns ``(compiled_args, spec_slots)`` where each distinct argument
    expression was compiled once via ``compile_arg`` and every spec maps to
    its argument's slot (``None`` for ``count(*)``), so ``sum(x)`` next to
    ``avg(x)`` evaluates ``x`` once per group.  Shared by the row tiers and
    the vectorized tier, whose emit loops must stay slot-compatible.
    Returns ``None`` when ``compile_arg`` fails for any argument (only the
    vectorized kernel compiler can fail).
    """
    arg_exprs: list[Expression] = []
    compiled: list = []
    spec_slots: list[tuple[algebra.AggregateSpec, Optional[int]]] = []
    for spec in aggregates:
        if spec.argument is None:  # count(*)
            spec_slots.append((spec, None))
            continue
        for slot, existing in enumerate(arg_exprs):
            if existing == spec.argument:
                break
        else:
            slot = len(arg_exprs)
            evaluate = compile_arg(spec.argument)
            if evaluate is None:
                return None
            arg_exprs.append(spec.argument)
            compiled.append(evaluate)
        spec_slots.append((spec, slot))
    return compiled, spec_slots


def _flatten_and(predicate: Expression) -> list[Expression]:
    """Split nested AND conjunctions into their leaf conjuncts, in order."""
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        conjuncts: list[Expression] = []
        for operand in predicate.operands:
            conjuncts.extend(_flatten_and(operand))
        return conjuncts
    return [predicate]


def join_renames(
    plan: algebra.Join,
    layout: Callable[[algebra.PlanNode], tuple[algebra.OutputKey, ...]],
) -> tuple[dict[str, str], dict[str, str]]:
    """``(right, left)`` key renames of ``plan``'s inputs, ``old -> new``.

    Both are empty unless the inputs share a bare name, which
    :func:`~repro.db.algebra.output_layout` then qualifies on each side.
    The joined row is the right row's keys, then the left row's, renamed.
    """
    joined = layout(plan)
    right = layout(plan.right)
    left = layout(plan.left)
    return tuple(
        {old.key: new.key for old, new in zip(side, entries) if old.key != new.key}
        for side, entries in (
            (right, joined[: len(right)]),
            (left, joined[len(right) :]),
        )
    )


def _row_merger(
    right_rename: dict[str, str], left_rename: dict[str, str]
) -> Callable[[Row, Row], Row]:
    """``(left row, right row) -> joined row`` for one join's renames."""
    if not right_rename and not left_rename:
        return lambda left, right: {**right, **left}

    def renamed(row: Row, rename: dict[str, str]) -> Row:
        return {rename.get(key, key): value for key, value in row.items()}

    return lambda left, right: {
        **renamed(right, right_rename),
        **renamed(left, left_rename),
    }


def _equi_join_columns(
    condition: Expression | None,
) -> tuple[ColumnRef, ColumnRef] | None:
    """Return the (left, right) column refs if the condition is a simple
    equality between two columns, else ``None``."""
    if isinstance(condition, BinaryOp) and condition.op in {"=", "=="}:
        if isinstance(condition.left, ColumnRef) and isinstance(
            condition.right, ColumnRef
        ):
            return condition.left, condition.right
    return None


def orient_equi_columns(
    plan: algebra.Join,
    layout: Callable[[algebra.PlanNode], tuple[algebra.OutputKey, ...]],
) -> Optional[tuple[ColumnRef, ColumnRef]]:
    """``plan``'s equi-join columns as ``(left, right)``; ``None`` for a
    theta or cross join.

    The condition as written when each column resolves on its own side's
    keys, else right-to-left; when neither does, as written (the join then
    matches nothing).
    """
    equi = _equi_join_columns(plan.condition)
    if equi is None:
        return None
    left = [entry.key for entry in layout(plan.left)]
    right = [entry.key for entry in layout(plan.right)]
    for left_col, right_col in (equi, equi[::-1]):
        if _resolves(left_col, left) and _resolves(right_col, right):
            return left_col, right_col
    return equi


def _resolves(column: ColumnRef, keys: list[str]) -> bool:
    try:
        column.key_in(keys)
        return True
    except ExpressionError:
        return False


def _sort_key(value: Any) -> tuple:
    """Total ordering that tolerates None and mixed types."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


class _Descending:
    """Inverts one sort-key component inside a composite key tuple.

    Ascending tuple comparison over wrapped components orders them
    descending while the other components keep their direction.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.key == self.key


def _descending_sort_key(value: Any) -> _Descending:
    return _Descending(_sort_key(value))


def sort_key_function(ascending: bool) -> Callable[[Any], Any]:
    """One ORDER BY key's component of a single composite sort key.

    The tiers sort by the last key first with stable sorts (``reverse=True``
    for ``DESC``, which keeps ties in input order).  That order equals one
    ascending sort on ``(component(key₁), …, component(keyₙ))`` followed by
    input position, where a component is :func:`_sort_key` of the value,
    wrapped in :class:`_Descending` for ``DESC``.  The vectorized tier's
    fused top-k builds its keys from this.
    """
    return _sort_key if ascending else _descending_sort_key


def _compute_aggregate(function: str, values: list) -> Any:
    """Compute one aggregate over the (non-null) argument ``values``."""
    if function == "count":
        return len(values)
    if not values:
        return None
    if function == "sum":
        return sum(values)
    if function == "avg":
        return sum(values) / len(values)
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    raise ExecutionError(f"unsupported aggregate {function!r}")
