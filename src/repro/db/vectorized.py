"""Vectorized batch execution over columnar storage.

This is the engine's third execution tier (see :mod:`repro.db.executor` for
the compiled and interpreted row tiers).  Plans are lowered once into a
pipeline of *batch operators* flowing :class:`ColumnBatch` objects — bundles
of column value arrays plus a shared selection (row-index) vector — instead
of streams of per-row dictionaries:

* **Scans** wrap the table's lazy columnar view (:meth:`repro.db.table.
  Table.columns`) without copying anything: every column is the table's own
  value array with an identity selection.
* **Filters** run one generated kernel per conjunct — a fused comprehension
  over the referenced column arrays, emitted by the batch scope of
  :func:`repro.db.expressions.lower_expression` — and *compose selection
  vectors*; no row is copied, and AND conjunctions shrink the selection
  stage by stage, short-circuiting left to right like the row tiers.
* **Hash joins** build and probe on key arrays and carry the match as a pair
  of (left positions, right positions); the joined batch merely re-points
  both sides' columns at the new selections.
* **Late materialization**: output row dictionaries are built only at the
  root of the operator tree, by a code-generated row constructor that turns
  the surviving selections into ``{key: value, ...}`` dict displays in a
  single comprehension — eliminating the per-operator dict construction that
  bounds the row tiers on full-width joins.

Expressions reach code through the one lowering in
:mod:`repro.db.expressions`; this module supplies two of its three scopes
(:class:`_BatchScope` for the kernels, :class:`_PipelineCompiler` for fused
``[Project|Aggregate] → Select* → Scan``, top-k ``Limit → Sort → …`` and
filtered-join ``Select+ → Join → (Scan, Scan)`` loops
specialized to each column's layout facts), so a node either scope
cannot lower is rejected by the other for the same reason.

Operators or expressions outside the vectorizable subset fall back
*per-subtree* to the compiled tier: the subtree executes as rows, which are
adapted back into a batch for the vectorized ancestors.  Any error raised
during a vectorized run makes the owning :class:`~repro.db.executor.
Executor` re-run the whole plan on the compiled tier, so evaluation-order
and error semantics can never diverge from the row tiers; both tiers are
property-tested row-identical.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, defaultdict, deque
from itertools import repeat
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from repro.db import algebra
from repro.db.executor import (
    ExecutionError,
    _equi_join_columns,
    _flatten_and,
    _sort_key,
    join_renames,
    orient_equi_columns,
    plan_aggregate_arguments,
    sort_key_function,
)
from repro.db.expressions import (
    ColumnRef,
    Expression,
    ExpressionError,
    Literal,
    Lowered,
    LoweringError,
    LoweringScope,
    ParameterSlot,
    lower_expression,
)
from repro.db.table import Row


class BatchResolutionError(Exception):
    """A column reference did not resolve against a batch at run time.

    Raised inside batch kernels; the executor responds by re-running the
    plan on the compiled tier, which reproduces the row tiers' exact
    behaviour (a value via suffix fallback, or the user-visible error).
    """


#: A lowered batch operator: produces one ColumnBatch per execution.
BatchOp = Callable[[], "ColumnBatch"]


class _Unvectorizable:
    """Cached lowering failure: remembers *why* the plan fell back.

    Stored in the lowered-plan cache in place of a :data:`BatchOp`, so
    repeated executions of an unvectorizable shape keep counting the same
    fallback reason without re-deriving the failed lowering.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


class ColumnBatch:
    """A columnar slice of intermediate results.

    ``columns`` maps output key (one per output column, named by
    :func:`repro.db.algebra.output_layout` exactly as the row tiers name
    their row keys) to ``(array, selection)`` where
    ``selection`` is a list of row indices into ``array`` — or ``None`` for
    the identity selection.  Distinct columns share selection *objects*, so
    operators that filter or join re-point many columns by rebuilding only
    one or two index vectors.  ``key_order`` fixes the materialized dict
    layout; ``rows`` optionally carries already-materialized row dicts
    (aggregate outputs, fallback subtrees) so the root does not rebuild
    them.
    """

    __slots__ = ("columns", "length", "key_order", "rows", "_gathered")

    def __init__(
        self,
        columns: dict[str, tuple[list, Optional[list[int]]]],
        length: int,
        key_order: tuple[str, ...],
        rows: Optional[list[Row]] = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self.key_order = key_order
        self.rows = rows
        #: (id(array), id(selection)) -> (array, selection, gathered value
        #: list), memoized so several expressions over one column gather it
        #: once per batch.  The entry *holds* the array and selection: a live
        #: entry therefore pins both objects, so their ids cannot be recycled
        #: behind the memo's back, and the identity check below turns any
        #: remaining id collision into a plain cache miss instead of serving
        #: a stale column.
        self._gathered: dict[tuple[int, int], tuple[list, list, list]] = {}

    def values_for(self, name: str) -> list:
        """The value array of column ``name``, gathered through its selection."""
        array, selection = self.columns[name]
        if selection is None:
            return array
        key = (id(array), id(selection))
        entry = self._gathered.get(key)
        if entry is not None and entry[0] is array and entry[1] is selection:
            return entry[2]
        gathered = [array[i] for i in selection]
        self._gathered[key] = (array, selection, gathered)
        return gathered

    def resolve(self, column: ColumnRef) -> Optional[str]:
        """The key ``column`` reads (:meth:`ColumnRef.key_in`), or ``None``
        when the reference is missing or ambiguous."""
        try:
            return column.key_in(self.columns)
        except ExpressionError:
            return None

    def column_values(self, column: ColumnRef) -> list:
        """The value array for a column reference (the kernel entry point)."""
        name = self.resolve(column)
        if name is None:
            if self.length == 0:
                # No rows would ever be evaluated by the row tiers either.
                return []
            raise BatchResolutionError(column.qualified_name)
        return self.values_for(name)

    def take(self, positions: list[int]) -> "ColumnBatch":
        """A new batch selecting ``positions`` (batch-relative row indices).

        Selection vectors are composed per *distinct* selection object, not
        per column, so a filter over an N-column batch rebuilds one or two
        index lists and re-points every column at them.
        """
        rebuilt: dict[int, list[int]] = {}
        columns: dict[str, tuple[list, Optional[list[int]]]] = {}
        for name, (array, selection) in self.columns.items():
            cache_key = id(selection)
            new_selection = rebuilt.get(cache_key)
            if new_selection is None:
                if selection is None:
                    new_selection = positions
                else:
                    new_selection = [selection[p] for p in positions]
                rebuilt[cache_key] = new_selection
            columns[name] = (array, new_selection)
        rows = self.rows
        if rows is not None:
            rows = [rows[p] for p in positions]
        return ColumnBatch(columns, len(positions), self.key_order, rows)

    # -- pickling ---------------------------------------------------------
    # Batches cross process boundaries in the sharding layer's process-pool
    # scatter.  The gather memo is transient (its id()-keyed entries would
    # be meaningless in another process) and is dropped; everything else is
    # plain data.

    def __getstate__(self) -> tuple:
        return (self.columns, self.length, self.key_order, self.rows)

    def __setstate__(self, state: tuple) -> None:
        self.columns, self.length, self.key_order, self.rows = state
        self._gathered = {}


def _empty_batch() -> ColumnBatch:
    return ColumnBatch({}, 0, ())


def pack_batch(batch: ColumnBatch) -> tuple:
    """A compact payload for shipping a batch between processes.

    Each column is gathered through its selection into one value list, so
    the pickle carries columns rather than per-row dicts — the
    ship-ColumnBatches-not-row-lists rule, applied across the process
    boundary.  Round-trips through :func:`unpack_batch`.
    """
    columns = tuple((key, batch.values_for(key)) for key in batch.key_order)
    return (columns, batch.length)


def unpack_batch(payload: tuple) -> ColumnBatch:
    """Rebuild a :class:`ColumnBatch` from a :func:`pack_batch` payload."""
    packed_columns, length = payload
    columns: dict[str, tuple[list, Optional[list[int]]]] = {
        key: (values, None) for key, values in packed_columns
    }
    return ColumnBatch(
        columns, length, tuple(key for key, _ in packed_columns)
    )


def batch_output_rows(batch: ColumnBatch) -> list[Row]:
    """Materialize a batch's output rows with a plain zip (no row maker).

    Used where no :class:`VectorizedExecutor` is at hand (unpacking a
    shipped batch on the gather side); ``key_order`` is the dict layout,
    exactly as :meth:`VectorizedExecutor._materialize` would emit it.
    """
    if batch.rows is not None:
        return batch.rows
    keys = batch.key_order
    if not keys or not batch.length:
        return []
    arrays = [batch.values_for(key) for key in keys]
    return [dict(zip(keys, values)) for values in zip(*arrays)]


# -- aggregate accumulation kernels -------------------------------------
#
# Grouped aggregation folds a value column into one state per group in a
# single pass (the vectorized aggregate operator below); ``avg`` is
# decomposed into sum + count states and finalized with
# :func:`finalize_avg`, so the table only needs the four primitive
# functions.


def _accumulate_count(values: Sequence, group_ids: Sequence[int], ngroups: int) -> list:
    counts = [0] * ngroups
    for gid, value in zip(group_ids, values):
        if value is not None:
            counts[gid] += 1
    return counts


def _accumulate_sum(values: Sequence, group_ids: Sequence[int], ngroups: int) -> list:
    sums: list = [None] * ngroups
    for gid, value in zip(group_ids, values):
        if value is None:
            continue
        state = sums[gid]
        # Seed with 0 + value, exactly like the row tiers' sum(): a
        # non-numeric value must raise here so the kernel-error fallback
        # reproduces the row-tier TypeError instead of silently summing.
        sums[gid] = 0 + value if state is None else state + value
    return sums


def _accumulate_min(values: Sequence, group_ids: Sequence[int], ngroups: int) -> list:
    mins: list = [None] * ngroups
    for gid, value in zip(group_ids, values):
        if value is None:
            continue
        state = mins[gid]
        if state is None or value < state:
            mins[gid] = value
    return mins


def _accumulate_max(values: Sequence, group_ids: Sequence[int], ngroups: int) -> list:
    maxs: list = [None] * ngroups
    for gid, value in zip(group_ids, values):
        if value is None:
            continue
        state = maxs[gid]
        if state is None or value > state:
            maxs[gid] = value
    return maxs


#: function -> single-pass per-group accumulation kernel.
AGGREGATE_ACCUMULATORS = {
    "count": _accumulate_count,
    "sum": _accumulate_sum,
    "min": _accumulate_min,
    "max": _accumulate_max,
}


def finalize_avg(partial_sum, partial_count):
    """Finalize an ``avg`` decomposed into sum + count partial states."""
    if not partial_count:
        return None
    return partial_sum / partial_count


def _batch_from_rows(rows: list[Row]) -> ColumnBatch:
    """Adapt row-tier output (a fallback subtree) into a column batch."""
    if not rows:
        return _empty_batch()
    keys = tuple(rows[0])
    columns: dict[str, tuple[list, Optional[list[int]]]] = {
        key: ([row[key] for row in rows], None) for key in keys
    }
    return ColumnBatch(columns, len(rows), keys, rows)


def _plan_partials(
    spec_slots: list[tuple[algebra.AggregateSpec, Optional[int]]],
) -> tuple[list[tuple[str, int]], list[tuple[str, str, tuple[int, ...]]], bool]:
    """An aggregate's partials, its emitters and whether it counts rows.

    Each output spec maps onto one or two *partial aggregates* over its
    argument slot (``avg`` decomposes into sum + count); distinct
    ``(function, slot)`` partials are accumulated once even when several
    specs share them.  An emitter is ``(spec name, kind, partial
    indices)`` with kind ``size`` (``count(*)``: group sizes, no partial),
    ``avg`` (a sum and a count partial) or ``partial``.  The kernels and
    the fused loops plan alike.
    """
    partial_keys: list[tuple[str, int]] = []

    def partial_slot(function: str, slot: int) -> int:
        if (function, slot) not in partial_keys:
            partial_keys.append((function, slot))
        return partial_keys.index((function, slot))

    emitters = []
    for spec, slot in spec_slots:
        if slot is None:
            emitters.append((spec.name, "size", ()))
        elif spec.function == "avg":
            pair = (partial_slot("sum", slot), partial_slot("count", slot))
            emitters.append((spec.name, "avg", pair))
        else:
            emitters.append((spec.name, "partial", (partial_slot(spec.function, slot),)))
    needs_sizes = any(kind == "size" for _, kind, _ in emitters)
    return partial_keys, emitters, needs_sizes


def _hash_join_positions(
    probe_values: Sequence, build_values: Sequence
) -> tuple[Optional[list[int]], list[int]]:
    """Matching (probe, build) position pairs of an equi join.

    Returns ``(probe_positions, build_positions)``; a ``None`` probe side
    means the identity selection (every probe row matched exactly once, in
    order).  NULL keys never match, mirroring the row tiers.  The common
    unique-build-key case (foreign key to primary key) probes through one
    C-level ``map`` over the build table instead of a Python loop.
    """
    build_count = len(build_values)
    unique = dict(zip(build_values, range(build_count)))
    if len(unique) == build_count and None not in unique:
        build_positions = list(map(unique.get, probe_values))
        if None in build_positions:
            probe_positions = [
                i for i, b in enumerate(build_positions) if b is not None
            ]
            build_positions = [build_positions[i] for i in probe_positions]
            return probe_positions, build_positions
        return None, build_positions
    # Duplicate (or NULL) build keys: classic bucket build and probe.
    buckets: dict[Any, list[int]] = {}
    for position, key in enumerate(build_values):
        if key is None:
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [position]
        else:
            bucket.append(position)
    probe_out: list[int] = []
    build_out: list[int] = []
    append_probe = probe_out.append
    append_build = build_out.append
    for position, key in enumerate(probe_values):
        if key is None:
            continue
        bucket = buckets.get(key)
        if bucket is None:
            continue
        if len(bucket) == 1:
            append_probe(position)
            append_build(bucket[0])
        else:
            probe_out.extend([position] * len(bucket))
            build_out.extend(bucket)
    return probe_out, build_out


# -- fused-pipeline code generation ---------------------------------------
#
# The batch kernels still make one full pass over Python lists of boxed
# values per filter/projection expression.  For the dominant pipeline
# spines the executor goes one step further and compiles the *whole
# pipeline* into one ``exec``-compiled fused loop:
#
# * select: ``[Project] → Select* → Scan``;
# * aggregate: ``[Project] → Aggregate → Select* → Scan``, in two halves
#   so one group state can fold several tables (the shard partitions);
# * top-k: ``ORDER BY … LIMIT k`` over a select spine, into
#   ``heapq.nsmallest``;
# * filtered join: ``Select+ → Join(L.col = R.col) → (Scan L, Scan R)``
#   with every conjunct on L and a joined row of at least
#   ``_FUSED_JOIN_MIN_KEYS`` keys — the filter runs over L alone and each
#   survivor probes R's positional index (:meth:`repro.db.table.
#   Table.position_index`) before any joined row exists.
#
# Every loop zips the table's plain column lists and is specialized to the
# layout facts of each referenced column (:meth:`repro.db.table.Table.
# layout`, ``(kind, nullable)`` per column):
#
# * non-nullable columns drop their ``is None`` guards entirely;
# * ``int`` / ``float`` columns add raw sort keys (top-k) and plain ``+=``
#   sums (aggregates);
# * ``ParameterSlot``s read the statement's slot buffer in the loop
#   prologue, so prepared templates replay with zero re-lowering.
#
# Compiled pipelines are cached per (plan, layout signature): a write that
# changes a fact (a first NULL, a value of another type) recompiles, a
# rebuild that keeps the facts reuses the cached function against the
# fresh column store.  Lowering failures surface as :class:`LoweringError`
# and fall back to the batch-kernel path (counted as
# ``codegen_unsupported``); a *runtime* error in a generated pipeline also
# re-runs via the kernel path, so error semantics never diverge from the
# row tiers.


#: Shape-cache entry for eligible spines whose expressions cannot be
#: lowered; distinct from ``None`` ("not a pipeline spine at all" — joins
#: without a filter or under a projection, sorts without a limit and
#: limits without a sort stay on the kernel path without counting
#: anything).  A join spine caches a
#: :class:`_JoinDecline` instead, which carries its reason.
_CODEGEN_UNSUPPORTED = object()

#: Shape-cache miss marker (``None`` and the sentinel above are both
#: meaningful cached values).
_SHAPE_MISSING = object()


class _PipelineShape:
    """The analyzed spine of a codegen-eligible plan.

    A top-k spine also carries its ``ORDER BY`` keys, its ``LIMIT`` count
    and whether the keys name the projection's outputs (``Sort`` above
    ``Project``, the parser's plan) or the scanned table's columns.  A join
    spine carries its ``Join`` node; ``table`` is then the probe (left)
    side's.
    """

    __slots__ = (
        "table",
        "conjuncts",
        "outputs",
        "aggregate",
        "order",
        "limit",
        "order_over_outputs",
        "join",
    )

    def __init__(
        self,
        table: str,
        conjuncts: tuple[Expression, ...],
        outputs: Optional[tuple[algebra.OutputColumn, ...]],
        aggregate: Optional[algebra.Aggregate],
        order: Optional[tuple[algebra.SortKey, ...]] = None,
        limit: int = 0,
        order_over_outputs: bool = False,
        join: Optional[algebra.Join] = None,
    ) -> None:
        self.table = table
        self.conjuncts = conjuncts
        self.outputs = outputs
        self.aggregate = aggregate
        self.order = order
        self.limit = limit
        self.order_over_outputs = order_over_outputs
        self.join = join


def _analyze_pipeline(plan: algebra.PlanNode) -> Optional[_PipelineShape]:
    """Peel ``plan`` into a fused spine, or return ``None``.

    The spines are

    * ``[Project | Aggregate] → Select* → Scan`` (select and aggregate
      pipelines);
    * the top-k ``Limit(k > 0) → Sort → [Project] → Select* → Scan`` (or
      ``Limit → Project → Sort → …`` when the keys name table columns the
      projection drops);
    * the full-width filtered equi-join ``Select+ → Join(L.col = R.col) →
      (Scan L, Scan R)``, probing R's positional index from one loop over
      L (whether every conjunct reads L only, and whether the joined row
      is wide enough, is settled at compile time).

    Every other shape returns ``None``; a ``Sort`` without a ``Limit`` in
    particular stays on the batch kernels, where prepared statements rely
    on sorted plans populating the kernel cache (``_ops``), and so do a
    join without a filter, whose memoised match already skips the probe,
    and a projection over a join, whose narrow rows the kernels' memoised
    match emits faster than the probe loop.
    """
    outputs: Optional[tuple[algebra.OutputColumn, ...]] = None
    aggregate: Optional[algebra.Aggregate] = None
    order: Optional[tuple[algebra.SortKey, ...]] = None
    limit = 0
    order_over_outputs = False
    node = plan
    if isinstance(node, algebra.Limit):
        limit = node.count
        node = node.child
        if isinstance(node, algebra.Project) and isinstance(
            node.child, algebra.Sort
        ):
            outputs = node.outputs
            order = node.child.keys
            node = node.child.child
        elif isinstance(node, algebra.Sort):
            order = node.keys
            node = node.child
            if isinstance(node, algebra.Project):
                outputs = node.outputs
                order_over_outputs = True
                node = node.child
        if order is None or limit == 0:
            return None
    elif isinstance(node, algebra.Aggregate):
        aggregate = node
        node = node.child
    elif isinstance(node, algebra.Project):
        outputs = node.outputs
        node = node.child
        if isinstance(node, algebra.Aggregate):
            # The parser wraps every aggregate query in a Project that
            # renames / reorders the aggregate's outputs; the projection is
            # applied at emit time against the aggregate's output columns.
            aggregate = node
            node = node.child
    predicates: list[Expression] = []
    while isinstance(node, algebra.Select):
        predicates.append(node.predicate)
        node = node.child
    join: Optional[algebra.Join] = None
    if isinstance(node, algebra.Join):
        if (
            not predicates
            or outputs is not None
            or aggregate is not None
            or order is not None
            or not isinstance(node.left, algebra.Scan)
            or not isinstance(node.right, algebra.Scan)
            or _equi_join_columns(node.condition) is None
        ):
            return None
        join = node
        node = node.left
    if not isinstance(node, algebra.Scan):
        return None
    predicates.reverse()  # the innermost Select applies first
    conjuncts: list[Expression] = []
    for predicate in predicates:
        conjuncts.extend(_flatten_and(predicate))
    return _PipelineShape(
        node.table,
        tuple(conjuncts),
        outputs,
        aggregate,
        order,
        limit,
        order_over_outputs,
        join,
    )


_AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


class _LoopScope(LoweringScope):
    """A scope whose columns are the variables of one generated loop.

    Column arrays are zipped by :meth:`loop_clause`; parameter slots (and
    anything else loop-invariant) are read once in the function prologue.
    """

    def __init__(self) -> None:
        super().__init__()
        self.globals.update({"_zip": zip, "_range": range})
        self.prologue: list[str] = []
        self.zip_names: list[str] = []
        self.zip_sources: list[str] = []
        self._buffer_vars: dict[int, str] = {}
        self._slot_vars: dict[int, str] = {}

    def slot_var(self, slot: ParameterSlot) -> str:
        """Prologue variable reading a parameter slot's current value."""
        var = self._slot_vars.get(id(slot))
        if var is None:
            buffer_var = self._buffer_vars.get(id(slot.slots))
            if buffer_var is None:
                buffer_var = self.bind(slot.slots)
                self._buffer_vars[id(slot.slots)] = buffer_var
            var = self.gensym("_p")
            self._slot_vars[id(slot)] = var
            self.prologue.append(f"{var} = {buffer_var}[{slot.index}]")
        return var

    def slot(self, slot: ParameterSlot) -> Lowered:
        return Lowered(self.slot_var(slot), True, False, True)

    def loop_clause(self, lead: Optional[tuple[str, str]] = None) -> str:
        """The ``for ...`` clause iterating every referenced column.

        ``lead`` is an extra ``(variable, iterable source)`` zipped first.
        """
        names, sources = self.zip_names, self.zip_sources
        if lead is not None:
            names, sources = [lead[0], *names], [lead[1], *sources]
        if not names:
            return "for _i in _range(_n)"
        if len(names) == 1:
            return f"for {names[0]} in {sources[0]}"
        return f"for {', '.join(names)} in _zip({', '.join(sources)})"


class _BatchScope(_LoopScope):
    """Columns resolve against a :class:`ColumnBatch` at kernel-call time.

    Every column is boxed and nullable as far as the generated code knows:
    a kernel is cached per plan and sees batches of any layout.
    """

    def __init__(self) -> None:
        super().__init__()
        self._column_vars: dict[ColumnRef, str] = {}

    def column(self, column: ColumnRef) -> Lowered:
        var = self._column_vars.get(column)
        if var is None:
            var = self.gensym("_v")
            self._column_vars[column] = var
            holder = self.gensym("_c")
            self.prologue.append(
                f"{holder} = _batch.column_values({self.bind(column)})"
            )
            self.zip_names.append(var)
            self.zip_sources.append(holder)
        return Lowered(var, True, False, True)

    def kernel(self, body: str) -> Callable[["ColumnBatch"], list]:
        """Compile ``def _kernel(_batch)``: prologue, then ``body``."""
        lines = ["def _kernel(_batch):", "    _n = _batch.length"]
        lines.extend(f"    {line}" for line in self.prologue)
        lines.append(f"    {body}")
        exec(  # noqa: S102 - internal codegen, identifiers repr-escaped
            compile("\n".join(lines), "<kernel>", "exec"), self.globals
        )
        return self.globals["_kernel"]


class _PipelineCompiler(_LoopScope):
    """The fused-pipeline scope: one pipeline's columns, by layout facts.

    One instance compiles one (pipeline shape, layout signature) pair:
    null-guard elision, raw sort keys and plain sums are decided by each
    referenced column's ``(kind, nullable)`` facts, which is why compiled
    pipelines are cached per layout signature.  With ``facts=None`` the
    compiler runs in *trial mode* — every column is assumed boxed and
    nullable — which exercises the identical supportability decisions
    without a live table (used to cache unsupportable shapes once).

    The generated function has the signature ``_pipeline(_cols, _n, _rows)``
    where ``_cols`` is the table's current column store, ``_n`` its row
    count and ``_rows`` its stored row dicts: nothing store-specific is
    baked into the compiled code — the column lists are read from ``_cols``
    in the loop prologue — so a cached pipeline stays valid across table
    rebuilds that preserve the layout signature.
    """

    def __init__(self, schema, facts) -> None:
        super().__init__()
        self._schema = schema
        self._facts = facts
        self._column_vars: dict[str, str] = {}
        self._value_vars: dict[str, str] = {}
        #: when set, column references resolve against these emit-scope
        #: sources (an aggregate's output namespace) instead of the scanned
        #: table's columns — used to lower a projection over an aggregate.
        self.emit_columns: Optional[dict[str, str]] = None

    def begin_emit(self) -> list[str]:
        """Close the accumulate half of an aggregate pipeline.

        Returns its prologue and starts an empty one: emit is a function of
        its own, so it re-reads the parameter slots and columns it needs.
        """
        prologue = self.prologue
        self.prologue = []
        self._slot_vars = {}
        self._column_vars = {}
        return prologue

    def column(self, column: ColumnRef) -> Lowered:
        if self.emit_columns is not None:
            return Lowered(self._resolve_emit(column), True, False, False)
        name = self.resolve(column)
        return Lowered(self.value_var(name), self.nullable(name), False, True)

    # -- column / parameter access ----------------------------------------

    def resolve(self, column: ColumnRef) -> str:
        """Resolve a reference to a schema column name, or refuse.

        Single-table pipelines resolve exactly like the row tiers: the
        qualified lookup and the unique-suffix fallback both land on the
        bare schema column when it exists, so the bare name is the whole
        story here.
        """
        if not self._schema.has_column(column.name):
            raise LoweringError(column.qualified_name)
        return column.name

    def _resolve_emit(self, column: ColumnRef) -> str:
        """Resolve a reference against the emit-scope namespace."""
        return self.emit_columns[_output_key(column, self.emit_columns)]

    def kind(self, name: str) -> str:
        if self._facts is None:  # trial mode: pessimistic
            return "boxed"
        return self._facts[name][0]

    def nullable(self, name: str) -> bool:
        if self._facts is None:  # trial mode: pessimistic
            return True
        return self._facts[name][1]

    def column_var(self, name: str) -> str:
        """Prologue variable holding the column's value list."""
        var = self._column_vars.get(name)
        if var is None:
            var = self.gensym("_c")
            self._column_vars[name] = var
            self.prologue.append(f"{var} = _cols[{name!r}]")
        return var

    def value_var(self, name: str) -> str:
        """Loop variable over the column's values."""
        var = self._value_vars.get(name)
        if var is None:
            var = self.gensym("_v")
            self._value_vars[name] = var
            self.zip_names.append(var)
            self.zip_sources.append(self.column_var(name))
        return var


def _output_key(column: ColumnRef, available: Collection[str]) -> str:
    """The key of a row with keys ``available`` that ``column`` reads
    (:meth:`ColumnRef.key_in`); anything missing or ambiguous refuses (the
    row tiers raise their own error for it)."""
    try:
        return column.key_in(available)
    except ExpressionError:
        raise LoweringError(column.qualified_name) from None


def _indent(lines: Iterable[str]) -> list[str]:
    return [f"    {line}" for line in lines]


def _assemble_pipeline(
    compiler: _PipelineCompiler, body: list[str]
) -> tuple[str, dict]:
    lines = [
        "def _pipeline(_cols, _n, _rows):",
        *_indent(compiler.prologue),
        *_indent(body),
    ]
    return "\n".join(lines), compiler.globals


def _generate_select(shape: _PipelineShape, schema, facts) -> tuple[str, dict]:
    """Source for a Scan → Select* → [Project] pipeline."""
    compiler = _PipelineCompiler(schema, facts)
    conditions = [
        lower_expression(conjunct, compiler) for conjunct in shape.conjuncts
    ]
    condition = " and ".join(lowered.src for lowered in conditions)
    suffix = f" if {condition}" if condition else ""
    if shape.outputs is None:
        # Full-width output: each survivor is a C-level ``dict.copy`` of
        # its stored row, whose keys are the scan's layout.  Only filter
        # columns are zipped.
        loop = compiler.loop_clause(("_r", "_rows"))
        body = [f"return [_r.copy() {loop}{suffix}]"]
        return _assemble_pipeline(compiler, body)
    items: list[str] = []
    for output in shape.outputs:
        lowered = lower_expression(output.expression, compiler)
        items.append(f"{output.name!r}: {lowered.src}")
    body = [
        f"return [{{{', '.join(items)}}} {compiler.loop_clause()}{suffix}]"
    ]
    return _assemble_pipeline(compiler, body)


class _NaNSortKey(Exception):
    """A fused top-k met a NaN sort key.

    ``heapq`` and ``list.sort`` order NaN differently (NaN compares false
    both ways), so the statement re-runs on the batch kernels, whose full
    sort every tier shares.
    """


def _nan_sort_key() -> Any:
    raise _NaNSortKey


def _sort_component(
    compiler: _PipelineCompiler, expression: Expression, ascending: bool
) -> str:
    """One ORDER BY key's component of the top-k composite key.

    A typed (``int`` / ``float``), null-free column contributes its
    raw value, negated for ``DESC``; anything else contributes
    :func:`~repro.db.executor.sort_key_function`'s component.  Either way
    a NaN value raises :class:`_NaNSortKey`.
    """
    lowered = lower_expression(expression, compiler)
    value = lowered.src
    if isinstance(expression, ColumnRef):
        name = compiler.resolve(expression)
        kind = compiler.kind(name)
        if kind != "boxed" and not compiler.nullable(name):
            raw = value if ascending else f"-{value}"
            if kind == "int":
                return raw
            return f"({raw} if {value} == {value} else _nan())"
    component = compiler.bind(sort_key_function(ascending))
    if lowered.trivial:
        return f"({component}({value}) if {value} == {value} else _nan())"
    temp = compiler.gensym("_t")
    return (
        f"({component}({temp}) if ({temp} := {value}) == {temp} else _nan())"
    )


def _generate_topk(shape: _PipelineShape, schema, facts) -> tuple[str, dict]:
    """Source for a ``Limit → Sort`` over a Scan → Select* → [Project] spine.

    One loop filters like a select pipeline and feeds each survivor's
    composite key ``(key₁′, …, keyₙ′, position)`` to ``heapq.nsmallest``;
    only the k winners become rows, re-reading their columns by position.
    Position last breaks ties by input order, which is what the tiers'
    stable multi-pass sort does, so the rows and their order equal a full
    sort's first k.  Projection outputs that are not sort keys and could
    raise are evaluated for every survivor as well, exactly as the kernel
    path evaluates them.
    """
    compiler = _PipelineCompiler(schema, facts)
    compiler.globals.update(
        {"_nsmallest": heapq.nsmallest, "_nan": _nan_sort_key}
    )
    conditions = [
        lower_expression(conjunct, compiler).src for conjunct in shape.conjuncts
    ]
    outputs = shape.outputs
    by_name = {output.name: output for output in outputs or ()}
    keyed: set[str] = set()
    components = []
    for key in shape.order:
        expression = key.column
        if shape.order_over_outputs:
            name = _output_key(key.column, by_name)
            keyed.add(name)
            expression = by_name[name].expression
        components.append(_sort_component(compiler, expression, key.ascending))
    checked = [
        lower_expression(output.expression, compiler).src
        for output in outputs or ()
        if output.name not in keyed
        and not isinstance(output.expression, (ColumnRef, Literal, ParameterSlot))
    ]
    if checked:
        # A tuple display is never None: this only evaluates the outputs.
        conditions.append(f"({', '.join(checked)},) is not None")
    suffix = f" if {' and '.join(conditions)}" if conditions else ""
    loop = compiler.loop_clause(("_i", "_range(_n)"))
    top = (
        f"_top = _nsmallest({shape.limit},"
        f" (({', '.join(components)}, _i) {loop}{suffix}))"
    )
    if outputs is None:
        # The winners' stored rows, copied: the scan's layout.
        return _assemble_pipeline(
            compiler, [top, "return [_rows[_k[-1]].copy() for _k in _top]"]
        )
    # Output columns lowered from here on are read by the winners only.
    items = [
        f"{output.name!r}: {lower_expression(output.expression, compiler).src}"
        for output in outputs
    ]
    rebind = ""
    if compiler.zip_names:
        targets = ", ".join(compiler.zip_names)
        cells = ", ".join(f"{src}[_i]" for src in compiler.zip_sources)
        rebind = f" for ({targets},) in (({cells},),)"
    body = [
        top,
        f"return [{{{', '.join(items)}}}"
        f" for _i in [_k[-1] for _k in _top]{rebind}]",
    ]
    return _assemble_pipeline(compiler, body)


class _JoinDecline(LoweringError):
    """A join spine the fused probe loop does not cover, and why.

    Raised while compiling (trial mode included); the cached shape then
    counts ``reason`` in ``join_declines`` on every execution, and the
    statement runs on the batch kernels.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _JoinCompiler(_PipelineCompiler):
    """The pipeline scope of a join's probe side.

    Column references resolve over the joined row's key layout (see
    :func:`_join_layout`), exactly as the row tiers read the merged row; a
    reference that lands on the build side refuses the spine.
    """

    def __init__(self, schema, facts, layout: dict) -> None:
        super().__init__(schema, facts)
        self._layout = layout

    def resolve(self, column: ColumnRef) -> str:
        side, name = self._layout[_output_key(column, self._layout)]
        if side != "L":
            raise _JoinDecline("build_side_filter")
        return name

    def survivor_value(self, name: str) -> str:
        """Column ``name`` of the current L row, read after the filter.

        The loop's variable when a conjunct already zips the column, else
        a positional read that only the survivors pay.
        """
        var = self._value_vars.get(name)
        return var if var is not None else f"{self.column_var(name)}[_i]"


def _join_layout(
    join: algebra.Join, probe_schema, build_schema
) -> tuple[dict[str, tuple[str, str]], str, str]:
    """The joined row's keys, in order, -> (side, column name), and the
    (probe, build) key columns.

    :func:`~repro.db.algebra.output_layout` of the join and its columns
    oriented by :func:`~repro.db.executor.orient_equi_columns`, as the
    batch join and the row tiers read them: R's columns, then L's, with a
    name both tables have qualified on each side.
    """
    schemas = {join.left.table: probe_schema, join.right.table: build_schema}

    def layout(plan: algebra.PlanNode) -> tuple[algebra.OutputKey, ...]:
        return algebra.output_layout(plan, lambda name: schemas[name].column_names)

    build_width = len(build_schema.column_names)
    keys = {
        entry.key: ("R" if position < build_width else "L", entry.column)
        for position, entry in enumerate(layout(join))
    }
    left_col, right_col = orient_equi_columns(join, layout)
    return (
        keys,
        _output_key(left_col, probe_schema.column_names),
        _output_key(right_col, build_schema.column_names),
    )


#: Fewest output columns a joined row must have for the fused probe loop
#: to serve its join; a narrower one declines (``narrow_row``) to the
#: batch kernels.  Between writes the kernels memoise the whole join match
#: and pay one filter pass plus their row maker, while the fused loop
#: probes every survivor again; what it wins back is emission, where
#: merging the stored row dicts beats the row maker by more the wider the
#: row.  With one key per column, on a 50k-row probe table keeping 5 %
#: (2-core x86-64, CPython 3.11, best of 15, noisy to about 15 %), the
#: fused loop ran at 0.77–1.07× the kernels' speed at 7–13 columns and
#: 1.11–1.46× at 15–20; ``bench_codegen``'s ``join_filter`` (20 columns)
#: and ``join_filter_narrow`` (7) sit on either side of the cut.
_FUSED_JOIN_MIN_KEYS = 15


def _generate_join(
    shape: _PipelineShape, schema, facts, build_schema
) -> tuple[str, dict]:
    """Source for a ``Select+ → Join → (Scan L, Scan R)`` spine.

    One comprehension over L's columns tests the conjuncts like a select
    pipeline, looks each survivor's key up in R's positional index (dict
    semantics on the boxed values: NULL never matches, ``1``, ``1.0`` and
    ``True`` are one key) and emits one row per matching R position, in
    (L position, R position) order — the batch join's order.  Each row
    merges the stored row dicts, ``{**_rr, **_lr}``, which copies at C
    speed; a side with a name the other side shares spells its keys out,
    qualified as :func:`_join_layout` says.  A joined row of fewer than
    :data:`_FUSED_JOIN_MIN_KEYS` columns declines.

    The generated ``_pipeline(_cols, _n, _rows, _rrows, _index)`` takes
    L's column store, row count and rows, R's rows and R's index on the
    build key (``_build_key`` in the returned bindings).
    """
    layout, probe_key, build_key = _join_layout(shape.join, schema, build_schema)
    if len(layout) < _FUSED_JOIN_MIN_KEYS:
        raise _JoinDecline("narrow_row")
    compiler = _JoinCompiler(schema, facts, layout)
    compiler.globals["_build_key"] = build_key
    conditions = [
        lower_expression(conjunct, compiler).src
        for conjunct in shape.conjuncts
    ]
    compiler.prologue.append("_get = _index.get")
    if compiler.kind(probe_key) == "boxed":
        # The row tiers probe every L row, filtered or not, so an
        # unhashable key anywhere in L raises there: raise here too.
        compiler.globals.update(
            {"_drain": deque(maxlen=0).extend, "_map": map, "_hash": hash}
        )
        column = compiler.column_var(probe_key)
        compiler.prologue.append(f"_drain(_map(_hash, {column}))")
    items = []
    for side, row, fetch in (("R", "_rr", "_rrows[_j]"), ("L", "_lr", "_rows[_i]")):
        columns = [(key, name) for key, (at, name) in layout.items() if at == side]
        if all(key == name for key, name in columns):
            items.append(f"**{fetch}")
            continue
        for position, (key, name) in enumerate(columns):
            source = row if position else f"({row} := {fetch})"
            items.append(f"{key!r}: {source}[{name!r}]")
    key = compiler.survivor_value(probe_key)
    loop = compiler.loop_clause(("_i", "_range(_n)"))
    body = [
        f"return [{{{', '.join(items)}}} {loop}"
        f" if {' and '.join(conditions)} for _j in _get({key}, ())]"
    ]
    lines = [
        "def _pipeline(_cols, _n, _rows, _rrows, _index):",
        *_indent(compiler.prologue),
        *_indent(body),
    ]
    return "\n".join(lines), compiler.globals


def _emit_items(
    compiler: _PipelineCompiler,
    shape: _PipelineShape,
    available: dict[str, str],
) -> list[str]:
    """Dict-display items for an aggregate's emit row.

    ``available`` is the aggregate's output namespace (key -> value source)
    in row-dict insertion order.  Without an outer projection it *is* the
    output row; with one, each projection output is lowered in emit scope so
    references resolve against the aggregate's outputs like the row tiers'
    projection over aggregate rows.
    """
    if shape.outputs is None:
        return [f"{key!r}: {value}" for key, value in available.items()]
    compiler.emit_columns = available
    try:
        items = []
        for output in shape.outputs:
            lowered = lower_expression(output.expression, compiler)
            items.append(f"{output.name!r}: {lowered.src}")
        return items
    finally:
        compiler.emit_columns = None


def _generate_aggregate(
    shape: _PipelineShape, schema, facts
) -> tuple[str, dict]:
    """Source for a Scan → Select* → Aggregate pipeline, in two halves.

    ``_accumulate(_state, _cols, _n)`` is the fused pass: it folds one
    table's surviving rows into ``_state`` — per-group value lists in the
    single-argument strategy, per-group cell lists otherwise, a tuple of
    plain accumulators for scalar aggregates — and returns it.
    ``_emit(_state)`` turns a state into the output rows (``avg``
    finalisation and an outer ``Project`` included); ``_init()`` makes the
    empty state.  A state may pass through several tables' ``_accumulate``
    before one ``_emit`` (the sharding layer threads it through the shard
    partitions) provided their pipelines agree on ``_state_key``: the
    source of ``_init`` and ``_emit``, i.e. every layout-dependent decision
    about what a state holds and which invariants emit relies on.
    """
    plan = shape.aggregate
    compiler = _PipelineCompiler(schema, facts)
    conditions = [
        lower_expression(conjunct, compiler) for conjunct in shape.conjuncts
    ]
    for spec in plan.aggregates:
        if spec.function not in _AGGREGATE_FUNCTIONS:
            raise LoweringError(spec.function)
    argument_exprs: list[Expression] = []

    def compile_argument(expression: Expression) -> Optional[Lowered]:
        try:
            lowered = lower_expression(expression, compiler)
        except LoweringError:
            return None
        argument_exprs.append(expression)
        return lowered

    planned = plan_aggregate_arguments(plan.aggregates, compile_argument)
    if planned is None:
        raise LoweringError("aggregate argument")
    arguments, spec_slots = planned
    partial_keys, emitters, needs_sizes = _plan_partials(spec_slots)
    # Argument slots: trivial arguments are referenced in place, composite
    # arguments are evaluated once per surviving row into a temporary.
    value_srcs: list[str] = []
    value_assigns: list[str] = []
    for slot, lowered in enumerate(arguments):
        if lowered.trivial:
            value_srcs.append(lowered.src)
        else:
            temp = f"_a{slot}"
            value_srcs.append(temp)
            value_assigns.append(f"{temp} = {lowered.src}")

    def fast_numeric(slot: int) -> bool:
        """True when the slot is a non-nullable typed numeric column —
        ``sum`` then skips None seeding and uses ``+=`` directly."""
        expression = argument_exprs[slot]
        if arguments[slot].nullable or not isinstance(expression, ColumnRef):
            return False
        return compiler.kind(compiler.resolve(expression)) != "boxed"

    condition = " and ".join(lowered.src for lowered in conditions)
    row: list[str] = []  # the loop body: one surviving row into the state
    if condition:
        row.append(f"if not ({condition}):")
        row.append("    continue")
    if plan.group_by:
        group_srcs = [
            compiler.value_var(compiler.resolve(column))
            for column in plan.group_by
        ]
        if len(group_srcs) == 1:
            key_src = group_srcs[0]
        else:
            key_src = f"({', '.join(group_srcs)})"
        # Per-group accumulation strategy.  The common single-argument
        # shape (any mix of sum/count/min/max/avg over one expression)
        # appends each surviving value to a per-group values list — a
        # ``defaultdict(list)`` subscript creates missing groups at C
        # level, so the hot loop is one probe plus one append with no
        # Python-level branch — and reduces with the C builtins at emit
        # time, which accumulate left-to-right exactly like the kernels'
        # sequential folds.  Everything else keeps one mutable state list
        # per group, indexed by partial slot.
        single = len(arguments) == 1
        if single and needs_sizes and arguments[0].nullable:
            single = False  # len(values) would miss NULL-argument rows
        row.extend(value_assigns)
        reductions: list[str] = []
        compiler.globals["_defaultdict"] = defaultdict
        if single:
            compiler.globals.update(
                {
                    "_sum": sum,
                    "_len": len,
                    "_min": min,
                    "_max": max,
                    "_list": list,
                    "_lap": list.append,
                }
            )
            value = value_srcs[0]
            guard = arguments[0].nullable
            if guard:
                row.append(f"_l = _ids[{key_src}]")
                row.append(f"if {value} is not None:")
                row.append(f"    _lap(_l, {value})")
            else:
                row.append(f"_lap(_ids[{key_src}], {value})")
            state_var = "_l"
            for index, (function, _) in enumerate(partial_keys):
                if function == "count":
                    reductions.append(f"_r{index} = _len(_l)")
                elif guard:
                    reductions.append(
                        f"_r{index} = _{function}(_l) if _l else None"
                    )
                else:
                    reductions.append(f"_r{index} = _{function}(_l)")
            # needs_sizes forces a non-nullable argument here, so a count
            # partial's reduction doubles as the surviving-row count.
            size_src = next(
                (
                    f"_r{index}"
                    for index, (function, _) in enumerate(partial_keys)
                    if function == "count"
                ),
                "_len(_l)",
            )
            partial_src = ["_r{}".format(i) for i in range(len(partial_keys))]
            factory = "_list"
        else:
            inits: list[str] = []
            updates: dict[int, list[str]] = {}  # slot -> update lines
            for index, (function, slot) in enumerate(partial_keys):
                value = value_srcs[slot]
                cell = f"_st[{index}]"
                if function == "count":
                    inits.append("0")
                    updates.setdefault(slot, []).append(f"{cell} += 1")
                elif function == "sum" and fast_numeric(slot):
                    inits.append("0")
                    updates.setdefault(slot, []).append(f"{cell} += {value}")
                elif function == "sum":
                    temp = compiler.gensym("_m")
                    inits.append("None")
                    updates.setdefault(slot, []).extend(
                        [
                            f"{temp} = {cell}",
                            f"{cell} = (0 + {value}) if {temp} is None"
                            f" else {temp} + {value}",
                        ]
                    )
                else:  # min / max
                    comparator = "<" if function == "min" else ">"
                    temp = compiler.gensym("_m")
                    inits.append("None")
                    updates.setdefault(slot, []).extend(
                        [
                            f"{temp} = {cell}",
                            f"if {temp} is None or {value} {comparator} {temp}:",
                            f"    {cell} = {value}",
                        ]
                    )
            # Surviving-row counts (count(*)) share an unguarded count
            # partial's cell when one exists; otherwise they get their own.
            size_cell: Optional[int] = None
            if needs_sizes:
                for index, (function, slot) in enumerate(partial_keys):
                    if function == "count" and not arguments[slot].nullable:
                        size_cell = index
                        break
                if size_cell is None:
                    size_cell = len(partial_keys)
                    inits.append("0")
            row.append(f"_st = _ids[{key_src}]")
            if size_cell is not None and size_cell >= len(partial_keys):
                row.append(f"_st[{size_cell}] += 1")
            for slot, lines in updates.items():
                if arguments[slot].nullable:
                    row.append(f"if {value_srcs[slot]} is not None:")
                    row.extend(_indent(lines))
                else:
                    row.extend(lines)
            state_var = "_st"
            size_src = f"_st[{size_cell}]" if size_cell is not None else "0"
            partial_src = [f"_st[{i}]" for i in range(len(partial_keys))]
            factory = f"lambda: [{', '.join(inits)}]"
        state = "_ids"
        init = [f"_ids = _defaultdict({factory})"]
        accumulate = [f"{compiler.loop_clause()}:", *_indent(row)]
        prologue = compiler.begin_emit()
        # Emit: one output row per group, in first-encounter order.
        key_names = [f"_k{i}" for i in range(len(group_srcs))]
        if len(key_names) == 1:
            unpack = key_names[0]
        else:
            unpack = f"({', '.join(key_names)})"
        # The aggregate's output namespace, as the row tiers build it:
        # the group keys, then the spec outputs.
        layout = algebra.output_layout(plan, lambda _: schema.column_names)
        available = {
            entry.key: key_name for entry, key_name in zip(layout, key_names)
        }
        # A group only exists once a surviving row landed in it, so a
        # non-nullable argument's count is >= 1.
        available.update(
            _spec_sources(
                emitters,
                size_src,
                partial_src,
                lambda index: arguments[partial_keys[index][1]].nullable,
            )
        )
        emit_items = _emit_items(compiler, shape, available)
        emit = [
            "_out = []",
            "_row = _out.append",
            f"for {unpack}, {state_var} in _ids.items():",
            *_indent(reductions),
            f"    _row({{{', '.join(emit_items)}}})",
            "return _out",
        ]
        return _assemble_aggregate(
            compiler, prologue, state, init, accumulate, emit
        )
    # Scalar aggregation: plain accumulators, always one output row.
    init = ["_sz = 0"] if needs_sizes else []
    state_vars = ["_sz"] if needs_sizes else []
    updates = {}
    for index, (function, slot) in enumerate(partial_keys):
        value = value_srcs[slot]
        var = f"_s{index}"
        state_vars.append(var)
        if function == "count":
            init.append(f"{var} = 0")
            updates.setdefault(slot, []).append(f"{var} += 1")
        elif function == "sum":
            init.append(f"{var} = None")
            updates.setdefault(slot, []).append(
                f"{var} = (0 + {value}) if {var} is None else {var} + {value}"
            )
        else:
            comparator = "<" if function == "min" else ">"
            init.append(f"{var} = None")
            updates.setdefault(slot, []).extend(
                [
                    f"if {var} is None or {value} {comparator} {var}:",
                    f"    {var} = {value}",
                ]
            )
    state = f"({''.join(f'{var}, ' for var in state_vars)})"
    if needs_sizes and not condition and not partial_keys:
        # count(*)-only over an unfiltered scan: no loop, just the row count.
        accumulate = ["_sz += _n"]
    else:
        if needs_sizes:
            row.append("_sz += 1")
        row.extend(value_assigns)
        for slot, lines in updates.items():
            if arguments[slot].nullable:
                row.append(f"if {value_srcs[slot]} is not None:")
                row.extend(_indent(lines))
            else:
                row.extend(lines)
        accumulate = [f"{compiler.loop_clause()}:", *_indent(row or ["pass"])]
    prologue = compiler.begin_emit()
    partial_src = [f"_s{index}" for index in range(len(partial_keys))]
    available = _spec_sources(emitters, "_sz", partial_src, lambda _: True)
    emit_items = _emit_items(compiler, shape, available)
    emit = [f"return [{{{', '.join(emit_items)}}}]"]
    return _assemble_aggregate(compiler, prologue, state, init, accumulate, emit)


def _spec_sources(
    emitters: list[tuple[str, str, tuple[int, ...]]],
    size: str,
    partials: list[str],
    count_may_be_zero: Callable[[int], bool],
) -> dict[str, str]:
    """Each aggregate spec's output name -> its value's source at emit."""
    sources = {}
    for name, kind, indices in emitters:
        if kind == "size":
            sources[name] = size
        elif kind == "avg":
            total, count = partials[indices[0]], partials[indices[1]]
            sources[name] = f"({total} / {count})"
            if count_may_be_zero(indices[1]):
                sources[name] = f"({sources[name]} if {count} else None)"
        else:
            sources[name] = partials[indices[0]]
    return sources


def _assemble_aggregate(
    compiler: _PipelineCompiler,
    prologue: list[str],
    state: str,
    init: list[str],
    accumulate: list[str],
    emit: list[str],
) -> tuple[str, dict]:
    """The three functions of an aggregate pipeline; ``compiler.prologue``
    is emit's own (see :meth:`_PipelineCompiler.begin_emit`)."""
    state_half = [
        "def _init():",
        *_indent([*init, f"return {state}"]),
        "def _emit(_state):",
        *_indent([f"{state} = _state", *compiler.prologue, *emit]),
    ]
    lines = [
        *state_half,
        "def _accumulate(_state, _cols, _n):",
        *_indent(
            [f"{state} = _state", *prologue, *accumulate, f"return {state}"]
        ),
    ]
    compiler.globals["_state_key"] = "\n".join(state_half)
    return "\n".join(lines), compiler.globals


def _generate_pipeline(
    shape: _PipelineShape,
    schema,
    facts,
    build_schema=None,
) -> tuple[str, dict]:
    if shape.join is not None:
        return _generate_join(shape, schema, facts, build_schema)
    if shape.aggregate is not None:
        return _generate_aggregate(shape, schema, facts)
    if shape.order is not None:
        return _generate_topk(shape, schema, facts)
    return _generate_select(shape, schema, facts)


class _AggregatePipeline:
    """A compiled aggregate pipeline: the generated ``_init`` /
    ``_accumulate`` / ``_emit`` and the ``_state_key`` two pipelines must
    share to fold into one state.  Called like a select pipeline it runs
    all three over one table."""

    __slots__ = ("init", "accumulate", "emit", "state_key")

    def __init__(self, bindings: dict) -> None:
        self.init = bindings["_init"]
        self.accumulate = bindings["_accumulate"]
        self.emit = bindings["_emit"]
        self.state_key = bindings["_state_key"]

    def __call__(self, cols: dict, n: int, rows: list[Row]) -> list[Row]:
        return self.emit(self.accumulate(self.init(), cols, n))


class _JoinPipeline:
    """A compiled join spine: the generated loop and its build key."""

    __slots__ = ("loop", "build_key")

    def __init__(self, bindings: dict) -> None:
        self.loop = bindings["_pipeline"]
        self.build_key = bindings["_build_key"]


class AggregateCarry:
    """One aggregate's group state on its way through several tables.

    Passed to :meth:`VectorizedExecutor.try_codegen_rows` once per table:
    the first non-empty table's pipeline creates the state and owns the
    emit, every later one folds its rows into the same state.
    """

    __slots__ = ("pipeline", "state")

    def __init__(self) -> None:
        self.pipeline: Optional[_AggregatePipeline] = None
        self.state: Any = None


#: The summable int counters of :meth:`VectorizedExecutor.stats`, each an
#: attribute of the same name; everything else the stats report must be a
#: reason -> count dict listed in VECTORIZED_REASON_KEYS, or attached above
#: a merge (Database.execution_stats does the latter for the column-kind
#: census).  A new counter is added here and in ``__init__`` only.
VECTORIZED_COUNTER_KEYS = (
    "executions",
    "codegen_executions",
    "topk_executions",
    "join_executions",
    "pipelines_compiled",
    "codegen_cache_hits",
    "codegen_errors",
    "fallbacks",
    "subtree_fallbacks",
)
#: The reason -> count dicts of :meth:`VectorizedExecutor.stats`, merged
#: per reason.
VECTORIZED_REASON_KEYS = (
    "fallback_reasons",
    "topk_declines",
    "join_declines",
)


def zero_vectorized_stats() -> dict[str, Any]:
    """A stats dict of an executor that never ran a vectorized plan."""
    zeros: dict[str, Any] = dict.fromkeys(VECTORIZED_COUNTER_KEYS, 0)
    for key in VECTORIZED_REASON_KEYS:
        zeros[key] = {}
    return zeros


class VectorizedExecutor:
    """Lowers algebra plans to batch pipelines and runs them.

    Owned by an :class:`~repro.db.executor.Executor` in ``vectorized`` mode.
    Lowered pipelines are cached in an LRU keyed by the plan object, so a
    prepared statement's slot-compiled template re-executes with zero
    lowering work; the cache is dropped on DDL
    (:meth:`~repro.db.executor.Executor.invalidate_plan_cache`).
    """

    #: Lowered-plan cache entries kept before LRU eviction.
    OP_CACHE_LIMIT = 256
    #: Compiled fused-pipeline cache entries kept before LRU eviction.
    PIPELINE_CACHE_LIMIT = 256

    def __init__(self, executor) -> None:
        self._executor = executor
        self._tables = executor._tables
        #: plan -> lowered BatchOp (or the unvectorizable sentinel), LRU.
        self._ops: OrderedDict[algebra.PlanNode, BatchOp] = OrderedDict()
        #: materializer-layout signature -> code-generated row constructor,
        #: LRU-evicted like the executor's compile caches.
        self._makers: OrderedDict[tuple, Callable] = OrderedDict()
        #: plan -> analyzed pipeline shape, ``None`` (not a pipeline spine)
        #: or the unsupported sentinel; LRU alongside the op cache.
        self._shapes: OrderedDict[algebra.PlanNode, Any] = OrderedDict()
        #: (plan, column-layout signature) -> compiled fused pipeline, LRU.
        self._pipelines: OrderedDict[tuple, Callable] = OrderedDict()
        #: whether fused-pipeline codegen is attempted at all; tests and
        #: ``benchmarks/bench_engine.py`` clear it to pin the kernel path.
        self.codegen_enabled = True
        #: queries served entirely by this tier.
        self.executions = 0
        #: of which: served by a compiled fused pipeline.
        self.codegen_executions = 0
        #: of which: ``ORDER BY … LIMIT k`` served by a fused top-k loop.
        self.topk_executions = 0
        #: top-k spines that ran on the batch kernels instead, by reason:
        #: ``nan_key`` (a NaN sort key; heap and full sort disagree on it),
        #: ``unsupported`` (an unlowerable expression) and ``error`` (the
        #: generated loop raised; also counted in ``codegen_errors``).
        self.topk_declines: dict[str, int] = {}
        #: of the codegen executions: filtered equi-joins served by a fused
        #: probe loop.
        self.join_executions = 0
        #: filtered-join spines that ran on the batch kernels instead, by
        #: reason: ``narrow_row`` (the joined row has fewer than
        #: ``_FUSED_JOIN_MIN_KEYS`` keys), ``build_side_filter`` (a
        #: conjunct reads the right-hand table), ``unhashable_key`` (the
        #: right-hand key column holds an unhashable value),
        #: ``unsupported`` (an unlowerable or unresolvable expression) and
        #: ``error`` (the generated loop raised; also counted in
        #: ``codegen_errors``).
        self.join_declines: dict[str, int] = {}
        #: fused pipelines compiled (cache misses on a supported shape).
        self.pipelines_compiled = 0
        #: fused-pipeline cache hits.
        self.codegen_cache_hits = 0
        #: codegen attempts aborted by an unexpected error (the query then
        #: re-runs via the kernel path, so this is not a fallback).
        self.codegen_errors = 0
        #: queries that bailed to the compiled tier (no lowering, or a
        #: kernel raised at run time).
        self.fallbacks = 0
        #: subtrees executed on the compiled tier inside a vectorized run.
        self.subtree_fallbacks = 0
        #: fallback reason -> count, across whole-plan and subtree
        #: fallbacks: ``theta_join`` (non-equi join condition),
        #: ``unknown_function`` (an expression with no batch kernel —
        #: unknown scalar functions and foreign expression types),
        #: ``unsupported_operator`` (a plan node outside the vectorized
        #: subset), ``kernel_error`` (a kernel raised at run time), and
        #: ``codegen_unsupported`` (an eligible pipeline spine with an
        #: unlowerable expression ran on the kernel path instead).
        self.fallback_reasons: dict[str, int] = {}
        #: reason of the most recent lowering failure (set by _lower).
        self._last_reason = "unsupported_operator"
        #: reason behind the most recent try_execute fallback; ``None``
        #: after a vectorized success.  Read by the executor's per-call
        #: tier markers (tracing / EXPLAIN).
        self.last_fallback_reason: Optional[str] = None
        #: how the most recent vectorized success ran: ``"codegen"``,
        #: ``"codegen (top-k)"``, ``"codegen (join)"`` or ``"kernel"``;
        #: ``None`` after a fallback.
        self.last_path: Optional[str] = None

    # -- public API ------------------------------------------------------

    def try_execute(self, plan: algebra.PlanNode) -> Optional[list[Row]]:
        """Execute ``plan`` vectorized, or return ``None`` to fall back.

        Any exception other than :class:`~repro.db.executor.ExecutionError`
        (which the row tiers raise identically, e.g. for unknown tables)
        aborts the vectorized attempt; the caller re-runs the plan on the
        compiled tier, which reproduces genuine user-visible errors with
        row-tier semantics.
        """
        rows = self.try_codegen_rows(plan)
        if rows is not None:
            self.count_codegen(plan)
            self.last_fallback_reason = None
            return rows
        op = self._op(plan)
        if op is None:
            self.fallbacks += 1
            self.last_fallback_reason = self._last_reason
            self.last_path = None
            self._count_reason(self._last_reason)
            return None
        try:
            batch = op()
            rows = self._materialize(batch)
        except ExecutionError:
            raise
        except Exception:
            self.fallbacks += 1
            self.last_fallback_reason = "kernel_error"
            self.last_path = None
            self._count_reason("kernel_error")
            return None
        self.executions += 1
        self.last_fallback_reason = None
        self.last_path = "kernel"
        return rows

    def count_codegen(self, plan: algebra.PlanNode) -> None:
        """Count one execution of ``plan`` served by its fused loop.

        Which loop served it is a property of the plan's cached shape.
        """
        shape = self._pipeline_shape(plan)
        self.executions += 1
        self.codegen_executions += 1
        if shape.join is not None:
            self.join_executions += 1
            self.last_path = "codegen (join)"
        elif shape.order is not None:
            self.topk_executions += 1
            self.last_path = "codegen (top-k)"
        else:
            self.last_path = "codegen"

    def try_codegen_rows(
        self,
        plan: algebra.PlanNode,
        carry: Optional[AggregateCarry] = None,
        emit: bool = True,
    ) -> Any:
        """Run ``plan`` through a compiled fused pipeline, or ``None``.

        Returns the output rows on success and ``None`` whenever the plan
        must take the batch-kernel path instead: codegen disabled, the plan
        is not a spine :func:`_analyze_pipeline` accepts, the spine
        contains an unlowerable expression (counted as
        ``codegen_unsupported``), the scanned table is missing (the kernel
        path raises the row-tier error), a top-k met a NaN sort key, a join
        spine's row is narrow, a filter reads the build side or the build
        key is unhashable, or the generated code failed at
        compile or run time (counted in ``codegen_errors``; the kernel
        re-run reproduces row-tier error semantics).  A top-k spine's
        declines are also counted by reason in ``topk_declines``, a join
        spine's in ``join_declines``.  Does *not* touch the execution
        counters — callers (``try_execute``, the sharding layer's scatter)
        account for successes through :meth:`count_codegen`.

        With a ``carry`` the plan must be an aggregate spine, and this
        table's rows fold into the carried state instead of a fresh one
        (``None`` also when this table's layout compiles to a state the
        carry's pipeline cannot share).  ``emit=False`` leaves the state in
        the carry for the next table and returns the carry; the last
        table's call emits the output rows from it.  After ``None`` the
        carry holds a partial fold and must be discarded.
        """
        if not self.codegen_enabled:
            return None
        shape = None
        try:
            shape = self._pipeline_shape(plan)
            if shape is None:
                return None
            if isinstance(shape, _JoinDecline):
                if shape.reason == "unsupported":
                    self._count_reason("codegen_unsupported")
                self._count_join_decline(shape.reason)
                return None
            if shape is _CODEGEN_UNSUPPORTED:
                self._count_reason("codegen_unsupported")
                if isinstance(plan, algebra.Limit):
                    self._count_topk_decline("unsupported")
                return None
            if carry is not None and shape.aggregate is None:
                return None
            table = self._tables.get(shape.table)
            if table is None:
                return None
            build = None
            if shape.join is not None:
                build = self._tables.get(shape.join.right.table)
                if build is None:
                    return None
            store = table.columns()
            pipeline = self._pipeline_fn(plan, shape, table)
            if build is not None:
                index = build.position_index(pipeline.build_key)
                if index is None:
                    self._count_join_decline("unhashable_key")
                    return None
                return pipeline.loop(
                    store, len(table.rows), table.rows, build.rows, index
                )
            n = len(table.rows)
            if carry is None:
                return pipeline(store, n, table.rows)
            # An empty table folds nothing, whatever its (all-boxed) layout.
            if n:
                if carry.pipeline is None:
                    carry.pipeline = pipeline
                    carry.state = pipeline.init()
                elif carry.pipeline.state_key != pipeline.state_key:
                    return None
                carry.state = pipeline.accumulate(carry.state, store, n)
            if not emit:
                return carry
            if carry.pipeline is None:  # every table was empty
                return pipeline.emit(pipeline.init())
            return carry.pipeline.emit(carry.state)
        except _NaNSortKey:
            self._count_topk_decline("nan_key")
            return None
        except Exception:
            self.codegen_errors += 1
            if isinstance(plan, algebra.Limit):
                self._count_topk_decline("error")
            elif isinstance(shape, _PipelineShape) and shape.join is not None:
                self._count_join_decline("error")
            return None

    def stats(self) -> dict[str, Any]:
        """A snapshot of the counters, keyed like :func:`zero_vectorized_stats`."""
        stats: dict[str, Any] = {
            key: getattr(self, key) for key in VECTORIZED_COUNTER_KEYS
        }
        for key in VECTORIZED_REASON_KEYS:
            stats[key] = dict(getattr(self, key))
        return stats

    def invalidate(self) -> None:
        """Drop every cached lowered pipeline (call on DDL)."""
        self._ops.clear()
        self._shapes.clear()
        self._pipelines.clear()

    # -- fused-pipeline compilation ---------------------------------------

    def _pipeline_shape(self, plan: algebra.PlanNode) -> Any:
        """The cached shape analysis of ``plan``.

        Supportability is layout-independent (the boxed fallback always
        exists, and trial mode makes the pessimistic lowering decisions), so
        one trial compile per plan settles eligibility for good.
        """
        try:
            cached = self._shapes.get(plan, _SHAPE_MISSING)
        except TypeError:  # unhashable literal buried in the plan
            return self._analyze_shape(plan, cache=False)
        if cached is not _SHAPE_MISSING:
            self._shapes.move_to_end(plan)
            return cached
        return self._analyze_shape(plan, cache=True)

    def _analyze_shape(self, plan: algebra.PlanNode, cache: bool) -> Any:
        shape: Any = _analyze_pipeline(plan)
        if shape is not None:
            table = self._tables.get(shape.table)
            join = shape.join
            build = join and self._tables.get(join.right.table)
            if table is None or (join is not None and build is None):
                # Can't settle supportability without a schema; don't cache
                # (the table may be created later).
                return shape
            try:
                source, _ = _generate_pipeline(
                    shape,
                    table.schema,
                    None,
                    build_schema=None if build is None else build.schema,
                )
                compile(source, "<pipeline-trial>", "exec")
            except _JoinDecline as decline:
                shape = decline
            except LoweringError:
                if shape.join is not None:
                    shape = _JoinDecline("unsupported")
                else:
                    shape = _CODEGEN_UNSUPPORTED
        if cache:
            if len(self._shapes) >= self.OP_CACHE_LIMIT:
                self._shapes.popitem(last=False)
            self._shapes[plan] = shape
        return shape

    def _pipeline_fn(
        self, plan: algebra.PlanNode, shape: _PipelineShape, table
    ) -> Callable:
        """The compiled pipeline of ``plan`` for ``table``'s layout."""
        key = (plan, table.layout())
        try:
            pipeline = self._pipelines.get(key)
        except TypeError:  # unhashable literal buried in the plan
            return self._compile_pipeline(
                shape, table.schema, table.column_facts()
            )
        if pipeline is not None:
            self._pipelines.move_to_end(key)
            self.codegen_cache_hits += 1
            return pipeline
        pipeline = self._compile_pipeline(
            shape, table.schema, table.column_facts()
        )
        if len(self._pipelines) >= self.PIPELINE_CACHE_LIMIT:
            self._pipelines.popitem(last=False)
        self._pipelines[key] = pipeline
        return pipeline

    def _compile_pipeline(
        self, shape: _PipelineShape, schema, facts: Optional[dict]
    ) -> Callable:
        build_schema = None
        if shape.join is not None:  # try_codegen_rows found the table
            build_schema = self._tables[shape.join.right.table].schema
        source, bindings = _generate_pipeline(shape, schema, facts, build_schema)
        exec(  # noqa: S102 - internal codegen, identifiers repr-escaped
            compile(source, "<pipeline>", "exec"), bindings
        )
        self.pipelines_compiled += 1
        if shape.join is not None:
            return _JoinPipeline(bindings)
        if shape.aggregate is not None:
            return _AggregatePipeline(bindings)
        return bindings["_pipeline"]

    # -- lowering --------------------------------------------------------

    def _count_reason(self, reason: str) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def _count_topk_decline(self, reason: str) -> None:
        self.topk_declines[reason] = self.topk_declines.get(reason, 0) + 1

    def _count_join_decline(self, reason: str) -> None:
        self.join_declines[reason] = self.join_declines.get(reason, 0) + 1

    def _fallback(self, reason: str) -> None:
        """Record why the current lowering failed; returns ``None``."""
        self._last_reason = reason
        return None

    def _op(self, plan: algebra.PlanNode) -> Optional[BatchOp]:
        """The cached lowering of ``plan`` (None when unvectorizable)."""
        try:
            cached = self._ops.get(plan)
        except TypeError:  # unhashable literal buried in the plan
            return self._lower(plan)
        if cached is None:
            op = self._lower(plan)
            if len(self._ops) >= self.OP_CACHE_LIMIT:
                self._ops.popitem(last=False)
            self._ops[plan] = (
                op if op is not None else _Unvectorizable(self._last_reason)
            )
            return op
        self._ops.move_to_end(plan)
        if isinstance(cached, _Unvectorizable):
            self._last_reason = cached.reason
            return None
        return cached

    def _lower(self, plan: algebra.PlanNode) -> Optional[BatchOp]:
        if isinstance(plan, algebra.Scan):
            return self._lower_scan(plan)
        if isinstance(plan, algebra.Select):
            return self._lower_select(plan)
        if isinstance(plan, algebra.Project):
            return self._lower_project(plan)
        if isinstance(plan, algebra.Join):
            return self._lower_join(plan)
        if isinstance(plan, algebra.Aggregate):
            return self._lower_aggregate(plan)
        if isinstance(plan, algebra.Sort):
            return self._lower_sort(plan)
        if isinstance(plan, algebra.Limit):
            return self._lower_limit(plan)
        return self._fallback("unsupported_operator")

    def _source(self, plan: algebra.PlanNode) -> BatchOp:
        """The lowering of a child plan, with per-subtree fallback.

        A child outside the vectorizable subset executes on the compiled
        tier and its rows are adapted into a batch, so one unsupported
        operator or expression does not force the whole query off the
        vectorized path.
        """
        op = self._op(plan)
        if op is not None:
            return op
        reason = self._last_reason
        executor = self._executor

        def run() -> ColumnBatch:
            self.subtree_fallbacks += 1
            self._count_reason(reason)
            return _batch_from_rows(list(executor._execute(plan)))

        return run

    @staticmethod
    def _kernel(
        expression: Expression, positions: bool = False
    ) -> Optional[Callable[[ColumnBatch], list]]:
        """The batch kernel of ``expression``, or ``None`` when unlowerable.

        One fused comprehension over the batch's column arrays: the value
        of every row, or — for a filter conjunct (``positions``) — the
        batch-relative positions of the rows it keeps.  Columns resolve
        dynamically per batch (:meth:`ColumnBatch.column_values`).
        """
        if isinstance(expression, ColumnRef) and not positions:
            return lambda batch: batch.column_values(expression)
        scope = _BatchScope()
        try:
            source = lower_expression(expression, scope).src
        except LoweringError:
            return None
        if not positions:
            return scope.kernel(f"return [{source} {scope.loop_clause()}]")
        loop = scope.loop_clause(("_i", "_range(_n)"))
        return scope.kernel(f"return [_i {loop} if {source}]")

    # -- operators -------------------------------------------------------

    def _lower_scan(self, plan: algebra.Scan) -> BatchOp:
        tables = self._tables
        name = plan.table

        def run() -> ColumnBatch:
            table = tables.get(name)
            if table is None:
                raise ExecutionError(f"unknown table {name!r}")
            store = table.columns()
            columns = {column: (array, None) for column, array in store.items()}
            return ColumnBatch(columns, len(table.rows), tuple(store))

        return run

    def _lower_select(self, plan: algebra.Select) -> Optional[BatchOp]:
        kernels = []
        for conjunct in _flatten_and(plan.predicate):
            kernel = self._kernel(conjunct, positions=True)
            if kernel is None:
                return self._fallback("unknown_function")
            kernels.append(kernel)
        child = self._source(plan.child)

        def run() -> ColumnBatch:
            batch = child()
            # Conjuncts shrink the selection stage by stage: each kernel
            # only sees rows that survived the previous conjunct, which is
            # the batch equivalent of the row tiers' short-circuit AND.
            for kernel in kernels:
                if batch.length == 0:
                    return batch
                keep = kernel(batch)
                if len(keep) != batch.length:
                    batch = batch.take(keep)
            return batch

        return run

    def _lower_project(self, plan: algebra.Project) -> Optional[BatchOp]:
        outputs = []
        for output in plan.outputs:
            kernel = self._kernel(output.expression)
            if kernel is None:
                return self._fallback("unknown_function")
            outputs.append((output.name, kernel))
        child = self._source(plan.child)
        key_order = tuple(name for name, _ in outputs)

        def run() -> ColumnBatch:
            batch = child()
            columns: dict[str, tuple[list, Optional[list[int]]]] = {}
            for name, kernel in outputs:
                columns[name] = (kernel(batch), None)
            return ColumnBatch(columns, batch.length, key_order)

        return run

    def _lower_join(self, plan: algebra.Join) -> Optional[BatchOp]:
        equi = orient_equi_columns(plan, self._executor.layout)
        if equi is None:
            # Theta and cross joins stay on the row tiers.
            return self._fallback("theta_join")
        left_col, right_col = equi
        right_rename, left_rename = join_renames(plan, self._executor.layout)
        key_order = tuple(entry.key for entry in self._executor.layout(plan))
        left_source = self._source(plan.left)
        right_source = self._source(plan.right)
        tables = self._tables
        # For a join of two bare scans the matching positions are a pure
        # function of the two tables' contents, so the computed selection
        # pair is memoized against their versions — a join index in the
        # spirit of Table.position_index, letting repeated executions skip the
        # probe entirely.  Filtered or parameterized inputs are excluded
        # (their batches depend on more than the table versions).
        cacheable = isinstance(plan.left, algebra.Scan) and isinstance(
            plan.right, algebra.Scan
        )
        selection_cache: dict[tuple, tuple] = {}

        def run() -> ColumnBatch:
            left_batch = left_source()
            if left_batch.length == 0:
                # Empty probe side: never execute or build the right side
                # (lowering the layout already checked its tables).
                return _empty_batch()
            right_batch = right_source()
            probe_name = left_batch.resolve(left_col)
            build_name = right_batch.resolve(right_col)
            if probe_name is None or build_name is None:
                # Neither orientation resolves; let the row tier decide
                # (it matches nothing).
                raise BatchResolutionError(
                    f"{left_col.qualified_name} = {right_col.qualified_name}"
                )
            if cacheable:
                left_table = tables[plan.left.table]
                right_table = tables[plan.right.table]
                stamp = (
                    probe_name,
                    build_name,
                    id(left_table),
                    left_table.version,
                    id(right_table),
                    right_table.version,
                )
                cached = selection_cache.get(stamp)
                if cached is None:
                    cached = _hash_join_positions(
                        left_batch.values_for(probe_name),
                        right_batch.values_for(build_name),
                    )
                    selection_cache.clear()
                    selection_cache[stamp] = cached
                probe_positions, build_positions = cached
            else:
                probe_positions, build_positions = _hash_join_positions(
                    left_batch.values_for(probe_name),
                    right_batch.values_for(build_name),
                )
            taken_right = right_batch.take(build_positions)
            if probe_positions is None:
                left_columns = left_batch.columns
            else:
                left_columns = left_batch.take(probe_positions).columns
            # The joined row's layout: right keys, then left keys, the
            # names both sides share qualified on each side.
            columns = {
                right_rename.get(key, key): column
                for key, column in taken_right.columns.items()
            }
            columns.update(
                (left_rename.get(key, key), column)
                for key, column in left_columns.items()
            )
            return ColumnBatch(columns, len(build_positions), key_order)

        return run

    def _lower_aggregate(self, plan: algebra.Aggregate) -> Optional[BatchOp]:
        group_kernels = []
        for column in plan.group_by:
            kernel = self._kernel(column)
            if kernel is None:
                return self._fallback("unknown_function")
            group_kernels.append(kernel)
        # Aggregates often share their argument (sum(x) next to avg(x)):
        # evaluate each distinct argument column once per batch.
        planned = plan_aggregate_arguments(plan.aggregates, self._kernel)
        if planned is None:
            return self._fallback("unknown_function")
        arg_kernels, spec_slots = planned
        child = self._source(plan.child)
        group_by = plan.group_by
        names = [entry.key for entry in self._executor.layout(plan)[: len(group_by)]]
        partial_keys, emitters, needs_sizes = _plan_partials(spec_slots)
        accumulators = [
            (AGGREGATE_ACCUMULATORS[function], slot)
            for function, slot in partial_keys
        ]

        def run() -> ColumnBatch:
            batch = child()
            arg_columns = [kernel(batch) for kernel in arg_kernels]
            # Phase 1: one pass over the grouping arrays assigns every row a
            # dense group id (group order = first encounter, matching the
            # row tiers' dict-insertion order).
            length = batch.length
            if not group_by:
                ngroups = 1
                group_ids: Any = repeat(0)
                sizes = [length]
                group_keys: Iterable[Any] = ((),)  # one group, no key
            else:
                ids_of: dict[Any, int] = {}
                get_gid = ids_of.get
                group_ids = []
                append = group_ids.append
                if len(group_kernels) == 1:
                    keys_iter: Iterable[Any] = group_kernels[0](batch)
                else:
                    keys_iter = zip(*(kernel(batch) for kernel in group_kernels))
                for key in keys_iter:
                    gid = get_gid(key)
                    if gid is None:
                        gid = len(ids_of)
                        ids_of[key] = gid
                    append(gid)
                ngroups = len(ids_of)
                group_keys = ids_of
                if needs_sizes:
                    sizes = [0] * ngroups
                    for gid in group_ids:
                        sizes[gid] += 1
            # Phase 2: one single-pass accumulation per distinct partial.
            partials = [
                accumulate(arg_columns[slot], group_ids, ngroups)
                for accumulate, slot in accumulators
            ]
            # Phase 3: emit one output row per group.
            rows: list[Row] = []
            for gid, key in enumerate(group_keys):
                out = {names[0]: key} if len(names) == 1 else dict(zip(names, key))
                for name, kind, indices in emitters:
                    if kind == "size":
                        out[name] = sizes[gid]
                    elif kind == "avg":
                        out[name] = finalize_avg(
                            partials[indices[0]][gid], partials[indices[1]][gid]
                        )
                    else:
                        out[name] = partials[indices[0]][gid]
                rows.append(out)
            return _batch_from_rows(rows)

        return run

    def _lower_sort(self, plan: algebra.Sort) -> Optional[BatchOp]:
        key_kernels = []
        for key in plan.keys:
            kernel = self._kernel(key.column)
            if kernel is None:
                return self._fallback("unknown_function")
            key_kernels.append(kernel)
        child = self._source(plan.child)
        keys = plan.keys

        def run() -> ColumnBatch:
            batch = child()
            if batch.length == 0:
                return batch
            positions = list(range(batch.length))
            # Sort by the last key first; stable sorts make earlier keys
            # take precedence, exactly like the row tiers.
            for key, kernel in zip(reversed(keys), reversed(key_kernels)):
                decorated = [_sort_key(v) for v in kernel(batch)]
                positions.sort(
                    key=decorated.__getitem__, reverse=not key.ascending
                )
            return batch.take(positions)

        return run

    def _lower_limit(self, plan: algebra.Limit) -> BatchOp:
        child = self._source(plan.child)
        count = plan.count

        def run() -> ColumnBatch:
            batch = child()
            if count >= batch.length:
                return batch
            return batch.take(list(range(count)))

        return run

    # -- late materialization --------------------------------------------

    def _materialize(self, batch: ColumnBatch) -> list[Row]:
        """Build the output row dicts — the only per-row dict work.

        The row constructor is code-generated per column layout: every
        distinct selection vector becomes one ``zip`` variable and every
        output key becomes one entry of a dict display (identity-selected
        columns are zipped directly; selected columns are subscripted once
        per distinct array and reused via assignment expressions).  The
        constructors are cached by layout, so steady-state queries pay a
        single comprehension per execution.
        """
        if batch.rows is not None:
            return batch.rows
        if batch.length == 0:
            return []
        arrays: list[list] = []
        array_slots: dict[int, int] = {}
        zips: list[list] = []
        zip_slots: dict[int, int] = {}
        entries: list[tuple[str, int, int]] = []
        for key in batch.key_order:
            array, selection = batch.columns[key]
            if selection is None:
                slot = zip_slots.get(id(array))
                if slot is None:
                    slot = len(zips)
                    zips.append(array)
                    zip_slots[id(array)] = slot
                entries.append((key, -1, slot))
            else:
                zip_slot = zip_slots.get(id(selection))
                if zip_slot is None:
                    zip_slot = len(zips)
                    zips.append(selection)
                    zip_slots[id(selection)] = zip_slot
                array_slot = array_slots.get(id(array))
                if array_slot is None:
                    array_slot = len(arrays)
                    arrays.append(array)
                    array_slots[id(array)] = array_slot
                entries.append((key, array_slot, zip_slot))
        maker = self._row_maker(tuple(entries), len(arrays), len(zips))
        return maker(zip, *arrays, *zips)

    def _row_maker(
        self, entries: tuple[tuple[str, int, int], ...], narrays: int, nzips: int
    ) -> Callable:
        """The (cached) code-generated row constructor for one layout."""
        signature = (entries, narrays, nzips)
        maker = self._makers.get(signature)
        if maker is not None:
            self._makers.move_to_end(signature)
            return maker
        bound: dict[tuple[int, int], str] = {}
        items = []
        for key, array_slot, zip_slot in entries:
            if array_slot < 0:
                items.append(f"{key!r}: v{zip_slot}")
                continue
            pair = (array_slot, zip_slot)
            name = bound.get(pair)
            if name is None:
                name = f"w{array_slot}_{zip_slot}"
                bound[pair] = name
                items.append(f"{key!r}: ({name} := a{array_slot}[v{zip_slot}])")
            else:
                items.append(f"{key!r}: {name}")
        params = "".join(f"a{i}, " for i in range(narrays)) + ", ".join(
            f"z{i}" for i in range(nzips)
        )
        loop_vars = ", ".join(f"v{i}" for i in range(nzips))
        zip_args = ", ".join(f"z{i}" for i in range(nzips))
        source = (
            f"lambda _zip, {params}: "
            f"[{{{', '.join(items)}}} for ({loop_vars},) in _zip({zip_args})]"
        )
        maker = eval(source)  # noqa: S307 - internal codegen, keys repr-escaped
        if len(self._makers) >= 512:
            self._makers.popitem(last=False)
        self._makers[signature] = maker
        return maker
