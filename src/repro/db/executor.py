"""Execution of relational algebra plans against in-memory tables.

The executor runs :mod:`repro.db.algebra` trees over rows flowing as
dictionaries.  Join outputs carry both qualified keys (``alias.column``) and,
when unambiguous, bare column keys, so that downstream expressions written
either way evaluate correctly — the same convention the SQL parser and the
ORM rely on.

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

* **compiled** — every expression used by an operator
  (predicate, projection output, join key, sort key, aggregate argument) is
  lowered *once per operator* to a Python closure via
  :meth:`repro.db.expressions.Expression.compile` — the row scope of the one
  lowering in :mod:`repro.db.expressions`, generated source ``exec``-compiled
  once per (resolver context, expression) — and the closure is called per
  row.  Scans precompute their ``alias.column`` key list once instead of
  formatting qualified keys per row; equi-joins whose build side is a bare
  table scan use the table's lazy positional index
  (:meth:`repro.db.table.Table.position_index`) as the build table, so
  repeated joins on the same key pay the build cost once per table version;
  ``Select`` and ``Limit`` stream their input without materialising
  intermediates.

  On top of expression compilation the executor performs *scan fusion*: when
  an operator's input is a base-table scan (possibly under a stack of
  filters), its expressions are compiled against the **base row layout**
  (plain ``column -> value`` dicts straight out of the table) using a column
  resolver (``row['col']`` atoms; ``row[0]['col']`` / ``row[1]['col']`` for
  the two sides of a fused join pair), and the qualified ``alias.column``
  view is only materialised for rows that actually reach the operator's
  output.  A filter therefore builds output dicts only for the rows that
  pass, a grouped aggregate over a scan builds none at all, and an equi-join
  of two (filtered) scans constructs each output row in a single
  ``dict(zip(keys, values))`` from the two base rows.  Fused and unfused
  execution produce identical rows.

* **interpreted** — the original tree-walking path: ``Expression.evaluate``
  per row, per-row qualified key formatting in scans, and no index reuse.
  It is kept as the reference implementation for the equivalence tests and
  for the ``benchmarks/bench_engine.py`` speedup measurements.  (Expression
  types the lowering does not know call back into ``evaluate`` from inside
  a compiled closure, transparently.)

All modes produce identical output rows in identical order;
:attr:`Executor.tier_counts` records which tier served each ``execute``.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.db import algebra
from repro.db.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    CompiledExpression,
    Expression,
)
from repro.db.table import Row, Table


class ExecutionError(Exception):
    """Raised when a plan cannot be executed."""


#: Sentinel cached by :meth:`Executor._context_expr` for expressions that do
#: not resolve in a given fused context (the generic path takes over).
_UNRESOLVABLE: CompiledExpression = lambda row: None


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
        #: expression -> compiled closure, reused across queries (LRU).
        self._compile_cache: OrderedDict[Expression, CompiledExpression] = (
            OrderedDict()
        )
        #: (context key, expression) -> closure compiled under a fused
        #: resolver (scan- or join-layout specific), reused across queries.
        #: This is what lets a slot-compiled prepared plan re-execute with
        #: zero compilation work even on the fused paths, which otherwise
        #: lower their expressions per operator instantiation.  LRU-evicted
        #: at COMPILE_CACHE_LIMIT so steady-state workloads near the limit
        #: drop the coldest entry instead of recompiling everything.
        self._context_cache: OrderedDict[tuple, CompiledExpression] = (
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
    def vectorized_stats(self) -> dict[str, int]:
        """Vectorized-tier counters (zeros outside vectorized mode)."""
        if self._vectorized is None:
            return {
                "executions": 0,
                "codegen_executions": 0,
                "topk_executions": 0,
                "join_executions": 0,
                "pipelines_compiled": 0,
                "codegen_cache_hits": 0,
                "codegen_errors": 0,
                "fallbacks": 0,
                "subtree_fallbacks": 0,
                "fallback_reasons": {},
                "topk_declines": {},
                "join_declines": {},
            }
        return {
            "executions": self._vectorized.executions,
            "codegen_executions": self._vectorized.codegen_executions,
            "topk_executions": self._vectorized.topk_executions,
            "join_executions": self._vectorized.join_executions,
            "pipelines_compiled": self._vectorized.pipelines_compiled,
            "codegen_cache_hits": self._vectorized.codegen_cache_hits,
            "codegen_errors": self._vectorized.codegen_errors,
            "fallbacks": self._vectorized.fallbacks,
            "subtree_fallbacks": self._vectorized.subtree_fallbacks,
            "fallback_reasons": dict(self._vectorized.fallback_reasons),
            "topk_declines": dict(self._vectorized.topk_declines),
            "join_declines": dict(self._vectorized.join_declines),
        }

    def invalidate_context_cache(self) -> None:
        """Drop every resolver-context compiled closure (call on DDL).

        Context entries are keyed by ``id(table)``; once a table object can
        be replaced (and eventually garbage collected), a recycled address
        could otherwise serve closures compiled against the old schema.
        The vectorized tier's lowered-plan cache closes over the same
        tables, so it is dropped too.  The schema-independent expression
        cache is unaffected.
        """
        self._context_cache.clear()
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

    def _context_expr(
        self,
        context: tuple,
        expression: Expression,
        compile_fn: Callable[[Expression], Optional[CompiledExpression]],
    ) -> Optional[CompiledExpression]:
        """Memoized compile of ``expression`` under a stable resolver context.

        ``context`` must uniquely describe the resolver the closure was
        built against (table identities and aliases); table *objects* are
        keyed by ``id`` because a table's schema is immutable, and the
        whole cache is dropped on DDL (:meth:`invalidate_context_cache`) so
        a recycled object address can never serve stale closures.  A
        ``compile_fn`` returning ``None`` (expression not resolvable in this
        context) is memoized too, so repeated executions of a fallback shape
        skip re-deriving the failure.  Eviction is least-recently-used:
        a steady-state workload cycling through slightly more than
        COMPILE_CACHE_LIMIT shapes drops only the coldest entry per miss
        instead of flushing (and then recompiling) every live closure.
        """
        key = (context, expression)
        try:
            cached = self._context_cache.get(key)
        except TypeError:  # unhashable literal buried in the tree
            return compile_fn(expression)
        if cached is None:
            compiled = compile_fn(expression)
            cached = _UNRESOLVABLE if compiled is None else compiled
            if len(self._context_cache) >= self.COMPILE_CACHE_LIMIT:
                self._context_cache.popitem(last=False)
            self._context_cache[key] = cached
        else:
            self._context_cache.move_to_end(key)
        return None if cached is _UNRESOLVABLE else cached

    def _fused_expr(
        self, fused: "_FusedScan", expression: Expression
    ) -> CompiledExpression:
        """Compile ``expression`` against a fused scan's base-row layout."""
        compiled = self._context_expr(
            (id(fused.table), fused.alias), expression, fused.compile
        )
        assert compiled is not None  # fused.compile never returns None
        return compiled

    def _fused_base_rows(self, fused: "_FusedScan") -> Iterator[Row]:
        """The fused scan's filtered base rows, with memoized predicates."""
        return fused.base_rows(lambda e: self._fused_expr(fused, e))

    def _key_getter(self, column: ColumnRef) -> CompiledExpression:
        """A join-key evaluator that maps unresolvable rows to ``None``."""
        base = self._expr(column)

        def get(row: Row) -> Any:
            try:
                return base(row)
            except Exception:
                return None

        return get

    # -- scan fusion -----------------------------------------------------

    @staticmethod
    def _peel_selects(
        plan: algebra.PlanNode,
    ) -> tuple[algebra.PlanNode, list[Expression]]:
        """Strip ``Select`` wrappers, returning the inner node and the
        predicates in application (inner-to-outer) order."""
        predicates: list[Expression] = []
        while isinstance(plan, algebra.Select):
            predicates.append(plan.predicate)
            plan = plan.child
        predicates.reverse()
        return plan, predicates

    @staticmethod
    def _peel_scan(
        plan: algebra.PlanNode,
    ) -> tuple[Optional[algebra.Scan], list[Expression]]:
        """Peel ``Select`` wrappers off a base-table scan.

        Returns the scan and its predicates in application (inner-to-outer)
        order, or ``(None, [])`` when the subtree is not a filtered scan.
        """
        node, predicates = Executor._peel_selects(plan)
        if isinstance(node, algebra.Scan):
            return node, predicates
        return None, []

    @staticmethod
    def _peel_join(
        plan: algebra.PlanNode,
    ) -> tuple[Optional[algebra.Join], list[Expression]]:
        """Like :meth:`_peel_scan`, but for a (filtered) join subtree."""
        node, predicates = Executor._peel_selects(plan)
        if isinstance(node, algebra.Join):
            return node, predicates
        return None, []

    def _fused_scan(self, plan: algebra.PlanNode) -> Optional["_FusedScan"]:
        """A fused view of ``plan`` when it is a (filtered) base-table scan.

        In fused execution, expressions are compiled against the *base* row
        layout — for a single scan the qualified keys only duplicate the bare
        column keys, so base-row evaluation is observably identical — and the
        ``alias.column`` view is materialised only for rows that survive to
        the operator's output.
        """
        if not self._compiled:
            return None
        scan, predicates = self._peel_scan(plan)
        if scan is None:
            return None
        table = self._tables.get(scan.table)
        if table is None:
            return None  # let the generic path raise the usual error
        return _FusedScan(table, scan.effective_alias, predicates)

    # -- operators -------------------------------------------------------

    def _scan(self, plan: algebra.Scan) -> Iterable[Row]:
        try:
            table = self._tables[plan.table]
        except KeyError:
            raise ExecutionError(f"unknown table {plan.table!r}") from None
        alias = plan.effective_alias
        if not self._compiled:
            for row in table.rows:
                out = dict(row)
                for key, value in row.items():
                    out[f"{alias}.{key}"] = value
                yield out
            return
        # Fast path: format the qualified keys once for the whole scan and
        # assemble each output row in a single dict(zip(...)).
        fused = _FusedScan(table, alias, [])
        yield from map(fused.materialize, table.rows)

    def _select(self, plan: algebra.Select) -> Iterable[Row]:
        fused = self._fused_scan(plan)
        if fused is not None:
            # Filter base rows; build the alias view only for survivors.
            return map(fused.materialize, self._fused_base_rows(fused))
        if self._compiled:
            fused_join = self._fused_join_filter(plan)
            if fused_join is not None:
                # Filters directly above a fusable equi-join run inside the
                # join's probe loop on (left, right) base-row pairs; the
                # merged row is built only for pairs that pass.
                return fused_join
        return filter(self._expr(plan.predicate), self._execute(plan.child))

    def _project(self, plan: algebra.Project) -> Iterable[Row]:
        if self._compiled:
            fused = self._fused_join_project(plan)
            if fused is not None:
                return fused
        fused_scan = self._fused_scan(plan.child)
        if fused_scan is not None:
            # Project straight off base rows; no alias views at all.
            outputs = [
                (o.name, self._fused_expr(fused_scan, o.expression))
                for o in plan.outputs
            ]
            return (
                {name: evaluate(row) for name, evaluate in outputs}
                for row in self._fused_base_rows(fused_scan)
            )
        outputs = [(o.name, self._expr(o.expression)) for o in plan.outputs]
        return (
            {name: evaluate(row) for name, evaluate in outputs}
            for row in self._execute(plan.child)
        )

    def _join(self, plan: algebra.Join) -> Iterable[Row]:
        equi = _equi_join_columns(plan.condition)
        if self._compiled and equi is not None:
            parts = self._fused_join_parts(plan, equi)
            if parts is not None:
                return self._fused_join_rows(*parts)
            if isinstance(plan.right, algebra.Scan):
                oriented = self._index_join_columns(plan.right, equi)
                if oriented is not None:
                    probe_col, index_column = oriented
                    return self._index_join(plan, probe_col, index_column)
        return self._materialized_join(plan, equi)

    def _materialized_join(
        self,
        plan: algebra.Join,
        equi: Optional[tuple[ColumnRef, ColumnRef]],
    ) -> Iterator[Row]:
        left_rows = list(self._execute(plan.left))
        if not left_rows:
            # Empty probe side: skip executing and building the other side.
            # Still validate its table references so a typo'd table name
            # raises regardless of what the probe side happens to contain.
            for scan in algebra.find_scans(plan.right):
                if scan.table not in self._tables:
                    raise ExecutionError(f"unknown table {scan.table!r}")
            return iter(())
        right_rows = list(self._execute(plan.right))
        if equi is not None:
            return self._hash_join(left_rows, right_rows, plan, equi)
        return self._nested_loops_join(left_rows, right_rows, plan)

    # -- fused equi-joins -------------------------------------------------

    def _fused_join_parts(
        self, plan: algebra.Join, equi: tuple[ColumnRef, ColumnRef]
    ) -> Optional[tuple["_FusedScan", "_FusedScan", ColumnRef, ColumnRef]]:
        """Resolve a join of two (filtered) scans for fused execution.

        Returns ``(left, right, probe_col, build_col)``, or ``None`` (the
        generic join takes over) unless both sides fuse and the equi columns
        can be statically assigned to exactly one orientation.
        """
        left = self._fused_scan(plan.left)
        right = self._fused_scan(plan.right)
        if left is None or right is None:
            return None
        left_col, right_col = equi
        if left.owns(left_col) and right.owns(right_col):
            return left, right, left_col, right_col
        if left.owns(right_col) and right.owns(left_col):
            return left, right, right_col, left_col
        return None

    def _fused_join_pairs(
        self,
        left: "_FusedScan",
        right: "_FusedScan",
        probe_col: ColumnRef,
        build_col: ColumnRef,
    ) -> Iterator[tuple[Row, Row]]:
        """Matching (left base row, right base row) pairs of a fused join.

        The left side streams as the probe; the right side is either the
        table's cached positional index over its rows (bare scan) or one
        built over its filtered base rows.  An empty probe side never
        executes or builds the right side.
        """
        probe_rows = self._fused_base_rows(left)
        first = next(probe_rows, None)
        if first is None:
            return
        if right.predicates:
            build_rows = list(self._fused_base_rows(right))
            index: dict[Any, list[int]] = {}
            for position, row in enumerate(build_rows):
                key = row[build_col.name]
                if key is not None:
                    index.setdefault(key, []).append(position)
        else:  # a bare scan reuses the table's positional index
            build_rows = right.table.rows
            index = _position_index(right.table, build_col.name)
        get_bucket = index.get
        probe_key = operator.itemgetter(probe_col.name)
        for base in chain((first,), probe_rows):
            key = probe_key(base)
            if key is None:
                continue
            bucket = get_bucket(key)
            if not bucket:
                continue
            for position in bucket:
                yield base, build_rows[position]

    def _fused_join_rows(
        self,
        left: "_FusedScan",
        right: "_FusedScan",
        probe_col: ColumnRef,
        build_col: ColumnRef,
    ) -> Iterator[Row]:
        """Full-width fused join output (bare + qualified keys, both sides)."""
        pairs = self._fused_join_pairs(left, right, probe_col, build_col)
        return self._materialize_join_pairs(left, right, pairs)

    def _materialize_join_pairs(
        self,
        left: "_FusedScan",
        right: "_FusedScan",
        pairs: Iterable[tuple[Row, Row]],
    ) -> Iterator[Row]:
        """Merged full-width rows for base-row ``pairs`` of a fused join."""
        left_keys = left.all_keys
        left_values = left.values
        right_values = right.values
        right_keys = right.all_keys
        #: id(build base row) -> prebuilt right-side dict, copied per match.
        templates: dict[int, Row] = {}
        last_left: Optional[Row] = None
        lv2: tuple = ()
        for left_base, right_base in pairs:
            template = templates.get(id(right_base))
            if template is None:
                rv = right_values(right_base)
                template = dict(zip(right_keys, rv + rv))
                templates[id(right_base)] = template
            if left_base is not last_left:
                lv = left_values(left_base)
                lv2 = lv + lv
                last_left = left_base
            # dict.update overwrites in place, so bare-name collisions keep
            # the left side's value, exactly like _merge_rows.
            out = dict(template)
            out.update(zip(left_keys, lv2))
            yield out

    def _pair_compiler(
        self, left: "_FusedScan", right: "_FusedScan"
    ) -> Callable[[Expression], Optional[CompiledExpression]]:
        """A compiler lowering expressions onto (left, right) base-row pairs.

        Returns ``None`` for expressions whose column references do not all
        statically resolve to exactly one side; callers then fall back to
        evaluating on merged rows.
        """

        def compile_pair(expression: Expression) -> Optional[CompiledExpression]:
            unresolved = False

            def pair_resolver(column: ColumnRef) -> Optional[str]:
                nonlocal unresolved
                # Prefer the left side: a bare name present on both sides
                # reads the left value on the merged row (_merge_rows lets
                # left win).
                if left.owns(column):
                    return f"row[0][{column.name!r}]"
                if right.owns(column):
                    return f"row[1][{column.name!r}]"
                unresolved = True
                return None

            compiled = expression.compile(pair_resolver)
            return None if unresolved else compiled

        return compile_pair

    def _compile_pair_conjuncts(
        self,
        left: "_FusedScan",
        right: "_FusedScan",
        predicates: list[Expression],
    ) -> Optional[list[CompiledExpression]]:
        """Compile filter predicates as (left, right) pair closures.

        Predicates are flattened into conjuncts (preserving application
        order); ``None`` means at least one conjunct does not statically
        resolve, so the caller must materialise merged rows instead.
        """
        context = (id(left.table), left.alias, id(right.table), right.alias)
        compile_pair = self._pair_compiler(left, right)
        compiled: list[CompiledExpression] = []
        for predicate in predicates:
            for conjunct in _flatten_and(predicate):
                evaluate = self._context_expr(context, conjunct, compile_pair)
                if evaluate is None:
                    return None
                compiled.append(evaluate)
        return compiled

    def _filtered_join_pairs(
        self,
        left: "_FusedScan",
        right: "_FusedScan",
        probe_col: ColumnRef,
        build_col: ColumnRef,
        filters: list[CompiledExpression],
    ) -> Iterator[tuple[Row, Row]]:
        """Fused join pairs with filter conjuncts applied inside the probe."""
        pairs: Iterator[tuple[Row, Row]] = self._fused_join_pairs(
            left, right, probe_col, build_col
        )
        for evaluate in filters:
            pairs = filter(evaluate, pairs)
        return pairs

    def _fused_join_filter(
        self, plan: algebra.Select
    ) -> Optional[Iterator[Row]]:
        """``Select`` stack above an equi-join fused into the probe loop.

        The predicates compile against (left base row, right base row)
        pairs, so non-matching pairs are rejected before the merged row
        exists; full-width rows are built only for survivors.  Falls back
        (returns ``None``) unless both join inputs fuse and every predicate
        column statically resolves to one side.
        """
        join, predicates = self._peel_join(plan)
        if join is None:
            return None
        equi = _equi_join_columns(join.condition)
        if equi is None:
            return None
        parts = self._fused_join_parts(join, equi)
        if parts is None:
            return None
        left, right, probe_col, build_col = parts
        filters = self._compile_pair_conjuncts(left, right, predicates)
        if filters is None:
            return None
        pairs = self._filtered_join_pairs(
            left, right, probe_col, build_col, filters
        )
        return self._materialize_join_pairs(left, right, pairs)

    def _fused_join_project(
        self, plan: algebra.Project
    ) -> Optional[Iterator[Row]]:
        """Projection fused through a (filtered) equi-join of two scans.

        Output expressions — and any filter predicates between the
        projection and the join — are compiled against (left base row,
        right base row) pairs, so the merged join row is never
        materialised.  Applies only when every column reference statically
        resolves to one side; anything else falls back to the generic
        project-over-join path.
        """
        join, predicates = self._peel_join(plan.child)
        if join is None:
            return None
        equi = _equi_join_columns(join.condition)
        if equi is None:
            return None
        parts = self._fused_join_parts(join, equi)
        if parts is None:
            return None
        left, right, probe_col, build_col = parts
        filters = self._compile_pair_conjuncts(left, right, predicates)
        if filters is None:
            return None
        context = (id(left.table), left.alias, id(right.table), right.alias)
        compile_pair = self._pair_compiler(left, right)
        outputs = []
        for o in plan.outputs:
            compiled = self._context_expr(context, o.expression, compile_pair)
            if compiled is None:
                return None
            outputs.append((o.name, compiled))
        pairs = self._filtered_join_pairs(
            left, right, probe_col, build_col, filters
        )
        return (
            {name: evaluate(pair) for name, evaluate in outputs}
            for pair in pairs
        )

    def _index_join_columns(
        self, scan: algebra.Scan, equi: tuple[ColumnRef, ColumnRef]
    ) -> Optional[tuple[ColumnRef, str]]:
        """Orient an equi-join over a right-side base-table scan.

        Returns ``(probe column, indexed column name)`` when exactly one of
        the two equi-join columns statically belongs to the scanned table;
        ambiguous conditions (both or neither side matching) fall back to the
        generic hash join.
        """
        table = self._tables.get(scan.table)
        if table is None:
            return None
        alias = scan.effective_alias
        schema = table.schema

        def belongs(column: ColumnRef) -> bool:
            if not schema.has_column(column.name):
                return False
            return column.qualifier is None or column.qualifier == alias

        left_col, right_col = equi
        left_belongs = belongs(left_col)
        right_belongs = belongs(right_col)
        if right_belongs and not left_belongs:
            return left_col, right_col.name
        if left_belongs and not right_belongs:
            return right_col, left_col.name
        return None

    def _index_join(
        self, plan: algebra.Join, probe_col: ColumnRef, index_column: str
    ) -> Iterable[Row]:
        """Index-nested-loop join: probe the build table's positional index."""
        scan: algebra.Scan = plan.right  # type: ignore[assignment]
        table = self._tables[scan.table]
        alias = scan.effective_alias
        qualified = [
            (f"{alias}.{name}", name) for name in table.schema.column_names
        ]
        probe = self._key_getter(probe_col)
        index: Optional[dict[Any, list[int]]] = None
        #: build row position -> its alias view, shared across probe matches.
        views: dict[int, Row] = {}
        for left_row in self._execute(plan.left):
            if index is None:
                # Deferred so an empty probe side never builds the index.
                index = _position_index(table, index_column)
                if not index:
                    return
            key = probe(left_row)
            if key is None:
                continue
            bucket = index.get(key)
            if bucket is None:
                continue
            for position in bucket:
                right_row = views.get(position)
                if right_row is None:
                    base_row = table.rows[position]
                    right_row = dict(base_row)
                    for qualified_key, name in qualified:
                        right_row[qualified_key] = base_row[name]
                    views[position] = right_row
                yield _merge_rows(left_row, right_row)

    def _hash_join(
        self,
        left_rows: list[Row],
        right_rows: list[Row],
        plan: algebra.Join,
        equi: tuple[ColumnRef, ColumnRef],
    ) -> Iterable[Row]:
        if not left_rows or not right_rows:
            return
        left_col, right_col = _orient_equi_columns(left_rows, right_rows, equi)
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
                yield _merge_rows(left_row, right_row)

    def _nested_loops_join(
        self, left_rows: list[Row], right_rows: list[Row], plan: algebra.Join
    ) -> Iterable[Row]:
        condition = (
            self._expr(plan.condition) if plan.condition is not None else None
        )
        for left_row in left_rows:
            for right_row in right_rows:
                merged = _merge_rows(left_row, right_row)
                if condition is None or condition(merged):
                    yield merged

    def _aggregate(self, plan: algebra.Aggregate) -> Iterable[Row]:
        fused = self._fused_scan(plan.child)
        if fused is not None:
            # Group and aggregate straight off base rows; no alias views.
            compile_expr: Callable[[Expression], CompiledExpression] = (
                lambda e: self._fused_expr(fused, e)
            )
            rows_iter: Iterable[Row] = self._fused_base_rows(fused)
        else:
            compile_expr = self._expr
            rows_iter = self._execute(plan.child)
        # Aggregates often share their argument (sum(x) next to avg(x)):
        # compile each distinct argument once and evaluate it once per group.
        planned = plan_aggregate_arguments(plan.aggregates, compile_expr)
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
        keys = [compile_expr(column) for column in plan.group_by]
        if len(keys) == 1:
            # Scalar group keys: skip the per-row tuple construction.
            key_fn = keys[0]
            scalar_groups: dict[Any, list[Row]] = {}
            for row in rows_iter:
                key = key_fn(row)
                bucket = scalar_groups.get(key)
                if bucket is None:
                    scalar_groups[key] = [row]
                else:
                    bucket.append(row)
            group_items: Iterable[tuple[tuple, list[Row]]] = (
                ((key,), rows) for key, rows in scalar_groups.items()
            )
        else:
            groups: dict[tuple, list[Row]] = {}
            for row in rows_iter:
                key = tuple(evaluate(row) for evaluate in keys)
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [row]
                else:
                    bucket.append(row)
            group_items = groups.items()
        for key, group_rows in group_items:
            out: Row = {}
            for col, value in zip(plan.group_by, key):
                out[col.name] = value
                out[col.qualified_name] = value
            yield emit_into(out, group_rows)

    def _sort(self, plan: algebra.Sort) -> Iterable[Row]:
        fused = self._fused_scan(plan.child)
        if fused is not None and all(
            fused.owns(key.column) for key in plan.keys
        ):
            # Scan fusion for sort keys: compile the keys against the base
            # row layout, order the base rows, and materialise the alias
            # view only once per output row — after sorting.  Only owned
            # keys fuse: an unresolvable key must keep raising against the
            # materialized row layout, identically to the other tiers.
            rows = list(self._fused_base_rows(fused))
            for key in reversed(plan.keys):
                evaluate = self._fused_expr(fused, key.column)
                rows.sort(
                    key=lambda row: _sort_key(evaluate(row)),
                    reverse=not key.ascending,
                )
            return map(fused.materialize, rows)
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


class _FusedScan:
    """A (possibly filtered) base-table scan fused into its consumer.

    Exposes the scan's base rows (predicates applied in inner-to-outer
    order), a column resolver compiling expressions straight against the
    base row layout, and helpers to materialise the full ``bare +
    alias.column`` output view only when a row reaches the output.
    """

    __slots__ = (
        "table",
        "alias",
        "predicates",
        "columns",
        "qualified",
        "all_keys",
        "values",
    )

    def __init__(
        self, table: Table, alias: str, predicates: list[Expression]
    ) -> None:
        self.table = table
        self.alias = alias
        self.predicates = predicates
        schema = table.schema
        self.columns = tuple(schema.column_names)
        self.qualified = tuple(f"{alias}.{name}" for name in self.columns)
        self.all_keys = self.columns + self.qualified
        if len(self.columns) == 1:
            only = self.columns[0]
            self.values: Callable[[Row], tuple] = lambda row: (row[only],)
        else:
            self.values = operator.itemgetter(*self.columns)

    def resolver(self, column: ColumnRef) -> Optional[str]:
        """The base-row source atom for an owned column (a ColumnResolver).

        Base rows carry every schema column, so the subscript cannot raise.
        """
        if self.owns(column):
            return f"row[{column.name!r}]"
        return None

    def compile(self, expression: Expression) -> CompiledExpression:
        if isinstance(expression, ColumnRef) and self.owns(expression):
            # A bare owned column (group key, aggregate argument, plain
            # projection): the C-level getter of the same ``row['col']``.
            return operator.itemgetter(expression.name)
        return expression.compile(self.resolver)

    def base_rows(
        self,
        compile_expr: Optional[Callable[[Expression], CompiledExpression]] = None,
    ) -> Iterator[Row]:
        """The scan's base rows with all peeled predicates applied.

        Top-level conjunctions are flattened into one ``filter`` stage per
        conjunct, which preserves left-to-right short-circuit order while
        keeping the row loop in C.  ``compile_expr`` lets the executor
        substitute its memoizing compiler (the default compiles fresh).
        """
        if compile_expr is None:
            compile_expr = self.compile
        rows: Iterable[Row] = self.table.rows
        for predicate in self.predicates:
            for conjunct in _flatten_and(predicate):
                rows = filter(compile_expr(conjunct), rows)
        return iter(rows)

    def materialize(self, base_row: Row) -> Row:
        """The full output row: bare columns plus the qualified alias view."""
        values = self.values(base_row)
        return dict(zip(self.all_keys, values + values))

    def owns(self, column: ColumnRef) -> bool:
        """True when ``column`` statically refers to this scan's table."""
        return self.table.schema.has_column(column.name) and (
            column.qualifier is None or column.qualifier == self.alias
        )


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


def _position_index(table: Table, column: str) -> dict[Any, list[int]]:
    """``table.position_index(column)``; only an unhashable stored value
    leaves it missing, and then a hash join raises ``TypeError``."""
    index = table.position_index(column)
    if index is None:
        raise TypeError(f"unhashable value in {table.schema.name}.{column}")
    return index


def _merge_rows(left: Row, right: Row) -> Row:
    """Merge join-side rows.

    Qualified keys from both sides are kept.  A bare key present on both
    sides keeps the left value for the bare name (qualified names remain
    unambiguous), matching the usual SQL behaviour where ambiguous bare
    references should be qualified by the query author.
    """
    merged = dict(right)
    merged.update(left)
    return merged


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


def _orient_equi_columns(
    left_rows: list[Row],
    right_rows: list[Row],
    equi: tuple[ColumnRef, ColumnRef],
) -> tuple[ColumnRef, ColumnRef]:
    """Assign the equi-join columns to the sides they actually resolve on.

    Samples one row from *each* side (all rows of a side share one shape), so
    a condition written ``right.col = left.col`` is handled no matter which
    side's sample resolves the first column.  If neither orientation resolves
    cleanly the original orientation is kept (the join then matches nothing,
    as before).
    """
    left_col, right_col = equi
    left_sample = left_rows[0]
    right_sample = right_rows[0]
    if _resolves(left_col, left_sample) and _resolves(right_col, right_sample):
        return left_col, right_col
    if _resolves(right_col, left_sample) and _resolves(left_col, right_sample):
        return right_col, left_col
    return left_col, right_col


def _resolves(column: ColumnRef, row: Row) -> bool:
    """Return True if ``column`` can be evaluated against ``row``."""
    try:
        column.evaluate(row)
        return True
    except Exception:
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
    wrapped in :class:`_Descending` for ``DESC``.  The shard router's k-way
    merge key and the vectorized tier's fused top-k both build their keys
    from this.
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
