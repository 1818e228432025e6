"""Row storage for the in-memory database engine.

Rows are stored as plain dictionaries mapping column name to value.  A
:class:`Table` owns its schema and validates inserted rows.  Its declared
``primary_key`` is a **key hint**: never enforced unique, and with no index
of its own (:meth:`Table.lookup_pk` probes the same index as any column).

Tables keep *derived views*, each built lazily on first use: positional
bucket indexes (:meth:`Table.position_index`, column value -> row
positions; the one index behind point lookups, point ``UPDATE`` candidates
and the vectorized tier's fused join), cached per-column distinct counts (the statistics
catalog) and the *columnar view* (:meth:`Table.columns`, one plain
``list`` of values per column aligned by row position, which the
vectorized executor scans instead of row dictionaries).  A stored row dict
holds every schema column in declaration order, which is a scan's output
layout, so scans emit copies of the stored rows.  Beside each column the
table keeps two layout facts, ``(kind, nullable)`` (:func:`derive_facts`),
which the fused-pipeline codegen specializes on (:meth:`Table.layout`).

The row dicts remain the single mutation/validation surface, and every
mutation is **positional**: an insert appends, an update is a list of
``(position, new_values)`` changes (:meth:`Table.apply_update` — the one
hook behind autocommit updates, transaction rollback before-images, MVCC
commit and WAL replay).  A mutation bumps :attr:`Table.version` (external
caches key on it) and then *maintains* the built views instead of dropping
them: an append extends every built view, an update patches the columnar
view in place and drops only the positional indexes and distinct counts of
the *assigned* columns.  A write that may change a
column's facts queues that one column; the next :meth:`Table.columns` call
re-derives its facts, so maintained facts always equal a fresh build's.
``clear`` / ``truncate_to`` / ``adopt_rows`` drop the views; the full
build survives only as the lazy first build.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.db.schema import SchemaError, TableSchema

Row = dict

#: the typed column kinds: every non-null value is exactly this type
#: (``bool`` is a type of its own, so a bool column is boxed).
_KINDS = {int: "int", float: "float"}
_NONE = type(None)


def derive_facts(values: list) -> tuple[str, bool]:
    """A column's layout facts ``(kind, nullable)``, from one type pass.

    ``kind`` is ``"int"`` or ``"float"`` when every non-null value is
    exactly that type, else ``"boxed"`` (strings, bools, mixed, empty and
    all-NULL columns); ``nullable`` says whether any value is NULL.
    """
    types = set(map(type, values))
    nullable = _NONE in types
    types.discard(_NONE)
    kind = _KINDS.get(types.pop(), "boxed") if len(types) == 1 else "boxed"
    return kind, nullable


def _append_keeps(facts: tuple[str, bool], value: Any) -> bool:
    """Whether appending ``value`` to a column leaves its facts unchanged.

    A NULL needs a nullable column; a typed column takes its own type; a
    boxed column takes anything that cannot make it typed.
    """
    kind, nullable = facts
    if value is None:
        return nullable
    typed = _KINDS.get(type(value))
    return typed is None if kind == "boxed" else typed == kind


def _count_distinct(values: list) -> int:
    """Distinct non-null ``values`` when some are unhashable.

    Hashable values count through a set; the unhashable ones (lists,
    dicts) compare by ``==`` among themselves only, so the quadratic work
    is confined to them.
    """
    hashable: set = set()
    unhashable: list = []
    for value in values:
        if value is None:
            continue
        try:
            hashable.add(value)
        except TypeError:
            if value not in unhashable:
                unhashable.append(value)
    return len(hashable) + len(unhashable)


def _file(indexes: dict[str, dict], row: Row, position: int) -> None:
    """Append ``position`` to the bucket of ``row``'s value in each index.

    NULLs are not indexed.  An index that cannot hold the value (it is
    unhashable) is dropped; its next lazy build returns ``None``.
    """
    for column in list(indexes):
        value = row[column]
        if value is None:
            continue
        index = indexes[column]
        try:
            bucket = index.get(value)
        except TypeError:
            del indexes[column]
            continue
        if bucket is None:
            index[value] = [position]
        else:
            bucket.append(position)


class Table:
    """An in-memory table: a schema plus a list of rows."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[Row] = []
        #: column name -> {value: [row positions]} lazy positional indexes.
        self._positions: dict[str, dict[Any, list[int]]] = {}
        #: column name -> cached distinct non-null value count.
        self._distinct_cache: dict[str, int] = {}
        #: the built columnar view (column name -> value list), maintained
        #: in place by every mutation once built.
        self._columnar: Optional[dict[str, list]] = None
        #: column name -> ``(kind, nullable)`` of the built view.
        self._facts: dict[str, tuple[str, bool]] = {}
        #: columns whose facts a write may have changed; re-derived by the
        #: next :meth:`columns` call.
        self._stale: set[str] = set()
        #: the cached :meth:`layout` signature; ``None`` after a fact moved.
        self._layout: Optional[tuple] = None
        #: bumped on every mutation; external caches may key on this.
        self.version: int = 0
        #: row changes patched into an already-built columnar view, and
        #: single columns whose facts were lazily re-derived after a write.
        self.patched_updates: int = 0
        self.column_reencodes: int = 0

    # -- mutation --------------------------------------------------------

    def prepare_row(self, row: Row) -> Row:
        """Validate and normalise one incoming row **without storing it**.

        Missing columns are filled with ``None``; unknown columns raise
        :class:`SchemaError`.  Returns the normalised stored-form dict —
        the write-ahead log records this form *before* it is applied, so a
        replayed insert reproduces the stored row exactly.
        """
        stored: Row = {}
        for column in self.schema.columns:
            stored[column.name] = row.get(column.name)
        unknown = set(row) - set(stored)
        if unknown:
            raise SchemaError(
                f"unknown columns {sorted(unknown)} for table "
                f"{self.schema.name!r}"
            )
        return stored

    def insert_stored(self, stored: Row) -> Row:
        """Store an already-normalised row produced by :meth:`prepare_row`.

        Subclasses hook here for additional filing (the sharded table files
        the stored dict into its home partition as well).
        """
        return self.adopt_row(stored)

    def insert(self, row: Row) -> Row:
        """Insert one row (a mapping of column name to value).

        Missing columns are filled with ``None``; unknown columns raise
        :class:`SchemaError`.  Returns the stored row dict.
        """
        return self.insert_stored(self.prepare_row(row))

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def adopt_row(self, stored: Row) -> Row:
        """Append an already-validated stored row dict *by reference*.

        Used by :class:`repro.db.sharding.ShardedTable` to file one stored
        dict both in its aggregate view and in the owning shard partition, so
        in-place updates are visible through every view without copying.  The
        caller is responsible for having validated ``stored`` against this
        table's schema (shard partitions share the parent's schema).  Every
        built view is extended by the new row.
        """
        position = len(self.rows)
        self.rows.append(stored)
        self.version += 1
        if self._distinct_cache:
            self._distinct_cache.clear()
        if self._columnar is not None:
            self._write_columns(position, stored)
        if self._positions:
            _file(self._positions, stored, position)
        return stored

    def adopt_rows(self, rows: Iterable[Row]) -> int:
        """Bulk :meth:`adopt_row`: one version bump for the whole batch.

        A bulk load rebuilds views faster than it extends them row by row,
        so the built views are dropped instead of maintained.
        """
        before = len(self.rows)
        self.rows.extend(rows)
        self._drop_views()
        return len(self.rows) - before

    def clear(self) -> None:
        """Remove all rows."""
        self.rows.clear()
        self._drop_views()

    def plan_update(
        self,
        predicate,
        assignments: dict,
        positions: Optional[Iterable[int]] = None,
    ) -> list[tuple[int, dict]]:
        """Phase one of an update: compute every change **without mutating**.

        Evaluates ``predicate`` and the assignment expressions against the
        pre-statement state of every row — or, when ``positions`` is given
        (ascending candidates from :meth:`positions_for`), of those rows
        only — and returns ``(position, new_values)`` pairs for the rows
        that match.  Any error — an unknown column, a predicate or
        assignment callable raising mid-scan — surfaces here, *before*
        anything has been written, which is what makes UPDATE statements
        atomic: a failed statement leaves the table untouched.

        Because nothing is applied during this phase, every row naturally
        sees the pre-update state — SQL's simultaneous-assignment semantics
        (``set a = b, b = a`` swaps the columns) fall out without
        snapshotting.  The positions index into :attr:`rows` and are what
        the write-ahead log records (inserts are append-only, so positions
        are stable under replay).
        """
        for column in assignments:
            if not self.schema.has_column(column):
                raise SchemaError(
                    f"unknown column {column!r} in update on table "
                    f"{self.schema.name!r}"
                )
        rows = self.rows
        planned: list[tuple[int, dict]] = []
        for position in range(len(rows)) if positions is None else positions:
            row = rows[position]
            if not predicate(row):
                continue
            new_values = {
                column: (value(row) if callable(value) else value)
                for column, value in assignments.items()
            }
            planned.append((position, new_values))
        return planned

    def apply_update(self, changes: Iterable[tuple[int, dict]]) -> int:
        """Phase two of an update: apply ``(position, new_values)`` changes.

        The one mutation hook behind every update route: the live path (the
        values were computed and validated by :meth:`plan_update`, so
        application cannot fail), transaction rollback (the before-images),
        MVCC commit and WAL replay — positions refer to :attr:`rows` order,
        which is stable because storage is append-only and replay applies
        records in log order.  Built views are patched in place: the
        columnar view cell by cell; only the positional indexes and
        distinct counts of the assigned columns are dropped.
        """
        rows = self.rows
        patch_columns = self._columnar is not None
        assigned: set[str] = set()
        updated = 0
        for position, new_values in changes:
            rows[position].update(new_values)
            assigned.update(new_values)
            if patch_columns:
                self._write_columns(position, new_values)
                self.patched_updates += 1
            updated += 1
        if updated:
            self.version += 1
            for column in assigned:
                self._positions.pop(column, None)
                self._distinct_cache.pop(column, None)
        return updated

    def update_rows(self, predicate, assignments: dict) -> int:
        """Update rows matching ``predicate`` (a callable on a row dict).

        ``assignments`` maps column name to either a constant or a callable
        taking the row and returning the new value.  Callables are evaluated
        against the row's *pre-update* state — SQL's simultaneous-assignment
        semantics, so ``set a = b, b = a`` swaps the two columns instead of
        reading the value the first assignment just wrote.  Returns the
        number of rows updated.

        The update is **statement-atomic**: it runs as :meth:`plan_update`
        (compute and validate every change) followed by :meth:`apply_update`
        (write them all), so an error raised by the predicate or by an
        assignment on any row leaves the table completely unchanged.
        """
        return self.apply_update(self.plan_update(predicate, assignments))

    def truncate_to(self, length: int) -> int:
        """Remove every row past ``length`` (transaction-rollback undo).

        Inserts are append-only, so rolling back the inserts of an aborted
        transaction is a truncation back to the pre-transaction length.
        Returns the number of rows removed.
        """
        removed = len(self.rows) - length
        if removed <= 0:
            return 0
        del self.rows[length:]
        self._drop_views()
        return removed

    def _write_columns(self, position: int, values: dict) -> None:
        """Write ``values`` at ``position`` of the built columnar view.

        ``position == len(column)`` appends.  A write that may change a
        column's facts queues that column for re-derivation: an append
        :func:`_append_keeps` rejects, or an overwrite that changes the
        value's type (the old value may have been the last of its type).
        """
        store = self._columnar
        facts = self._facts
        stale = self._stale
        for name, value in values.items():
            data = store[name]
            if position == len(data):
                data.append(value)
                keeps = _append_keeps(facts[name], value)
            else:
                keeps = type(data[position]) is type(value)
                data[position] = value
            if not keeps:
                stale.add(name)

    def _drop_views(self) -> None:
        self.version += 1
        self._positions.clear()
        self._distinct_cache.clear()
        self._columnar = None
        self._facts = {}
        self._stale.clear()
        self._layout = None

    # -- access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def scan(self) -> Iterator[Row]:
        """Iterate over copies of all rows (callers may mutate results)."""
        for row in self.rows:
            yield dict(row)

    def lookup_pk(self, key: Any) -> Optional[Row]:
        """A copy of the last row whose primary key equals ``key``, or ``None``.

        Primary keys are hints, not constraints: of several rows holding
        ``key`` the one at the highest position answers, whatever order the
        writes came in.
        """
        name = self.schema.primary_key
        if name is None:
            raise SchemaError(f"table {self.schema.name!r} has no primary key")
        positions = self.positions_for(name, key)
        if positions is None:  # something unhashable: compare by scan
            positions = [p for p, row in enumerate(self.rows) if row[name] == key]
        return dict(self.rows[positions[-1]]) if positions else None

    def position_index(self, column: str) -> Optional[dict[Any, list[int]]]:
        """Positional bucket index: column value -> ascending row positions.

        The table's only index.  Built lazily on first use; afterwards
        inserts append to its buckets, an update assigning ``column`` drops
        it, and ``clear`` / ``truncate_to`` drop every view.  NULLs are not
        indexed.
        Lookups follow dict semantics (``1``, ``1.0`` and ``True`` are one
        key), which is what the hash joins match on.  Returns ``None`` when
        the column is unknown or a stored value is unhashable (an insert of
        one drops a built index; see :func:`_file`).  Callers must not
        mutate the returned dict.
        """
        index = self._positions.get(column)
        if index is None:
            if not self.schema.has_column(column):
                return None
            index = {}
            try:
                for position, row in enumerate(self.rows):
                    stored = row[column]
                    if stored is not None:
                        index.setdefault(stored, []).append(position)
            except TypeError:
                return None
            self._positions[column] = index
        return index

    def positions_for(self, column: str, value: Any) -> Optional[list[int]]:
        """Ascending positions of the rows whose ``column`` may equal ``value``.

        The candidate source of a point ``UPDATE``, read off
        :meth:`position_index` — a *bucket* index, because primary keys are
        not enforced unique.  Hash lookup finds
        every row a Python ``==`` would (equal builtin values hash equally),
        possibly more never fewer, so callers still evaluate their predicate
        on each candidate.  Returns ``None`` when the column is unknown or
        ``value`` or a stored value is unhashable; the caller scans instead.
        """
        index = self.position_index(column)
        try:
            return None if index is None else index.get(value, ())
        except TypeError:
            return None

    def columns(self) -> dict[str, list]:
        """Columnar view: column name -> plain value ``list``, aligned by row.

        Built from the row dicts on first use; afterwards every mutation
        maintains it in place (the same dict is handed out again), and this
        call only re-derives the facts of the columns a write queued.  Row
        dicts remain the mutation surface; the returned columns are
        positionally aligned with :attr:`rows`, must not be mutated by
        callers, and — because the next write patches them — are only
        valid within the statement that asked for them.  Every column is
        exactly a ``list`` (a subclass would miss CPython's specialized
        list subscript in the executor's gathers).
        """
        store = self._columnar
        if store is None:
            rows = self.rows
            store = {
                name: [row[name] for row in rows]
                for name in self.schema.column_names
            }
            self._facts = {
                name: derive_facts(values) for name, values in store.items()
            }
            self._layout = None
            # Published last: a concurrent reader (a broadcast table under
            # the thread pool) sees no view or a view with its facts.
            self._columnar = store
        elif self._stale:
            facts = self._facts
            for name in self._stale:
                fresh = derive_facts(store[name])
                if fresh != facts[name]:
                    facts[name] = fresh
                    self._layout = None
            self.column_reencodes += len(self._stale)
            self._stale.clear()
        return store

    def layout(self) -> tuple:
        """The columnar view's layout signature, for pipeline caches.

        ``(kind, nullable)`` per column in schema order, as of the facts
        :meth:`columns` maintains (it is called first when a build or a
        re-derivation is due).  Cached: recomputed only after a fact
        changed.
        """
        if self._columnar is None or self._stale:
            self.columns()
        signature = self._layout
        if signature is None:
            signature = self._layout = tuple(self._facts.values())
        return signature

    def column_facts(self) -> dict[str, tuple[str, bool]]:
        """``(kind, nullable)`` per column of the *currently built* view.

        Reads only the built view — it never triggers a build or a
        re-derivation — so it is safe to call from stats paths without
        side effects.  Columns awaiting re-derivation are left out; empty
        when the view was never built.
        """
        stale = self._stale
        return {
            name: facts
            for name, facts in self._facts.items()
            if name not in stale
        }

    @property
    def row_width(self) -> int:
        """Byte width of a full row according to the schema."""
        return self.schema.row_width

    def distinct_count(self, column: str) -> int:
        """Number of distinct non-null values in ``column`` (cached)."""
        cached = self._distinct_cache.get(column)
        if cached is None:
            self.schema.column(column)
            rows = self.rows
            try:
                distinct = {row[column] for row in rows}
            except TypeError:
                cached = _count_distinct([row[column] for row in rows])
            else:
                distinct.discard(None)
                cached = len(distinct)
            self._distinct_cache[column] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name!r}, rows={len(self.rows)})"
