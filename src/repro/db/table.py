"""Row storage for the in-memory database engine.

Rows are stored as plain dictionaries mapping column name to value.  A
:class:`Table` owns its schema and validates inserted rows.  Its declared
``primary_key`` is a **key hint**: never enforced unique, and with no index
of its own (:meth:`Table.lookup_pk` probes the same index as any column).

Tables keep *derived views*, each built lazily on first use: positional
bucket indexes (:meth:`Table.position_index`, column value -> row
positions; the one index behind point lookups, point ``UPDATE`` candidates
and every indexed join), cached per-column distinct counts (the statistics
catalog), the *columnar view* (:meth:`Table.columns`, one
:class:`ColumnData` per column aligned by row position, which the
vectorized executor scans instead of row dictionaries) and the full-width
scan-output templates (:meth:`Table.wide_rows`).

The row dicts remain the single mutation/validation surface, and every
mutation is **positional**: an insert appends, an update is a list of
``(position, new_values)`` changes (:meth:`Table.apply_update` — the one
hook behind autocommit updates, transaction rollback before-images, MVCC
commit and WAL replay).  A mutation bumps :attr:`Table.version` (external
caches key on it) and then *maintains* the built views instead of dropping
them: an append extends every built view, an update patches the columnar
view and the templates in place and drops only the positional indexes and
distinct counts of the *assigned* columns.  A column is re-encoded — that
one column, on the next :meth:`Table.columns` call — only when a written
value does not fit its encoding.  ``clear`` / ``truncate_to`` /
``adopt_rows`` drop the views; the full build survives only as the lazy
first build.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Iterator, Optional

from repro.db.schema import SchemaError, TableSchema

Row = dict

#: storage modes for the columnar view, from least to most encoded:
#: ``boxed`` keeps plain value lists, ``typed`` adds ``array('q')`` /
#: ``array('d')`` sidecars for int/float columns, ``dictionary`` (the
#: default) additionally dictionary-encodes string columns.
STORAGE_MODES = ("boxed", "typed", "dictionary")


class ColumnData(list):
    """One column of the columnar view: boxed values plus typed sidecars.

    Subclasses ``list`` so every existing consumer (batch kernels, gathers,
    ``zip``-based materialization) keeps working on the boxed values at zero
    adapter cost; the typed representation rides along in slots:

    - ``encoding``: ``"boxed"``, ``"int64"``, ``"float64"``, or ``"dict"``.
    - ``typed``: ``array('q')`` / ``array('d')`` of the non-null values
      (nulls stored as 0/0.0 — consult ``nulls``), or ``None`` when boxed.
    - ``nulls``: little-endian null bitmap ``bytearray`` (bit *i* set means
      row *i* is NULL), or ``None`` when the column contains no nulls.
    - ``dictionary`` / ``codes`` / ``code_of``: for ``"dict"`` encoding,
      the value dictionary (code -> string), the per-row code array
      (``array('q')``, ``-1`` for NULL), and the string -> code map used to
      translate filter literals once per pipeline.
    """

    __slots__ = ("encoding", "typed", "nulls", "dictionary", "codes", "code_of")

    def __init__(self, values=()):  # noqa: D107 - documented on the class
        super().__init__(values)
        self.encoding = "boxed"
        self.typed = None
        self.nulls = None
        self.dictionary = None
        self.codes = None
        self.code_of = None


def _null_bitmap(values: list) -> Optional[bytearray]:
    """Little-endian null bitmap for ``values``; ``None`` if no nulls."""
    bits: Optional[bytearray] = None
    for position, value in enumerate(values):
        if value is None:
            if bits is None:
                bits = bytearray((len(values) + 7) // 8)
            bits[position >> 3] |= 1 << (position & 7)
    return bits


def encode_column(values: list, mode: str) -> ColumnData:
    """Build one :class:`ColumnData`, inferring the physical representation.

    A column is typed only when every non-null value is exactly one of
    ``int`` / ``float`` / ``str`` (``bool`` stays boxed: it is a distinct
    type and must round-trip unchanged).  Anything mixed, empty, or
    surprising (e.g. ints too wide for 64 bits) falls back to the boxed
    list, which is always present and always authoritative.
    """
    data = ColumnData(values)
    if mode == "boxed" or not values:
        return data
    kinds = set(map(type, data))
    has_null = type(None) in kinds
    kinds.discard(type(None))
    if len(kinds) != 1:
        return data
    kind = next(iter(kinds))
    if kind is int:
        try:
            data.typed = array(
                "q", (0 if v is None else v for v in data) if has_null else data
            )
        except OverflowError:
            return data
        data.encoding = "int64"
    elif kind is float:
        data.typed = array(
            "d", (0.0 if v is None else v for v in data) if has_null else data
        )
        data.encoding = "float64"
    elif kind is str and mode == "dictionary":
        code_of: dict[str, int] = {}
        codes = array("q")
        append = codes.append
        for value in data:
            if value is None:
                append(-1)
            else:
                code = code_of.get(value)
                if code is None:
                    code = len(code_of)
                    code_of[value] = code
                append(code)
        data.encoding = "dict"
        data.codes = codes
        data.code_of = code_of
        data.dictionary = list(code_of)
    else:
        return data
    if has_null:
        data.nulls = _null_bitmap(data)
    return data


def _store_value(data: ColumnData, position: int, value: Any) -> bool:
    """Write ``value`` at ``position`` of a built column, sidecars included.

    ``position == len(data)`` appends.  Returns ``False`` when the value
    does not fit the column's encoding — a type the sidecar cannot hold, an
    int wider than 64 bits, the first NULL of a null-free column (the
    bitmap's presence is part of the layout compiled pipelines specialize
    on) — in which case the column is left for :func:`encode_column` to
    rebuild.  A new dictionary string gets the next free code; a cleared
    NULL leaves its (now possibly all-zero) bitmap in place, so a patched
    column keeps its layout.
    """
    typed, codes, nulls = data.typed, data.codes, data.nulls
    if position == len(data):
        data.append(value)
        if typed is not None:
            typed.append(0)
        elif codes is not None:
            codes.append(-1)
        if nulls is not None and position >> 3 == len(nulls):
            nulls.append(0)
    else:
        data[position] = value
    encoding = data.encoding
    if encoding == "boxed":
        return True
    if value is None:
        if nulls is None:
            return False
        nulls[position >> 3] |= 1 << (position & 7)
        if typed is not None:
            typed[position] = 0
        else:
            codes[position] = -1
        return True
    if encoding == "dict":
        if type(value) is not str:
            return False
        code = data.code_of.get(value)
        if code is None:
            dictionary = data.dictionary
            # Overwritten strings stay in the dictionary; rebuild before
            # the dead entries outnumber the rows.
            if len(dictionary) > 2 * len(data) + 16:
                return False
            code = data.code_of[value] = len(dictionary)
            dictionary.append(value)
        codes[position] = code
    elif type(value) is not (int if encoding == "int64" else float):
        return False
    else:
        try:
            typed[position] = value
        except OverflowError:
            return False
    if nulls is not None:
        nulls[position >> 3] &= ~(1 << (position & 7)) & 0xFF
    return True


def _slice_nulls(
    nulls: Optional[bytearray], start: int, stop: int
) -> Optional[bytes]:
    """The ``[start, stop)`` bit range of a null bitmap, rebased to bit 0.

    Byte-aligned slices are cut straight out of the buffer; unaligned
    starts rebuild the bits (rare: partition views are whole-column in
    practice).  Returns ``None`` when no bit in the range is set.
    """
    if nulls is None:
        return None
    if start & 7 == 0:
        chunk = bytes(nulls[start >> 3 : (stop + 7) >> 3])
        return chunk if any(chunk) else None
    rebased = bytearray((stop - start + 7) // 8)
    any_set = False
    for position in range(start, stop):
        if nulls[position >> 3] & (1 << (position & 7)):
            rebased[(position - start) >> 3] |= 1 << ((position - start) & 7)
            any_set = True
    return bytes(rebased) if any_set else None


def pack_column(data, start: int = 0, stop: Optional[int] = None) -> tuple:
    """A compact, picklable payload for one column (or a slice of it).

    Typed (``int64`` / ``float64``) and dictionary columns are packed as
    raw buffer bytes extracted through ``memoryview`` slices of their
    ``array`` sidecars — a zero-copy view of the partition range, never an
    intermediate boxed list — plus the matching null-bitmap slice.  Boxed
    columns keep the list path (their values carry no buffer form).  The
    payload round-trips through :func:`unpack_column`.
    """
    if stop is None:
        stop = len(data)
    encoding = getattr(data, "encoding", "boxed")
    if encoding in ("int64", "float64"):
        view = memoryview(data.typed)[start:stop]
        return (
            encoding,
            stop - start,
            view.tobytes(),
            _slice_nulls(data.nulls, start, stop),
            None,
        )
    if encoding == "dict":
        view = memoryview(data.codes)[start:stop]
        return ("dict", stop - start, view.tobytes(), None, data.dictionary)
    return ("boxed", stop - start, list(data[start:stop]), None, None)


def unpack_column(payload: tuple) -> ColumnData:
    """Rebuild a :class:`ColumnData` from a :func:`pack_column` payload.

    The boxed list is refilled from the typed buffer at C speed (list over
    an ``array``, or a dictionary decode over the code array), so the
    receiver gets the same dual boxed + typed representation
    :func:`encode_column` builds — without re-running type inference.
    """
    encoding, length, buffer, nulls, dictionary = payload
    if encoding == "boxed":
        return ColumnData(buffer)
    if encoding == "dict":
        codes = array("q")
        codes.frombytes(buffer)
        code_of: dict[str, int] = {
            value: code for code, value in enumerate(dictionary)
        }
        data = ColumnData(
            None if code < 0 else dictionary[code] for code in codes
        )
        data.encoding = "dict"
        data.codes = codes
        data.code_of = code_of
        data.dictionary = list(dictionary)
        return data
    typed = array("q" if encoding == "int64" else "d")
    typed.frombytes(buffer)
    data = ColumnData(typed)
    data.encoding = encoding
    data.typed = typed
    if nulls is not None:
        bitmap = bytearray(nulls)
        data.nulls = bitmap
        for position in range(length):
            if bitmap[position >> 3] & (1 << (position & 7)):
                data[position] = None
    return data


def _wide_row(row: Row, qualified: list[str]) -> Row:
    """One scan-output template: ``row``'s bare keys, then the qualified."""
    # Stored rows hold every schema column in declaration order
    # (prepare_row guarantees it), so values() aligns with ``qualified``.
    wide = dict(row)
    wide.update(zip(qualified, row.values()))
    return wide


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
        #: the built columnar view (column name -> :class:`ColumnData`),
        #: maintained in place by every mutation once built.
        self._columnar: Optional[dict[str, ColumnData]] = None
        #: columns of the built view a write did not fit; re-encoded from
        #: the rows by the next :meth:`columns` call.
        self._reencode: set[str] = set()
        #: physical representation of the columnar view; see
        #: :data:`STORAGE_MODES` and :meth:`set_storage_mode`.
        self._storage_mode: str = "dictionary"
        #: alias -> built full-width output rows (bare + qualified keys)
        #: for that scan alias, maintained in place like the columnar view.
        self._wide_rows: dict[str, list[Row]] = {}
        #: bumped on every mutation; external caches may key on this.
        self.version: int = 0
        #: row changes patched into an already-built columnar view, and
        #: single columns lazily re-encoded because a write did not fit.
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
        if self._wide_rows:
            for alias, wide in self._wide_rows.items():
                wide.append(_wide_row(stored, self._qualified(alias)))
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
        columnar view and the scan templates cell by cell; only the
        positional indexes and distinct counts of the assigned columns are
        dropped.
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
            for alias, wide in self._wide_rows.items():
                template = wide[position]
                for name, value in new_values.items():
                    template[name] = template[f"{alias}.{name}"] = value
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

        A column the value does not fit is queued for re-encoding.  So is
        any boxed column outside ``boxed`` mode: whether it stays boxed
        depends on all of its values, which only a re-encode looks at.
        """
        store = self._columnar
        pending = self._reencode
        refit_boxed = self._storage_mode != "boxed"
        for name, value in values.items():
            if name in pending:
                continue
            data = store[name]
            if not _store_value(data, position, value) or (
                refit_boxed and data.encoding == "boxed"
            ):
                pending.add(name)

    def _drop_views(self) -> None:
        self.version += 1
        self._positions.clear()
        self._distinct_cache.clear()
        self._columnar = None
        self._reencode.clear()
        self._wide_rows.clear()

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

    def columns(self) -> dict[str, ColumnData]:
        """Columnar view: column name -> :class:`ColumnData`, aligned by row.

        Built from the row dicts on first use; afterwards every mutation
        maintains it in place (the same dict is handed out again), and this
        call only re-encodes the columns a write did not fit.  Row dicts
        remain the mutation surface; the returned columns are positionally
        aligned with :attr:`rows`, must not be mutated by callers, and —
        because the next write patches them — are only valid within the
        statement that asked for them.  The vectorized executor scans these
        arrays instead of iterating row dictionaries; each column carries a
        typed/dictionary-encoded sidecar per :meth:`set_storage_mode`, which
        the fused-pipeline codegen specializes on.
        """
        store = self._columnar
        if store is None:
            names = self.schema.column_names
        elif self._reencode:
            names = tuple(self._reencode)
            self.column_reencodes += len(names)
        else:
            return store
        rows = self.rows
        mode = self._storage_mode
        fresh = {
            name: encode_column([row[name] for row in rows], mode)
            for name in names
        }
        if store is None:
            self._columnar = store = fresh
        else:
            store.update(fresh)
            self._reencode.clear()
        return store

    def wide_rows(self, alias: str) -> list[Row]:
        """Full-width scan output rows for ``alias``, built once per alias.

        A scan materializes each row with its bare keys followed by the
        alias-qualified keys.  Codegen select pipelines emit survivors as
        ``dict.copy`` of these prebuilt templates — a single C-level copy
        per output row instead of an 8-entry dict display — so the
        templates are kept here next to the columnar view and share its
        lifecycle: inserts append a template, updates patch the assigned
        cells.  Callers receive copies, never these dicts.
        """
        cached = self._wide_rows.get(alias)
        if cached is None:
            qualified = self._qualified(alias)
            cached = [_wide_row(row, qualified) for row in self.rows]
            self._wide_rows[alias] = cached
        return cached

    def _qualified(self, alias: str) -> list[str]:
        return [f"{alias}.{name}" for name in self.schema.column_names]

    def set_storage_mode(self, mode: str) -> None:
        """Choose the columnar representation (see :data:`STORAGE_MODES`).

        Drops the built columnar view, so the next :meth:`columns` call
        builds it in the new mode; the row dicts are untouched, so this is
        purely a physical-layout knob.
        """
        if mode not in STORAGE_MODES:
            raise ValueError(
                f"unknown storage mode {mode!r}; expected one of "
                f"{STORAGE_MODES}"
            )
        if mode != self._storage_mode:
            self._storage_mode = mode
            self._columnar = None
            self._reencode.clear()

    @property
    def storage_mode(self) -> str:
        return self._storage_mode

    def column_encodings(self) -> dict[str, str]:
        """Encoding per column of the *currently built* columnar view.

        Reads only the built view — it never triggers a build or a
        re-encode — so it is safe to call from stats paths without side
        effects.  Columns awaiting a re-encode are left out; empty when the
        view was never built.
        """
        return {
            name: column.encoding
            for name, column in (self._columnar or {}).items()
            if name not in self._reencode
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
            cached = len(
                {row[column] for row in self.rows if row[column] is not None}
            )
            self._distinct_cache[column] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name!r}, rows={len(self.rows)})"
