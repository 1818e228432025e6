"""Multi-version concurrency control: snapshot reads over versioned rows.

The engine's storage stays exactly what it was — append-only row dicts in
:class:`repro.db.table.Table` — and MVCC layers *time* on top of it:

* Every commit gets a **monotonically increasing commit timestamp** from the
  :class:`MvccManager`.  The live tables always hold the latest committed
  state; committing pushes **undo entries** (the WAL's before-image shape)
  tagged with the commit timestamp, so any older state can be reconstructed
  by applying undo entries newest-to-oldest down to a snapshot's timestamp.
* :meth:`repro.db.database.Database.begin` transactions **buffer their
  writes privately** (a deferred-apply write set) instead of mutating in
  place, and read through a materialised view: the live rows as of the
  transaction's start timestamp plus its own pending writes.  Readers —
  inside or outside transactions — therefore never block behind a writer,
  and a writer never makes uncommitted rows visible.
* **Visibility rule**: a context with start timestamp ``S`` sees exactly the
  rows committed with timestamp ``<= S``.  Storage is append-only, so the
  visible prefix of a table is ``min(length-before of every insert undo with
  ts > S)`` and updated rows are reconstructed by merging before-images
  newest-to-oldest (the oldest undo newer than ``S`` wins per column).
* **First-committer-wins**: commit re-checks every updated row position
  against the last committed write timestamp for that position; a position
  committed after the transaction began raises :class:`SerializationError`
  (retryable — the transaction is rolled back, nothing was applied).
* **Vacuum** reclaims undo entries older than the oldest live snapshot
  (they can never be needed again) and runs automatically whenever a
  context finishes; counters land in the ``mvcc`` view of
  ``Engine.metrics()``.

WAL integration: a transaction's records are appended at commit time —
updates then inserts per table, followed by the :class:`CommitRecord` — so
the log-before-apply rule holds and the committed prefix of the log replays
to exactly the visible (committed) state.  Recovery re-derives the commit
timestamp counter from the :class:`CommitRecord` count of the replayed
prefix (:meth:`MvccManager.rederive_commit_timestamps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.db.executor import Executor
from repro.db.table import Row, Table
from repro.db.wal import CommitRecord, InsertRecord, UpdateRecord


class SerializationError(Exception):
    """A first-committer-wins write conflict: another transaction committed
    a newer version of a row this transaction also updated.

    The losing transaction is rolled back before this is raised (none of
    its writes were applied — MVCC write sets are deferred-apply), so the
    application can simply retry it; see
    :meth:`repro.net.connection.SimulatedConnection.run_transaction`.
    """

    #: marker consumed by retry helpers: safe to re-run the transaction.
    retryable = True
    #: virtual seconds the refused COMMIT burned; the connection's commit
    #: exchange sets it so drivers charge it like any failed exchange.
    virtual_elapsed = 0.0


@dataclass
class MvccStats:
    """Counters for the MVCC subsystem (``Engine.metrics()``'s ``mvcc`` view)."""

    versions_created: int = 0
    versions_reclaimed: int = 0
    snapshots_taken: int = 0
    write_conflicts: int = 0
    vacuum_runs: int = 0

    def as_dict(self) -> dict:
        return {
            "versions_created": self.versions_created,
            "versions_reclaimed": self.versions_reclaimed,
            "snapshots_taken": self.snapshots_taken,
            "write_conflicts": self.write_conflicts,
            "vacuum_runs": self.vacuum_runs,
        }


class _UndoEntry:
    """One committed change, keyed by its commit timestamp.

    ``kind == "insert"``: ``payload`` is the table length before the commit
    (append-only storage, so undoing an insert is knowing where it started).
    ``kind == "update"``: ``payload`` is ``[(position, before_values)]`` —
    the same before-image shape the WAL's transaction rollback uses.
    ``rows`` counts the row versions the entry supersedes, for the
    versions_reclaimed counter.
    """

    __slots__ = ("commit_ts", "kind", "payload", "rows")

    def __init__(self, commit_ts: int, kind: str, payload, rows: int) -> None:
        self.commit_ts = commit_ts
        self.kind = kind
        self.payload = payload
        self.rows = rows


class _TableWrites:
    """One transaction's private write set against one table.

    ``pending`` holds prepared (stored-form) rows to append at commit;
    ``updates`` maps a live row position (aggregate position, stable under
    append-only storage) to the merged new column values.
    """

    __slots__ = ("pending", "updates")

    def __init__(self) -> None:
        self.pending: list[Row] = []
        self.updates: dict[int, dict] = {}


class _ReadContext:
    """Shared surface of :class:`Snapshot` and :class:`MvccTransaction`."""

    is_mvcc_context = True

    def __init__(self, manager: "MvccManager", start_ts: int) -> None:
        self.manager = manager
        self.start_ts = start_ts
        self.active = True
        #: bumped on every buffered write; stamps the view cache.
        self.writes_version = 0
        #: per-table materialised view cache: name -> (stamp, view, visible).
        self._views: dict[str, tuple] = {}
        #: cached snapshot executor: (stamp, executor).
        self._executor_cache: Optional[tuple] = None

    def table_writes(self, name: str) -> Optional[_TableWrites]:
        return None


class Snapshot(_ReadContext):
    """A read-only consistent view of the database as of one timestamp.

    Opened by :meth:`repro.db.database.Database.snapshot`; queries executed
    through :meth:`execute` (or inside ``database.using(snapshot)``) see
    exactly the state committed before the snapshot was taken, no matter
    what commits afterwards.  Writes through a snapshot raise — use a
    transaction.  Close it (or exit the ``with`` block) to release the
    version horizon so vacuum can reclaim old versions.
    """

    def __init__(self, manager: "MvccManager", start_ts: int) -> None:
        super().__init__(manager, start_ts)

    def execute(self, sql: str, params: Sequence[Any] = ()):
        """Run a SELECT against this snapshot's view of the database."""
        database = self.manager.database
        with database.using(self):
            return database.execute_sql(sql, params)

    def close(self) -> None:
        """Release the snapshot (idempotent); its versions become vacuumable."""
        if self.active:
            self.manager._finish_context(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.active else "closed"
        return f"<Snapshot ts={self.start_ts} {state}>"


class MvccTransaction(_ReadContext):
    """A snapshot-isolated transaction with a deferred-apply write set.

    Reads see the database as of the transaction's start timestamp plus the
    transaction's own buffered writes; nothing is applied to live storage
    (or the WAL) until :meth:`commit`, which conflict-checks first-committer
    -wins and raises :class:`SerializationError` on a lost race.  Mirrors
    the legacy :class:`repro.db.database.Transaction` context-manager
    surface so driver code works unchanged.
    """

    def __init__(
        self, manager: "MvccManager", txn_id: int, start_ts: int
    ) -> None:
        super().__init__(manager, start_ts)
        self.txn_id = txn_id
        self._writes: dict[str, _TableWrites] = {}

    def table_writes(self, name: str) -> Optional[_TableWrites]:
        return self._writes.get(name)

    def commit(self) -> None:
        """Apply the write set at the next commit timestamp (or conflict)."""
        self.manager.commit(self)

    def rollback(self) -> None:
        """Discard the write set; live storage was never touched."""
        self.manager.rollback(self)

    def __enter__(self) -> "MvccTransaction":
        if not self.active:
            from repro.db.database import TransactionError

            raise TransactionError("transaction is no longer active")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "finished"
        return f"<MvccTransaction {self.txn_id} ts={self.start_ts} {state}>"


class MvccManager:
    """Version bookkeeping for one database: timestamps, undo, conflicts.

    Installed by :meth:`repro.db.database.Database.enable_mvcc`.  The live
    tables always hold exactly the latest committed state; this manager
    keeps, per table, the undo entries needed to reconstruct any state an
    open context might still read, and the last-write timestamps needed for
    first-committer-wins conflict detection.
    """

    def __init__(self, database) -> None:
        self.database = database
        #: the timestamp of the most recent commit; new contexts start here.
        self.commit_ts = 0
        #: per-table undo entries, oldest first (commit order).
        self._undo: dict[str, list[_UndoEntry]] = {}
        #: per-table {position: commit_ts} of the last committed update.
        self._last_write: dict[str, dict[int, int]] = {}
        #: open contexts (transactions and snapshots).
        self._active: set[_ReadContext] = set()
        self.stats = MvccStats()

    # -- context lifecycle -------------------------------------------------

    def begin(self) -> MvccTransaction:
        """Open a snapshot-isolated transaction at the current timestamp."""
        database = self.database
        txn = MvccTransaction(
            self, database._allocate_txn_id(), self.commit_ts
        )
        self._active.add(txn)
        self.stats.snapshots_taken += 1
        database._txn = txn
        database.txn_stats.begun += 1
        return txn

    def snapshot(self) -> Snapshot:
        """Open a read-only snapshot at the current timestamp."""
        snap = Snapshot(self, self.commit_ts)
        self._active.add(snap)
        self.stats.snapshots_taken += 1
        return snap

    def has_contexts(self) -> bool:
        """True while any transaction or snapshot is open."""
        return bool(self._active)

    def active_transactions(self) -> int:
        return sum(
            1 for ctx in self._active if isinstance(ctx, MvccTransaction)
        )

    def active_snapshots(self) -> int:
        return sum(1 for ctx in self._active if isinstance(ctx, Snapshot))

    def _finish_context(self, ctx: _ReadContext) -> None:
        ctx.active = False
        ctx._views.clear()
        ctx._executor_cache = None
        self._active.discard(ctx)
        database = self.database
        if database._txn is ctx:
            database._txn = None
        if self._undo or self._last_write:
            self.vacuum()

    # -- buffered writes ---------------------------------------------------

    def _check_writable(self, ctx: _ReadContext) -> MvccTransaction:
        from repro.db.database import TransactionError

        if isinstance(ctx, Snapshot):
            raise TransactionError(
                "snapshot contexts are read-only; begin() a transaction "
                "to write"
            )
        if not isinstance(ctx, MvccTransaction) or not ctx.active:
            raise TransactionError("transaction is no longer active")
        return ctx

    def txn_insert(
        self, ctx: _ReadContext, table: str, rows: Iterable[Row]
    ) -> int:
        """Buffer inserts in the transaction's write set (deferred apply)."""
        txn = self._check_writable(ctx)
        storage = self.database.table(table)
        writes = txn._writes.setdefault(table, _TableWrites())
        count = 0
        for row in rows:
            writes.pending.append(storage.prepare_row(row))
            count += 1
        if count:
            txn.writes_version += 1
        return count

    def txn_update(
        self,
        ctx: _ReadContext,
        table: str,
        predicate,
        assignments: dict,
        probe: Optional[tuple[str, Any]] = None,
    ) -> int:
        """Plan an UPDATE against the transaction's view and buffer it.

        The two-phase plan runs over the *view* (snapshot rows plus the
        transaction's own writes), so statement atomicity and SQL's
        simultaneous-assignment semantics are preserved.  Positions below
        the visible length are live aggregate positions (stable under
        append-only storage) and go into the update map; positions at or
        past it address the transaction's own pending inserts, which are
        patched in place.
        """
        txn = self._check_writable(ctx)
        view, visible = self._table_view(txn, table)
        planned = self.database._plan_update(
            view, predicate, assignments, probe
        )
        if not planned:
            return 0
        writes = txn._writes.setdefault(table, _TableWrites())
        for position, new_values in planned:
            if position < visible:
                writes.updates.setdefault(position, {}).update(new_values)
            else:
                writes.pending[position - visible].update(new_values)
        txn.writes_version += 1
        return len(planned)

    # -- commit / rollback -------------------------------------------------

    def commit(self, txn: MvccTransaction) -> None:
        """First-committer-wins conflict check, then apply the write set.

        On conflict the transaction is rolled back (an :class:`AbortRecord`
        lands in the WAL — it logged nothing else) and
        :class:`SerializationError` is raised.  On success the transaction's
        WAL records are appended (updates then inserts per table, then the
        commit record), the writes are applied to live storage, undo entries
        are pushed at the new commit timestamp, and the last-write map is
        stamped for future conflict checks.
        """
        from repro.db.database import TransactionError

        database = self.database
        if not txn.active:
            raise TransactionError("transaction is no longer active")
        for name, writes in txn._writes.items():
            last = self._last_write.get(name)
            if not last:
                continue
            for position in writes.updates:
                if last.get(position, 0) > txn.start_ts:
                    self.stats.write_conflicts += 1
                    self._abort(txn)
                    raise SerializationError(
                        f"write conflict on table {name!r} row {position}: "
                        f"a concurrent transaction committed first"
                    )
        commit_ts = self.commit_ts + 1
        wal = database._wal
        for name, writes in txn._writes.items():
            storage = database.table(name)
            updates = sorted(writes.updates.items())
            # Log-before-apply: the transaction's records are contiguous,
            # updates before inserts per table, matching the apply order
            # below so recovery replays positions identically.
            if wal is not None:
                if updates:
                    wal.append(
                        UpdateRecord(
                            txn.txn_id,
                            name,
                            tuple(
                                (position, dict(new_values))
                                for position, new_values in updates
                            ),
                        )
                    )
                if writes.pending:
                    wal.append(
                        InsertRecord(
                            txn.txn_id,
                            name,
                            tuple(dict(row) for row in writes.pending),
                        )
                    )
            if updates:
                before = [
                    (
                        position,
                        {
                            column: storage.rows[position][column]
                            for column in new_values
                        },
                    )
                    for position, new_values in updates
                ]
                storage.apply_update(updates)
                self._push_undo(
                    name, _UndoEntry(commit_ts, "update", before, len(before))
                )
                last = self._last_write.setdefault(name, {})
                for position, _values in updates:
                    last[position] = commit_ts
                self.stats.versions_created += len(before)
            if writes.pending:
                length_before = len(storage.rows)
                for stored in writes.pending:
                    storage.insert_stored(stored)
                self._push_undo(
                    name,
                    _UndoEntry(
                        commit_ts,
                        "insert",
                        length_before,
                        len(writes.pending),
                    ),
                )
                self.stats.versions_created += len(writes.pending)
        if wal is not None:
            wal.append(CommitRecord(txn.txn_id))
        self.commit_ts = commit_ts
        database.txn_stats.committed += 1
        self._finish_context(txn)

    def rollback(self, txn: MvccTransaction) -> None:
        """Discard the write set (nothing was applied — deferred writes)."""
        from repro.db.database import TransactionError

        if not txn.active:
            raise TransactionError("transaction is no longer active")
        self._abort(txn)

    def _abort(self, txn: MvccTransaction) -> None:
        database = self.database
        if database._wal is not None:
            from repro.db.wal import AbortRecord

            database._wal.append(AbortRecord(txn.txn_id))
        database.txn_stats.rolled_back += 1
        self._finish_context(txn)

    # -- autocommit version notes ------------------------------------------

    def note_insert(self, table: str, length_before: int, count: int) -> None:
        """Record an applied autocommit insert as a one-commit version."""
        commit_ts = self.commit_ts + 1
        self.commit_ts = commit_ts
        if self._active:
            self._push_undo(
                table, _UndoEntry(commit_ts, "insert", length_before, count)
            )
        self.stats.versions_created += count

    def note_update(
        self, table: str, before_images: list[tuple[int, dict]], count: int
    ) -> None:
        """Record an applied autocommit update as a one-commit version.

        The before-images are pushed as an undo entry only while someone can
        still read them (an open context); the last-write map is stamped
        unconditionally, because a future transaction that began before this
        autocommit must conflict on these positions.
        """
        commit_ts = self.commit_ts + 1
        self.commit_ts = commit_ts
        if self._active:
            self._push_undo(
                table, _UndoEntry(commit_ts, "update", before_images, count)
            )
        last = self._last_write.setdefault(table, {})
        for position, _values in before_images:
            last[position] = commit_ts
        self.stats.versions_created += count

    def _push_undo(self, table: str, entry: _UndoEntry) -> None:
        self._undo.setdefault(table, []).append(entry)

    # -- snapshot views ----------------------------------------------------

    def executor_for(self, context) -> Executor:
        """The executor serving ``context``'s reads.

        The live executor when the context is absent, finished, or its
        snapshot equals the live state for every table (the common fast
        path); otherwise a per-context executor over materialised view
        tables, cached until a commit, a buffered write, or DDL moves the
        stamp.
        """
        database = self.database
        if (
            context is None
            or not getattr(context, "is_mvcc_context", False)
            or not context.active
        ):
            return database._executor
        stamp = (
            self.commit_ts,
            context.writes_version,
            database.schema_generation,
        )
        cached = context._executor_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        tables: dict[str, Table] = {}
        all_live = True
        for name, storage in database.tables.items():
            view, _visible = self._table_view(context, name)
            tables[name] = view
            if view is not storage:
                all_live = False
        if all_live:
            executor = database._executor
        else:
            # Snapshot views are plain materialised tables: no shard router
            # (unrouted execution over the aggregate view is the engine's
            # documented correctness-transparent fallback).
            executor = Executor(tables, mode=database._executor.mode)
        context._executor_cache = (stamp, executor)
        return executor

    def _table_view(self, context: _ReadContext, name: str):
        """``(view table, visible live length)`` for one context and table."""
        stamp = (
            self.commit_ts,
            context.writes_version,
            self.database.schema_generation,
        )
        cached = context._views.get(name)
        if cached is not None and cached[0] == stamp:
            return cached[1], cached[2]
        storage = self.database.table(name)
        view, visible = self._build_view(context, name, storage)
        context._views[name] = (stamp, view, visible)
        return view, visible

    def _build_view(self, context: _ReadContext, name: str, storage: Table):
        start_ts = context.start_ts
        undo = self._undo.get(name, ())
        writes = context.table_writes(name)
        has_writes = writes is not None and (
            writes.pending or writes.updates
        )
        newer = [entry for entry in undo if entry.commit_ts > start_ts]
        if not newer and not has_writes:
            # The snapshot equals the live table: read it directly.
            return storage, len(storage.rows)
        visible = len(storage.rows)
        overrides: dict[int, dict] = {}
        # Walk undo newest-to-oldest down to the snapshot; the oldest entry
        # newer than the snapshot wins per column (dict.update overwrites).
        for entry in reversed(undo):
            if entry.commit_ts <= start_ts:
                break
            if entry.kind == "insert":
                visible = min(visible, entry.payload)
            else:
                for position, old_values in entry.payload:
                    merged = overrides.get(position)
                    if merged is None:
                        overrides[position] = dict(old_values)
                    else:
                        merged.update(old_values)
        rows = storage.rows[:visible]
        for position, old_values in overrides.items():
            if position < visible:
                rows[position] = {**rows[position], **old_values}
        if has_writes:
            for position, new_values in writes.updates.items():
                if position < visible:
                    rows[position] = {**rows[position], **new_values}
            rows.extend(writes.pending)
        view = Table(storage.schema)
        view.adopt_rows(rows)
        return view, visible

    # -- vacuum ------------------------------------------------------------

    def horizon(self) -> int:
        """The oldest timestamp any open context can still read."""
        return min(
            (ctx.start_ts for ctx in self._active), default=self.commit_ts
        )

    def vacuum(self) -> int:
        """Reclaim undo entries no open context can reach; returns versions
        reclaimed.

        Entries with ``commit_ts <= horizon`` (the oldest live snapshot)
        can never be applied again — every reader already sees past them.
        Last-write stamps at or below the horizon are pruned too: no live or
        future transaction has a start timestamp below the horizon, so those
        stamps can never flag a conflict again.
        """
        horizon = self.horizon()
        reclaimed = 0
        for name in list(self._undo):
            undo = self._undo[name]
            keep_from = 0
            for entry in undo:
                if entry.commit_ts <= horizon:
                    reclaimed += entry.rows
                    keep_from += 1
                else:
                    break
            if keep_from:
                del undo[:keep_from]
            if not undo:
                del self._undo[name]
        for name in list(self._last_write):
            last = self._last_write[name]
            stale = [
                position for position, ts in last.items() if ts <= horizon
            ]
            for position in stale:
                del last[position]
            if not last:
                del self._last_write[name]
        self.stats.versions_reclaimed += reclaimed
        self.stats.vacuum_runs += 1
        return reclaimed

    # -- recovery ----------------------------------------------------------

    def rederive_commit_timestamps(self, committed: Iterable) -> None:
        """Re-derive the commit-timestamp counter after WAL replay.

        Commit timestamps are not logged — they are a pure commit-order
        counter — so recovery re-derives the counter from the
        :class:`CommitRecord` count of the committed prefix.  Replay applies
        everything directly to live storage with no open contexts, so the
        recovered database starts with empty undo and last-write maps.
        """
        self.commit_ts = sum(
            1 for record in committed if isinstance(record, CommitRecord)
        )

    # -- introspection -----------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Expose the manager's counters as a live ``mvcc`` registry view."""
        registry.register_view("mvcc", self.stats_dict)

    def stats_dict(self) -> dict:
        counters = self.stats.as_dict()
        counters.update(
            {
                "enabled": True,
                "commit_ts": self.commit_ts,
                "active_transactions": self.active_transactions(),
                "active_snapshots": self.active_snapshots(),
                "undo_entries": sum(
                    len(entries) for entries in self._undo.values()
                ),
            }
        )
        return counters


__all__ = [
    "MvccManager",
    "MvccStats",
    "MvccTransaction",
    "SerializationError",
    "Snapshot",
]
