"""Write-ahead logging: typed records, the log, and crash-recovery replay.

Durability rule
---------------

Every mutation the :class:`~repro.db.database.Database` applies — row
inserts, UPDATE statements, and DDL (``create_table`` / ``shard_table``) —
is first appended to the :class:`WriteAheadLog` as a **typed record**, and
only then applied to storage.  A :class:`CommitRecord` is the durability
boundary: recovery (:meth:`repro.db.database.Database.recover`) replays
exactly the records of committed transactions, in log order, and discards
everything else — so a log crashed (truncated) at *any* prefix point
recovers to exactly the last committed state.

Physical logging
----------------

Inserts log the **normalised stored form** of every row (what
:meth:`repro.db.table.Table.prepare_row` produced), and updates log
``(row position, new column values)`` physical changes computed by the
two-phase update (:meth:`repro.db.table.Table.plan_update`).  Storage is
append-only (rollback is a truncation, never a hole), so row positions are
stable identifiers under replay.  Replaying an :class:`UpdateRecord` goes
through the same :meth:`~repro.db.table.Table.apply_update` hook the
live engine uses — on a :class:`~repro.db.sharding.ShardedTable` that hook
rehomes shard-key moves, so replayed updates place rows in partitions
exactly like the live path did.

Checkpoints
-----------

:meth:`repro.db.database.Database.enable_wal` on an already-populated
database writes a *checkpoint* first: the schema DDL, sharding DDL, and a
bulk :class:`InsertRecord` per table, all inside one committed transaction.
A checkpointed log is therefore self-contained — recovery of the log alone
reproduces the full database, not just the post-enable delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.db.schema import Column, ForeignKey
from repro.db.table import Row


class WalError(Exception):
    """Raised on invalid write-ahead-log operations."""


@dataclass(frozen=True)
class WalRecord:
    """Base class of every log record: the owning transaction id."""

    txn_id: int


@dataclass(frozen=True)
class CreateTableRecord(WalRecord):
    """DDL: ``create_table`` with its full column definition."""

    name: str
    columns: tuple[Column, ...]
    primary_key: Optional[str]
    foreign_keys: tuple[ForeignKey, ...]


@dataclass(frozen=True)
class ShardTableRecord(WalRecord):
    """DDL: ``shard_table`` — hash-shard ``name`` on ``key`` over N parts."""

    name: str
    key: str
    shards: int


@dataclass(frozen=True)
class InsertRecord(WalRecord):
    """Row inserts: the normalised stored form of every inserted row."""

    table: str
    rows: tuple[Row, ...]


@dataclass(frozen=True)
class UpdateRecord(WalRecord):
    """An UPDATE statement's physical changes: (row position, new values)."""

    table: str
    changes: tuple[tuple[int, dict], ...]


@dataclass(frozen=True)
class CommitRecord(WalRecord):
    """The durability boundary: ``txn_id``'s records are now recoverable."""


@dataclass(frozen=True)
class AbortRecord(WalRecord):
    """An explicit rollback; recovery skips the transaction regardless."""


@dataclass
class WalStats:
    """Counters over the life of one write-ahead log."""

    records: int = 0
    inserts: int = 0
    updates: int = 0
    ddl: int = 0
    commits: int = 0
    aborts: int = 0
    rows_logged: int = 0
    #: rough payload estimate: one cell (column value) = one unit.
    cells_logged: int = 0
    #: commits whose flush piggybacked on an earlier one (group commit).
    group_commits: int = 0

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "inserts": self.inserts,
            "updates": self.updates,
            "ddl": self.ddl,
            "commits": self.commits,
            "aborts": self.aborts,
            "rows_logged": self.rows_logged,
            "cells_logged": self.cells_logged,
            "group_commits": self.group_commits,
        }


class WriteAheadLog:
    """An append-only, in-memory sequence of typed :class:`WalRecord`\\ s.

    The log is the durable medium of the simulation: crashing the server is
    modelled as keeping only a prefix of it (:meth:`prefix`), and recovery
    replays the committed transactions of whatever survived.  Records are
    immutable and hold copies of row data, so a log can be replayed any
    number of times (the crash-at-every-prefix property test replays every
    prefix of one log).
    """

    def __init__(
        self,
        records: Optional[Sequence[WalRecord]] = None,
        *,
        flush_seconds: float = 0.0,
        group_window: float = 0.0,
    ) -> None:
        self.records: list[WalRecord] = []
        self.stats = WalStats()
        #: virtual cost of flushing a commit to the durable medium.
        self.flush_seconds = flush_seconds
        #: commits within this window of the last flush share it for free.
        self.group_window = group_window
        self._last_flush: Optional[float] = None
        if records:
            for record in records:
                self.append(record)

    # -- appending -------------------------------------------------------

    def append(self, record: WalRecord) -> int:
        """Append one record; returns its log sequence number (position)."""
        lsn = len(self.records)
        self.records.append(record)
        stats = self.stats
        stats.records += 1
        if isinstance(record, InsertRecord):
            stats.inserts += 1
            stats.rows_logged += len(record.rows)
            stats.cells_logged += sum(len(row) for row in record.rows)
        elif isinstance(record, UpdateRecord):
            stats.updates += 1
            stats.rows_logged += len(record.changes)
            stats.cells_logged += sum(
                len(values) for _, values in record.changes
            )
        elif isinstance(record, (CreateTableRecord, ShardTableRecord)):
            stats.ddl += 1
        elif isinstance(record, CommitRecord):
            stats.commits += 1
        elif isinstance(record, AbortRecord):
            stats.aborts += 1
        return lsn

    def commit_flush(self, now: float) -> float:
        """Virtual seconds this commit pays to flush the log at time ``now``.

        Models group commit: the first commit in a ``group_window`` pays the
        full ``flush_seconds`` and stamps the flush time; later commits
        inside the window piggyback on that flush for free (counted in
        ``stats.group_commits``).  With ``flush_seconds`` at 0 the log has
        no flush cost and this is always free.
        """
        if self.flush_seconds <= 0.0:
            return 0.0
        if (
            self._last_flush is not None
            and now - self._last_flush <= self.group_window
        ):
            self.stats.group_commits += 1
            return 0.0
        self._last_flush = now
        return self.flush_seconds

    # -- crash simulation and recovery views ------------------------------

    def prefix(self, length: int) -> "WriteAheadLog":
        """The log as it would survive a crash after ``length`` records.

        Records are immutable, so the prefix shares them with the live log.
        """
        if length < 0 or length > len(self.records):
            raise WalError(
                f"prefix length {length} out of range 0..{len(self.records)}"
            )
        return WriteAheadLog(self.records[:length])

    def committed_transactions(self) -> set[int]:
        """Transaction ids whose :class:`CommitRecord` made it into the log."""
        return {
            record.txn_id
            for record in self.records
            if isinstance(record, CommitRecord)
        }

    def committed_records(self) -> list[WalRecord]:
        """The committed subset of the log, in log order.

        This is what recovery replays: data/DDL records of committed
        transactions plus their commit records.  Uncommitted tails and
        explicitly aborted transactions are dropped.
        """
        committed = self.committed_transactions()
        return [
            record
            for record in self.records
            if record.txn_id in committed
            and not isinstance(record, AbortRecord)
        ]

    def max_txn_id(self) -> int:
        """The highest transaction id in the log (0 when empty)."""
        return max((record.txn_id for record in self.records), default=0)

    # -- introspection ---------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Expose the log's counters as a live ``wal`` view on ``registry``.

        The view re-reads :attr:`stats` on every render, so it stays
        current without the log pushing updates into the registry.
        """
        registry.register_view(
            "wal", lambda: {"records": len(self.records), **self.stats.as_dict()}
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog(records={len(self.records)}, "
            f"commits={self.stats.commits})"
        )


__all__ = [
    "AbortRecord",
    "CommitRecord",
    "CreateTableRecord",
    "InsertRecord",
    "ShardTableRecord",
    "UpdateRecord",
    "WalError",
    "WalRecord",
    "WalStats",
    "WriteAheadLog",
]
