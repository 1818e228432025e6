"""Open-loop load generation on the virtual clock.

A closed-loop client (issue, wait, issue) can never expose queueing: its
arrival rate falls as latency rises.  The :class:`OpenLoopLoadGenerator`
issues requests at **Poisson arrival times that do not depend on
completions** — arrivals keep coming while earlier requests are still in
flight — which is what makes the admission queue's knee visible: below the
server's capacity latencies sit at the service time, above it queue waits
grow without bound.

Mechanics
---------

Arrivals advance the shared :class:`~repro.net.clock.VirtualClock` to each
request's arrival instant (`advance_to`, monotone); each request's own
virtual latency — network, server, and any admission-queue wait — is what
the connection's uncharged exchanges (``exchange`` / ``exchange_begin`` /
``exchange_commit``) return, so nothing advances the clock mid-flight and
concurrent in-flight requests cost max-latency rather than sum, exactly
like the async overlap path.  After the last completion the clock advances
to the makespan, giving an honest throughput (operations / makespan).

The mix is configurable: ``read_fraction`` of operations run ``read_sql``;
the rest run ``write_sql``, either autocommit or (``write_transaction=True``)
as a BEGIN/UPDATE/COMMIT transaction whose MVCC first-committer-wins
conflicts are tolerated and counted rather than crashing the run.
Latencies are reported as p50/p95/p99 (nearest-rank) overall and split by
operation class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from repro.db.mvcc import SerializationError
from repro.net.connection import SimulatedConnection
from repro.net.faults import AmbiguousCommitError, FaultError
from repro.obs.metrics import Histogram

#: statement parameters: a fixed tuple, or a callable drawing them per-op.
ParamSource = Union[Sequence[Any], Callable[[random.Random], Sequence[Any]]]


@dataclass
class LatencySummary:
    """Percentile summary of one latency population (virtual seconds).

    Percentiles are nearest-rank over the exact samples, computed by the
    shared :class:`repro.obs.metrics.Histogram` (``track_values=True``), so
    they match the traced latency histograms bit for bit.  An empty
    population has no percentiles: ``mean``/``p50``/``p95``/``p99``/``max``
    are ``None`` rather than a fake 0.0; a single sample is every
    percentile.
    """

    count: int = 0
    mean: Optional[float] = None
    p50: Optional[float] = None
    p95: Optional[float] = None
    p99: Optional[float] = None
    max: Optional[float] = None

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        return cls.from_histogram(Histogram.from_samples(samples))

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "LatencySummary":
        if histogram.count == 0:
            return cls()
        return cls(
            count=histogram.count,
            mean=histogram.mean,
            p50=histogram.percentile(0.50),
            p95=histogram.percentile(0.95),
            p99=histogram.percentile(0.99),
            max=histogram.max,
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass
class LoadReport:
    """Outcome of one open-loop run."""

    operations: int = 0
    reads: int = 0
    writes: int = 0
    #: MVCC first-committer-wins losses (transactional writes only).
    conflicts: int = 0
    #: requests rejected by the server (admission-queue timeouts, faults).
    rejected: int = 0
    #: virtual makespan: first arrival to last completion.
    duration: float = 0.0
    #: completed operations per virtual second.
    throughput: float = 0.0
    latency: LatencySummary = field(default_factory=LatencySummary)
    read_latency: LatencySummary = field(default_factory=LatencySummary)
    write_latency: LatencySummary = field(default_factory=LatencySummary)

    def as_dict(self) -> dict:
        return {
            "operations": self.operations,
            "reads": self.reads,
            "writes": self.writes,
            "conflicts": self.conflicts,
            "rejected": self.rejected,
            "duration": self.duration,
            "throughput": self.throughput,
            "latency": self.latency.as_dict(),
            "read_latency": self.read_latency.as_dict(),
            "write_latency": self.write_latency.as_dict(),
        }


class OpenLoopLoadGenerator:
    """Drive one connection with Poisson arrivals at a fixed offered rate.

    ``rate`` is the offered load in operations per virtual second —
    independent of how fast the server answers, which is the defining
    property of an open loop.  ``read_fraction`` of operations execute
    ``read_sql`` (prepared once); the rest execute ``write_sql``, wrapped
    in a transaction when ``write_transaction`` is set so MVCC conflict
    handling is exercised.  Parameters may be fixed tuples or callables
    receiving the run's seeded :class:`random.Random`.
    """

    def __init__(
        self,
        connection: SimulatedConnection,
        *,
        rate: float,
        operations: int,
        read_sql: str,
        read_params: ParamSource = (),
        write_sql: Optional[str] = None,
        write_params: ParamSource = (),
        read_fraction: float = 1.0,
        seed: int = 0,
        write_transaction: bool = False,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"offered rate must be positive, got {rate}")
        if operations < 0:
            raise ValueError(f"operations must be >= 0, got {operations}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        self.connection = connection
        self.rate = rate
        self.operations = operations
        self.read_sql = read_sql
        self.read_params = read_params
        self.write_sql = write_sql
        self.write_params = write_params
        self.read_fraction = read_fraction
        self.seed = seed
        self.write_transaction = write_transaction

    def run(self) -> LoadReport:
        """Execute the run; returns the throughput/latency report."""
        connection = self.connection
        clock = connection.clock
        rng = random.Random(self.seed)
        read_statement = connection.prepare(self.read_sql)
        write_statement = (
            connection.prepare(self.write_sql)
            if self.write_sql is not None
            else None
        )
        report = LoadReport()
        latencies = Histogram(track_values=True)
        read_latencies = Histogram(track_values=True)
        write_latencies = Histogram(track_values=True)
        start = clock.now
        arrival = start
        makespan = start
        for _ in range(self.operations):
            arrival += rng.expovariate(self.rate)
            clock.advance_to(arrival)
            is_read = write_statement is None or (
                rng.random() < self.read_fraction
            )
            conflicted = False
            try:
                if is_read:
                    elapsed = connection.exchange(
                        read_statement, self._resolve(self.read_params, rng)
                    )[1]
                elif self.write_transaction:
                    elapsed, conflicted = self._run_write_transaction(
                        write_statement, rng
                    )
                else:
                    elapsed = connection.exchange(
                        write_statement, self._resolve(self.write_params, rng)
                    )[1]
            except (FaultError, AmbiguousCommitError) as exc:
                # Rejected by the server (admission-queue timeout) or a
                # terminal injected fault: the exchange still burned
                # virtual time, but its latency does not enter the
                # completed-operation percentiles.
                report.rejected += 1
                makespan = max(makespan, arrival + exc.virtual_elapsed)
                continue
            report.operations += 1
            if conflicted:
                report.conflicts += 1
            if is_read:
                report.reads += 1
                read_latencies.observe(elapsed)
            else:
                report.writes += 1
                write_latencies.observe(elapsed)
            latencies.observe(elapsed)
            makespan = max(makespan, arrival + elapsed)
        clock.advance_to(makespan)
        report.duration = makespan - start
        if report.duration > 0:
            report.throughput = report.operations / report.duration
        report.latency = LatencySummary.from_histogram(latencies)
        report.read_latency = LatencySummary.from_histogram(read_latencies)
        report.write_latency = LatencySummary.from_histogram(write_latencies)
        return report

    def _run_write_transaction(
        self, statement, rng: random.Random
    ) -> tuple[float, bool]:
        """BEGIN / UPDATE / COMMIT as one operation: ``(elapsed, conflicted)``.

        A first-committer-wins loss counts as a completed (conflicted)
        operation whose latency includes the refused commit's round trip;
        any other failure abandons the transaction with a ROLLBACK and is
        rejected with the whole operation's virtual time.
        """
        connection = self.connection
        params = self._resolve(self.write_params, rng)
        elapsed = connection.exchange_begin()[1]
        try:
            elapsed += connection.exchange(statement, params)[1]
            elapsed += connection.exchange_commit()[1]
        except SerializationError as exc:
            return elapsed + exc.virtual_elapsed, True
        except (FaultError, AmbiguousCommitError) as exc:
            exc.virtual_elapsed += elapsed + connection.exchange_rollback()[1]
            raise
        return elapsed, False

    @staticmethod
    def _resolve(source: ParamSource, rng: random.Random) -> tuple:
        if callable(source):
            return tuple(source(rng))
        return tuple(source)


__all__ = [
    "LatencySummary",
    "LoadReport",
    "OpenLoopLoadGenerator",
    "ParamSource",
]
