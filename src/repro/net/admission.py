"""Server-side admission control on the virtual clock.

Without admission control the simulated server has infinite capacity: any
number of in-flight requests overlap freely, so ``AsyncEngine`` fleets scale
without bound.  :class:`AdmissionController` bounds that — it models a
server with ``limit`` execution slots:

* Each admitted request occupies one slot for its service time.  A request
  arriving while every slot is busy **waits in queue** until the earliest
  slot frees; the wait is charged to the virtual clock as part of the
  request's latency (and surfaced in ``ConnectionStats.queue_time``), so
  overlap accounting saturates at the limit instead of scaling unboundedly.
* The queue is FIFO in virtual time: slots are modelled as free-at times
  and an arriving request takes the earliest-free slot, so requests drain
  in arrival order.  ``priority_slots`` reserves the N earliest-freeing
  slots for priority requests — normal requests queue behind the reserve,
  priority requests (``admit(..., priority=True)``) may use any slot.
* ``per_connection`` caps one connection's in-flight requests the same way,
  so a single aggressive client cannot monopolise the server.
* ``queue_timeout`` bounds the queue wait: a request that would wait longer
  is rejected with the existing :class:`repro.net.faults.RequestTimeoutError`
  fault type (carrying ``virtual_elapsed``), *without* occupying a slot.
  Queue timeouts are server rejections, not injected network faults, so
  they do not disturb the ``FaultStats`` invariant.

Everything is pure virtual-time bookkeeping — no threads, no real queue —
which keeps the sequential sync path free (a sequential client's clock is
always past every slot's free time) while concurrent async clients and
open-loop load generators observe real queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.faults import RequestTimeoutError


class AdmissionError(Exception):
    """Raised on invalid admission-controller configuration."""


@dataclass
class AdmissionStats:
    """Counters for one admission controller."""

    admitted: int = 0
    #: admitted requests that had to wait for a slot.
    queued: int = 0
    #: total virtual seconds spent waiting in queue.
    queue_seconds: float = 0.0
    #: requests rejected because their queue wait exceeded the timeout.
    queue_timeouts: int = 0
    #: highest number of simultaneously busy slots observed.
    peak_in_flight: int = 0

    def reset(self) -> None:
        self.admitted = 0
        self.queued = 0
        self.queue_seconds = 0.0
        self.queue_timeouts = 0
        self.peak_in_flight = 0

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "queue_seconds": self.queue_seconds,
            "queue_timeouts": self.queue_timeouts,
            "peak_in_flight": self.peak_in_flight,
        }


class AdmissionController:
    """A concurrency limit with a FIFO/priority wait queue in virtual time.

    Shared by every connection of one engine.  ``admit`` is the whole
    protocol: given a request's arrival time and service duration it returns
    the queue wait (0.0 when a slot is free), books the slot, and updates
    the counters — or raises :class:`RequestTimeoutError` when the wait
    would exceed ``queue_timeout``.
    """

    def __init__(
        self,
        limit: int,
        *,
        per_connection: Optional[int] = None,
        queue_timeout: Optional[float] = None,
        priority_slots: int = 0,
    ) -> None:
        if limit < 1:
            raise AdmissionError(
                f"admission limit must be at least 1, got {limit}"
            )
        if per_connection is not None and per_connection < 1:
            raise AdmissionError(
                f"per-connection limit must be at least 1, "
                f"got {per_connection}"
            )
        if not 0 <= priority_slots < limit:
            raise AdmissionError(
                f"priority_slots must be in [0, limit), got {priority_slots}"
            )
        self.limit = limit
        self.per_connection = per_connection
        self.queue_timeout = queue_timeout
        self.priority_slots = priority_slots
        #: virtual time each server slot becomes free.
        self._slots: list[float] = [0.0] * limit
        #: connection key -> per-connection slot free times.
        self._connection_slots: dict = {}
        self.stats = AdmissionStats()

    def admit(
        self,
        start: float,
        service_seconds: float,
        *,
        connection=None,
        priority: bool = False,
    ) -> float:
        """Admit one request arriving at ``start``; returns its queue wait.

        The request begins service at ``start + wait`` and occupies its
        slot (and, when ``per_connection`` is set, one of the connection's
        slots) until ``start + wait + service_seconds``.  Raises
        :class:`RequestTimeoutError` — without occupying anything — when
        the wait would exceed ``queue_timeout``.
        """
        slots = self._slots
        order = sorted(range(len(slots)), key=slots.__getitem__)
        if priority or not self.priority_slots:
            index = order[0]
        else:
            # The priority reserve holds back the earliest-freeing slots;
            # normal traffic queues for the next one after the reserve.
            index = order[min(self.priority_slots, len(order) - 1)]
        begin = max(start, slots[index])
        connection_slots = None
        connection_index = 0
        if self.per_connection is not None and connection is not None:
            connection_slots = self._connection_slots.setdefault(
                connection, [0.0] * self.per_connection
            )
            connection_index = min(
                range(len(connection_slots)),
                key=connection_slots.__getitem__,
            )
            begin = max(begin, connection_slots[connection_index])
        wait = begin - start
        if self.queue_timeout is not None and wait > self.queue_timeout:
            self.stats.queue_timeouts += 1
            timeout = RequestTimeoutError(
                f"request timed out after {self.queue_timeout}s in the "
                f"admission queue (estimated wait {wait:.3f}s)",
                cost=self.queue_timeout,
            )
            timeout.virtual_elapsed = self.queue_timeout
            raise timeout
        done = begin + service_seconds
        slots[index] = done
        if connection_slots is not None:
            connection_slots[connection_index] = done
        stats = self.stats
        stats.admitted += 1
        if wait > 0.0:
            stats.queued += 1
            stats.queue_seconds += wait
        in_flight = sum(1 for free in slots if free > begin)
        if in_flight > stats.peak_in_flight:
            stats.peak_in_flight = in_flight
        return wait

    def release_connection(self, connection) -> None:
        """Forget a closed connection's per-connection slot bookkeeping."""
        self._connection_slots.pop(connection, None)

    def reset(self) -> None:
        """Zero the slots and counters (fresh experiment run)."""
        self._slots = [0.0] * self.limit
        self._connection_slots.clear()
        self.stats.reset()

    def register_metrics(self, registry) -> None:
        """Expose the controller's counters as a live ``admission`` view."""
        registry.register_view("admission", self.as_dict)

    def as_dict(self) -> dict:
        """Configuration plus counters (the ``admission`` metrics view)."""
        return {
            "enabled": True,
            "limit": self.limit,
            "per_connection": self.per_connection,
            "queue_timeout": self.queue_timeout,
            "priority_slots": self.priority_slots,
            **self.stats.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(limit={self.limit}, "
            f"admitted={self.stats.admitted}, queued={self.stats.queued})"
        )


__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionStats",
]
