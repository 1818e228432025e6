"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

The :class:`MetricsRegistry` is the single registration point for runtime
metrics, and ``Engine.metrics()`` the only counter surface.  Subsystems
either own first-class instruments (counters, gauges, histograms created
through the registry) or expose their own stat dicts as *views* — zero-cost
callbacks evaluated only when a snapshot is taken
(``registry.views[name]()`` for one, ``as_dict()["views"]`` for all); a
subsystem that is not configured registers no view.

Histograms use fixed bucket upper bounds (Prometheus-style ``le`` buckets)
for export.  Percentiles over bucketed data are only as precise as the
bucket boundaries, so a histogram may additionally keep its raw samples
(``track_values=True``) to answer exact nearest-rank percentiles — the
:class:`~repro.workloads.loadgen.LatencySummary` path uses this so the
load generator's reported p50/p95/p99 stay bit-identical to the previous
sorted-samples implementation.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

#: Default latency buckets (virtual seconds): geometric 1-2.5-5 decades
#: spanning microseconds to minutes, the range the simulated networks and
#: admission queues actually produce.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value: set directly or backed by a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self._value = value

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value


class Histogram:
    """Fixed-bucket histogram with optional exact-percentile sample store.

    ``observe`` places each value in the first bucket whose upper bound is
    >= the value (everything above the last bound lands in the implicit
    ``+inf`` bucket).  ``percentile`` answers nearest-rank quantiles: exact
    when ``track_values`` is set, otherwise the upper bound of the bucket
    containing the nearest-rank sample (the max for the ``+inf`` bucket).

    Empty histograms return ``None`` from ``percentile``/``max``/``mean``
    rather than raising; a single sample is every percentile.
    """

    def __init__(
        self,
        buckets: Optional[Sequence[float]] = None,
        *,
        track_values: bool = False,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._values: Optional[list] = [] if track_values else None
        self._sorted = True

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], buckets: Optional[Sequence[float]] = None
    ) -> "Histogram":
        histogram = cls(buckets, track_values=True)
        for sample in samples:
            histogram.observe(sample)
        return histogram

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        index = self._bucket_index(value)
        self.bucket_counts[index] += 1
        if self._values is not None:
            self._values.append(value)
            self._sorted = False

    def _bucket_index(self, value: float) -> int:
        # Binary search for the first bound >= value.
        low, high = 0, len(self.bounds)
        while low < high:
            mid = (low + high) // 2
            if self.bounds[mid] < value:
                low = mid + 1
            else:
                high = mid
        return low

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    def percentile(self, quantile: float) -> Optional[float]:
        """Nearest-rank percentile; ``None`` for an empty population."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if self.count == 0:
            return None
        # Nearest-rank: smallest sample with at least ``quantile`` of the
        # population at or below it.
        position = max(1, math.ceil(quantile * self.count))
        if self._values is not None:
            if not self._sorted:
                self._values.sort()
                self._sorted = True
            return self._values[min(position, self.count) - 1]
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= position:
                if index == len(self.bounds):
                    return self._max
                return self.bounds[index]
        return self._max  # unreachable; defensive

    def as_dict(self) -> dict:
        buckets = {}
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            if cumulative:  # omit the empty low tail for readable output
                buckets[f"le_{bound:g}"] = cumulative
        buckets["le_inf"] = self.count
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create instrument store plus callback-backed subsystem views.

    Instruments registered twice under one name must agree on kind; a
    name collision across kinds is a programming error and raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._views: Dict[str, Callable[[], dict]] = {}

    def counter(self, name: str) -> Counter:
        self._check_unique(name, self._counters)
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        self._check_unique(name, self._gauges)
        return self._gauges.setdefault(name, Gauge(name, fn))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        *,
        track_values: bool = False,
    ) -> Histogram:
        self._check_unique(name, self._histograms)
        return self._histograms.setdefault(
            name, Histogram(buckets, track_values=track_values)
        )

    def register_view(self, name: str, fn: Callable[[], dict]) -> None:
        """Expose a subsystem's stats dict under ``name``, evaluated lazily."""
        self._views[name] = fn

    @property
    def views(self) -> Dict[str, Callable[[], dict]]:
        """The registered view callbacks, keyed by name."""
        return self._views

    def _check_unique(self, name: str, owner: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not owner and name in kind:
                raise ValueError(f"metric {name!r} already registered")

    def summary(self) -> dict:
        return {
            "counters": len(self._counters),
            "gauges": len(self._gauges),
            "histograms": len(self._histograms),
            "views": len(self._views),
        }

    def as_dict(self) -> dict:
        """Full snapshot: instruments plus evaluated subsystem views."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
            "views": {name: fn() for name, fn in sorted(self._views.items())},
        }


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
