"""Counters, gauges and histograms behind one registry.

A :class:`MetricsRegistry` owns fresh metrics (counters, gauges,
histograms) and absorbs counters kept elsewhere as *sources* — live
callables sampled at :meth:`~MetricsRegistry.collect` time — so one
``collect()`` yields a flat ``name -> value`` mapping.  The fleet
registers its scheduler's job accounting this way (:func:`scheduler_source`).

Histograms use fixed bucket bounds, which makes merging them
(:func:`repro.parallel.merge.merge_metrics`) associative and commutative —
the property the Hypothesis suite pins down, and the reason per-worker
histograms can be combined in any order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ObservabilityError
from repro.runtime.counters import SchedulerCounters

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BOUNDS",
    "scheduler_source",
]

#: Log-spaced bucket bounds [s] covering 1 us .. 100 s — wide enough for
#: a single kernel launch and a full 513^2 reconstruction alike.
DEFAULT_SECONDS_BOUNDS: tuple[float, ...] = tuple(
    10.0**e for e in range(-6, 3)
)


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1.0


class Gauge:
    """A point-in-time value (may move in both directions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise ObservabilityError(f"gauge {self.name!r}: non-finite value")
        self.value = float(value)


class Histogram:
    """Fixed-bound bucket histogram with count and sum.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ObservabilityError(f"histogram {name!r}: needs at least one bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r}: bounds must strictly increase"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ObservabilityError(f"histogram {self.name!r}: non-finite sample")
        # Bucket i holds values <= bounds[i]; the final bucket overflows.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q`` quantile (a
        conservative estimate; ``inf`` if it lands in the overflow)."""
        if not (0.0 <= q <= 1.0):
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        cumulative = 0
        for count, bound in zip(self.counts, self.bounds):
            cumulative += count
            # The extra cumulative > 0 guard only matters at q == 0
            # (target 0): skip empty leading buckets so the answer is
            # the minimum sample's bucket, not bounds[0].
            if cumulative >= target and cumulative > 0:
                return bound
        return math.inf

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named metrics plus live counter sources.

    Metric names are unique across kinds — asking for an existing name
    with a different kind is an error, asking with the same kind returns
    the existing instance (so call sites need no globals).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._sources: dict[str, Callable[[], Mapping[str, float]]] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds: Iterable[float]) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, bounds))

    def register_source(
        self, prefix: str, source: Callable[[], Mapping[str, float]]
    ) -> None:
        """Attach a live value source; its keys appear as ``prefix.key``.

        Sources are sampled at :meth:`collect` time, so the registry
        always reports the owners' *current* counters — absorption
        without ownership transfer.
        """
        if prefix in self._sources:
            raise ObservabilityError(f"metric source {prefix!r} already registered")
        self._sources[prefix] = source

    def collect(self) -> dict[str, float]:
        """Flat snapshot: own metrics, then each source under its prefix."""
        out: dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = float(metric.total)
                out[f"{name}.sum"] = metric.sum
                out[f"{name}.mean"] = metric.mean
            else:
                out[name] = metric.value
        for prefix, source in self._sources.items():
            for key, value in source().items():
                out[f"{prefix}.{key}"] = float(value)
        return out

    def to_dict(self) -> dict[str, Any]:
        """Structured dump (histograms keep their buckets)."""
        metrics: dict[str, Any] = {}
        for name, metric in self._metrics.items():
            metrics[name] = (
                metric.to_dict() if isinstance(metric, Histogram) else metric.value
            )
        return {"metrics": metrics, "collected": self.collect()}


# -- counter adapters ---------------------------------------------------------------
def scheduler_source(counters: SchedulerCounters) -> Callable[[], dict[str, float]]:
    """Live view of a :class:`SchedulerCounters` (job dispositions)."""

    def sample() -> dict[str, float]:
        return {
            "submitted": float(counters.submitted),
            "completed": float(counters.completed),
            "retries": float(counters.retries),
            "crashes": float(counters.crashes),
            "timeouts": float(counters.timeouts),
            "errors": float(counters.errors),
            "quarantined": float(counters.quarantined),
            "worker_restarts": float(counters.worker_restarts),
        }

    return sample
