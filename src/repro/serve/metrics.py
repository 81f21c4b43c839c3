"""The serving metric family, built on :class:`~repro.obs.metrics.MetricsRegistry`.

One :class:`ServeMetrics` owns every ``serve.*`` metric the streaming
service emits (names documented in ``docs/SERVING.md``) and keeps direct
handles to its histograms, so latency quantiles (p50/p95/p99) can be
computed without reaching into the registry's internals.  The service's
event loop (admission, shedding) and its solver thread (every solved
frame) share one instance; all underlying primitives mutate under the
GIL (counter ``inc`` / histogram ``observe`` are single bytecode-level
updates).
"""

from __future__ import annotations

import math
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServeMetrics", "LATENCY_BOUNDS", "ITERATION_BOUNDS"]

#: 1-2-5 series from 100 us to 10 s — fine enough that p50/p95/p99 of a
#: ms-scale serving workload land in distinct buckets (the default
#: decade-spaced bounds cannot separate them).
LATENCY_BOUNDS: tuple[float, ...] = (
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0, 2.0, 5.0, 10.0,
)

#: Fibonacci-ish iteration-count buckets: warm-started slices land in the
#: low single digits, cold solves in the tens — the split the
#: warm-vs-cold savings assertion reads off.
ITERATION_BOUNDS: tuple[float, ...] = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)


class ServeMetrics:
    """Every ``serve.*`` metric, registered once on its own registry."""

    def __init__(self) -> None:
        self.registry = reg = MetricsRegistry()
        #: Per-slice solve wall time [s].
        self.slice_seconds = reg.histogram("serve.slice_seconds", LATENCY_BOUNDS)
        #: Per-frame wait [s]: submit to the solve's start on the solver thread.
        self.queue_seconds = reg.histogram("serve.queue_seconds", LATENCY_BOUNDS)
        #: Picard iterations of warm-started slices.
        self.warm_iterations = reg.histogram(
            "serve.warm_iterations", ITERATION_BOUNDS
        )
        #: Picard iterations of cold-started slices.
        self.cold_iterations = reg.histogram(
            "serve.cold_iterations", ITERATION_BOUNDS
        )
        self.slices = reg.counter("serve.slices")
        self.deadline_misses = reg.counter("serve.deadline_misses")
        self.frames_shed = reg.counter("serve.frames_shed")
        #: Frames whose solve raised; ``serve.slices`` counts solved ones only.
        self.frames_failed = reg.counter("serve.frames_failed")
        self.streams_rejected = reg.counter("serve.streams_rejected")
        self.warm_start_fallbacks = reg.counter("serve.warm_start_fallbacks")
        self.streams_active = reg.gauge("serve.streams_active")

    def summary(self) -> dict[str, Any]:
        """The serving scoreboard: latency quantiles, misses, savings."""
        warm = self.warm_iterations
        cold = self.cold_iterations
        return {
            "slices": self.slices.value,
            "deadline_misses": self.deadline_misses.value,
            "frames_shed": self.frames_shed.value,
            "frames_failed": self.frames_failed.value,
            "streams_rejected": self.streams_rejected.value,
            "warm_start_fallbacks": self.warm_start_fallbacks.value,
            "latency_p50_s": self.slice_seconds.quantile(0.50),
            "latency_p95_s": self.slice_seconds.quantile(0.95),
            "latency_p99_s": self.slice_seconds.quantile(0.99),
            "queue_p95_s": self.queue_seconds.quantile(0.95),
            "warm_slices": warm.total,
            "cold_slices": cold.total,
            "warm_iterations_mean": warm.mean,
            "cold_iterations_mean": cold.mean,
            #: Positive when warm starts converge in fewer iterations —
            #: the serve-smoke CI lane asserts this stays > 0.
            "warm_iteration_savings": (
                cold.mean - warm.mean if warm.total and cold.total else 0.0
            ),
        }

    def to_dict(self) -> dict[str, Any]:
        """Structured export: the registry dump plus the scoreboard.

        Non-finite quantiles (overflow-bucket ``inf``) become ``None`` so
        the payload survives strict (``allow_nan=False``) JSON emission.
        """
        payload = self.registry.to_dict()
        payload["summary"] = {
            key: (
                None
                if isinstance(value, float) and not math.isfinite(value)
                else value
            )
            for key, value in self.summary().items()
        }
        return payload
