"""The injectable observation-hook protocol.

:class:`~repro.efit.fitting.EfitSolver`,
:class:`~repro.batch.engine.BatchFitEngine` and
:class:`~repro.runtime.executor.OffloadExecutor` all accept a ``hooks``
object and call it at their phase boundaries.  The default,
:data:`NULL_HOOKS`, is a stateless singleton whose every method is a
no-op returning a shared context manager — the instrumented hot paths
pay one attribute access and nothing else when tracing is off.

:class:`TraceHooks` is the production implementation, bridging the hook
calls onto a :class:`~repro.obs.trace.TraceRecorder`:

* ``region(name)``    -> a ``with``-able span (host wall/virtual time);
* ``event(name)``     -> an instant event (Picard iteration attributes);
* ``kernel(name)``    -> an explicit-duration span (modeled device time);
* ``profiled_region(profiler, name)`` -> one span feeding **both** the
  recorder and a :class:`~repro.profiling.regions.RegionProfiler` from a
  single pair of clock reads, so the two report *identical* totals (the
  trace-vs-profiler agreement the golden tests pin down).

Anything implementing the same methods plus ``enabled`` can be injected
instead — a metrics-only sink, a live progress bar, a flight recorder
ring buffer.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.obs.trace import NULL_CONTEXT, SpanRecord, TraceRecorder
from repro.profiling.regions import RegionProfiler

__all__ = ["ObservationHooks", "NullHooks", "NULL_HOOKS", "TraceHooks"]


@runtime_checkable
class ObservationHooks(Protocol):
    """What the instrumented subsystems require of a hooks object."""

    enabled: bool

    def region(self, name: str, **attributes: Any):
        """Return a context manager spanning one named region."""

    def event(self, name: str, **attributes: Any) -> None:
        """Record one point-in-time event."""

    def kernel(
        self, name: str, *, start: float, seconds: float, **attributes: Any
    ) -> None:
        """Record one finished (possibly modeled) kernel execution."""

    def profiled_region(
        self, profiler: RegionProfiler, name: str, **attributes: Any
    ):
        """Return a context manager timing ``name`` into ``profiler`` and
        (when enabled) the trace with shared clock reads."""


class NullHooks:
    """The zero-overhead default: every method is a no-op."""

    __slots__ = ()

    enabled = False

    def region(self, name: str, **attributes: Any):
        return NULL_CONTEXT

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def kernel(
        self, name: str, *, start: float, seconds: float, **attributes: Any
    ) -> None:
        return None

    def profiled_region(
        self, profiler: RegionProfiler, name: str, **attributes: Any
    ):
        # Tracing off: the region is timed exactly as before hooks existed.
        return profiler.region(name)


NULL_HOOKS = NullHooks()


class _PairedRegion:
    """One region timed into a profiler *and* a trace recorder.

    Entry reads the clock once and hands the same timestamp to both
    sinks; exit does the same.  Both apply the identical child-
    subtraction rule, so their exclusive totals agree bit-for-bit — no
    cross-attribution of instrumentation overhead, which a naive pair of
    nested context managers cannot avoid.
    """

    __slots__ = ("_recorder", "_profiler", "_name", "_attributes", "_handle")

    def __init__(
        self,
        recorder: TraceRecorder,
        profiler: RegionProfiler,
        name: str,
        attributes: dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self._profiler = profiler
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> SpanRecord:
        now = self._recorder.clock.now()
        self._handle = self._recorder.span(self._name, start_at=now, **self._attributes)
        self._profiler.begin(self._name, now)
        return self._handle.record

    def __exit__(self, *exc: object) -> bool:
        now = self._recorder.clock.now()
        self._profiler.end(now)
        self._handle.close(now)
        return False


class TraceHooks:
    """Hooks that forward every call to a :class:`TraceRecorder`."""

    __slots__ = ("recorder",)

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    @property
    def enabled(self) -> bool:
        return self.recorder.enabled

    def region(self, name: str, **attributes: Any):
        return self.recorder.span(name, **attributes)

    def event(self, name: str, **attributes: Any) -> None:
        self.recorder.instant(name, **attributes)

    def kernel(
        self, name: str, *, start: float, seconds: float, **attributes: Any
    ) -> None:
        self.recorder.complete(name, start=start, duration=seconds, **attributes)

    def profiled_region(
        self, profiler: RegionProfiler, name: str, **attributes: Any
    ):
        if not self.recorder.enabled:
            return profiler.region(name)
        return _PairedRegion(self.recorder, profiler, name, attributes)
