"""Structured span/event tracing of a reconstruction run.

The paper's entire evaluation is built from ``omp_get_wtime()`` regions
around ``fit_``'s callees (Figures 1/6, Tables 1/2/6/7).
:class:`TraceRecorder` is the machine-readable generalisation: every
region becomes a *span* with a monotonic start timestamp, a duration, a
nesting depth and free-form attributes (Picard iteration, chi^2, grid
size, modeled HBM bytes, ...); point-in-time facts become *instant
events*.  Exporters in :mod:`repro.obs.export` turn the record stream
into a Chrome-trace JSON (``about:tracing`` / Perfetto) or JSONL.

Design constraints:

* **Zero overhead when disabled** — a disabled recorder hands out one
  shared no-op context manager and never touches the clock;
* **Thread safe** — batch workers trace concurrently; each thread keeps
  its own span stack, the record list is lock-protected, and every
  record carries a stable small thread id;
* **Profiler-compatible** — :meth:`TraceRecorder.region_totals` computes
  *exclusive* per-name totals with exactly the child-subtraction rule of
  :class:`~repro.profiling.regions.RegionProfiler`, so trace totals and
  profiler reports agree on the same run.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from repro.errors import ObservabilityError
from repro.profiling.timer import Clock, WallClock

__all__ = [
    "SpanRecord",
    "EventRecord",
    "TraceRecorder",
    "NULL_CONTEXT",
]


class SpanRecord:
    """One timed region: a named interval with nesting and attributes."""

    __slots__ = (
        "name",
        "category",
        "start",
        "duration",
        "child_duration",
        "thread_id",
        "depth",
        "parent_index",
        "index",
        "attributes",
    )

    kind = "span"

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        thread_id: int,
        depth: int,
        parent_index: int | None,
        index: int,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.duration: float | None = None  # open until the span closes
        self.child_duration = 0.0
        self.thread_id = thread_id
        self.depth = depth
        self.parent_index = parent_index
        self.index = index
        self.attributes = attributes

    @property
    def closed(self) -> bool:
        return self.duration is not None

    @property
    def exclusive(self) -> float:
        """Duration minus time spent in child spans (profiler semantics)."""
        if self.duration is None:
            raise ObservabilityError(f"span {self.name!r} is still open")
        return self.duration - self.child_duration

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "span",
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "exclusive": self.exclusive if self.closed else None,
            "thread_id": self.thread_id,
            "depth": self.depth,
            "parent": self.parent_index,
            "index": self.index,
            "attributes": dict(self.attributes),
        }


class EventRecord:
    """One instant event: a named timestamp with attributes."""

    __slots__ = ("name", "timestamp", "thread_id", "parent_index", "index", "attributes")

    kind = "event"

    def __init__(
        self,
        name: str,
        timestamp: float,
        thread_id: int,
        parent_index: int | None,
        index: int,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.timestamp = timestamp
        self.thread_id = thread_id
        self.parent_index = parent_index
        self.index = index
        self.attributes = attributes

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "event",
            "name": self.name,
            "timestamp": self.timestamp,
            "thread_id": self.thread_id,
            "parent": self.parent_index,
            "index": self.index,
            "attributes": dict(self.attributes),
        }


class _NullContext:
    """The shared no-op context manager of disabled recorders/hooks."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_CONTEXT = _NullContext()


class _SpanHandle:
    """Context manager closing one open :class:`SpanRecord`."""

    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "TraceRecorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self._record = record

    @property
    def record(self) -> SpanRecord:
        return self._record

    def close(self, now: float | None = None) -> None:
        """Close the span at ``now`` (default: read the recorder clock)."""
        self._recorder._end_span(self._record, now)

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, *exc: object) -> bool:
        self._recorder._end_span(self._record)
        return False


class TraceRecorder:
    """Accumulates span/event records on an injectable clock.

    Parameters
    ----------
    clock:
        Any :class:`~repro.profiling.timer.Clock`; defaults to the wall
        clock (``time.perf_counter``), the ``omp_get_wtime()`` analog.
        Property tests and the simulated executors inject a
        :class:`~repro.profiling.timer.VirtualClock`.
    enabled:
        ``False`` builds a recorder whose :meth:`span` returns one shared
        no-op context manager and whose :meth:`instant`/:meth:`complete`
        return immediately — the zero-overhead-off switch.
    """

    def __init__(self, clock: Clock | None = None, *, enabled: bool = True) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.enabled = enabled
        self._records: list[SpanRecord | EventRecord] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._thread_ids: dict[int, int] = {}

    # -- bookkeeping ---------------------------------------------------------------
    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _thread_id(self) -> int:
        """Stable small integer id of the calling thread (0, 1, 2, ...)."""
        ident = threading.get_ident()
        tid = self._thread_ids.get(ident)
        if tid is None:
            # Registration is rare (once per thread); take the lock.
            with self._lock:
                tid = self._thread_ids.setdefault(ident, len(self._thread_ids))
        return tid

    def _append(self, record: SpanRecord | EventRecord) -> None:
        with self._lock:
            record.index = len(self._records)
            self._records.append(record)

    # -- recording API -------------------------------------------------------------
    def span(self, name: str, start_at: float | None = None, **attributes: Any):
        """Open a ``region`` span; use as ``with recorder.span("steps_") as s:``.

        The yielded :class:`SpanRecord` is live — handlers may add result
        attributes to ``s.attributes`` before the span closes.
        ``start_at`` supplies an explicit start timestamp (used by the
        paired profiler+trace instrumentation to share one clock read).
        """
        if not self.enabled:
            return NULL_CONTEXT
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = SpanRecord(
            name=name,
            category="region",
            start=0.0,
            thread_id=self._thread_id(),
            depth=len(stack),
            parent_index=parent.index if parent is not None else None,
            index=-1,
            attributes=attributes,
        )
        self._append(record)
        stack.append(record)
        handle = _SpanHandle(self, record)
        # Clock read last: the recorder's own bookkeeping stays outside
        # the span (it lands in the parent's exclusive time instead of
        # polluting this span's duration).
        record.start = self.clock.now() if start_at is None else start_at
        return handle

    def _end_span(self, record: SpanRecord, now: float | None = None) -> None:
        if now is None:
            now = self.clock.now()  # first: keep teardown out of the span
        stack = self._stack()
        if not stack or stack[-1] is not record:
            raise ObservabilityError(
                f"span {record.name!r} closed out of order (mismatched nesting)"
            )
        stack.pop()
        elapsed = now - record.start
        if elapsed < 0.0:
            raise ObservabilityError(
                f"span {record.name!r} has negative duration (clock went backwards)"
            )
        record.duration = elapsed
        if stack:
            stack[-1].child_duration += elapsed

    def instant(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event at the current clock reading."""
        if not self.enabled:
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = EventRecord(
            name=name,
            timestamp=self.clock.now(),
            thread_id=self._thread_id(),
            parent_index=parent.index if parent is not None else None,
            index=-1,
            attributes=attributes,
        )
        self._append(record)

    def complete(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        **attributes: Any,
    ) -> None:
        """Record an already-finished ``kernel`` span with an explicit duration.

        The simulated executors use this: modeled kernel time advances a
        virtual clock, so the span's extent is known at record time.  The
        span nests under the caller's currently-open span (if any) but
        does **not** contribute to its ``child_duration`` — modeled device
        time and measured host time live on different clocks.
        """
        if not self.enabled:
            return
        if duration < 0.0:
            raise ObservabilityError(f"span {name!r} has negative duration")
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = SpanRecord(
            name=name,
            category="kernel",
            start=start,
            thread_id=self._thread_id(),
            depth=len(stack),
            parent_index=parent.index if parent is not None else None,
            index=-1,
            attributes=attributes,
        )
        record.duration = duration
        self._append(record)

    # -- inspection ----------------------------------------------------------------
    @property
    def records(self) -> tuple[SpanRecord | EventRecord, ...]:
        """Snapshot of every record, in start order."""
        with self._lock:
            return tuple(self._records)

    def spans(self, *, category: str | None = None) -> Iterator[SpanRecord]:
        """Closed spans, optionally filtered by category."""
        for record in self.records:
            if isinstance(record, SpanRecord) and record.closed:
                if category is None or record.category == category:
                    yield record

    def events(self) -> Iterator[EventRecord]:
        for record in self.records:
            if isinstance(record, EventRecord):
                yield record

    def region_totals(self, *, category: str = "region") -> dict[str, float]:
        """Per-name **exclusive** totals — the pie-chart quantity.

        Matches :meth:`~repro.profiling.regions.RegionProfiler.report`
        totals when both instrument the same regions.
        """
        totals: dict[str, float] = {}
        for span in self.spans(category=category):
            totals[span.name] = totals.get(span.name, 0.0) + span.exclusive
        return totals

    def reset(self) -> None:
        """Drop every record.  Only valid with no open spans on the
        calling thread (other threads' stacks cannot be safely cleared)."""
        if self._stack():
            raise ObservabilityError("cannot reset a recorder with open spans")
        with self._lock:
            self._records.clear()
            self._thread_ids.clear()
