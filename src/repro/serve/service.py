"""The real-time streaming reconstruction service.

:class:`ReconstructionService` multiplexes many concurrent shot streams
over one :class:`~repro.batch.engine.BatchFitEngine`'s per-grid state
(Green tables, edge operator, solver factorisation,
:class:`~repro.efit.fitting.GridStatics`) — the engine is the capital
investment, the service is the traffic layer on top:

* **admission control** — at most ``max_streams`` live streams; opening
  one past capacity raises :class:`~repro.errors.AdmissionError` (and
  counts ``serve.streams_rejected``) instead of degrading everyone;
* **backpressure** — each stream owns a bounded frame queue with a
  shed-oldest policy: when a producer outruns its solver the *stale*
  slices are dropped (``serve.frames_shed``), because in real-time
  reconstruction the newest frame is the valuable one;
* **warm-start chaining** — a stream's converged slice seeds the next
  frame's :meth:`~repro.efit.fitting.EfitSolver.start_fit` (trusted
  warm-start mode: warm-up skipped, convergence allowed from the first
  iterate, guarded fallback on divergence); a partial, failed or cold-off
  slice seeds nothing, so the next frame solves cold;
* **deadline enforcement** — ``ServeConfig.deadline_s`` is checked
  between iterates; on expiry the partial state is sealed through
  ``finish(require_convergence=False)`` and reported as a miss.  The
  first iterate always runs, so even a missed slice carries a boundary
  and a flux map;
* **fault containment** — a frame for another diagnostic set is refused
  at :meth:`~ReconstructionService.submit`; one the solver rejects
  mid-solve becomes a :class:`~repro.serve.frames.FrameFailure` on its
  stream (``serve.frames_failed``) and the stream goes on, cold, with
  the next frame;
* **observability** — every ``serve.*`` metric flows through one shared
  :class:`~repro.serve.metrics.ServeMetrics` /
  :class:`~repro.obs.metrics.MetricsRegistry`.

Every frame's solve runs on one solver thread, which the service starts
and owns; the event loop stays responsive to submissions meanwhile.  Each
stream's coroutine keeps its queue and hands the solver thread one frame
at a time, so its warm chain keeps its order and streams interleave
frame by frame.  A frame's solve is
:meth:`~repro.efit.fitting.EfitSolver.picard` — the loop
:meth:`~repro.efit.fitting.EfitSolver.fit` runs — on the engine's solver,
so a slice that runs to convergence is bit-identical to that solver's
``fit`` with the same chain, for any number of streams (DESIGN.md §6),
and records into the solver's profiler and hooks.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.batch.engine import BatchFitEngine
from repro.errors import AdmissionError, ReproError, ServeError
from repro.serve.frames import Frame, FrameFailure, SliceReport
from repro.serve.metrics import ServeMetrics

__all__ = ["ReconstructionService", "ServeConfig", "StreamSummary"]


@dataclass(frozen=True)
class ServeConfig:
    """Service-level policy knobs."""

    #: Per-slice solve budget [s] (``None`` = no deadline): the one
    #: deadline every frame of every stream solves under.
    deadline_s: float | None = 0.5
    #: Bounded per-stream queue depth; submissions past it shed oldest.
    queue_depth: int = 8
    #: Admission-control cap on concurrently open streams.
    max_streams: int = 8
    #: Chain warm starts across a stream's slices.
    warm_start: bool = True
    #: Inert: every solve runs on the service's one solver thread.  Kept,
    #: still validated, only for callers that pass it.
    executor_workers: int = 4

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not 0.0 < self.deadline_s < math.inf:
            raise ServeError("deadline_s must be positive and finite (or None)")
        if self.queue_depth < 1:
            raise ServeError("queue_depth must be >= 1")
        if self.max_streams < 1:
            raise ServeError("max_streams must be >= 1")
        if self.executor_workers < 1:
            raise ServeError("executor_workers must be >= 1")


@dataclass(frozen=True)
class StreamSummary:
    """What :meth:`ReconstructionService.close_stream` returns."""

    stream_id: str
    #: Solved frames only, in solve order.
    reports: tuple[SliceReport, ...]
    frames_shed: int
    #: Frames the solver rejected, in solve order.
    failures: tuple[FrameFailure, ...]

    @property
    def deadline_misses(self) -> int:
        return sum(1 for r in self.reports if r.deadline_missed)

    @property
    def warm_slices(self) -> int:
        return sum(1 for r in self.reports if r.warm_start)


class _Stream:
    """One live stream: its bounded queue, warm chain and worker task."""

    __slots__ = (
        "stream_id", "pending", "depth", "wakeup", "closing",
        "reports", "failures", "shed", "task", "prev_psi",
    )

    def __init__(self, stream_id: str, depth: int) -> None:
        self.stream_id = stream_id
        #: (frame, enqueue-timestamp) pairs awaiting their solve.
        self.pending: deque[tuple[Frame, float]] = deque()
        self.depth = depth
        self.wakeup = asyncio.Event()
        self.closing = False
        self.reports: list[SliceReport] = []
        self.failures: list[FrameFailure] = []
        self.shed = 0
        self.task: asyncio.Task | None = None
        #: The last converged slice's psi, which seeds the next frame.
        #: Only the solver thread touches it.
        self.prev_psi: np.ndarray | None = None


class ReconstructionService:
    """Long-lived asyncio front end over a shared reconstruction engine.

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop`).  The per-grid state comes from ``engine`` — its
    solver is the one every stream's frames solve on, so opening a
    stream is O(1) in grid size.  ``clock`` (monotonic seconds) times
    the queue, the solve and the deadline; it is injectable so deadline
    behaviour is testable against a fake clock.
    """

    def __init__(
        self,
        engine: BatchFitEngine,
        *,
        config: ServeConfig | None = None,
        metrics: ServeMetrics | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.clock = clock
        self._streams: dict[str, _Stream] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._running = False

    # -- lifecycle -----------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise ServeError("service already started")
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-solver"
        )
        self._running = True
        self.engine.solver.hooks.event(
            "serve_start",
            max_streams=self.config.max_streams,
            queue_depth=self.config.queue_depth,
            deadline_s=self.config.deadline_s or 0.0,
        )

    async def stop(self) -> dict[str, StreamSummary]:
        """Drain and close every open stream, then stop the solver thread.

        Whatever a stream's worker raised, the service ends stopped —
        every stream retired, the solver thread stopped — and only then
        is the first such error re-raised.
        """
        if not self._running:
            return {}
        summaries: dict[str, StreamSummary] = {}
        first_error: Exception | None = None
        try:
            for sid in list(self._streams):
                try:
                    summaries[sid] = await self.close_stream(sid)
                except Exception as exc:  # a dead worker; keep closing the rest
                    first_error = first_error or exc
        finally:
            # Streams are left only if stop() itself was cancelled mid-drain.
            for stream in self._streams.values():
                assert stream.task is not None
                stream.task.cancel()
            self._streams.clear()
            self.metrics.streams_active.set(0.0)
            assert self._executor is not None
            self._executor.shutdown(wait=True)
            self._executor = None
            self._running = False
        self.engine.solver.hooks.event("serve_stop", streams_closed=len(summaries))
        if first_error is not None:
            raise first_error
        return summaries

    async def __aenter__(self) -> "ReconstructionService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> bool:
        await self.stop()
        return False

    def _require_running(self) -> None:
        if not self._running:
            raise ServeError("service is not running (use 'async with' or start())")

    # -- the stream lifecycle ------------------------------------------------------
    async def open_stream(self, stream_id: str) -> None:
        """Admit one new shot stream (or refuse it at capacity)."""
        self._require_running()
        if stream_id in self._streams:
            raise ServeError(f"stream {stream_id!r} already open")
        if len(self._streams) >= self.config.max_streams:
            self.metrics.streams_rejected.inc()
            raise AdmissionError(
                f"stream {stream_id!r} refused: {len(self._streams)} of "
                f"{self.config.max_streams} stream slots in use"
            )
        stream = _Stream(stream_id, self.config.queue_depth)
        stream.task = asyncio.create_task(
            self._stream_worker(stream), name=f"serve-{stream_id}"
        )
        self._streams[stream_id] = stream
        self.metrics.streams_active.set(float(len(self._streams)))

    async def submit(self, stream_id: str, frame: Frame) -> bool:
        """Enqueue one frame; returns False when an older frame was shed.

        The queue is bounded at ``queue_depth``: a full queue drops its
        *oldest* pending frame to make room (counted in
        ``serve.frames_shed``) — under sustained overload the stream
        keeps reconstructing the freshest data instead of falling ever
        further behind real time.
        """
        self._require_running()
        stream = self._stream(stream_id)
        if stream.closing:
            raise ServeError(f"stream {stream_id!r} is closing")
        if frame.stream_id != stream_id:
            raise ServeError(
                f"frame {frame.index} of stream {frame.stream_id!r} submitted to "
                f"stream {stream_id!r}"
            )
        expected = self.engine.solver.diagnostics.n_measurements
        if frame.measurements.n_measurements != expected:
            raise ServeError(
                f"frame {frame.index} of stream {stream_id!r} carries "
                f"{frame.measurements.n_measurements} measurements, the "
                f"engine's diagnostic set has {expected}"
            )
        accepted = True
        if len(stream.pending) >= stream.depth:
            stream.pending.popleft()
            stream.shed += 1
            self.metrics.frames_shed.inc()
            accepted = False
        stream.pending.append((frame, self.clock()))
        stream.wakeup.set()
        return accepted

    async def close_stream(self, stream_id: str) -> StreamSummary:
        """Drain the stream's remaining frames and retire it."""
        self._require_running()
        stream = self._stream(stream_id)
        stream.closing = True
        stream.wakeup.set()
        assert stream.task is not None
        try:
            await stream.task
        finally:
            # Retired even if its worker died: a stream that can never be
            # removed would fail every later stop().
            del self._streams[stream_id]
            self.metrics.streams_active.set(float(len(self._streams)))
        return StreamSummary(
            stream_id=stream_id,
            reports=tuple(stream.reports),
            frames_shed=stream.shed,
            failures=tuple(stream.failures),
        )

    def _stream(self, stream_id: str) -> _Stream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise ServeError(f"unknown stream {stream_id!r}") from None

    # -- the per-stream worker and the solve -------------------------------------
    async def _stream_worker(self, stream: _Stream) -> None:
        """Pull frames off the bounded queue and solve them, one at a
        time, on the solver thread."""
        loop = asyncio.get_running_loop()
        while True:
            if not stream.pending:
                if stream.closing:
                    return
                stream.wakeup.clear()
                # Re-check under the cleared event: a submit/close that
                # raced the clear has already set it again.
                if stream.pending or stream.closing:
                    continue
                await stream.wakeup.wait()
                continue
            frame, t_enqueue = stream.pending.popleft()
            try:
                report = await loop.run_in_executor(
                    self._executor, self._solve, stream, frame, t_enqueue
                )
            except ReproError as exc:
                # The solver rejected this frame's data (or gave up on
                # it): the slice is lost, the frames behind it are not.
                stream.failures.append(
                    FrameFailure(
                        stream_id=stream.stream_id,
                        index=frame.index,
                        error=type(exc).__name__,
                        message=str(exc),
                    )
                )
                self.metrics.frames_failed.inc()
                continue
            stream.reports.append(report)

    def _solve(self, stream: _Stream, frame: Frame, t_enqueue: float) -> SliceReport:
        """One frame's solve under the deadline, on the solver thread;
        never raises on a miss.

        A frame the solver rejects raises its :class:`ReproError` and
        leaves the stream's warm chain reset: the next frame solves cold.
        """
        solver = self.engine.solver
        metrics = self.metrics
        deadline = self.config.deadline_s
        t0 = self.clock()
        # The wait ends here, not at dequeue: it includes the wait for
        # the solver thread behind other streams' frames.
        queue_seconds = max(0.0, t0 - t_enqueue)
        # The chain is taken, not read: only a slice that converges puts
        # one back, so neither a raise nor a partial result seeds the next.
        prev_psi, stream.prev_psi = stream.prev_psi, None
        state = solver.start_fit(frame.measurements, psi_initial=prev_psi)
        missed = False
        # The stop policy: leave the loop once the budget is spent.  The
        # first iterate runs before the first check, so a missed slice
        # still has a boundary.
        for _ in solver.picard([state]):
            if not state.converged and deadline is not None and self.clock() - t0 >= deadline:
                missed = True
                break
        result = solver.finish(state, require_convergence=False)
        solve_seconds = self.clock() - t0

        metrics.slices.inc()
        metrics.slice_seconds.observe(solve_seconds)
        metrics.queue_seconds.observe(queue_seconds)
        if missed:
            metrics.deadline_misses.inc()
        if result.warm_start:
            metrics.warm_iterations.observe(result.iterations)
        else:
            metrics.cold_iterations.observe(result.iterations)
            if prev_psi is not None:
                # We offered a warm start but the solver revoked it (the
                # divergence guard) or refused it (boundary probe failed).
                metrics.warm_start_fallbacks.inc()
        if result.converged and self.config.warm_start:
            # Chain the *converged* psi only: a deadline-starved stream
            # degrades to known-good cold solves rather than compound a
            # half-converged state.
            stream.prev_psi = result.psi
        return SliceReport(
            stream_id=frame.stream_id,
            index=frame.index,
            result=result,
            iterations=result.iterations,
            warm_start=result.warm_start,
            deadline_missed=missed,
            solve_seconds=solve_seconds,
            queue_seconds=queue_seconds,
        )
