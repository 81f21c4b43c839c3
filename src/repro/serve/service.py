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
* **deadline enforcement** — each frame's solve runs under the stream's
  per-slice budget inside a :class:`~repro.serve.session.ShotSession`,
  returning a partial result on expiry rather than blocking the stream;
* **fault containment** — a frame for another diagnostic set is refused
  at :meth:`~ReconstructionService.submit`; one the solver rejects
  mid-solve becomes a :class:`~repro.serve.frames.FrameFailure` on its
  stream (``serve.frames_failed``) and the stream goes on, cold, with
  the next frame;
* **observability** — every ``serve.*`` metric flows through one shared
  :class:`~repro.serve.metrics.ServeMetrics` /
  :class:`~repro.obs.metrics.MetricsRegistry`.

Solves run in a thread pool (the heavy GEMM/FFT kernels release the
GIL), one worker coroutine per stream, so K streams progress K solves
concurrently while the event loop stays responsive to submissions.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.batch.engine import BatchFitEngine
from repro.errors import AdmissionError, ReproError, ServeError
from repro.serve.frames import Frame, FrameFailure, SliceReport
from repro.serve.metrics import ServeMetrics
from repro.serve.session import ShotSession

__all__ = ["ReconstructionService", "ServeConfig", "StreamSummary"]


@dataclass(frozen=True)
class ServeConfig:
    """Service-level policy knobs."""

    #: Default per-slice solve budget [s] (``None`` = no deadline).
    deadline_s: float | None = 0.5
    #: Bounded per-stream queue depth; submissions past it shed oldest.
    queue_depth: int = 8
    #: Admission-control cap on concurrently open streams.
    max_streams: int = 8
    #: Chain warm starts across a stream's slices.
    warm_start: bool = True
    #: Thread-pool size shared by all stream workers (the concurrency of
    #: actual solves; streams beyond it interleave).
    executor_workers: int = 4

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ServeError("deadline_s must be positive (or None)")
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
    failures: tuple[FrameFailure, ...] = ()

    @property
    def deadline_misses(self) -> int:
        return sum(1 for r in self.reports if r.deadline_missed)

    @property
    def warm_slices(self) -> int:
        return sum(1 for r in self.reports if r.warm_start)


class _Stream:
    """One live stream: its session, bounded queue and worker task."""

    __slots__ = (
        "stream_id", "session", "pending", "depth", "wakeup",
        "closing", "reports", "failures", "shed", "task",
    )

    def __init__(self, stream_id: str, session: ShotSession, depth: int) -> None:
        self.stream_id = stream_id
        self.session = session
        #: (frame, enqueue-timestamp) pairs awaiting their solve.
        self.pending: deque[tuple[Frame, float]] = deque()
        self.depth = depth
        self.wakeup = asyncio.Event()
        self.closing = False
        self.reports: list[SliceReport] = []
        self.failures: list[FrameFailure] = []
        self.shed = 0
        self.task: asyncio.Task | None = None


class ReconstructionService:
    """Long-lived asyncio front end over a shared reconstruction engine.

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop`).  The per-grid state comes from ``engine`` — its
    solver and hooks are shared read-only across every stream's
    session, so opening a stream is O(1) in grid size.
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
            max_workers=self.config.executor_workers,
            thread_name_prefix="serve",
        )
        self._running = True
        self.engine.hooks.event(
            "serve_start",
            max_streams=self.config.max_streams,
            queue_depth=self.config.queue_depth,
            deadline_s=self.config.deadline_s or 0.0,
        )

    async def stop(self) -> dict[str, StreamSummary]:
        """Drain and close every open stream, then shut the pool down.

        Whatever a stream's worker raised, the service ends stopped —
        every stream retired, the pool shut down — and only then is the
        first such error re-raised.
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
        self.engine.hooks.event("serve_stop", streams_closed=len(summaries))
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
    async def open_stream(
        self, stream_id: str, *, deadline_s: float | None = None
    ) -> None:
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
        session = ShotSession(
            self.engine.solver,
            deadline_s=(
                deadline_s if deadline_s is not None else self.config.deadline_s
            ),
            warm_start=self.config.warm_start,
            metrics=self.metrics,
            clock=self.clock,
        )
        stream = _Stream(stream_id, session, self.config.queue_depth)
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

    # -- the per-stream worker -----------------------------------------------------
    async def _stream_worker(self, stream: _Stream) -> None:
        """Pull frames off the bounded queue and solve them in the pool."""
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
            queue_seconds = max(0.0, self.clock() - t_enqueue)
            try:
                report = await loop.run_in_executor(
                    self._executor, stream.session.reconstruct, frame, queue_seconds
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
