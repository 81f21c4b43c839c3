"""Frame and per-slice report records of the streaming service.

A :class:`Frame` is one diagnostic time slice of a live shot as the
acquisition system would hand it over: the stream it belongs to, its
slice index and the measurement vector (the per-slice budget is the
service's ``ServeConfig.deadline_s``).
A :class:`SliceReport` is what the service hands back — the (possibly
partial) reconstruction plus the latency/deadline/warm-start bookkeeping
the real-time literature reports.  A :class:`FrameFailure` stands in for
the report of a frame the solver rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.efit.fitting import FitResult
from repro.efit.measurements import MeasurementSet
from repro.errors import ServeError

__all__ = ["Frame", "SliceReport", "FrameFailure"]


@dataclass(frozen=True)
class Frame:
    """One time slice of one shot stream entering the service."""

    #: Stream this frame belongs to (one stream per live shot).
    stream_id: str
    #: Monotonically increasing slice index within the stream.
    index: int
    #: The slice's diagnostic data.
    measurements: MeasurementSet

    def __post_init__(self) -> None:
        if not self.stream_id:
            raise ServeError("frame needs a non-empty stream_id")
        if self.index < 0:
            raise ServeError("frame index must be >= 0")


@dataclass(frozen=True)
class SliceReport:
    """One reconstructed (or deadline-aborted) slice leaving the service."""

    stream_id: str
    index: int
    #: The reconstruction — partial (``converged=False``) on a deadline
    #: abort, sealed through ``finish(require_convergence=False)``.
    result: FitResult
    #: Picard iterations actually run for this slice.
    iterations: int
    #: Whether the slice ran on a trusted warm start from its predecessor.
    warm_start: bool
    #: True when the per-slice deadline expired before convergence.
    deadline_missed: bool
    #: Wall-clock seconds spent inside the Picard solve.
    solve_seconds: float
    #: Seconds from submit to the solve's start on the solver thread: the
    #: stream queue and the wait behind other streams' frames.
    queue_seconds: float = 0.0

    @property
    def converged(self) -> bool:
        return self.result.converged


@dataclass(frozen=True)
class FrameFailure:
    """One frame the solver rejected: the slice is lost, the stream is not."""

    stream_id: str
    index: int
    #: Class name of the :class:`~repro.errors.ReproError` the solve raised.
    error: str
    message: str
