"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GridError",
    "GreensError",
    "SolverError",
    "ConvergenceError",
    "BoundaryError",
    "FittingError",
    "MeasurementError",
    "ScenarioError",
    "OperatorError",
    "OperatorStructureError",
    "DirectiveError",
    "DirectiveParseError",
    "TranslationError",
    "HardwareError",
    "CompilerError",
    "UnsupportedTargetError",
    "RuntimeModelError",
    "MemoryModelError",
    "MapError",
    "LaunchError",
    "CalibrationError",
    "EqdskError",
    "AnalysisError",
    "ObservabilityError",
    "ParallelError",
    "ArenaError",
    "JobQuarantinedError",
    "ServeError",
    "AdmissionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GridError(ReproError):
    """Invalid grid specification (non-positive extents, bad shape...)."""


class GreensError(ReproError):
    """Green-function evaluation failure (coincident filaments, R<=0...)."""


class SolverError(ReproError):
    """Interior Grad-Shafranov solver failure."""


class ConvergenceError(SolverError):
    """An iterative procedure failed to reach its tolerance."""


class BoundaryError(ReproError):
    """Plasma boundary / magnetic axis search failure."""


class FittingError(ReproError):
    """Equilibrium fitting (``fit_``) failure."""


class MeasurementError(ReproError):
    """Invalid measurement set or diagnostic specification."""


class ScenarioError(ReproError):
    """Unknown scenario name or invalid scenario declaration."""


class OperatorError(ReproError):
    """Edge-operator construction or application failure (unknown
    method, malformed serialized arrays, shape mismatch)."""


class OperatorStructureError(OperatorError):
    """The Green table violates a structural assumption a compressed
    edge operator relies on (reciprocity or z-translation invariance of
    ``gridpc``); callers must fall back to the dense operator — a
    ``DenseEdgeOperator`` instance passed to ``EfitSolver(pflux_impl=)``
    or ``BatchFitEngine(edge_operator=)``."""


class DirectiveError(ReproError):
    """Invalid directive construction or application.

    Carries the owning ``kernel`` and ``subroutine`` when known, and
    prefixes the message with the same ``subroutine::kernel`` location
    format the portability linter uses for its findings, so hand-raised
    validation errors and linter output read identically.
    """

    def __init__(
        self,
        message: str,
        *,
        kernel: str | None = None,
        subroutine: str | None = None,
    ) -> None:
        self.kernel = kernel
        self.subroutine = subroutine
        if subroutine and kernel:
            message = f"{subroutine}::{kernel}: {message}"
        elif kernel:
            message = f"{kernel}: {message}"
        elif subroutine:
            message = f"{subroutine}: {message}"
        super().__init__(message)


class DirectiveParseError(DirectiveError):
    """A pragma string could not be parsed."""


class TranslationError(DirectiveError):
    """A directive could not be translated between OpenACC and OpenMP."""


class HardwareError(ReproError):
    """Invalid hardware model parameters."""


class CompilerError(ReproError):
    """Compiler-model failure (unknown flags, bad lowering request...)."""


class UnsupportedTargetError(CompilerError):
    """The (compiler, programming model, architecture) combination is not
    supported -- e.g. OpenACC on Intel PVC, for which no compiler exists."""


class RuntimeModelError(ReproError):
    """Offload-runtime simulation failure."""


class MemoryModelError(RuntimeModelError):
    """Unified-memory / data-environment model failure."""


class MapError(MemoryModelError):
    """Invalid explicit data mapping (``target data map``)."""


class LaunchError(RuntimeModelError):
    """Kernel launch failure (no device, plan/loop-nest mismatch...)."""


class CalibrationError(ReproError):
    """Calibration table lookup failure."""


class EqdskError(ReproError):
    """G-EQDSK file format error."""


class AnalysisError(ReproError):
    """Static-analysis (portability linter) failure: malformed baseline
    file, inconsistent analyzer configuration."""


class ObservabilityError(ReproError):
    """Tracing/metrics misuse: mismatched span nesting, merging
    histograms with different bucket bounds, duplicate metric names."""


class ParallelError(ReproError):
    """Multi-process scheduler failure: invalid configuration, a dead
    worker pool, or a run that could not be completed."""


class ArenaError(ParallelError):
    """Table-arena failure: a fleet worker finds no table or operator
    entry to map in its arena directory (removed, or its parent gone)."""


class JobQuarantinedError(ParallelError):
    """One or more jobs exhausted their retry budget (or raised a
    deterministic error) and were quarantined; carries the failures."""

    def __init__(self, message: str, failures: tuple = ()) -> None:
        self.failures = failures
        super().__init__(message)


class ServeError(ReproError):
    """Streaming-service failure: invalid configuration, a stopped
    service, or misuse of the stream lifecycle."""


class AdmissionError(ServeError):
    """A new stream was refused: the service is at its concurrent-stream
    capacity (admission control, not a transient queue overflow)."""
