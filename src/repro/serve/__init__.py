"""Real-time streaming equilibrium reconstruction (``repro serve``).

The serving tier of the reproduction: long-lived shot streams of
diagnostic frames, each slice reconstructed under a latency deadline and
warm-started from its predecessor — the GPEC recipe for ms-scale
real-time reconstruction layered over this repo's step-machine solver
and batch-engine per-grid state.  See ``docs/SERVING.md``.
"""

from repro.serve.frames import Frame, FrameFailure, SliceReport
from repro.serve.metrics import ITERATION_BOUNDS, LATENCY_BOUNDS, ServeMetrics
from repro.serve.service import ReconstructionService, ServeConfig, StreamSummary

__all__ = [
    "Frame",
    "SliceReport",
    "FrameFailure",
    "ServeMetrics",
    "LATENCY_BOUNDS",
    "ITERATION_BOUNDS",
    "ReconstructionService",
    "ServeConfig",
    "StreamSummary",
]
