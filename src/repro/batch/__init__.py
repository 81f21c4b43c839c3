"""Batched multi-slice reconstruction (the throughput layer).

EFIT's production workload is not one reconstruction but a shot's worth
of them: hundreds of time slices through the same machine on the same
grid.  The single-slice driver re-derives per-call state every Picard
iterate — this package amortises all of it:

* :class:`~repro.batch.workspace.FitWorkspace` — preallocated buffer
  arenas keyed on shape, with allocation/reuse counters so benchmarks can
  assert a zero-allocation steady state;
* :class:`~repro.batch.engine.BatchFitEngine` — drives lock-step
  batches of slices on the calling thread, shares one Green table, one
  precomputed edge operator and one solver factorisation per grid,
  computes the boundary flux of a whole batch with a single GEMM, and
  solves all interior systems in one multi-RHS sweep;
* :mod:`~repro.batch.slices` — throughput statistics (slices/s, latency
  percentiles) and synthetic slice-sequence generation for benchmarks.
"""

from repro.batch.engine import BatchFitEngine, BatchFitResult
from repro.batch.slices import BatchStats, synthetic_slice_sequence
from repro.batch.workspace import FitWorkspace

__all__ = [
    "BatchFitEngine",
    "BatchFitResult",
    "BatchStats",
    "FitWorkspace",
    "synthetic_slice_sequence",
]
