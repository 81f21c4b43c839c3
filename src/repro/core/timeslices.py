"""Node-level time-slice scheduling: EFIT's production parallelism.

"EFIT's typical usage will MPI parallelize multiple time steps across
multiple cores (or GPUs in an accelerated framework)" (Section 4).  This
module simulates that embarrassingly parallel dispatch so node throughput
can be compared honestly: slices have *heterogeneous* iteration counts
("ten or hundreds" per slice), so the makespan depends on scheduling, not
just on the mean rate.

Workers pull the next slice when free (greedy list scheduling / LPT when
sorted) — exactly how an MPI task farm over time slices behaves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

__all__ = ["TimeSlice", "ScheduleResult", "schedule_slices", "synthetic_slice_counts"]


@dataclass(frozen=True)
class TimeSlice:
    """One time slice: its index and the fit_ iterations it needs."""

    index: int
    iterations: int

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ReproError(f"slice {self.index}: needs >= 1 iteration")


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of dispatching a shot's slices onto one node."""

    makespan_seconds: float
    worker_seconds: np.ndarray  # busy time per worker
    assignments: tuple[tuple[int, ...], ...]  # slice indices per worker

    @property
    def utilisation(self) -> float:
        """Mean busy fraction over the makespan (1.0 = perfectly packed)."""
        if self.makespan_seconds == 0.0:
            return 1.0
        return float(self.worker_seconds.mean() / self.makespan_seconds)


def synthetic_slice_counts(n_slices: int) -> tuple[TimeSlice, ...]:
    """Deterministic heterogeneous iteration counts.

    Log-normal-ish spread (median 40 iterations, log-sigma 0.5) reproduces
    the paper's "ten or hundreds of iterations" range: early-shot slices
    (plasma formation) converge slowly, flat-top slices quickly.
    """
    if n_slices < 1:
        raise ReproError("need at least one time slice")
    rng = np.random.default_rng(186610)
    counts = np.exp(rng.normal(np.log(40), 0.5, n_slices))
    counts = np.clip(np.round(counts), 10, 400).astype(int)
    return tuple(TimeSlice(i, int(c)) for i, c in enumerate(counts))


def schedule_slices(
    slices: tuple[TimeSlice, ...],
    n_workers: int,
    seconds_per_iteration: float,
) -> ScheduleResult:
    """Greedy dispatch of slices onto ``n_workers`` identical workers,
    longest first: LPT scheduling, what a work-stealing task farm
    approximates."""
    if n_workers < 1:
        raise ReproError("need at least one worker")
    if seconds_per_iteration <= 0.0:
        raise ReproError("seconds_per_iteration must be positive")
    if not slices:
        raise ReproError("no slices to schedule")
    order = sorted(slices, key=lambda s: -s.iterations)
    heap = [(0.0, w) for w in range(n_workers)]
    heapq.heapify(heap)
    busy = np.zeros(n_workers)
    assignments: list[list[int]] = [[] for _ in range(n_workers)]
    for s in order:
        t, w = heapq.heappop(heap)
        cost = s.iterations * seconds_per_iteration
        busy[w] += cost
        assignments[w].append(s.index)
        heapq.heappush(heap, (t + cost, w))
    return ScheduleResult(
        makespan_seconds=float(busy.max()),
        worker_seconds=busy,
        assignments=tuple(tuple(a) for a in assignments),
    )
