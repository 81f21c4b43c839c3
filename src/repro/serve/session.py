"""Per-stream solve state: warm-start chaining under a deadline.

One :class:`ShotSession` follows one live shot.  Every frame runs
:meth:`~repro.efit.fitting.EfitSolver.picard` — the loop
:meth:`~repro.efit.fitting.EfitSolver.fit` runs, on the same solver — so
a slice that runs to convergence is **bit-identical** to that solver's
``fit`` on the same inputs (the relation table is in DESIGN.md).  Two
things are layered on top, neither of which touches the numerics:

* **warm-start chaining** — the previous slice's converged psi and
  profile coefficients seed the next
  :meth:`~repro.efit.fitting.EfitSolver.start_fit`, entering trusted
  warm-start mode (warm-up skipped, convergence allowed from the first
  iterate, guarded fallback on divergence);
* **deadline enforcement** — the clock is checked between iterates; when
  the budget expires the partial state is sealed through
  ``finish(require_convergence=False)`` and reported as a deadline miss.
  The first iterate always runs, so even a missed slice carries a
  boundary and a flux map.

The session is synchronous and single-threaded by design — the asyncio
service runs each session inside a worker thread, one session per
stream, sharing the solver's read-only per-grid state.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.efit.fitting import EfitSolver
from repro.errors import ServeError
from repro.profiling.regions import RegionProfiler
from repro.serve.frames import Frame, SliceReport
from repro.serve.metrics import ServeMetrics

__all__ = ["ShotSession"]


class ShotSession:
    """Reconstruct a stream of frames, warm-starting slice from slice.

    Parameters
    ----------
    solver:
        The shared per-grid :class:`EfitSolver` (typically
        ``engine.solver`` of the service's
        :class:`~repro.batch.engine.BatchFitEngine`).  The session only
        reads its per-grid state; all mutable Picard state lives in the
        per-slice :class:`~repro.efit.fitting.FitState`.
    deadline_s:
        Default per-slice solve budget [s]; a frame's own ``deadline_s``
        overrides it.  ``None`` disables deadline enforcement.
    warm_start:
        Chain warm starts across slices (disable for A/B comparisons —
        every slice then solves cold, exactly like serial ``fit``).
    metrics:
        Shared :class:`ServeMetrics`; a private one is built if omitted.
    clock:
        Monotonic-seconds callable — injectable so deadline behaviour is
        testable against a fake clock.
    """

    def __init__(
        self,
        solver: EfitSolver,
        *,
        deadline_s: float | None = None,
        warm_start: bool = True,
        metrics: ServeMetrics | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0.0:
            raise ServeError("deadline_s must be positive (or None)")
        self.solver = solver
        self.deadline_s = deadline_s
        self.warm_start = warm_start
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.clock = clock
        #: Per-session profiler: RegionProfiler nesting is not
        #: thread-safe, so concurrent sessions must not share one.
        self.profiler = RegionProfiler()
        self.slices_done = 0
        self._prev_psi: np.ndarray | None = None

    def reconstruct(self, frame: Frame, queue_seconds: float = 0.0) -> SliceReport:
        """Solve one frame under its deadline; never raises on a miss.

        A frame the solver rejects raises its :class:`ReproError` and
        leaves the warm chain reset: the next frame solves cold.
        """
        solver = self.solver
        metrics = self.metrics
        deadline = frame.deadline_s if frame.deadline_s is not None else self.deadline_s
        t0 = self.clock()
        # The chain is taken, not read: only a slice that converges puts
        # one back, so neither a raise nor a partial result seeds the next.
        prev_psi, self._prev_psi = self._prev_psi, None
        state = solver.start_fit(
            frame.measurements,
            psi_initial=prev_psi if self.warm_start else None,
            profiler=self.profiler,
        )
        seeded = self.warm_start and prev_psi is not None
        missed = False
        # The stop policy: leave the loop once the budget is spent.  The
        # first iterate runs before the first check, so a missed slice
        # still has a boundary.
        for _ in solver.picard([state]):
            if (
                not state.converged
                and deadline is not None
                and self.clock() - t0 >= deadline
            ):
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
            if seeded:
                # We offered a warm start but the solver revoked it (the
                # divergence guard) or refused it (boundary probe failed).
                metrics.warm_start_fallbacks.inc()
        if result.converged:
            # Chain the warm start: the *converged* psi seeds the next
            # slice.  Partial results are not chained — the trust probe
            # would usually accept them, but a deadline-starved stream
            # should degrade to known-good cold solves rather than
            # compound a half-converged state.
            self._prev_psi = result.psi
        self.slices_done += 1
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
