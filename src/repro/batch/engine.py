"""The batched multi-slice reconstruction engine.

One :class:`BatchFitEngine` owns everything a grid's worth of
reconstructions can share — the boundary Green table, the edge-flux
operator factored out of ``pflux_``, the interior-solver factorisation,
the diagnostic response matrices and the solver's
:class:`~repro.efit.fitting.GridStatics` (limiter mask, limiter contour,
coil flux tables).  ``fit_many`` then drives batches of ``B`` slices in
lockstep Picard iteration:

* the loop is :meth:`~repro.efit.fitting.EfitSolver.picard` on the
  engine's own solver, whose flux step applies the engine's edge
  operator (DESIGN.md's relation table says how the results relate to
  ``solver.fit`` and to serving);
* every iterate's pre-flux half is one pass over the batch
  (:meth:`~repro.efit.fitting.EfitSolver.iterate_pre` on all the slices
  still iterating): one boundary search on the stack of fluxes, one
  basis slab over the union of the plasmas' rows, one ``green_`` product
  with ``B * n_coeffs`` columns and one ``fitdelz`` product — the small
  least squares, chi^2 and shifts stay per slice;
* the flux step runs in its batched form
  (:meth:`~repro.efit.pflux.PfluxStructured.compute_batch`): one
  operator apply on a ``(nw*nh, B)`` column stack computes every slice's
  boundary Green sums at once, on the union of the plasmas' rows, and
  one multi-RHS sine-transform solve handles all interior systems;
* the flux step's batch-level arrays are prefix views of buffers sized
  for ``batch_size`` in a per-worker
  :class:`~repro.batch.workspace.FitWorkspace`, so steady-state iterates
  request no new one; the pre-flux arrays, whose shapes follow the
  plasmas' rows, and each slice's new flux, which its state keeps, are
  made per iterate.

Worker threads (``n_workers``) pull batches from a queue; the heavy GEMM
and FFT kernels release the GIL, so multi-core hosts overlap batches.
Convergence is per-slice: a converged slice leaves both the pre-flux pass
and the flux step while the rest of its batch iterates on, so every
iterate's width is the number of slices still iterating.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro.batch.slices import BatchStats, batch_groups
from repro.batch.workspace import FitWorkspace
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import EfitSolver, FitResult, GridStatics
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak
from repro.efit.measurements import MeasurementSet
from repro.efit.operators import EdgeOperator
from repro.errors import FittingError
from repro.obs.hooks import NULL_HOOKS, ObservationHooks
from repro.profiling.regions import RegionProfiler
from repro.runtime.counters import WorkspaceCounters

__all__ = ["BatchFitEngine", "BatchFitResult"]


@dataclass(frozen=True)
class BatchFitResult:
    """Everything ``fit_many`` produces for one slice sequence."""

    #: Per-slice reconstructions, in input order.
    results: tuple[FitResult, ...]
    #: Aggregate throughput statistics.
    stats: BatchStats
    #: Per-slice completion latency [s] measured from run start.
    latencies: np.ndarray


class BatchFitEngine:
    """Reconstruct many time slices of one machine+grid concurrently.

    Parameters
    ----------
    batch_size:
        Number of slices advanced in lockstep: ``B`` of the batched
        pre-flux pass and of the edge-operator apply.
    n_workers:
        Worker threads pulling batches off the queue.  Useful when BLAS
        releases the GIL and cores are available; the default of 1 keeps
        execution deterministic and single-core friendly.
    hooks:
        Optional :class:`~repro.obs.hooks.ObservationHooks` receiving the
        batch-level spans/events (``pflux_`` regions carry a ``batch``
        attribute; per-slice Picard events come from the solver).
    edge_operator:
        Optional ready-made :class:`~repro.efit.operators.EdgeOperator`.
        The multi-process fleet passes operators over its arena's mapped
        arrays here so workers skip the build entirely.
    boundary_method:
        Representation to apply when ``edge_operator`` is not supplied —
        one of :data:`repro.efit.operators.EDGE_METHODS`; not given, it
        is :data:`~repro.edge_methods.DEFAULT_EDGE_METHOD`, the same
        cached operator object a bare :class:`EfitSolver` applies.
        Naming a method the supplied operator is not is an error.
    solver_kwargs:
        Forwarded to the underlying :class:`EfitSolver` (bases,
        tolerances, ...).
    """

    def __init__(
        self,
        machine: Tokamak,
        diagnostics: DiagnosticSet,
        grid: RZGrid,
        *,
        batch_size: int = 8,
        n_workers: int = 1,
        hooks: ObservationHooks | None = None,
        edge_operator: EdgeOperator | None = None,
        boundary_method: str | None = None,
        **solver_kwargs,
    ) -> None:
        if batch_size < 1:
            raise FittingError("batch_size must be >= 1")
        if n_workers < 1:
            raise FittingError("n_workers must be >= 1")
        self.batch_size = batch_size
        self.n_workers = n_workers
        self.hooks = hooks if hooks is not None else NULL_HOOKS
        #: The shared per-grid setup: Green tables, solver factorisation,
        #: response matrices — built once, reused by every worker.  The
        #: solver resolves the operator (and rejects a named method that
        #: disagrees with a supplied one) exactly as a bare one does.
        self.solver = EfitSolver(
            machine,
            diagnostics,
            grid,
            pflux_impl=edge_operator,
            boundary_method=boundary_method,
            **solver_kwargs,
        )
        #: The boundary Green sums as an :class:`EdgeOperator` — the
        #: solver's flux step.
        self.edge_op = self.solver.pflux.operator
        self.boundary_method = self.edge_op.method
        #: Per-worker arenas/profilers, persistent across ``fit_many``
        #: calls so the steady state requests no new buffer.
        self._workspaces = [FitWorkspace() for _ in range(n_workers)]
        self._profilers = [RegionProfiler() for _ in range(n_workers)]

    @classmethod
    def for_scenario(cls, scenario, n: int = 65, *, shot=None, **kwargs) -> "BatchFitEngine":
        """Build an engine configured for a registered scenario.

        The scenario's ``solver_kwargs`` are forwarded to the underlying
        :class:`EfitSolver`; explicit ``kwargs`` win on conflict.
        """
        from repro.scenarios import Scenario

        return Scenario.construct(cls, scenario, n, shot=shot, **kwargs)

    @property
    def statics(self) -> GridStatics:
        """The solver's geometry-only arrays (see :class:`GridStatics`)."""
        return self.solver.statics

    # -- observability ------------------------------------------------------------
    def workspace_counters(self) -> WorkspaceCounters:
        """Aggregate allocation/reuse counters across all workers."""
        agg = WorkspaceCounters()
        for ws in self._workspaces:
            c = ws.counters
            agg.allocations += c.allocations
            agg.reuses += c.reuses
            agg.allocated_bytes += c.allocated_bytes
            agg.resident_bytes += c.resident_bytes
        return agg

    def profiler_report(self):
        """Region report of worker 0 (representative breakdown)."""
        return self._profilers[0].report()

    # -- the batched Picard loop ---------------------------------------------------
    def _fit_batch(
        self,
        batch: Sequence[MeasurementSet],
        ws: FitWorkspace,
        profiler: RegionProfiler,
        t_run0: float,
        require_convergence: bool,
        psi_initial: Sequence["np.ndarray | None"] | None = None,
    ) -> list[tuple[FitResult, float, int]]:
        """Advance one batch of slices in lockstep to convergence."""
        solver = self.solver
        seeds = psi_initial if psi_initial is not None else [None] * len(batch)
        states = [
            solver.start_fit(
                m,
                psi_initial=seed,
                profiler=profiler,
                hooks=self.hooks,
            )
            for m, seed in zip(batch, seeds)
        ]
        flux = partial(solver.pflux.compute_batch, ws, self.batch_size)
        latencies: list[float | None] = [None] * len(states)
        for _ in solver.picard(states, flux=flux):
            now = time.perf_counter()
            for k, state in enumerate(states):
                if state.converged and latencies[k] is None:
                    latencies[k] = now - t_run0
        t_end = time.perf_counter()
        return [
            (
                solver.finish(state, require_convergence=require_convergence),
                latency if latency is not None else t_end - t_run0,
                len(state.history),
            )
            for state, latency in zip(states, latencies)
        ]

    def fit_many(
        self,
        slices: Sequence[MeasurementSet],
        *,
        psi_initial: Sequence["np.ndarray | None"] | None = None,
        require_convergence: bool = True,
    ) -> BatchFitResult:
        """Reconstruct every slice; returns per-slice results + stats.

        Slices are grouped into batches of ``batch_size`` in input order;
        ``n_workers`` threads drain the batch queue.  ``psi_initial``
        optionally supplies one warm-start flux per slice (``None``
        entries stay cold) — each seeds that slice's
        :meth:`~repro.efit.fitting.EfitSolver.start_fit` exactly as the
        serial path would, so warm-started batch output bit-matches a
        warm-started serial solve.  Raises
        :class:`~repro.errors.ConvergenceError` on the first unconverged
        slice unless ``require_convergence=False``.
        """
        batches = batch_groups(slices, psi_initial, self.batch_size)
        n_slices = sum(len(batch) for _, batch, _ in batches)
        results: list[FitResult | None] = [None] * n_slices
        latencies = np.zeros(n_slices)
        iteration_counts = np.zeros(n_slices, dtype=int)
        self.hooks.event(
            "fit_many_start",
            n_slices=n_slices,
            batch_size=self.batch_size,
            n_workers=self.n_workers,
        )
        t_run0 = time.perf_counter()

        def run_batch(worker: int, start: int, batch: list, seeds: list | None) -> None:
            outcomes = self._fit_batch(
                batch,
                self._workspaces[worker],
                self._profilers[worker],
                t_run0,
                require_convergence,
                seeds,
            )
            for offset, (result, latency, iters) in enumerate(outcomes):
                results[start + offset] = result
                latencies[start + offset] = latency
                iteration_counts[start + offset] = iters

        if self.n_workers == 1:
            for item in batches:
                run_batch(0, *item)
        else:
            todo: queue.SimpleQueue = queue.SimpleQueue()
            for item in batches:
                todo.put(item)
            errors: list[BaseException] = []

            def worker_loop(worker: int) -> None:
                while True:
                    try:
                        item = todo.get_nowait()
                    except queue.Empty:
                        return
                    try:
                        run_batch(worker, *item)
                    except BaseException as exc:  # propagate to the caller
                        errors.append(exc)
                        return

            threads = [
                threading.Thread(target=worker_loop, args=(w,), name=f"batchfit-{w}")
                for w in range(min(self.n_workers, len(batches)))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]

        wall = time.perf_counter() - t_run0
        done = [r for r in results if r is not None]
        stats = BatchStats.from_latencies(
            latencies,
            wall,
            total_iterations=int(iteration_counts.sum()),
            n_converged=sum(1 for r in done if r.converged),
        )
        self.hooks.event(
            "fit_many_end",
            n_slices=n_slices,
            wall_seconds=wall,
            total_iterations=int(iteration_counts.sum()),
            n_converged=stats.n_converged,
        )
        return BatchFitResult(results=tuple(done), stats=stats, latencies=latencies)
