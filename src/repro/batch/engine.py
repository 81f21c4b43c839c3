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
* a batch starts with one :meth:`~repro.efit.fitting.EfitSolver.start_fit`
  call on all its slices: one trust probe on the stack of warm-start
  seeds, and for the slices left cold one seed solve per distinct weight
  vector, one GEMM for their seed currents, one flux step and one trust
  probe on the stack of seeds — the start does not loop over the slices
  either;
* every iterate's pre-flux half is one pass over the batch
  (:meth:`~repro.efit.fitting.EfitSolver.iterate_pre` on all the slices
  still iterating): one boundary search on the stack of fluxes, one
  basis slab over the union of the plasmas' rows, one ``green_`` product
  with ``n_coeffs`` columns per least-squares slice, one stacked least
  squares and residual, one ``fitdelz`` product (which carries the
  warm-up slices' predictions) and one vertical shift of the current
  stack — no step loops over the slices;
* the flux step is the solver's
  (:meth:`~repro.efit.pflux.PfluxStructured.compute_batch`, which every
  fit runs) on the ``(B, nw, nh)`` current stack as it lies: one
  operator apply reads the union of the plasmas' rows and computes every
  slice's boundary Green sums at once, those sums are the Dirichlet
  strips of one multi-RHS sine-transform solve of all interior systems,
  and the post-flux half is one span and one max |dpsi| reduction over
  the new flux stack;
* the flux step's batch-level arrays (the edge sums and the interior
  right-hand sides) are views of the buffer of
  its own :class:`~repro.efit.workspace.FitWorkspace`, which the engine
  sizes for ``batch_size`` when it is built, so no iterate requests a new
  one; the pre-flux arrays, whose shapes follow the
  plasmas' rows, and the stack of new fluxes, whose slices the states
  keep, are made per iterate (a slice that converges copies its own out,
  so no result pins a batch's stack).

Batches run one after another on the calling thread, and record into
the solver's profiler and hooks (``engine.solver.profiler`` /
``engine.solver.hooks``), as ``solver.fit`` and a served frame do; several
cores are the fleet's (:class:`~repro.parallel.engine.ParallelFitEngine`, one
engine like this per worker process).  Convergence is per-slice: a
converged slice leaves both the pre-flux pass and the flux step while the
rest of its batch iterates on, so every iterate's width is the number of
slices still iterating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.batch.slices import BatchStats, batch_groups
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import EfitSolver, FitResult, GridStatics
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak
from repro.efit.measurements import MeasurementSet
from repro.efit.operators import EdgeOperator
from repro.errors import FittingError
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
    """Reconstruct many time slices of one machine+grid in lock-step batches.

    Parameters
    ----------
    batch_size:
        Number of slices advanced in lockstep: ``B`` of the batched
        pre-flux pass and of the edge-operator apply, and the width the
        solver's flux step sizes its buffers for at construction.
    n_workers:
        Must be 1: batches run on the calling thread.  Reconstruct on
        several cores with :class:`~repro.parallel.engine.ParallelFitEngine`.
    edge_operator:
        The :class:`~repro.efit.operators.EdgeOperator` to apply (the
        solver's ``pflux_impl``).  The multi-process fleet passes
        the operator mapped from its arena here so workers skip the
        build entirely.  Not given, it is the same cached operator object
        a bare :class:`EfitSolver` applies.
    solver_kwargs:
        Forwarded to the underlying :class:`EfitSolver` (bases,
        tolerances, ``profiler``, ``hooks``, ...).  The solver's hooks
        receive the engine's ``fit_many_start`` / ``fit_many_end`` events
        beside every slice's Picard spans and events (``pflux_`` regions
        carry a ``batch`` attribute).
    """

    def __init__(
        self,
        machine: Tokamak,
        diagnostics: DiagnosticSet,
        grid: RZGrid,
        *,
        batch_size: int = 8,
        n_workers: int = 1,
        edge_operator: EdgeOperator | None = None,
        **solver_kwargs,
    ) -> None:
        if batch_size < 1:
            raise FittingError("batch_size must be >= 1")
        if n_workers != 1:
            raise FittingError(
                f"n_workers={n_workers}: BatchFitEngine runs its batches on "
                f"one thread; reconstruct on several cores with "
                f"ParallelFitEngine"
            )
        self.batch_size = batch_size
        #: The shared per-grid setup: Green tables, solver factorisation,
        #: response matrices — built once, reused by every batch.  The
        #: solver resolves the operator exactly as a bare one does.
        self.solver = EfitSolver(
            machine, diagnostics, grid, pflux_impl=edge_operator, **solver_kwargs
        )
        #: The boundary Green sums as an :class:`EdgeOperator` — the
        #: solver's flux step.
        self.edge_op = self.solver.pflux.operator
        # Sized for this engine's width now, the flux step's buffer serves
        # every batch without a new one.
        self.solver.pflux.reserve(batch_size)

    @classmethod
    def for_scenario(
        cls, scenario, n: int | None = None, *, shot=None, **kwargs
    ) -> "BatchFitEngine":
        """Build an engine on a registered scenario's shot at grid ``n``
        (or on ``shot``, whose grid an ``n`` must match); ``kwargs`` are
        the engine's keywords (:meth:`Scenario.construct
        <repro.scenarios.Scenario.construct>`)."""
        from repro.scenarios import Scenario

        return Scenario.construct(cls, scenario, n, shot=shot, **kwargs)

    @property
    def statics(self) -> GridStatics:
        """The solver's geometry-only arrays (see :class:`GridStatics`)."""
        return self.solver.statics

    # -- observability ------------------------------------------------------------
    def workspace_counters(self) -> WorkspaceCounters:
        """A snapshot of the flux step's allocation/reuse counters."""
        return replace(self.solver.pflux.workspace.counters)

    # -- the batched Picard loop ---------------------------------------------------
    def _fit_batch(
        self,
        batch: Sequence[MeasurementSet],
        t_run0: float,
        require_convergence: bool,
        psi_initial: Sequence["np.ndarray | None"] | None,
    ) -> list[tuple[FitResult, float, int]]:
        """Advance one batch of slices in lockstep to convergence."""
        solver = self.solver
        states = solver.start_fit(batch, psi_initial=psi_initial)
        latencies: list[float | None] = [None] * len(states)
        for _ in solver.picard(states):
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

        Slices are grouped into batches of ``batch_size`` in input order
        and run one batch after another.  ``psi_initial``
        optionally supplies one warm-start flux per slice (``None``
        entries stay cold): the batch's
        :meth:`~repro.efit.fitting.EfitSolver.start_fit` probes each one as
        the serial path would, and a slice it refuses seeds from its
        magnetics.  A batch of one slice is bit-identical to a serial
        solve, a wider one equal to round-off (DESIGN.md §6).  Raises
        :class:`~repro.errors.ConvergenceError` on the first unconverged
        slice unless ``require_convergence=False``.
        """
        batches = batch_groups(slices, psi_initial, self.batch_size)
        n_slices = sum(len(batch) for _, batch, _ in batches)
        hooks = self.solver.hooks
        hooks.event(
            "fit_many_start", n_slices=n_slices, batch_size=self.batch_size
        )
        t_run0 = time.perf_counter()
        outcomes = [
            outcome
            for _, batch, seeds in batches
            for outcome in self._fit_batch(batch, t_run0, require_convergence, seeds)
        ]
        wall = time.perf_counter() - t_run0
        results = tuple(result for result, _, _ in outcomes)
        latencies = np.array([latency for _, latency, _ in outcomes])
        total_iterations = sum(iters for _, _, iters in outcomes)
        stats = BatchStats.from_latencies(
            latencies,
            wall,
            total_iterations=total_iterations,
            n_converged=sum(1 for r in results if r.converged),
        )
        hooks.event(
            "fit_many_end",
            n_slices=n_slices,
            wall_seconds=wall,
            total_iterations=total_iterations,
            n_converged=stats.n_converged,
        )
        return BatchFitResult(results=results, stats=stats, latencies=latencies)
