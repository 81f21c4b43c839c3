"""The multi-process reconstruction engine.

:class:`ParallelFitEngine` mirrors the
:class:`~repro.batch.engine.BatchFitEngine` API — same constructor
shape, same ``fit_many(slices)`` entry point — but shards the slice
sequence across worker *processes* through the
:class:`~repro.parallel.scheduler.ProcessScheduler`:

* the engine builds its own file-backed
  :class:`~repro.parallel.arena.TableArena` — the grid's Green table and
  its edge operator — removes it in :meth:`~ParallelFitEngine.close`, and
  ships only its :class:`~repro.parallel.arena.ArenaSpec` to workers;
* each worker maps the arena, seeds its
  :class:`~repro.efit.tables.BoundaryTableCache` with the read-only
  view, and builds a private :class:`~repro.batch.engine.BatchFitEngine`
  on top — worker startup is O(1) in grid size;
* jobs are the *same* ``batch_size`` groups the serial engine forms
  (both call :func:`repro.batch.slices.batch_groups`), so every slice
  runs through ``_fit_batch`` with identical array shapes and the merged
  results are **bit-identical** to a serial
  ``BatchFitEngine.fit_many`` — BLAS GEMM
  reductions depend on operand shapes, so sharding at any other
  granularity would only be close, not equal (the Hypothesis suite pins
  the equality down);
* the deterministic merge orders job results by submission index, so
  worker count and completion order are invisible in the output.

Quarantined jobs (crash-looping or deterministically failing) raise
:class:`~repro.errors.JobQuarantinedError` by default;
``allow_failures=True`` instead returns the surviving slices plus the
:class:`~repro.parallel.scheduler.JobFailure` records.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.batch.engine import BatchFitEngine
from repro.batch.slices import BatchStats, batch_groups
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import EfitSolver, FitResult
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak
from repro.efit.operators import EdgeOperator, cached_edge_operator, seed_edge_operator
from repro.efit.tables import boundary_table_cache, cached_boundary_tables
from repro.errors import FittingError, JobQuarantinedError
from repro.obs.hooks import NULL_HOOKS, ObservationHooks, TraceHooks
from repro.obs.metrics import MetricsRegistry, scheduler_source
from repro.parallel.arena import TableArena, attach_arena
from repro.parallel.merge import merge_metrics, merged_chrome_trace
from repro.parallel.scheduler import (
    JobFailure,
    ProcessScheduler,
    SchedulerConfig,
    WorkerContext,
    WorkerReport,
)

__all__ = ["ParallelFitEngine", "ParallelFitResult"]


@dataclass(frozen=True)
class ParallelFitResult:
    """Everything a parallel ``fit_many`` produces.

    ``results`` holds the completed slices in submission order — with no
    failures it is element-wise identical to the serial engine's tuple.
    ``latencies`` are per-slice completion times measured inside each
    worker from its job start (comparable across workers; *not* offset
    by queueing delay).
    """

    results: tuple[FitResult, ...]
    stats: BatchStats
    latencies: np.ndarray
    failures: tuple[JobFailure, ...]
    worker_reports: tuple[WorkerReport, ...]
    wall_seconds: float


# -- worker-side plumbing (module level: picklable under spawn) --------------------
def _init_fit_worker(
    ctx: WorkerContext,
    spec,
    machine: Tokamak,
    diagnostics: DiagnosticSet,
    batch_size: int,
    solver_kwargs: dict,
) -> dict[str, Any]:
    """Map the table arena and build this worker's private engine."""
    arena = attach_arena(spec)
    # Every later cached_boundary_tables(grid) in this process — including
    # the engine's own — now resolves to the shared pages.
    boundary_table_cache().seed(arena.tables())
    op = arena.edge_op()
    # Same story for the operator, which the cache keeps beside the table
    # (so it is seeded second: seeding a table forgets its predecessor's
    # operators): any later cached_edge_operator call with this method
    # reuses the shared pages instead of rebuilding.
    seed_edge_operator(op)
    engine = BatchFitEngine(
        machine,
        diagnostics,
        spec.grid(),
        batch_size=batch_size,
        hooks=ctx.hooks,
        edge_operator=op,
        **solver_kwargs,
    )
    ctx.metrics.register_source(
        "table_cache", lambda: boundary_table_cache().cache_info()
    )
    return {"engine": engine}


def _run_fit_job(state: dict[str, Any], payload: tuple) -> tuple:
    """Reconstruct one batch group; returns (results, latencies, iters)."""
    slices, psi_initial = payload
    engine: BatchFitEngine = state["engine"]
    out = engine.fit_many(slices, psi_initial=psi_initial)
    return (out.results, out.latencies, out.stats.total_iterations)


class ParallelFitEngine:
    """Reconstruct many time slices across worker processes.

    Parameters mirror :class:`~repro.batch.engine.BatchFitEngine`, but
    the fleet is sized by ``config`` (``SchedulerConfig.workers``
    processes, 2 by default), which also holds the scheduler policy
    (timeouts, retry budget, transport).  The engine's arena holds the
    Green table and the arrays of ``edge_operator`` — not given, the
    grid's :func:`~repro.efit.operators.cached_edge_operator` — and every
    worker applies that operator.  ``solver_kwargs`` must be
    :class:`~repro.efit.fitting.EfitSolver` keywords a worker can honour;
    any other — ``pflux_impl`` (the operator is ``edge_operator``) and
    ``profiler`` (each worker would record into its own copy; the fleet
    is timed by its merged trace) among them — is a ``TypeError`` here,
    not in the workers.  Use as a context manager —
    or call :meth:`close` — to stop the pool and remove the table arena.
    """

    def __init__(
        self,
        machine: Tokamak,
        diagnostics: DiagnosticSet,
        grid: RZGrid,
        *,
        batch_size: int = 8,
        edge_operator: EdgeOperator | None = None,
        hooks: ObservationHooks | None = None,
        config: SchedulerConfig | None = None,
        **solver_kwargs,
    ) -> None:
        if batch_size < 1:
            raise FittingError("batch_size must be >= 1")
        inspect.signature(EfitSolver).bind(machine, diagnostics, grid, **solver_kwargs)
        if {"pflux_impl", "profiler"} & solver_kwargs.keys():
            raise TypeError(
                "ParallelFitEngine takes no pflux_impl= or profiler=: its workers apply "
                "edge_operator= from the fleet's arena, and record into the merged "
                "trace (hooks=TraceHooks(...), then merged_trace())"
            )
        self.batch_size = batch_size
        self.hooks = hooks if hooks is not None else NULL_HOOKS
        self.config = config if config is not None else SchedulerConfig()
        if edge_operator is None:
            edge_operator = cached_edge_operator(cached_boundary_tables(grid))
        self.arena = TableArena.build(edge_operator)
        try:
            self.scheduler = ProcessScheduler(
                _init_fit_worker,
                (self.arena.spec, machine, diagnostics, batch_size, dict(solver_kwargs)),
                _run_fit_job,
                config=self.config,
                hooks=self.hooks,
            )
            #: Parent-side registry: scheduler counters as a live source.
            self.metrics = MetricsRegistry()
            self.metrics.register_source(
                "scheduler", scheduler_source(self.scheduler.counters)
            )
        except BaseException:
            # No engine comes back to close(): remove the arena here.
            self.arena.unlink()
            raise
        self._last_reports: tuple[WorkerReport, ...] = ()

    @classmethod
    def for_scenario(cls, scenario, *, shot, **kwargs) -> "ParallelFitEngine":
        """Build a fleet configured for a registered scenario.

        The scenario's ``solver_kwargs`` ship to every worker process
        alongside any explicit ``kwargs`` (which win on conflict), so
        scenario-specific solver settings — e.g. the single-null's
        off-midplane seed filament — apply identically in the fleet and
        in the serial engines it is compared against.
        """
        from repro.scenarios import Scenario

        return Scenario.construct(cls, scenario, shot=shot, **kwargs)

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker pool and remove the table arena (idempotent)."""
        self.scheduler.close()
        self.arena.unlink()

    def __enter__(self) -> "ParallelFitEngine":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- the parallel run ----------------------------------------------------------
    def fit_many(
        self,
        slices: Sequence,
        *,
        psi_initial: Sequence | None = None,
        allow_failures: bool = False,
    ) -> ParallelFitResult:
        """Reconstruct every slice; deterministic merge by submission index.

        Jobs are the serial engine's exact ``batch_size`` groups, so with
        zero failures the merged ``results`` tuple is bit-identical to
        ``BatchFitEngine.fit_many`` on the same slices.  ``psi_initial``
        optionally warm-starts individual slices (one entry per slice,
        ``None`` = cold); the seeds ship to workers alongside their
        group, preserving the bit-identity with an equally warm-started
        serial engine.  A slice that does not converge fails its job.
        Quarantined jobs raise
        :class:`~repro.errors.JobQuarantinedError` unless
        ``allow_failures=True``, in which case the surviving slices are
        returned alongside the failure records.
        """
        groups = batch_groups(slices, psi_initial, self.batch_size)
        t0 = time.perf_counter()
        schedule = self.scheduler.run(
            [(group, seeds) for _, group, seeds in groups]
        )
        self._last_reports = schedule.reports
        if schedule.failures and not allow_failures:
            lost = ", ".join(
                f"job {f.index} ({f.reason} x{f.attempts})" for f in schedule.failures
            )
            raise JobQuarantinedError(
                f"{len(schedule.failures)} job(s) quarantined: {lost}",
                failures=schedule.failures,
            )
        results: list[FitResult] = []
        latencies: list[float] = []
        total_iterations = 0
        for outcome in schedule.outcomes:
            group_results, group_latencies, group_iters = outcome.result
            results.extend(group_results)
            latencies.extend(float(v) for v in group_latencies)
            total_iterations += int(group_iters)
        wall = time.perf_counter() - t0
        if not results:
            raise JobQuarantinedError(
                "every job was quarantined", failures=schedule.failures
            )
        lat = np.asarray(latencies)
        stats = BatchStats.from_latencies(
            lat,
            wall,
            total_iterations=total_iterations,
            n_converged=sum(1 for r in results if r.converged),
        )
        return ParallelFitResult(
            results=tuple(results),
            stats=stats,
            latencies=lat,
            failures=schedule.failures,
            worker_reports=schedule.reports,
            wall_seconds=wall,
        )

    # -- merged observability ------------------------------------------------------
    def merged_trace(self) -> dict[str, Any]:
        """Chrome-trace payload of the last run: parent lane + worker lanes."""
        parent = (
            self.hooks.recorder if isinstance(self.hooks, TraceHooks) else None
        )
        return merged_chrome_trace(self._last_reports, parent=parent)

    def merged_metrics(self) -> dict[str, Any]:
        """Aggregated worker metrics of the last run, plus parent counters."""
        merged = merge_metrics(self._last_reports)
        merged["parent"] = self.metrics.collect()
        return merged
