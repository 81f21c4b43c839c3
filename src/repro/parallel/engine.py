"""The multi-process reconstruction engine.

:class:`ParallelFitEngine` mirrors the
:class:`~repro.batch.engine.BatchFitEngine` API — same constructor
shape, same ``fit_many(slices)`` entry point — but shards the slice
sequence across worker *processes* through the
:class:`~repro.parallel.scheduler.ProcessScheduler`:

* the engine stages the grid's Green table and its edge operator as
  :mod:`repro.efit.diskcache` entries in a table arena — a
  ``tempfile.mkdtemp`` directory of its own, removed in
  :meth:`~ParallelFitEngine.close` — and ships only the directory's path
  to workers;
* each worker maps the entries read-only with the disk cache's readers,
  seeds its :class:`~repro.efit.tables.BoundaryTableCache` with the
  views, and builds a private :class:`~repro.batch.engine.BatchFitEngine`
  on the engine's grid — worker startup is O(1) in grid size;
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
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.batch.engine import BatchFitEngine
from repro.batch.slices import BatchStats, batch_groups
from repro.efit import diskcache
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import EfitSolver, FitResult
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak
from repro.efit.operators import (
    EdgeOperator,
    cached_edge_operator,
    require_staged,
    seed_edge_operator,
)
from repro.efit.tables import boundary_table_cache, cached_boundary_tables
from repro.errors import ArenaError, FittingError, GridError, JobQuarantinedError
from repro.obs.hooks import NULL_HOOKS, ObservationHooks, TraceHooks
from repro.obs.metrics import MetricsRegistry, scheduler_source
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
def _map_arena(arena: str, grid: RZGrid, method: str):
    """The Green table of ``grid`` and its ``method`` edge operator, mapped
    read-only from the table arena directory ``arena``."""
    tables = diskcache.read_tables(arena, grid)
    op = None if tables is None else diskcache.read_edge_operator(arena, tables, method)
    if op is None:
        raise ArenaError(
            f"table arena {arena!r} holds no {method} entry for this grid "
            f"(removed, or its parent is gone)"
        )
    return tables, op


def _init_fit_worker(
    ctx: WorkerContext,
    arena: str,
    method: str,
    machine: Tokamak,
    diagnostics: DiagnosticSet,
    grid: RZGrid,
    batch_size: int,
    solver_kwargs: dict,
) -> dict[str, Any]:
    """Map the table arena and build this worker's private engine."""
    tables, op = _map_arena(arena, grid, method)
    # Every later cached_boundary_tables(grid) in this process — including
    # the engine's own — now resolves to the shared pages.
    boundary_table_cache().seed(tables)
    # Same story for the operator, which the cache keeps beside the table
    # (so it is seeded second: seeding a table forgets its predecessor's
    # operators): any later cached_edge_operator call with this method
    # reuses the shared pages instead of rebuilding.
    seed_edge_operator(op)
    engine = BatchFitEngine(
        machine,
        diagnostics,
        grid,
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


def _remove_arena(path: str, builder_pid: int) -> None:
    """Remove a table arena — from the process that built it only."""
    if os.getpid() == builder_pid:
        shutil.rmtree(path, ignore_errors=True)


class ParallelFitEngine:
    """Reconstruct many time slices across worker processes.

    Parameters mirror :class:`~repro.batch.engine.BatchFitEngine`, but
    the fleet is sized by ``config`` (``SchedulerConfig.workers``
    processes, 2 by default), which also holds the scheduler policy
    (timeouts, retry budget, transport).  The engine's table arena, the
    directory :attr:`arena`, holds the Green table and the arrays of
    ``edge_operator`` — not given, the grid's
    :func:`~repro.efit.operators.cached_edge_operator`; one built on
    another grid is a :class:`~repro.errors.GridError` — and every worker
    applies that operator.  ``solver_kwargs`` must be
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
        require_staged(edge_operator.method)
        if edge_operator.grid != grid:
            raise GridError(
                f"edge operator built for grid {edge_operator.grid}, not the "
                f"fleet's {grid}"
            )
        #: The table arena: the directory of the Green table's and the edge
        #: operator's disk-cache entries every worker maps.
        self.arena = tempfile.mkdtemp(prefix="repro_arena_")
        # Removes the arena when the engine is closed, collected or the
        # interpreter exits — in the building process only.
        self._release = weakref.finalize(self, _remove_arena, self.arena, os.getpid())
        try:
            #: Bytes of the arrays staged in the arena.
            self.arena_nbytes = diskcache.write_tables(
                self.arena, cached_boundary_tables(grid)
            ) + diskcache.write_edge_operator(self.arena, edge_operator)
            self.scheduler = ProcessScheduler(
                _init_fit_worker,
                (
                    self.arena,
                    edge_operator.method,
                    machine,
                    diagnostics,
                    grid,
                    batch_size,
                    dict(solver_kwargs),
                ),
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
            self._release()
            raise
        self._last_reports: tuple[WorkerReport, ...] = ()

    @classmethod
    def for_scenario(cls, scenario, *, shot, **kwargs) -> "ParallelFitEngine":
        """Build a fleet on a registered scenario's ``shot``; ``kwargs``
        are the fleet's keywords, and its solver keywords ship to every
        worker process."""
        from repro.scenarios import Scenario

        return Scenario.construct(cls, scenario, shot=shot, **kwargs)

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker pool and remove the table arena (idempotent)."""
        self.scheduler.close()
        self._release()

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
