"""Real wall-clock benchmarks of the full reconstruction (fit_)."""

from __future__ import annotations

import pytest

from repro.efit.fitting import EfitSolver
from repro.profiling.regions import RegionProfiler

from benchmarks.conftest import write_artifact


@pytest.fixture(scope="module")
def solver65(shot65):
    return EfitSolver(shot65.machine, shot65.diagnostics, shot65.grid)


def test_full_fit_65(benchmark, solver65, shot65):
    """End-to-end reconstruction of one time slice at 65x65."""
    result = benchmark(solver65.fit, shot65.measurements)
    assert result.converged
    benchmark.extra_info["iterations"] = result.iterations


def test_single_fit_invocation_65(benchmark, shot65):
    """One Picard iterate (the paper's per-invocation unit of Table 1)."""
    profiler = RegionProfiler()
    solver = EfitSolver(
        shot65.machine, shot65.diagnostics, shot65.grid, profiler=profiler, max_iters=1
    )

    def one_iteration():
        return solver.fit(shot65.measurements, require_convergence=False)

    benchmark(one_iteration)


def test_fit_region_breakdown():
    """Measured Python-side fit_ breakdown at 65^2 and 129^2 (the
    real-execution analog of Figure 1; with the edge-operator pflux_ the
    profile differs from Fortran — recorded for EXPERIMENTS.md).  Five
    fits are profiled after an unprofiled one, which pays the process's
    first touch of the tables."""
    from repro.efit.measurements import synthetic_shot_186610

    lines = []
    for n in (65, 129):
        shot = synthetic_shot_186610(n)
        profiler = RegionProfiler()
        solver = EfitSolver(shot.machine, shot.diagnostics, shot.grid, profiler=profiler)
        solver.fit(shot.measurements)
        profiler.reset()
        iterates = sum(solver.fit(shot.measurements).iterations for _ in range(5))
        rep = profiler.report()
        lines.append(
            f"Measured Python fit_ breakdown at {n}x{n} "
            f"({solver.pflux.operator.method} edge-operator pflux_, {iterates} iterates of 5 fits, "
            f"{1e3 * rep.grand_total / iterates:.2f} ms an iterate):"
        )
        for name, pct in sorted(rep.percentages().items(), key=lambda kv: -kv[1]):
            per_iterate = 1e3 * rep.totals[name] / iterates
            lines.append(
                f"  {name:10s} {pct:5.1f}%  {per_iterate:6.3f} ms/iterate  ({rep.calls[name]} calls)"
            )
    write_artifact("fit_breakdown_python", "\n".join(lines))


def test_fit_with_reference_pflux_17(benchmark):
    """fit_ with the pure-loop pflux_ — the 'original code' analog; tiny
    grid because interpreted loops are ~1000x slower."""
    from repro.efit.measurements import synthetic_shot_186610
    from repro.efit.pflux import TableSumEdgeOperator
    from repro.efit.tables import cached_boundary_tables

    shot = synthetic_shot_186610(17, noise=0.0, seed=2)
    reference = TableSumEdgeOperator(cached_boundary_tables(shot.grid), "reference")
    solver = EfitSolver(
        shot.machine, shot.diagnostics, shot.grid, pflux_impl=reference, max_iters=1
    )
    benchmark(solver.fit, shot.measurements, require_convergence=False)


def test_scheduler_throughput(benchmark):
    """Dispatch cost of the time-slice task farm (pure scheduling)."""
    from repro.core.timeslices import schedule_slices, synthetic_slice_counts

    slices = synthetic_slice_counts(1000)
    result = benchmark(schedule_slices, slices, 64, 1e-3)
    assert result.utilisation > 0.9


def test_qprofile_tracing_65(benchmark, shot65):
    """Flux-surface tracing + q computation on a reconstructed slice."""
    from repro.efit.qprofile import QProfile

    tr = shot65.truth
    f_vac = shot65.machine.f_vacuum
    prof = benchmark(
        QProfile.compute, shot65.grid, tr.psi, tr.boundary, lambda s: f_vac
    )
    assert prof.q95 > 1.0


def test_cyclic_reduction_solver_65(benchmark):
    """The Buneman solver beside the DST/LU timings in bench_solvers."""
    import numpy as np

    from repro.efit.grid import RZGrid
    from repro.efit.solvers.cyclic import CyclicReductionSolver

    g = RZGrid(65, 65)
    solver = CyclicReductionSolver(g)
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=g.shape)
    bdry = rng.normal(size=g.shape)
    benchmark(solver.solve, rhs, bdry)
