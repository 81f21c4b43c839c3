"""BatchFitEngine edge_operator plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.edge_methods import DEFAULT_EDGE_METHOD
from repro.efit.fitting import EfitSolver
from repro.efit.operators import build_edge_operator, cached_edge_operator
from repro.efit.tables import cached_boundary_tables
from repro.efit.grid import RZGrid
from repro.errors import GridError, OperatorError
from tests.serve.conftest import serve_reports


def _cached(shot, method):
    return cached_edge_operator(cached_boundary_tables(shot.grid), method)


def _dense(shot):
    """The dense ground truth: built, never cached."""
    return build_edge_operator(cached_boundary_tables(shot.grid), "dense")


@pytest.fixture(scope="module")
def slices4(shot33):
    return synthetic_slice_sequence(shot33, 4, seed=11)


@pytest.fixture(scope="module")
def dense_batch(shot33, slices4):
    engine = BatchFitEngine(
        shot33.machine, shot33.diagnostics, shot33.grid, batch_size=2,
        edge_operator=_dense(shot33),
    )
    return engine.fit_many(slices4)


def _rel_dev(dense_batch, batch):
    worst = 0.0
    for a, b in zip(dense_batch.results, batch.results):
        scale = np.max(np.abs(a.psi))
        worst = max(worst, np.max(np.abs(a.psi - b.psi)) / scale)
    return worst


class TestBoundaryMethodKwarg:
    """What the engine's ``boundary_method`` kwarg used to choose — the
    operator it applies — is now the ``edge_operator`` instance."""

    def test_default_is_the_named_constant(self, shot33):
        engine = BatchFitEngine(shot33.machine, shot33.diagnostics, shot33.grid)
        assert engine.edge_op.method == DEFAULT_EDGE_METHOD
        # One cached object: a bare solver, the engine and its solver.
        bare = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        assert bare.pflux.operator is engine.edge_op is engine.solver.pflux.operator
        assert engine.edge_op is cached_edge_operator(cached_boundary_tables(shot33.grid))

    @pytest.mark.parametrize("method,bound", [("lowrank", 1e-10), ("toeplitz", 1e-10)])
    def test_fp64_methods_track_dense(self, shot33, slices4, dense_batch, method, bound):
        engine = BatchFitEngine(
            shot33.machine,
            shot33.diagnostics,
            shot33.grid,
            batch_size=2,
            edge_operator=_cached(shot33, method),
        )
        batch = engine.fit_many(slices4)
        assert engine.edge_op.method == method
        assert _rel_dev(dense_batch, batch) <= bound

    def test_unknown_method_rejected(self, shot33):
        with pytest.raises(OperatorError, match="dense"):
            _cached(shot33, "butterfly")

    def test_engine_solver_applies_the_engine_operator(self, shot33, slices4):
        """The operator means the same at every entry point: the engine's
        solver — hence ``solver.fit`` and every served frame — runs on
        the operator ``fit_many`` applies.  (It used to stay on the
        Green-table sums, so ``repro serve --boundary-method X`` built an
        operator no frame ever applied.)"""
        op = _cached(shot33, "lowrank")
        engine = BatchFitEngine(
            shot33.machine, shot33.diagnostics, shot33.grid, edge_operator=op
        )
        assert engine.solver.pflux.operator is engine.edge_op is op
        (report,) = serve_reports(engine, slices4[:1])
        served = report.result
        bare = EfitSolver(
            shot33.machine, shot33.diagnostics, shot33.grid, pflux_impl=op
        ).fit(slices4[0])
        np.testing.assert_array_equal(served.psi, bare.psi)
        assert served.iterations == bare.iterations


class TestEdgeOperatorInstance:
    def test_prebuilt_operator_accepted(self, shot33, slices4, dense_batch):
        """Fleet workers inject the operator mapped from their arena this way."""
        op = build_edge_operator(cached_boundary_tables(shot33.grid), "lowrank")
        engine = BatchFitEngine(
            shot33.machine,
            shot33.diagnostics,
            shot33.grid,
            batch_size=2,
            edge_operator=op,
        )
        assert engine.edge_op is op
        assert _rel_dev(dense_batch, engine.fit_many(slices4)) <= 1e-10

    @pytest.mark.parametrize("method", ["toeplitz", "lowrank", "dense"])
    def test_an_operator_over_other_extents_is_refused(self, shot33, method):
        """A grid is its extents as well as its shape: an operator built on
        a 33x33 grid reaching 10 % further out in R applies the wrong
        Green function, and the fit it drives converged to a flux map off
        by 4.5e-2 of its span when only the shapes were compared."""
        grid = shot33.grid
        other = RZGrid(grid.nw, grid.nh, rmin=grid.rmin, rmax=1.1 * grid.rmax,
                       zmin=grid.zmin, zmax=grid.zmax)
        op = build_edge_operator(cached_boundary_tables(other), method)
        with pytest.raises(GridError, match="edge operator built for a different grid"):
            BatchFitEngine(shot33.machine, shot33.diagnostics, grid, edge_operator=op)
        with pytest.raises(GridError, match="edge operator built for a different grid"):
            EfitSolver(shot33.machine, shot33.diagnostics, grid, pflux_impl=op)

    def test_cached_operator_is_the_default_tolerance_build(self, shot33):
        """The process cache keys on (grid, method), so its accessor takes
        no tolerance: one loose call used to hand a 1e-4 operator to every
        engine built after it (DESIGN.md section 6 promises <= 1e-10)."""
        tables = cached_boundary_tables(shot33.grid)
        with pytest.raises(TypeError):
            cached_edge_operator(tables, "lowrank", tol=1e-3)
        op = cached_edge_operator(tables, "lowrank")
        default = build_edge_operator(tables, "lowrank")
        assert (op.variant_tag, op.nbytes) == (default.variant_tag, default.nbytes)
        x = np.random.default_rng(5).normal(size=(shot33.grid.size, 2))
        ref = build_edge_operator(tables, "dense").apply(x)
        errs = [np.abs(o.apply(x) - ref).max() / np.abs(ref).max() for o in (op, default)]
        assert errs[0] == errs[1] <= 1e-10
