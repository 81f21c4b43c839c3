"""Geometry statics: built once per (machine, grid), never in the Picard loop.

The in-limiter grid mask, the densified limiter contour and the per-coil
vacuum-flux tables depend only on the machine and the mesh.  The limiter
and the machine memoise them; every entry point reads the memo.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.boundary import find_axis, find_boundary
from repro.efit.fitting import EfitSolver
from repro.efit.machine import LIMITER_SAMPLES_PER_EDGE, Limiter, Tokamak, diiid_like_machine
from tests.serve.conftest import serve_reports


@pytest.fixture()
def fresh_machine():
    """The 186610 shot's machine with an empty memo (the session-scoped
    ``machine`` and ``shot33.machine`` are warm from other tests)."""
    return diiid_like_machine()


class TestGeometryWorkHappensAtConstruction:
    def test_no_entry_point_rebuilds_geometry(self, shot33, fresh_machine, monkeypatch):
        grid = shot33.grid
        engine = BatchFitEngine(fresh_machine, shot33.diagnostics, grid, batch_size=2)
        solver = EfitSolver(fresh_machine, shot33.diagnostics, grid)
        slices = synthetic_slice_sequence(shot33, 2, seed=3)

        built = []
        contains = Limiter.contains
        sample_points = Limiter._sample_points
        flux_tables = Tokamak._flux_tables

        def spy_contains(self, r, z):
            # The <= 6 X-point candidates are psi-dependent and legitimate;
            # a grid-shaped query is the mask being rebuilt.
            if np.shape(r) == grid.shape:
                built.append("grid mask")
            return contains(self, r, z)

        def spy_sample_points(self):
            built.append("limiter contour")
            return sample_points(self)

        def spy_flux_tables(self, sources, grid):
            built.append("flux tables")
            return flux_tables(self, sources, grid)

        monkeypatch.setattr(Limiter, "contains", spy_contains)
        monkeypatch.setattr(Limiter, "_sample_points", spy_sample_points)
        monkeypatch.setattr(Tokamak, "_flux_tables", spy_flux_tables)

        result = solver.fit(slices[0])
        assert built == [], "EfitSolver.fit"
        engine.fit_many(slices)
        assert built == [], "BatchFitEngine.fit_many"
        (report,) = serve_reports(engine, slices[:1])
        assert report.converged
        assert built == [], "ReconstructionService"
        find_boundary(grid, result.psi, fresh_machine.limiter)
        assert built == [], "bare find_boundary"

    def test_solvers_on_one_machine_share_the_arrays(self, shot33, fresh_machine):
        a = EfitSolver(fresh_machine, shot33.diagnostics, shot33.grid)
        b = EfitSolver(fresh_machine, shot33.diagnostics, shot33.grid)
        assert a.statics.coil_flux is b.statics.coil_flux
        assert a.statics.inside_limiter is b.statics.inside_limiter
        engine = BatchFitEngine(fresh_machine, shot33.diagnostics, shot33.grid)
        assert engine.statics is engine.solver.statics
        assert engine.statics.coil_flux is a.statics.coil_flux

    def test_warm_memo_fits_bit_identically_to_a_fresh_machine(self, shot33, fresh_machine):
        fresh = EfitSolver(fresh_machine, shot33.diagnostics, shot33.grid).fit(
            shot33.measurements
        )
        warm = EfitSolver(fresh_machine, shot33.diagnostics, shot33.grid).fit(
            shot33.measurements
        )
        assert np.array_equal(fresh.psi, warm.psi)
        assert fresh.chi2 == warm.chi2 and fresh.iterations == warm.iterations


class TestMemoContract:
    def test_one_entry_per_grid(self, fresh_machine):
        g33, g65 = fresh_machine.make_grid(33), fresh_machine.make_grid(65)
        limiter = fresh_machine.limiter
        assert limiter.grid_mask(g33).shape == (33, 33)
        assert limiter.grid_mask(g65).shape == (65, 65)
        assert fresh_machine.coil_flux_tables(g33).shape == (18, 33, 33)
        assert fresh_machine.coil_flux_tables(g65).shape == (18, 65, 65)
        # The key is the grid's value, not its identity.
        assert limiter.grid_mask(fresh_machine.make_grid(33)) is limiter.grid_mask(g33)
        assert fresh_machine.coil_flux_tables(g65) is fresh_machine.coil_flux_tables(g65)
        assert fresh_machine.vessel_flux_tables(g33) is fresh_machine.vessel_flux_tables(g33)
        assert np.array_equal(limiter.grid_mask(g65), limiter.contains(g65.rr, g65.zz))
        assert limiter.sample_points() is limiter.sample_points()
        assert limiter.sample_points()[0].size == LIMITER_SAMPLES_PER_EDGE * limiter.r.size

    def test_memoised_arrays_are_read_only(self, fresh_machine):
        grid = fresh_machine.make_grid(33)
        with pytest.raises(ValueError):
            fresh_machine.limiter.grid_mask(grid)[0, 0] = True
        with pytest.raises(ValueError):
            fresh_machine.coil_flux_tables(grid)[0] = 0.0
        with pytest.raises(ValueError):
            fresh_machine.vessel_flux_tables(grid)[0] = 0.0
        with pytest.raises(ValueError):
            fresh_machine.limiter.sample_points()[0][0] = 0.0

    def test_pickle_carries_no_memo(self, shot33, fresh_machine):
        # A coil's ``filaments`` is a cached_property, which pickles; fill
        # it so the byte counts below compare the memo and nothing else.
        for coil in fresh_machine.coils:
            coil.filaments
        n_bytes = len(pickle.dumps(fresh_machine))
        result = EfitSolver(fresh_machine, shot33.diagnostics, shot33.grid).fit(
            shot33.measurements
        )
        blob = pickle.dumps(fresh_machine)
        assert len(blob) == n_bytes
        clone = pickle.loads(blob)
        assert "_memo" not in vars(clone) and "_memo" not in vars(clone.limiter)
        again = EfitSolver(clone, shot33.diagnostics, shot33.grid).fit(shot33.measurements)
        assert np.array_equal(again.psi, result.psi)
        assert again.chi2 == result.chi2 and again.iterations == result.iterations

    def test_concurrent_first_use(self, shot33, fresh_machine):
        """Solvers built at once on a machine nobody has used yet: the
        memo is filled without a lock, so every thread must still end up
        with the right arrays."""
        grid = shot33.grid
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        solvers = [None] * n_threads

        def construct(k):
            barrier.wait(timeout=60)
            solvers[k] = EfitSolver(fresh_machine, shot33.diagnostics, grid)

        threads = [threading.Thread(target=construct, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        reference = shot33.machine
        for solver in solvers:
            statics = solver.statics
            assert np.array_equal(statics.inside_limiter, reference.limiter.grid_mask(grid))
            assert np.array_equal(statics.coil_flux, reference.coil_flux_tables(grid))
            for got, want in zip(statics.limiter_samples, reference.limiter.sample_points()):
                assert np.array_equal(got, want)
        # Whoever lost a race adopted the winner's array from then on.
        later = EfitSolver(fresh_machine, shot33.diagnostics, grid)
        assert later.statics.coil_flux is fresh_machine.coil_flux_tables(grid)


class TestExplicitOverrides:
    def test_shrunken_mask_moves_the_axis(self, shot33):
        grid, psi, limiter = shot33.grid, shot33.truth.psi, shot33.machine.limiter
        r_axis, _, _ = find_axis(grid, psi, limiter)
        outboard = limiter.grid_mask(grid) & (grid.rr > r_axis + 0.2)
        r_moved, _, _ = find_axis(grid, psi, limiter, inside=outboard)
        assert r_moved > r_axis + 0.2 - grid.dr
        assert find_boundary(grid, psi, limiter, inside=outboard).r_axis == r_moved

    def test_explicit_limiter_samples_set_the_wall(self, shot33):
        grid, psi, limiter = shot33.grid, shot33.truth.psi, shot33.machine.limiter
        default = find_boundary(grid, psi, limiter)
        r0, z0 = default.r_axis, default.z_axis
        shrunk = (r0 + 0.5 * (limiter.r - r0), z0 + 0.5 * (limiter.z - z0))
        inner = find_boundary(grid, psi, limiter, limiter_samples=shrunk)
        assert inner.boundary_type == "limiter"
        assert inner.plasma_volume_cells < default.plasma_volume_cells
