"""Edge-path coverage: negative current, open surfaces, solver limits."""

import numpy as np
import pytest

from repro.efit.basis import PolynomialBasis
from repro.efit.contours import trace_flux_surface
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import EfitSolver
from repro.efit.forward import solve_forward
from repro.efit.grid import RZGrid
from repro.efit.machine import diiid_like_machine
from repro.efit.measurements import _measure
from repro.efit.profiles import ProfileCoefficients
from repro.efit.solvers.iterative import ConjugateGradientSolver
from repro.errors import BoundaryError, ConvergenceError


class TestNegativeCurrent:
    """Reversed-Ip discharges flip every sign convention: psi has a
    *minimum* on axis and the boundary search runs with sign=-1."""

    @pytest.fixture(scope="class")
    def neg_shot(self):
        m = diiid_like_machine()
        g = m.make_grid(33)
        profiles = ProfileCoefficients(
            PolynomialBasis(2),
            PolynomialBasis(2),
            alpha=-np.array([2.0e5, -1.8e5]),
            beta=-np.array([0.55, -0.45]),
        )
        eq = solve_forward(m, g, profiles, ip=-1.0e6)
        d = DiagnosticSet.for_machine(m)
        meas = _measure(m, d, g, eq, noise=1e-3, seed=5)
        return m, g, d, eq, meas

    def test_forward_converges(self, neg_shot):
        _, _, _, eq, _ = neg_shot
        assert eq.ip == pytest.approx(-1.0e6, rel=1e-9)
        assert eq.boundary.psi_axis < eq.boundary.psi_boundary  # minimum on axis

    def test_reconstruction_recovers(self, neg_shot):
        m, g, d, eq, meas = neg_shot
        res = EfitSolver(m, d, g).fit(meas)
        assert res.converged
        assert res.ip == pytest.approx(-1.0e6, rel=5e-3)
        err = np.abs(res.psi - eq.psi).max() / np.ptp(eq.psi)
        assert err < 5e-3

    def test_psin_still_normalised(self, neg_shot):
        _, _, _, eq, _ = neg_shot
        assert eq.boundary.psin.min() == pytest.approx(0.0, abs=0.02)
        assert (eq.boundary.psin[eq.boundary.mask] < 1.0).all()

    def test_surfaces_traceable(self, neg_shot):
        _, g, _, eq, _ = neg_shot
        surf = trace_flux_surface(g, eq.boundary, 0.5)
        assert surf.area > 0


class TestOpenSurface:
    def test_unbracketed_level_raises(self, shot33):
        """Asking for a surface outside the plasma (a psiN the rays never
        reach before the box edge in some direction) must raise, not loop."""
        b = shot33.truth.boundary
        # Construct a pathological psin: cap it below 0.5 so level 0.9
        # never brackets.
        import dataclasses

        capped = dataclasses.replace(b, psin=np.minimum(b.psin, 0.45))
        with pytest.raises(BoundaryError):
            trace_flux_surface(shot33.grid, capped, 0.9)


class TestSolverLimits:
    def test_cg_iteration_cap_raises(self, rng):
        g = RZGrid(21, 21)
        solver = ConjugateGradientSolver(g, maxiter=2)
        with pytest.raises(ConvergenceError):
            solver.solve(rng.normal(size=g.shape), rng.normal(size=g.shape))

    def test_forward_max_iters_raises(self):
        m = diiid_like_machine()
        g = m.make_grid(33)
        profiles = ProfileCoefficients(
            PolynomialBasis(2), PolynomialBasis(2),
            np.array([2.0e5, -1.8e5]), np.array([0.55, -0.45]),
        )
        with pytest.raises(ConvergenceError):
            solve_forward(m, g, profiles, max_iters=2)


class TestTablesChunking:
    def test_chunked_build_matches(self, grid_rect, tables_rect):
        from repro.efit.tables import build_boundary_tables

        rebuilt = build_boundary_tables(grid_rect)
        assert np.array_equal(rebuilt.gpc, tables_rect.gpc)
