"""Tests of the analytic Solov'ev verification equilibria."""

import numpy as np
import pytest

from repro.efit.grid import RZGrid
from repro.efit.solovev import SolovevEquilibrium
from repro.errors import SolverError
from repro.utils.constants import MU0


class TestBasics:
    def test_delta_star_is_a_r2_plus_c(self, solovev):
        r = np.array([1.2, 1.8])
        z = np.array([0.3, -0.5])
        assert np.allclose(
            solovev.delta_star(r, z), solovev.a_coef * r**2 + solovev.c_coef
        )

    def test_profile_constants(self, solovev):
        assert solovev.pprime == pytest.approx(-solovev.a_coef / MU0)
        assert solovev.ffprime == pytest.approx(-solovev.c_coef)

    def test_j_phi_sign(self, solovev):
        """Negative A and C give positive current density."""
        assert solovev.j_phi(np.array([1.7]), np.array([0.0]))[0] > 0

    def test_coefficient_validation(self):
        with pytest.raises(SolverError):
            SolovevEquilibrium(1.0, 1.0, homogeneous=np.zeros(3))

    def test_grid_sampling_shapes(self, solovev, grid33):
        assert solovev.psi_grid(grid33).shape == grid33.shape


class TestShapedFactory:
    def test_boundary_points_on_zero_contour(self):
        eq = SolovevEquilibrium.shaped(minor_radius=0.5, elongation=1.5, triangularity=0.3)
        for rp, zp in [(2.19, 0.0), (1.19, 0.0), (1.54, 0.75)]:
            assert eq.psi(np.array([rp]), np.array([zp]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_updown_symmetric(self):
        eq = SolovevEquilibrium.shaped()
        r = np.array([1.5, 1.9])
        assert np.allclose(eq.psi(r, 0.4), eq.psi(r, -0.4))

    def test_interior_flux_has_definite_sign(self):
        """Inside the zero contour psi keeps one sign (closed surfaces)."""
        eq = SolovevEquilibrium.shaped()
        g = RZGrid(41, 41, rmin=1.25, rmax=2.1, zmin=-0.5, zmax=0.5)
        vals = eq.psi(g.rr, g.zz)
        interior = vals[10:-10, 10:-10]
        assert (interior > 0).all() or (interior < 0).all()

    def test_invalid_minor_radius(self):
        with pytest.raises(SolverError):
            SolovevEquilibrium.shaped(minor_radius=1.7)
