"""Tests of the complete g-file assembly from a reconstruction."""

import numpy as np
import pytest

from repro.efit.eqdsk import read_geqdsk, write_geqdsk
from repro.efit.fitting import EfitSolver
from repro.efit.output import geqdsk_from_fit


@pytest.fixture(scope="module")
def fitted(shot33):
    solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
    return shot33, solver.fit(shot33.measurements)


class TestGeqdskFromFit:
    def test_header_geometry(self, fitted):
        shot, result = fitted
        eq = geqdsk_from_fit(shot, result)
        g = shot.grid
        assert eq.nw == g.nw and eq.nh == g.nh
        assert eq.rleft == pytest.approx(g.rmin)
        assert eq.rdim == pytest.approx(g.rmax - g.rmin)
        assert eq.simag == pytest.approx(result.boundary.psi_axis)
        assert eq.sibry == pytest.approx(result.boundary.psi_boundary)
        assert eq.current == pytest.approx(result.ip)

    def test_profiles_physical(self, fitted):
        shot, result = fitted
        eq = geqdsk_from_fit(shot, result)
        assert (eq.fpol > 0).all()  # F never crosses zero in this device
        assert eq.pres[-1] == pytest.approx(0.0, abs=1e-8)  # p(1) = 0
        assert eq.pres[0] > 0  # finite core pressure
        assert (eq.qpsi > 0).all()

    def test_boundary_contour_closed_and_inside_limiter(self, fitted):
        shot, result = fitted
        eq = geqdsk_from_fit(shot, result)
        assert eq.rbbbs.size >= 64
        inside = shot.machine.limiter.contains(eq.rbbbs, eq.zbbbs)
        assert inside.all()

    def test_psirz_is_fit_flux(self, fitted):
        shot, result = fitted
        eq = geqdsk_from_fit(shot, result)
        assert np.array_equal(eq.psirz, result.psi)

    def test_roundtrips_through_file(self, fitted, tmp_path):
        shot, result = fitted
        eq = geqdsk_from_fit(shot, result)
        path = tmp_path / "g.test"
        write_geqdsk(eq, path)
        back = read_geqdsk(path)
        assert np.allclose(back.psirz, eq.psirz, rtol=1e-8)
        assert np.allclose(back.qpsi, eq.qpsi, rtol=1e-8)
        assert back.description.startswith("repro ")
