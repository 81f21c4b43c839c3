"""Tests of vessel eddy-current modeling and fitting."""

import dataclasses

import numpy as np
import pytest

from repro.efit.fitting import EfitSolver
from repro.efit.machine import Tokamak, VesselSegment, diiid_like_machine
from repro.efit.measurements import synthetic_shot_186610
from repro.errors import FittingError, MeasurementError


@pytest.fixture(scope="module")
def eddy_shot():
    return synthetic_shot_186610(33, eddy_ka=15.0)


class TestVesselGeometry:
    def test_diiid_like_has_vessel(self, machine):
        assert machine.n_vessel == 24
        # Vessel sits outside the limiter, inside the diagnostics ring.
        for seg in machine.vessel:
            assert not bool(machine.limiter.contains(seg.r, seg.z))

    def test_segment_validation(self):
        with pytest.raises(MeasurementError):
            VesselSegment("V", -1.0, 0.0)

    def test_duplicate_names_rejected(self, machine):
        with pytest.raises(MeasurementError):
            Tokamak(
                "x",
                machine.coils,
                machine.limiter,
                1.0,
                vessel=(machine.vessel[0], machine.vessel[0]),
            )

    def test_flux_tables_linearity(self, machine):
        g = machine.make_grid(17)
        currents = np.zeros(machine.n_vessel)
        currents[5] = 2.0e3
        psi = machine.psi_from_vessel(g, currents)
        assert np.allclose(psi, 2.0e3 * machine.vessel_flux_tables(g)[5])

    def test_current_length_validated(self, machine):
        g = machine.make_grid(17)
        with pytest.raises(MeasurementError):
            machine.psi_from_vessel(g, np.zeros(3))

    def test_vessel_response_shape(self, machine):
        from repro.efit.diagnostics import DiagnosticSet

        d = DiagnosticSet.for_machine(machine)
        resp = d.response_to_vessel(machine)
        assert resp.shape == (d.n_measurements, machine.n_vessel)
        assert np.allclose(resp[-1], 0.0)  # Rogowski blind to the vessel


class TestEddyCurrentFitting:
    def test_quiescent_shot_fits_near_zero_vessel_currents(self, shot33):
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, fit_vessel=True)
        res = s.fit(shot33.measurements)
        assert res.converged
        assert np.abs(res.vessel_currents).max() < 2e3  # << the 15 kA eddy scale

    def test_eddy_shot_breaks_plain_fit(self, eddy_shot):
        """Unmodeled 15 kA eddy currents poison a magnetics-only fit —
        the motivation for EFIT's vessel option."""
        s = EfitSolver(eddy_shot.machine, eddy_shot.diagnostics, eddy_shot.grid)
        try:
            res = s.fit(eddy_shot.measurements, require_convergence=False)
        except Exception:
            return
        n = eddy_shot.measurements.n_measurements
        assert (not res.converged) or res.chi2 > 20 * n

    def test_vessel_fit_recovers_equilibrium_and_currents(self, eddy_shot):
        s = EfitSolver(
            eddy_shot.machine, eddy_shot.diagnostics, eddy_shot.grid, fit_vessel=True
        )
        res = s.fit(eddy_shot.measurements)
        assert res.converged
        err = np.abs(res.psi - eddy_shot.truth.psi).max() / np.ptp(eddy_shot.truth.psi)
        assert err < 5e-3
        truth_iv = eddy_shot.truth.vessel_currents
        rel = np.abs(res.vessel_currents - truth_iv).max() / np.abs(truth_iv).max()
        assert rel < 0.3

    def test_fit_vessel_requires_vessel(self, shot33):
        bare = dataclasses.replace(diiid_like_machine(), vessel=())
        with pytest.raises(FittingError):
            EfitSolver(bare, shot33.diagnostics, shot33.grid, fit_vessel=True)

    def test_result_has_no_vessel_field_by_default(self, shot33):
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        res = s.fit(shot33.measurements)
        assert res.vessel_currents is None
