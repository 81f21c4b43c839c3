"""Tests of the MSE (kinetic-constraint) extension."""

import numpy as np
import pytest

from repro.efit.diagnostics import DiagnosticSet, MSEChannel
from repro.efit.fitting import EfitSolver
from repro.efit.greens import greens_bz
from repro.efit.measurements import measure_equilibrium, synthetic_shot_186610
from repro.errors import MeasurementError


@pytest.fixture(scope="module")
def mse_shot():
    return synthetic_shot_186610(33, n_mse=16)


class TestChannel:
    def test_response_is_normalised_bz(self, grid33):
        ch = MSEChannel("M", 2.0, 0.0, f_vacuum=3.38)
        resp = ch.response_to_grid(grid33)
        bz = greens_bz(2.0, 0.0, grid33.rr, grid33.zz)
        assert np.allclose(resp, bz * 2.0 / 3.38)

    def test_validation(self):
        with pytest.raises(MeasurementError):
            MSEChannel("M", -1.0, 0.0, 3.38)
        with pytest.raises(MeasurementError):
            MSEChannel("M", 2.0, 0.0, 0.0)

    def test_channels_inside_plasma(self, mse_shot):
        """MSE is an *internal* diagnostic: channels sit inside the limiter
        (unlike the flux loops and probes)."""
        for ch in mse_shot.diagnostics.mse:
            assert bool(mse_shot.machine.limiter.contains(ch.r, ch.z))

    def test_row_ordering_keeps_rogowski_last(self, mse_shot):
        d = mse_shot.diagnostics
        assert d.names[-1] == "IP"
        assert d.n_measurements == 40 + 60 + 16 + 1
        assert mse_shot.measurements.ip == pytest.approx(1.0e6, rel=5e-3)


class TestKineticFit:
    def test_fit_converges_with_mse(self, mse_shot):
        s = EfitSolver(mse_shot.machine, mse_shot.diagnostics, mse_shot.grid)
        res = s.fit(mse_shot.measurements)
        assert res.converged
        assert res.chi2 < 4 * mse_shot.measurements.n_measurements

    def test_mse_sharpens_pprime_under_noise(self):
        """The kinetic constraint pins the p' coefficients far better than
        external magnetics alone — the reason EFIT-AI carries MSE.  The
        effect shows once measurement noise is realistic (0.5%): the
        p'/FF' split is the softest direction of the magnetics-only fit.
        A statement about the constraint, so it is made over noise seeds
        0-7: one realisation's ratio ranges from 0.6 to 18 (median 3.1)."""
        noise = 5e-3
        plain = synthetic_shot_186610(33, n_mse=0, noise=noise)
        kinetic = synthetic_shot_186610(33, n_mse=16, noise=noise)
        truth = plain.truth.profiles.alpha
        fits = [
            (shot, EfitSolver(shot.machine, shot.diagnostics, shot.grid))
            for shot in (plain, kinetic)
        ]
        ratios = []
        for seed in range(8):
            errors = []
            for shot, solver in fits:
                m = measure_equilibrium(
                    shot.machine, shot.diagnostics, shot.grid, shot.truth, noise=noise, seed=seed
                )
                errors.append(abs(solver.fit(m).profiles.alpha[0] / truth[0] - 1.0))
            ratios.append(errors[0] / errors[1])
        assert np.median(ratios) > 2.5

    def test_mse_does_not_degrade_flux_map(self, mse_shot):
        s = EfitSolver(mse_shot.machine, mse_shot.diagnostics, mse_shot.grid)
        res = s.fit(mse_shot.measurements)
        err = np.abs(res.psi - mse_shot.truth.psi).max() / np.ptp(mse_shot.truth.psi)
        assert err < 4e-3

    def test_for_machine_zero_mse_default(self, machine):
        d = DiagnosticSet.for_machine(machine)
        assert d.mse == ()
