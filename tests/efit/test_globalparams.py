"""Tests of the global parameters (beta_p, li, stored energy)."""

import numpy as np
import pytest

from repro.efit.globalparams import compute_global_parameters
from repro.efit.measurements import synthetic_shot_186610
from repro.efit.profiles import ProfileCoefficients
from repro.errors import BoundaryError


@pytest.fixture(scope="module")
def eq65():
    shot = synthetic_shot_186610(65)
    return shot, shot.truth


class TestPlausibility:
    def test_diiid_scale_values(self, eq65):
        shot, tr = eq65
        g = compute_global_parameters(shot.grid, tr.psi, tr.boundary, tr.profiles, tr.ip)
        assert 0.1 < g.beta_poloidal < 2.0
        assert 0.3 < g.internal_inductance < 2.0
        assert 5.0 < g.volume_m3 < 30.0  # DIII-D plasma ~ 17 m^3
        assert 1e4 < g.stored_energy_joules < 1e7
        assert 3.0 < g.lcfs_perimeter_m < 8.0

    def test_pressure_positive(self, eq65):
        shot, tr = eq65
        g = compute_global_parameters(shot.grid, tr.psi, tr.boundary, tr.profiles, tr.ip)
        assert g.average_pressure_pa > 0
        assert g.bp_average_tesla > 0


class TestScalings:
    def test_betap_linear_in_pressure(self, eq65):
        """At fixed fields, scaling p' scales beta_p and W linearly."""
        shot, tr = eq65
        base = compute_global_parameters(shot.grid, tr.psi, tr.boundary, tr.profiles, tr.ip)
        doubled = ProfileCoefficients(
            tr.profiles.pp_basis,
            tr.profiles.ffp_basis,
            2.0 * tr.profiles.alpha,
            tr.profiles.beta,
        )
        scaled = compute_global_parameters(shot.grid, tr.psi, tr.boundary, doubled, tr.ip)
        assert scaled.beta_poloidal == pytest.approx(2.0 * base.beta_poloidal, rel=1e-9)
        assert scaled.stored_energy_joules == pytest.approx(
            2.0 * base.stored_energy_joules, rel=1e-9
        )
        assert scaled.internal_inductance == pytest.approx(base.internal_inductance)

    def test_betap_inverse_square_in_current(self, eq65):
        """beta_p ~ 1/Ip^2 at fixed pressure and geometry."""
        shot, tr = eq65
        base = compute_global_parameters(shot.grid, tr.psi, tr.boundary, tr.profiles, tr.ip)
        half = compute_global_parameters(
            shot.grid, tr.psi, tr.boundary, tr.profiles, tr.ip / 2.0
        )
        assert half.beta_poloidal == pytest.approx(4.0 * base.beta_poloidal, rel=1e-9)

    def test_fit_reproduces_truth_globals(self, eq65):
        """The reconstruction's global parameters match the ground truth's."""
        from repro.efit.fitting import EfitSolver

        shot, tr = eq65
        res = EfitSolver(shot.machine, shot.diagnostics, shot.grid).fit(shot.measurements)
        g_fit = compute_global_parameters(
            shot.grid, res.psi, res.boundary, res.profiles, res.ip
        )
        g_true = compute_global_parameters(shot.grid, tr.psi, tr.boundary, tr.profiles, tr.ip)
        assert g_fit.beta_poloidal == pytest.approx(g_true.beta_poloidal, rel=0.05)
        assert g_fit.internal_inductance == pytest.approx(
            g_true.internal_inductance, rel=0.05
        )


class TestValidation:
    def test_zero_current_rejected(self, eq65):
        shot, tr = eq65
        with pytest.raises(BoundaryError):
            compute_global_parameters(shot.grid, tr.psi, tr.boundary, tr.profiles, 0.0)


class TestResolutionSweep:
    def test_accuracy_improves_with_resolution(self):
        """A statement about the grid, so it is made against a truth no
        fitted grid discretises (ROADMAP item 14): g186610 synthesised at
        129^2, its measurements fitted at 33^2 and 65^2 under twelve noise
        seeds, the flux error read at the nodes each grid shares with
        129^2.  The same-grid error cannot carry it: the whole-cell plasma
        mask gives the Picard map neighbouring fixed points, and which one
        a realisation lands on is an accident of the trajectory (at 33^2
        the median same-grid error is 0.8e-4 from the measured seed and
        1.7e-4 from the filament one, against 1.1e-4 at 65^2; its chi^2
        order flips with it)."""
        import dataclasses

        from repro.efit.fitting import EfitSolver
        from repro.efit.measurements import measure_equilibrium

        reference = synthetic_shot_186610(129)
        exact = measure_equilibrium(
            reference.machine, reference.diagnostics, reference.grid, reference.truth,
            noise=0.0, seed=0,
        ).values  # fmt: skip
        sigma = reference.measurements.uncertainties
        rms, chi2 = {}, {}
        for n in (33, 65):
            shot = synthetic_shot_186610(n)
            solver = EfitSolver(shot.machine, shot.diagnostics, shot.grid)
            step = (reference.grid.nw - 1) // (n - 1)
            truth = reference.truth.psi[::step, ::step]
            fits = []
            for seed in range(1, 13):
                # the measurements of synthetic_shot_186610(129, seed=seed),
                # without its forward solve and response build per seed
                values = exact + np.random.default_rng(seed).normal(0.0, sigma)
                res = solver.fit(dataclasses.replace(reference.measurements, values=values))
                fits.append((np.sqrt(np.mean((res.psi - truth) ** 2)), res.chi2))
            rms[n], chi2[n] = np.median(fits, axis=0)
        assert rms[65] < rms[33]
        # chi^2 approaches the statistical expectation as the grid refines
        assert chi2[65] < chi2[33]

    def test_derived_quantities_stable(self):
        from repro.efit.resolution import resolution_sweep

        pts = resolution_sweep((33, 65))
        assert pts[0].q95 == pytest.approx(pts[1].q95, rel=0.05)
        assert pts[0].kappa == pytest.approx(pts[1].kappa, rel=0.05)
        assert pts[0].beta_poloidal == pytest.approx(pts[1].beta_poloidal, rel=0.05)

    def test_validation(self):
        from repro.efit.resolution import resolution_sweep
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            resolution_sweep((65,))
        with pytest.raises(ReproError):
            resolution_sweep((65, 33))
