"""Tests of the forward solve and the synthetic shot generator."""

import numpy as np
import pytest

from repro.efit.basis import PolynomialBasis
from repro.efit.forward import design_coil_currents, solve_forward
from repro.efit.measurements import MeasurementSet, synthetic_shot_186610
from repro.efit.profiles import ProfileCoefficients
from repro.errors import FittingError, MeasurementError


class TestCoilDesign:
    def test_reasonable_current_scale(self, machine):
        currents = design_coil_currents(machine, ip=1.0e6)
        assert currents.shape == (machine.n_coils,)
        assert np.abs(currents).max() < 5e6
        assert np.abs(currents).max() > 1e2

    def test_updown_symmetric_design(self, machine):
        """Symmetric target boundary -> symmetric coil currents in pairs."""
        currents = design_coil_currents(machine, ip=1.0e6)
        pairs = currents.reshape(-1, 2)  # (A, B) interleaved by factory
        assert np.allclose(pairs[:, 0], pairs[:, 1], rtol=1e-6, atol=1.0)

    def test_scales_with_ip(self, machine):
        c1 = design_coil_currents(machine, ip=0.5e6)
        c2 = design_coil_currents(machine, ip=1.0e6)
        assert np.allclose(2.0 * c1, c2, rtol=1e-9)


class TestForwardSolve:
    def test_converges_and_hits_ip(self, shot33):
        eq = shot33.truth
        assert eq.residual < 1e-9
        assert eq.ip == pytest.approx(1.0e6, rel=1e-9)
        assert eq.iterations < 200

    def test_symmetric_equilibrium(self, shot33):
        psi = shot33.truth.psi
        assert np.allclose(psi, psi[:, ::-1], rtol=1e-6, atol=1e-9)

    def test_gs_equation_satisfied(self, shot33):
        """The converged flux solves the discrete GS equation with its own
        current distribution."""
        from repro.efit.operators import GradShafranovOperator
        from repro.utils.constants import MU0

        g = shot33.grid
        eq = shot33.truth
        op = GradShafranovOperator(g)
        # The plasma part only: total minus coil vacuum flux.
        psi_plasma = eq.psi - shot33.machine.psi_from_coils(g, eq.coil_currents)
        rhs = -(MU0 / g.cell_area) * g.rr * eq.pcurr
        res = op.residual(psi_plasma, rhs)
        scale = np.abs(rhs).max()
        assert np.abs(res[1:-1, 1:-1]).max() < 1e-6 * scale

    def test_relaxation_validation(self, machine, grid33):
        profiles = ProfileCoefficients(
            PolynomialBasis(2), PolynomialBasis(2), np.array([1.0, -0.5]), np.array([0.5, -0.3])
        )
        with pytest.raises(FittingError):
            solve_forward(machine, grid33, profiles, relax_current=0.0)


class TestSyntheticShot:
    def test_deterministic(self):
        a = synthetic_shot_186610(33)
        b = synthetic_shot_186610(33)
        assert a is b  # cached
        assert np.array_equal(a.measurements.values, b.measurements.values)

    def test_label_and_sizes(self, shot33):
        assert "186610" in shot33.label
        assert shot33.grid.nw == 33
        assert shot33.measurements.n_measurements == shot33.diagnostics.n_measurements

    def test_rogowski_reads_ip(self, shot33):
        assert shot33.measurements.ip == pytest.approx(1.0e6, rel=5e-3)

    def test_noise_free_measurements_exact(self):
        shot = synthetic_shot_186610(33, noise=0.0, seed=1)
        g = shot.grid
        exact = shot.diagnostics.response_to_grid(g) @ g.flatten(shot.truth.pcurr)
        exact = exact + shot.diagnostics.response_to_coils(shot.machine) @ shot.truth.coil_currents
        assert np.allclose(shot.measurements.values, exact)

    def test_too_coarse_rejected(self):
        with pytest.raises(MeasurementError):
            synthetic_shot_186610(9)

    def test_measurement_set_validation(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(np.zeros(3), np.ones(2), np.zeros(2), ("a", "b", "c"))
        with pytest.raises(MeasurementError):
            MeasurementSet(np.zeros(3), np.zeros(3), np.zeros(2), ("a", "b", "c"))
        with pytest.raises(MeasurementError):
            MeasurementSet(np.zeros(3), np.ones(3), np.zeros(2), ("a", "b"))
