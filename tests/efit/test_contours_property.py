"""Property tests of X-point/limiter classification under perturbation.

``steps_`` must classify the magnetic topology *stably*: a smooth flux
perturbation well below the plasma's flux span cannot flip a clearly
limited plasma to diverted, cannot lose a double-null's two X-points,
and cannot teleport the axis.  Hypothesis drives smooth trigonometric
perturbations of (a) a shaped analytic Solov'ev equilibrium bounded by a
circular limiter and (b) the double-null scenario's ground-truth flux
map, and asserts the classification invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.efit.boundary import find_boundary, find_xpoints
from repro.efit.grid import RZGrid
from repro.efit.machine import Limiter
from repro.efit.solovev import SolovevEquilibrium

GRID = RZGrid(33, 33)

_EQ = SolovevEquilibrium.shaped(minor_radius=0.5, elongation=1.5, triangularity=0.3)
PSI_SOLOVEV = _EQ.psi_grid(GRID)
SPAN = float(PSI_SOLOVEV.max() - PSI_SOLOVEV.min())

_theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
#: Circular wall comfortably outside the a=0.5 plasma but inside the box.
LIMITER = Limiter(1.7 + 0.62 * np.cos(_theta), 0.93 * np.sin(_theta))


def smooth_perturbation(grid, amplitude, kr, kz, phase_r, phase_z):
    """A smooth standing wave of relative ``amplitude`` (units of the
    unperturbed flux span)."""
    u = (grid.rr - grid.rmin) / (grid.rmax - grid.rmin)
    v = (grid.zz - grid.zmin) / (grid.zmax - grid.zmin)
    return amplitude * np.cos(kr * np.pi * u + phase_r) * np.cos(kz * np.pi * v + phase_z)


perturbations = {
    "kr": st.integers(min_value=1, max_value=3),
    "kz": st.integers(min_value=1, max_value=3),
    "phase_r": st.floats(min_value=0.0, max_value=2.0 * np.pi),
    "phase_z": st.floats(min_value=0.0, max_value=2.0 * np.pi),
}


class TestLimitedPlasma:
    """A clearly limited Solov'ev plasma stays limited."""

    # Classification stability has a real threshold: in the weak-field
    # gap between the plasma edge and the wall, a standing wave can
    # create a *genuine* saddle whose flux beats the limiter-contact
    # flux, at which point "xpoint" is the correct answer, not a bug.
    # Measured over a dense kr/kz/phase sweep at 33^2 the first such
    # flip appears at amp = 0.01 (kr = kz = 3); the property only
    # holds below it, so drive amplitudes to 0.008.
    @given(amp=st.floats(min_value=-0.008, max_value=0.008), **perturbations)
    @settings(max_examples=40, deadline=None)
    def test_classification_stable(self, amp, kr, kz, phase_r, phase_z):
        psi = PSI_SOLOVEV + SPAN * smooth_perturbation(
            GRID, amp, kr, kz, phase_r, phase_z
        )
        result = find_boundary(GRID, psi, LIMITER)
        assert result.boundary_type == "limiter"
        assert result.r_xpoint is None and result.z_xpoint is None

    @given(amp=st.floats(min_value=-0.02, max_value=0.02), **perturbations)
    @settings(max_examples=40, deadline=None)
    def test_axis_stays_near_core(self, amp, kr, kz, phase_r, phase_z):
        psi = PSI_SOLOVEV + SPAN * smooth_perturbation(
            GRID, amp, kr, kz, phase_r, phase_z
        )
        result = find_boundary(GRID, psi, LIMITER)
        # The core is flat, so a 2 % flux ripple can move the extremum a
        # few cells — but never out of the central plasma region.
        assert np.hypot(result.r_axis - 1.77, result.z_axis) < 0.25
        assert bool(LIMITER.contains(result.r_axis, result.z_axis))

    @given(amp=st.floats(min_value=-0.02, max_value=0.02), **perturbations)
    @settings(max_examples=20, deadline=None)
    def test_mask_well_formed(self, amp, kr, kz, phase_r, phase_z):
        from scipy import ndimage

        psi = PSI_SOLOVEV + SPAN * smooth_perturbation(
            GRID, amp, kr, kz, phase_r, phase_z
        )
        result = find_boundary(GRID, psi, LIMITER)
        inside = LIMITER.contains(GRID.rr, GRID.zz)
        assert result.mask.any()
        assert not (result.mask & ~inside).any()
        assert (result.psin[result.mask] < 1.0).all()
        _, n_components = ndimage.label(result.mask)
        assert n_components == 1


@pytest.fixture(scope="module")
def dn_truth():
    from repro.scenarios import get_scenario

    shot = get_scenario("double-null").make_shot(33)
    return shot.grid, shot.truth, shot.machine.limiter


class TestDivertedPlasma:
    """The double-null truth keeps both X-points under perturbation."""

    @given(amp=st.floats(min_value=-0.01, max_value=0.01), **perturbations)
    @settings(max_examples=40, deadline=None)
    def test_stays_double_null(self, dn_truth, amp, kr, kz, phase_r, phase_z):
        grid, truth, limiter = dn_truth
        span = truth.boundary.psi_axis - truth.boundary.psi_boundary
        psi = truth.psi + span * smooth_perturbation(
            grid, amp, kr, kz, phase_r, phase_z
        )
        result = find_boundary(grid, psi, limiter)
        assert result.boundary_type == "xpoint"
        xps = [
            (rx, zx)
            for rx, zx, _ in find_xpoints(grid, psi, max_points=6)
            if bool(limiter.contains(rx, zx))
        ]
        assert len(xps) == 2
        zs = sorted(z for _, z in xps)
        assert zs[0] < -0.5 and zs[1] > 0.5

    def test_refined_xpoints_are_true_saddles(self, dn_truth):
        """|grad psi| at each refined X-point is tiny against the
        field's typical gradient (sub-cell refinement actually lands on
        the saddle)."""
        grid, truth, limiter = dn_truth
        dpsi_dr = np.gradient(truth.psi, grid.dr, axis=0)
        dpsi_dz = np.gradient(truth.psi, grid.dz, axis=1)
        typical = float(np.median(np.hypot(dpsi_dr, dpsi_dz)))
        xps = [
            (rx, zx)
            for rx, zx, _ in find_xpoints(grid, truth.psi, max_points=6)
            if bool(limiter.contains(rx, zx))
        ]
        assert xps
        for rx, zx in xps:
            gr = grid.bilinear(dpsi_dr, np.array([rx]), np.array([zx])).item()
            gz = grid.bilinear(dpsi_dz, np.array([rx]), np.array([zx])).item()
            assert np.hypot(gr, gz) < 0.05 * typical
