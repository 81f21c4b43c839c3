"""Tests of the shape-parameter (a-file) analysis."""

import numpy as np
import pytest

from repro.efit.contours import FluxSurface, trace_flux_surface
from repro.efit.measurements import synthetic_shot_186610
from repro.efit.shape import ShapeParameters
from repro.errors import BoundaryError


def miller_surface(r0=1.7, a=0.5, kappa=1.6, delta=0.35, n=256):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    r = r0 + a * np.cos(theta + delta * np.sin(theta))
    z = kappa * a * np.sin(theta)
    return FluxSurface(1.0, r, z)


class TestAnalytic:
    def test_miller_parameters_recovered(self):
        s = ShapeParameters.from_surface(miller_surface())
        assert s.r_geo == pytest.approx(1.7, abs=5e-3)
        assert s.a_minor == pytest.approx(0.5, abs=5e-3)
        assert s.kappa == pytest.approx(1.6, abs=0.02)
        # Miller delta parameter ~ sin(delta-parameter) relation; loose check
        assert 0.5 * (s.delta_upper + s.delta_lower) == pytest.approx(np.sin(0.35), abs=0.05)
        assert s.delta_upper == pytest.approx(s.delta_lower, abs=1e-6)

    def test_circle(self):
        theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        s = ShapeParameters.from_surface(FluxSurface(1.0, 2.0 + 0.4 * np.cos(theta), 0.4 * np.sin(theta)))
        assert s.kappa == pytest.approx(1.0, abs=1e-3)
        assert 0.5 * (s.delta_upper + s.delta_lower) == pytest.approx(0.0, abs=1e-3)
        assert s.r_geo / s.a_minor == pytest.approx(5.0, rel=1e-3)

    def test_validation(self):
        tiny = FluxSurface(0.5, np.array([1.0, 1.1, 1.2]), np.array([0.0, 0.1, 0.0]))
        with pytest.raises(BoundaryError):
            ShapeParameters.from_surface(tiny)


class TestReconstruction:
    def test_shot_shape_is_diiid_like(self):
        """The reconstructed LCFS has DIII-D-scale geometry (the machine
        the synthetic shot imitates)."""
        shot = synthetic_shot_186610(33)
        b = shot.truth.boundary
        lcfs = trace_flux_surface(shot.grid, b, 0.98)
        s = ShapeParameters.from_surface(lcfs)
        assert 1.4 < s.r_geo < 1.9
        assert 0.3 < s.a_minor < 0.8
        assert 1.0 < s.kappa < 2.1
        assert -0.2 < 0.5 * (s.delta_upper + s.delta_lower) < 0.8
        assert 2.0 < s.r_geo / s.a_minor < 4.5

    def test_inner_surfaces_less_shaped(self):
        """Shaping decays toward the axis: kappa(0.3) < kappa(0.95)."""
        shot = synthetic_shot_186610(33)
        b = shot.truth.boundary
        inner = ShapeParameters.from_surface(trace_flux_surface(shot.grid, b, 0.3))
        outer = ShapeParameters.from_surface(trace_flux_surface(shot.grid, b, 0.95))
        assert inner.kappa < outer.kappa
        assert inner.a_minor < outer.a_minor
