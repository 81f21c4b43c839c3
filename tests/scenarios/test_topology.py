"""Per-scenario magnetic-topology assertions on fresh reconstructions.

The golden tier pins exact numbers at 65^2; these tests assert the
*physics* every scenario declares — boundary type, X-point count and
placement, axis position — on cheap 33^2 reconstructions, so a topology
break surfaces in tier-1 even before the golden artifacts drift.

The Solov'ev scenario is absent: at 33^2 its base shot converges but not
every noise realisation does (the analytic profiles are stiff on coarse
grids), and it is fully covered by the golden suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.efit.boundary import find_xpoints
from repro.efit.fitting import EfitSolver
from repro.scenarios import get_scenario

N = 33

_RESULTS: dict[str, tuple] = {}


def reconstruct(name: str):
    """One cached 33^2 reconstruction per scenario for the whole module."""
    if name not in _RESULTS:
        sc = get_scenario(name)
        shot = sc.make_shot(N)
        result = EfitSolver.for_scenario(sc, shot=shot).fit(shot.measurements)
        _RESULTS[name] = (sc, shot, result)
    return _RESULTS[name]


def xpoints_in_limiter(shot, result):
    return [
        (rx, zx)
        for rx, zx, _ in find_xpoints(shot.grid, result.psi, max_points=6)
        if bool(shot.machine.limiter.contains(rx, zx))
    ]


@pytest.mark.parametrize(
    "name", ["g186610", "spherical-torus", "double-null", "single-null", "mse"]
)
def test_declared_topology(name):
    """Boundary type and X-point count match the scenario declaration."""
    sc, shot, result = reconstruct(name)
    assert result.converged
    assert result.boundary.boundary_type == sc.boundary_type
    assert len(xpoints_in_limiter(shot, result)) == sc.n_xpoints


class TestSphericalTorus:
    def test_limited_with_outboard_shifted_axis(self):
        sc, shot, result = reconstruct("spherical-torus")
        b = result.boundary
        assert b.boundary_type == "limiter"
        # Shafranov shift pushes the axis outboard of the geometric centre;
        # at A ~ 1.6 the shift is a sizeable fraction of the minor radius.
        assert b.r_axis > sc.r0 + 0.1
        assert abs(b.z_axis) < 0.05

    def test_strong_elongation(self):
        """The plasma mask is much taller than it is wide."""
        _, shot, result = reconstruct("spherical-torus")
        mask = result.boundary.mask
        rr, zz = shot.grid.rr, shot.grid.zz
        height = zz[mask].max() - zz[mask].min()
        width = rr[mask].max() - rr[mask].min()
        assert height / width > 2.0


class TestDoubleNull:
    def test_two_symmetric_xpoints(self):
        _, shot, result = reconstruct("double-null")
        xps = sorted(xpoints_in_limiter(shot, result), key=lambda p: p[1])
        assert len(xps) == 2
        (r_lo, z_lo), (r_hi, z_hi) = xps
        assert z_lo < -0.5 and z_hi > 0.5
        # Up-down symmetric machine: the two nulls mirror each other.
        assert z_hi == pytest.approx(-z_lo, abs=0.1)
        assert r_hi == pytest.approx(r_lo, abs=0.05)

    def test_axis_near_midplane(self):
        _, _, result = reconstruct("double-null")
        assert abs(result.boundary.z_axis) < 0.05


class TestSingleNull:
    def test_one_lower_xpoint(self):
        _, shot, result = reconstruct("single-null")
        xps = xpoints_in_limiter(shot, result)
        assert len(xps) == 1
        _, z_x = xps[0]
        assert z_x < -0.5

    def test_axis_pulled_below_midplane(self):
        """The lower null drags the axis down: the up-down asymmetry is
        visible in the reconstruction, not just the truth."""
        _, _, result = reconstruct("single-null")
        assert result.boundary.z_axis < -0.005

    def test_boundary_flux_is_xpoint_flux(self):
        _, _, result = reconstruct("single-null")
        b = result.boundary
        assert b.boundary_type == "xpoint"
        assert b.r_xpoint is not None and b.z_xpoint is not None
        assert b.z_xpoint < -0.5


def test_mask_is_single_component_inside_limiter():
    """No scenario's plasma mask leaks into private flux or off-limiter
    cells (the connected-component filter in steps_)."""
    from scipy import ndimage

    for name in ("g186610", "spherical-torus", "double-null", "single-null"):
        _, shot, result = reconstruct(name)
        mask = result.boundary.mask
        inside = shot.machine.limiter.contains(shot.grid.rr, shot.grid.zz)
        assert not (mask & ~inside).any(), name
        _, n_components = ndimage.label(mask)
        assert n_components == 1, name


def test_psin_normalisation():
    """psiN is 0 at the axis cell and below 1 across the plasma mask."""
    for name in ("g186610", "double-null", "single-null"):
        _, _, result = reconstruct(name)
        b = result.boundary
        assert (b.psin[b.mask] < 1.0).all(), name
        assert b.psin[b.mask].min() == pytest.approx(0.0, abs=5e-3), name


def test_convergence_envelope_at_coarse_grid():
    """Declared envelopes hold at 33^2 too (they are declared for 65^2;
    a coarse grid costs up to four iterates more, inside the factor two
    the envelope leaves)."""
    for name in ("g186610", "spherical-torus", "double-null", "single-null", "mse"):
        sc, _, result = reconstruct(name)
        assert result.iterations <= sc.max_iterations, name
        assert np.isfinite(result.chi2)
