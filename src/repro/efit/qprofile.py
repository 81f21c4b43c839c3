"""Safety-factor (q) profile and flux-surface geometry.

The q profile is the headline derived quantity of an equilibrium
reconstruction (it is a required column of the g-EQDSK file).  Two
independent formulations are implemented:

* **line integral** along a traced surface,

  .. math::  q(\\psi) = \\frac{F(\\psi)}{2\\pi} \\oint \\frac{dl}{R\\,|\\nabla\\psi|}

* **toroidal-flux derivative** from mask-based area integrals,

  .. math::  q = \\frac{1}{2\\pi}\\frac{d\\Phi_{tor}}{d\\psi}, \\qquad
             \\Phi_{tor}(\\psi) = \\iint_{S(\\psi)} \\frac{F}{R}\\, dA

Their agreement (a few tenths of a percent on the synthetic shot) is a
strong cross-check of the tracing, interpolation and flux conventions,
and is asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.boundary import BoundaryResult
from repro.efit.contours import FluxSurface, trace_flux_surface
from repro.efit.grid import RZGrid
from repro.errors import BoundaryError

__all__ = ["QProfile", "safety_factor", "toroidal_flux", "q_from_toroidal_flux"]

#: Rays per traced surface of the q line integral.
_N_THETA = 180


def _grad_psi_mag(grid: RZGrid, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dpsi_dr = np.gradient(psi, grid.dr, axis=0)
    dpsi_dz = np.gradient(psi, grid.dz, axis=1)
    return dpsi_dr, dpsi_dz


def safety_factor(
    grid: RZGrid,
    psi: np.ndarray,
    boundary: BoundaryResult,
    f_of_psin,
    levels: np.ndarray,
) -> np.ndarray:
    """q at each ``psiN`` level via the surface line integral.

    ``f_of_psin`` maps psiN -> F = R B_phi (pass a constant via
    ``lambda x: f_vac`` for a vacuum-F approximation).
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0.0) or np.any(levels > 1.0):
        raise BoundaryError("q levels must lie in (0, 1]")
    gr, gz = _grad_psi_mag(grid, psi)
    out = np.empty(levels.shape)
    for idx, level in np.ndenumerate(levels):
        surf = trace_flux_surface(grid, boundary, float(level), n_theta=_N_THETA)
        rm, zm, dl = surf.midpoints()
        gmag = np.hypot(grid.bilinear(gr, rm, zm), grid.bilinear(gz, rm, zm))
        if np.any(gmag <= 0.0):
            raise BoundaryError(f"vanishing |grad psi| on surface psiN={level}")
        integral = float(np.sum(dl / (rm * gmag)))
        out[idx] = abs(f_of_psin(float(level))) * integral / (2.0 * np.pi)
    return out


def toroidal_flux(
    grid: RZGrid,
    boundary: BoundaryResult,
    f_of_psin,
    level: float,
) -> float:
    """``Phi_tor`` enclosed by the ``psiN = level`` surface (mask integral)."""
    if not (0.0 < level <= 1.0):
        raise BoundaryError("toroidal-flux level must lie in (0, 1]")
    inside = boundary.mask & (boundary.psin < level)
    if not inside.any():
        return 0.0
    f_vals = np.abs(f_of_psin(np.clip(boundary.psin, 0.0, 1.0)))
    integrand = np.where(inside, f_vals / grid.rr, 0.0)
    return float(integrand.sum() * grid.cell_area)


def q_from_toroidal_flux(
    grid: RZGrid,
    boundary: BoundaryResult,
    f_of_psin,
    levels: np.ndarray,
    *,
    dlevel: float = 0.02,
) -> np.ndarray:
    """q via ``(1/2pi) dPhi_tor/dpsi`` with central differences in psiN."""
    levels = np.asarray(levels, dtype=float)
    dpsi_dpsin = boundary.psi_boundary - boundary.psi_axis
    out = np.empty(levels.shape)
    for idx, level in np.ndenumerate(levels):
        lo = max(float(level) - dlevel, 1e-6)
        hi = min(float(level) + dlevel, 1.0)
        phi_lo = toroidal_flux(grid, boundary, f_of_psin, lo)
        phi_hi = toroidal_flux(grid, boundary, f_of_psin, hi)
        dphi_dpsin = (phi_hi - phi_lo) / (hi - lo)
        out[idx] = abs(dphi_dpsin / dpsi_dpsin) / (2.0 * np.pi)
    return out


@dataclass(frozen=True)
class QProfile:
    """q and surface geometry on a psiN mesh, ready for the g-file."""

    levels: np.ndarray
    q: np.ndarray
    surfaces: tuple[FluxSurface, ...]

    @property
    def q95(self) -> float:
        """q at psiN = 0.95 (the standard operational figure)."""
        return float(np.interp(0.95, self.levels, self.q))

    @classmethod
    def compute(
        cls,
        grid: RZGrid,
        psi: np.ndarray,
        boundary: BoundaryResult,
        f_of_psin,
        *,
        n_levels: int = 32,
    ) -> "QProfile":
        """Trace ``n_levels`` surfaces from near-axis to the edge.

        Levels start at a small positive psiN (the axis itself is a point;
        q there is conventionally extrapolated) and end slightly inside 1
        so limiter/X-point corners do not break the star-shape assumption.
        """
        levels = np.linspace(0.05, 0.98, n_levels)
        surfaces = tuple(
            trace_flux_surface(grid, boundary, float(lv), n_theta=_N_THETA)
            for lv in levels
        )
        q = safety_factor(grid, psi, boundary, f_of_psin, levels)
        return cls(levels=levels, q=q, surfaces=surfaces)

    def on_uniform_grid(self, n: int) -> np.ndarray:
        """q interpolated to EFIT's uniform psiN mesh of ``n`` points,
        with flat extrapolation to the axis and linear to the edge."""
        x = np.linspace(0.0, 1.0, n)
        return np.interp(x, self.levels, self.q)
