"""Flux-surface tracing.

Downstream consumers of an equilibrium (transport, stability, the q
profile in the g-file) need the closed flux surfaces ``psiN = const``.
For the nested surfaces of a reconstructed equilibrium a ray cast is
robust and fast: from the magnetic axis, march outward along each of
``n_theta`` poloidal rays and bisect ``psiN(s) = level`` with bilinear
interpolation.  All rays bisect simultaneously (vectorised), so a full
surface costs ~45 interpolation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.boundary import BoundaryResult
from repro.efit.grid import RZGrid
from repro.errors import BoundaryError

__all__ = ["FluxSurface", "trace_flux_surface"]

#: Bisection steps per ray (the bracket shrinks by a factor 2^45).
_N_BISECT = 45


@dataclass(frozen=True)
class FluxSurface:
    """A closed flux surface as a polygon (not repeating the first point)."""

    level: float  # psiN value
    r: np.ndarray
    z: np.ndarray

    @property
    def perimeter(self) -> float:
        dr = np.diff(np.append(self.r, self.r[0]))
        dz = np.diff(np.append(self.z, self.z[0]))
        return float(np.hypot(dr, dz).sum())

    @property
    def area(self) -> float:
        """Poloidal cross-section area (shoelace)."""
        r2 = np.append(self.r, self.r[0])
        z2 = np.append(self.z, self.z[0])
        return float(abs(np.sum(r2[:-1] * z2[1:] - r2[1:] * z2[:-1])) / 2.0)

    @property
    def volume(self) -> float:
        """Torus volume enclosed: ``V = 2 pi R_centroid * A`` (Pappus)."""
        r2 = np.append(self.r, self.r[0])
        z2 = np.append(self.z, self.z[0])
        cross = r2[:-1] * z2[1:] - r2[1:] * z2[:-1]
        area6 = np.sum(cross) * 3.0
        if area6 == 0.0:
            return 0.0
        r_cent = np.sum((r2[:-1] + r2[1:]) * cross) / area6
        return float(2.0 * np.pi * abs(r_cent) * self.area)

    def midpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment midpoints and lengths ``(rm, zm, dl)`` for line integrals."""
        r2 = np.append(self.r, self.r[0])
        z2 = np.append(self.z, self.z[0])
        rm = 0.5 * (r2[:-1] + r2[1:])
        zm = 0.5 * (z2[:-1] + z2[1:])
        dl = np.hypot(np.diff(r2), np.diff(z2))
        return rm, zm, dl


def trace_flux_surface(
    grid: RZGrid,
    boundary: BoundaryResult,
    level: float,
    *,
    n_theta: int = 128,
) -> FluxSurface:
    """Trace the ``psiN = level`` surface of a reconstructed equilibrium.

    ``level`` must lie in (0, 1]; the surface is assumed star-shaped about
    the magnetic axis (true for the nested surfaces EFIT produces — a
    non-bracketing ray raises :class:`BoundaryError`).
    """
    if not (0.0 < level <= 1.0):
        raise BoundaryError(f"flux-surface level {level} outside (0, 1]")
    if n_theta < 8:
        raise BoundaryError("need at least 8 rays for a surface")
    r0, z0 = boundary.r_axis, boundary.z_axis
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    ct, st = np.cos(theta), np.sin(theta)

    # Per-ray distance to the computational box (bracketing limit).
    s_max_box = np.full(n_theta, np.inf)
    for wall, comp, origin in (
        (grid.rmax, ct, r0),
        (grid.rmin, ct, r0),
        (grid.zmax, st, z0),
        (grid.zmin, st, z0),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (wall - origin) / comp
        s[~np.isfinite(s) | (s <= 0)] = np.inf
        s_max_box = np.minimum(s_max_box, s)
    s_max_box *= 1.0 - 1e-9

    psin = boundary.psin

    def level_at(s: np.ndarray) -> np.ndarray:
        return grid.bilinear(psin, r0 + s * ct, z0 + s * st)

    # March outward in grid-scale steps to bracket the *first* crossing.
    # A multiplicative expansion can leapfrog the thin ``psiN`` shell near
    # an X-point straight into private flux (where ``psiN`` drops below
    # the level again) and never bracket a diverted surface.
    step = 0.5 * min(grid.dr, grid.dz)
    lo = np.zeros(n_theta)
    hi = np.minimum(step, s_max_box)
    for _ in range(int(np.ceil(float(np.max(s_max_box)) / step)) + 1):
        vals = level_at(hi)
        need = (vals < level) & (hi < s_max_box)
        if not need.any():
            break
        lo[need] = hi[need]
        hi[need] = np.minimum(hi[need] + step, s_max_box[need])
    if (level_at(hi) < level).any():
        raise BoundaryError(
            f"psiN = {level} not bracketed along some rays (open surface?)"
        )

    for _ in range(_N_BISECT):
        mid = 0.5 * (lo + hi)
        inside = level_at(mid) < level
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    s = 0.5 * (lo + hi)
    return FluxSurface(level=level, r=r0 + s * ct, z=z0 + s * st)
