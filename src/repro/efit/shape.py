"""Plasma shape parameters — EFIT's "a-file" scalar outputs.

Besides the g-file, EFIT reports the scalar geometry of each time slice:
major/minor radius, elongation, upper/lower triangularity, and the
geometric axis.  All derive from the last-closed-flux-surface contour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.contours import FluxSurface
from repro.errors import BoundaryError

__all__ = ["ShapeParameters"]


@dataclass(frozen=True)
class ShapeParameters:
    """Standard scalar shape descriptors of a flux surface."""

    r_geo: float  # geometric major radius (R_max + R_min) / 2
    a_minor: float  # minor radius (R_max - R_min) / 2
    kappa: float  # elongation (Z_max - Z_min) / 2a
    delta_upper: float  # upper triangularity
    delta_lower: float  # lower triangularity
    r_inner: float
    r_outer: float
    z_top: float
    z_bottom: float

    @classmethod
    def from_surface(cls, surface: FluxSurface) -> "ShapeParameters":
        """Measure a traced surface.

        Triangularity is ``(R_geo - R_at_Zmax) / a`` (upper) and the
        analogous lower quantity — the standard definitions.
        """
        r, z = surface.r, surface.z
        if r.size < 8:
            raise BoundaryError("surface too coarse for shape analysis")
        r_outer = float(r.max())
        r_inner = float(r.min())
        r_geo = 0.5 * (r_outer + r_inner)
        a = 0.5 * (r_outer - r_inner)
        if a <= 0.0:
            raise BoundaryError("degenerate surface (zero minor radius)")
        i_top = int(np.argmax(z))
        i_bot = int(np.argmin(z))
        z_top = float(z[i_top])
        z_bot = float(z[i_bot])
        kappa = (z_top - z_bot) / (2.0 * a)
        delta_u = (r_geo - float(r[i_top])) / a
        delta_l = (r_geo - float(r[i_bot])) / a
        return cls(
            r_geo=r_geo,
            a_minor=a,
            kappa=kappa,
            delta_upper=delta_u,
            delta_lower=delta_l,
            r_inner=r_inner,
            r_outer=r_outer,
            z_top=z_top,
            z_bottom=z_bot,
        )
