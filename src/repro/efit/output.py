"""Assemble a complete g-EQDSK from a reconstruction.

Ties together the fit result, the traced flux surfaces (boundary contour
and q profile) and the machine description into the standard output file
every EFIT consumer expects.
"""

from __future__ import annotations

import numpy as np

from repro.efit.eqdsk import GEqdsk, write_geqdsk
from repro.efit.fitting import FitResult
from repro.efit.measurements import SyntheticShot
from repro.efit.qprofile import QProfile

__all__ = ["geqdsk_from_fit", "write_geqdsk"]


def geqdsk_from_fit(
    shot: SyntheticShot,
    result: FitResult,
) -> GEqdsk:
    """Build the g-file record for one reconstructed time slice, described
    as ``repro <shot label>``.

    The q profile and the boundary contour come from flux-surface tracing
    on the reconstructed flux map; profiles are evaluated on EFIT's
    uniform psiN mesh of ``nw`` points.
    """
    g = shot.grid
    b = result.boundary
    f_vac = shot.machine.f_vacuum
    r_center = float(shot.machine.limiter.r.mean())
    qprof = QProfile.compute(
        g, result.psi, b, lambda s: f_vac, n_levels=24
    )
    lcfs = qprof.surfaces[-1]
    x = np.linspace(0.0, 1.0, g.nw)
    psi_axis, psi_bnd = b.psi_axis, b.psi_boundary
    return GEqdsk(
        description=f"repro {shot.label}",
        nw=g.nw,
        nh=g.nh,
        rdim=g.rmax - g.rmin,
        zdim=g.zmax - g.zmin,
        rcentr=r_center,
        rleft=g.rmin,
        zmid=0.5 * (g.zmin + g.zmax),
        rmaxis=b.r_axis,
        zmaxis=b.z_axis,
        simag=psi_axis,
        sibry=psi_bnd,
        bcentr=f_vac / r_center,
        current=result.ip,
        fpol=np.sqrt(np.maximum(result.profiles.f_squared(x, psi_axis, psi_bnd, f_vac), 0.0)),
        pres=result.profiles.pressure(x, psi_axis, psi_bnd),
        ffprim=result.profiles.ffprime(x),
        pprime=result.profiles.pprime(x),
        psirz=result.psi,
        qpsi=qprof.on_uniform_grid(g.nw),
        rbbbs=lcfs.r,
        zbbbs=lcfs.z,
        rlim=shot.machine.limiter.r,
        zlim=shot.machine.limiter.z,
    )
