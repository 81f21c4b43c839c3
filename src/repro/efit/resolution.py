"""Grid-resolution study: why the paper wants fast 257^2/513^2 fits.

The paper's motivation (Section 1/2): "Low spatial resolution grids
(65x65, 129x129) are used to overcome the lack of code performance. At the
same time, high-resolution grids (257x257, 513x513) are required to get
more accurate information for plasma control."  This module quantifies
that trade-off on the synthetic shot: reconstruct the same discharge at a
sweep of grid sizes and measure how the flux map and the derived control
quantities (q95, shape, stored energy) converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.contours import trace_flux_surface
from repro.efit.fitting import EfitSolver
from repro.efit.globalparams import compute_global_parameters
from repro.efit.grid import RZGrid
from repro.efit.measurements import synthetic_shot_186610
from repro.efit.qprofile import QProfile
from repro.efit.shape import ShapeParameters
from repro.errors import ReproError

__all__ = ["ResolutionPoint", "resolution_sweep"]


@dataclass(frozen=True)
class ResolutionPoint:
    """One grid size's reconstruction summary."""

    n: int
    iterations: int
    chi2: float
    q95: float
    kappa: float
    beta_poloidal: float
    psi_rms_vs_truth: float

    @property
    def label(self) -> str:
        return f"{self.n}x{self.n}"


def _psi_rms(grid: RZGrid, psi: np.ndarray, shot) -> float:
    """RMS flux error against the same-grid ground truth, normalised."""
    truth = shot.truth.psi
    return float(np.sqrt(np.mean((psi - truth) ** 2)) / np.ptp(truth))


def resolution_sweep(sizes: tuple[int, ...]) -> list[ResolutionPoint]:
    """Reconstruct the synthetic shot at each grid size.

    Each size gets its own forward-solved ground truth and measurement
    set (same machine, same profiles, same Ip), so the sweep isolates
    discretisation effects the way a real between-shot analysis choice
    between 65^2 and 257^2 would.
    """
    if len(sizes) < 2:
        raise ReproError("a resolution sweep needs at least two grid sizes")
    if sorted(sizes) != list(sizes):
        raise ReproError("grid sizes must be increasing")
    out: list[ResolutionPoint] = []
    for n in sizes:
        shot = synthetic_shot_186610(n)
        solver = EfitSolver(shot.machine, shot.diagnostics, shot.grid)
        res = solver.fit(shot.measurements)
        f_vac = shot.machine.f_vacuum
        qprof = QProfile.compute(
            shot.grid, res.psi, res.boundary, lambda s: f_vac, n_levels=16
        )
        lcfs = trace_flux_surface(shot.grid, res.boundary, 0.98)
        shape = ShapeParameters.from_surface(lcfs)
        glob = compute_global_parameters(
            shot.grid, res.psi, res.boundary, res.profiles, res.ip
        )
        out.append(
            ResolutionPoint(
                n=n,
                iterations=res.iterations,
                chi2=res.chi2,
                q95=qprof.q95,
                kappa=shape.kappa,
                beta_poloidal=glob.beta_poloidal,
                psi_rms_vs_truth=_psi_rms(shot.grid, res.psi, shot),
            )
        )
    return out
