"""Synthetic measurement generation: the DIII-D shot #186610 analog.

The paper's workload is one time slice of DIII-D shot #186610 at 2.4 s.
That discharge's raw magnetics are not available here, so
:func:`synthetic_shot_186610` builds the closest synthetic equivalent (see
DESIGN.md): a DIII-D-scale machine, a converged ground-truth equilibrium
with ~1 MA of plasma current, and the full diagnostic complement measured
from it with realistic noise.  The reconstruction workload — grid sizes,
operation mix, iteration counts — is what the performance study exercises,
and it is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.efit.basis import PolynomialBasis
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.forward import ForwardEquilibrium, design_coil_currents, solve_forward
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak, diiid_like_machine
from repro.efit.profiles import ProfileCoefficients
from repro.errors import MeasurementError

__all__ = [
    "MeasurementSet",
    "SyntheticShot",
    "measure_equilibrium",
    "synthetic_shot_186610",
    "synthetic_solovev_shot",
]


@dataclass(frozen=True)
class MeasurementSet:
    """One time slice's worth of magnetic data.

    Values are ordered exactly as :meth:`DiagnosticSet.response_to_grid`
    rows: flux loops, probes, then the plasma-current Rogowski.
    """

    values: np.ndarray
    uncertainties: np.ndarray
    coil_currents: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        u = np.asarray(self.uncertainties, dtype=float)
        if v.ndim != 1 or v.shape != u.shape:
            raise MeasurementError("values/uncertainties must be matching 1-D arrays")
        if len(self.names) != v.size:
            raise MeasurementError("names length mismatch")
        if np.any(u <= 0.0):
            raise MeasurementError("uncertainties must be positive")
        coils = np.asarray(self.coil_currents, dtype=float)
        # Sensor dropouts arrive as NaN/inf; reject them at the boundary of
        # the library rather than letting them poison the least squares.
        if not np.all(np.isfinite(v)):
            raise MeasurementError("non-finite measurement values (railed/dropped channel?)")
        if not np.all(np.isfinite(u)):
            raise MeasurementError("non-finite measurement uncertainties")
        if not np.all(np.isfinite(coils)):
            raise MeasurementError("non-finite coil currents")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "uncertainties", u)
        object.__setattr__(self, "coil_currents", coils)

    @property
    def n_measurements(self) -> int:
        return int(self.values.size)

    @property
    def ip(self) -> float:
        """The Rogowski (total plasma current) reading — always last."""
        return float(self.values[-1])


@dataclass(frozen=True)
class SyntheticShot:
    """A complete synthetic workload: machine + truth + data."""

    machine: Tokamak
    diagnostics: DiagnosticSet
    grid: RZGrid
    truth: ForwardEquilibrium
    measurements: MeasurementSet
    name: str = "186610"

    @property
    def label(self) -> str:
        return f"synthetic-{self.name}@{self.grid.nw}x{self.grid.nh}"


def measure_equilibrium(
    machine: Tokamak,
    diagnostics: DiagnosticSet,
    grid: RZGrid,
    equilibrium: ForwardEquilibrium,
    *,
    noise: float,
    seed: int,
) -> MeasurementSet:
    """Evaluate every diagnostic on the ground truth and add noise.

    The public entry point scenario shot factories build on: per-class
    uncertainty floors (flux loops, probes, MSE, Rogowski), deterministic
    noise from ``seed``, and the :class:`MeasurementSet` row ordering the
    response assembly expects.
    """
    g_grid = diagnostics.response_to_grid(grid)
    g_coils = diagnostics.response_to_coils(machine)
    exact = g_grid @ grid.flatten(equilibrium.pcurr) + g_coils @ equilibrium.coil_currents
    if equilibrium.vessel_currents is not None and machine.n_vessel:
        exact = exact + diagnostics.response_to_vessel(machine) @ equilibrium.vessel_currents

    n_fl = len(diagnostics.flux_loops)
    n_mp = len(diagnostics.probes)
    n_mse = len(diagnostics.mse)
    sigma = np.empty(exact.size)
    # Per-class floors: a fraction of the signal scale of that class.  The
    # uncertainty floor stays positive even for noise-free data, so the
    # weighted fit remains well-defined.
    eff = max(noise, 1e-9)
    fl_scale = max(float(np.abs(exact[:n_fl]).max()), 1e-6)
    mp_scale = max(float(np.abs(exact[n_fl : n_fl + n_mp]).max()), 1e-8)
    sigma[:n_fl] = eff * fl_scale
    sigma[n_fl : n_fl + n_mp] = eff * mp_scale
    if n_mse:
        mse_slice = exact[n_fl + n_mp : n_fl + n_mp + n_mse]
        mse_scale = max(float(np.abs(mse_slice).max()), 1e-8)
        sigma[n_fl + n_mp : n_fl + n_mp + n_mse] = eff * mse_scale
    sigma[-1] = max(eff * abs(exact[-1]), 1.0)  # Rogowski: tight

    rng = np.random.default_rng(seed)
    values = exact + rng.normal(0.0, sigma) if noise > 0 else exact.copy()
    return MeasurementSet(
        values=values,
        uncertainties=sigma,
        coil_currents=equilibrium.coil_currents.copy(),
        names=tuple(diagnostics.names),
    )


@lru_cache(maxsize=8)
def _cached_shot(n: int, noise: float, seed: int, n_mse: int, eddy_ka: float) -> SyntheticShot:
    machine = diiid_like_machine()
    grid = machine.make_grid(n)
    pp_basis = PolynomialBasis(2)
    ffp_basis = PolynomialBasis(2)
    # Peaked p' and FF', scaled so the pressure and poloidal-current terms
    # carry comparable shares of J_phi (p' ~ 1e5 Pa/Wb vs FF' ~ O(1) in SI).
    truth_profiles = ProfileCoefficients(
        pp_basis, ffp_basis, alpha=np.array([2.0e5, -1.8e5]), beta=np.array([0.55, -0.45])
    )
    vessel_currents = None
    if eddy_ka:
        # A smooth, up-down-symmetric eddy pattern (ramp-induced image
        # currents concentrate on the outboard wall).
        theta = np.arctan2(
            np.array([v.z for v in machine.vessel]),
            np.array([v.r for v in machine.vessel]) - 1.69,
        )
        vessel_currents = eddy_ka * 1e3 * (0.6 + 0.4 * np.cos(theta))
    equilibrium = solve_forward(
        machine, grid, truth_profiles, ip=1.0e6, vessel_currents=vessel_currents
    )
    diagnostics = DiagnosticSet.for_machine(machine, n_mse=n_mse)
    measurements = measure_equilibrium(
        machine, diagnostics, grid, equilibrium, noise=noise, seed=seed
    )
    return SyntheticShot(
        machine=machine,
        diagnostics=diagnostics,
        grid=grid,
        truth=equilibrium,
        measurements=measurements,
    )


#: Backwards-compatible private alias (historical internal name).
_measure = measure_equilibrium


def synthetic_shot_186610(
    n: int = 65,
    *,
    noise: float = 1e-3,
    seed: int = 186610,
    n_mse: int = 0,
    eddy_ka: float = 0.0,
) -> SyntheticShot:
    """The reproduction's stand-in for DIII-D shot #186610 at 2.4 s.

    Parameters
    ----------
    n:
        Grid size per direction (65, 129, 257, 513 in the paper).
    noise:
        Relative 1-sigma noise added to each diagnostic class.
    seed:
        RNG seed — the default makes the shot fully deterministic.
    n_mse:
        Optional motional-Stark-effect channels on the outboard midplane
        (0 = classic magnetics-only EFIT, the paper's configuration).
    eddy_ka:
        Scale [kA] of vessel eddy currents flowing during the slice
        (0 = quiescent flat-top).  Nonzero values exercise the
        vessel-current fitting of :class:`~repro.efit.fitting.EfitSolver`.
    """
    if n < 17:
        raise MeasurementError("grid too coarse for a meaningful reconstruction")
    return _cached_shot(n, noise, seed, n_mse, eddy_ka)


@lru_cache(maxsize=4)
def _cached_solovev_shot(
    n: int, noise: float, seed: int, elongation: float, triangularity: float
) -> SyntheticShot:
    from repro.efit.boundary import find_boundary
    from repro.efit.pflux import PfluxVectorized
    from repro.efit.solovev import SolovevEquilibrium
    from repro.efit.solvers import make_solver
    from repro.efit.tables import cached_boundary_tables

    r0, minor = 1.69, 0.5
    machine = diiid_like_machine()
    grid = machine.make_grid(n)
    analytic = SolovevEquilibrium.shaped(
        r0=r0, minor_radius=minor, elongation=elongation, triangularity=triangularity
    )
    # Ground-truth node currents: the analytic J_phi inside the psi = 0
    # separatrix (clipped to the limiter), rescaled to exactly ip.
    inside = (analytic.psi_grid(grid) > 0.0) & machine.limiter.grid_mask(grid)
    pcurr = np.where(inside, analytic.j_phi(grid.rr, grid.zz) * grid.cell_area, 0.0)
    ip = 1.0e6
    pcurr *= ip / pcurr.sum()
    coil_currents = design_coil_currents(
        machine,
        r0=r0,
        minor_radius=minor,
        elongation=elongation,
        triangularity=triangularity,
        ip=ip,
    )
    # Truth flux on the grid: plasma contribution via the pflux_ pipeline
    # (boundary Greens + Dirichlet solve) plus the coil vacuum flux.
    tables = cached_boundary_tables(grid)
    pflux = PfluxVectorized(grid, tables, make_solver("dst", grid))
    psi = pflux.compute(pcurr, machine.psi_from_coils(grid, coil_currents))
    boundary = find_boundary(grid, psi, machine.limiter, sign=1)
    profiles = ProfileCoefficients(
        PolynomialBasis(1),
        PolynomialBasis(1),
        alpha=np.array([analytic.pprime]),
        beta=np.array([analytic.ffprime]),
    )
    truth = ForwardEquilibrium(
        grid=grid,
        psi=psi,
        pcurr=pcurr,
        boundary=boundary,
        profiles=profiles,
        coil_currents=coil_currents,
        ip=ip,
        iterations=0,
        residual=0.0,
    )
    diagnostics = DiagnosticSet.for_machine(machine)
    measurements = measure_equilibrium(
        machine, diagnostics, grid, truth, noise=noise, seed=seed
    )
    return SyntheticShot(
        machine=machine,
        diagnostics=diagnostics,
        grid=grid,
        truth=truth,
        measurements=measurements,
        name="solovev",
    )


def synthetic_solovev_shot(
    n: int = 65,
    *,
    noise: float = 1e-3,
    seed: int = 20260806,
    elongation: float = 1.3,
    triangularity: float = 0.2,
) -> SyntheticShot:
    """A Solov'ev-sourced workload: analytic truth, full reconstruction.

    Unlike :func:`synthetic_shot_186610` (whose ground truth is itself a
    numeric forward solve), the current density here comes from a
    closed-form :class:`~repro.efit.solovev.SolovevEquilibrium`, so the
    golden-regression suite has a second, independently derived workload.
    The default shape is chosen mildly elongated — a free-boundary
    reconstruction of a strongly shaped Solov'ev plasma does not converge
    under plain Picard iteration.
    """
    if n < 17:
        raise MeasurementError("grid too coarse for a meaningful reconstruction")
    return _cached_solovev_shot(n, noise, seed, elongation, triangularity)
