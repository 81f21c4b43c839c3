"""Forward (known-profile) free-boundary solve: ground-truth equilibria.

The synthetic workload generator needs a self-consistent equilibrium to
measure: a flux map ``psi`` that satisfies the Grad-Shafranov equation with
profiles *in the span of the fitting basis* and superposes correctly with
known PF-coil currents.  We obtain one by running the same Picard loop the
reconstruction uses, but with the profile coefficients *prescribed* (only
rescaled each iterate so the total plasma current hits the target) instead
of fitted.

Coil currents are designed first by a small least-squares problem that
shapes the vacuum field: total flux (coils + a filament estimate of the
plasma) should be constant along a target D-shaped boundary, which is the
textbook inverse shape-design problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.boundary import BoundaryResult, find_boundary
from repro.efit.current import basis_current_matrix
from repro.efit.greens import BR, BZ, PSI, FilamentSet, greens_psi, sensor_response
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak, miller_contour
from repro.efit.pflux import PfluxVectorized
from repro.efit.profiles import ProfileCoefficients
from repro.efit.solvers import DSTSolver
from repro.efit.tables import cached_boundary_tables
from repro.errors import ConvergenceError, FittingError

__all__ = ["ForwardEquilibrium", "design_coil_currents", "solve_forward"]

#: Flux control points on the target contour of the coil design.
_N_CONTROL = 40
#: Tikhonov damping of the designed coil currents, relative to the
#: largest singular value of the control-point response.
_DESIGN_RIDGE = 1e-3
#: Weight of an X-point's field-null rows, in units of the minor radius.
_X_POINT_WEIGHT = 4.0
#: Convergence threshold of the forward Picard loop (max |dpsi| / span).
_FORWARD_TOL = 1e-9


@dataclass(frozen=True)
class ForwardEquilibrium:
    """A converged ground-truth equilibrium."""

    grid: RZGrid
    psi: np.ndarray
    pcurr: np.ndarray
    boundary: BoundaryResult
    profiles: ProfileCoefficients
    coil_currents: np.ndarray
    ip: float
    iterations: int
    residual: float
    #: Prescribed vessel eddy currents [A] (zeros when quiescent).
    vessel_currents: np.ndarray | None = None


def design_coil_currents(
    machine: Tokamak,
    *,
    r0: float = 1.69,
    minor_radius: float = 0.55,
    # Vacuum-field shaping targets; the free-boundary plasma ends up more
    # elongated than the target (the quadrupole field acts on the full
    # profile), so aim low to land at DIII-D-like kappa ~ 1.8.
    elongation: float = 1.40,
    triangularity: float = 0.30,
    elongation_lower: float | None = None,
    triangularity_lower: float | None = None,
    ip: float = 1.0e6,
    x_points: tuple[tuple[float, float], ...] = (),
    filament_z: float = 0.0,
    force_balance_weight: float = 0.0,
) -> np.ndarray:
    """Coil currents that hold a D-shaped plasma of current ``ip``.

    Solves ``min || psi_coils(x_m) + psi_filament(x_m) - const ||^2`` over
    control points ``x_m`` on the target boundary, with Tikhonov damping on
    the currents.  The constant is a free unknown.

    ``elongation_lower``/``triangularity_lower`` make the target contour
    up-down asymmetric (single-null shaping); ``filament_z`` moves the
    single-filament plasma estimate off the midplane to match.

    ``x_points`` appends weighted field-null rows — ``Br = 0`` and
    ``Bz = 0`` of the total (coil + filament) field at each requested
    point — turning the isoflux fit into the diverted shape-design
    problem: a null on the target contour makes that flux surface the
    separatrix, with an X-point at the requested location.  The field
    rows are scaled by :data:`_X_POINT_WEIGHT` times ``minor_radius`` to be
    commensurate with the flux rows.

    ``force_balance_weight`` appends a vertical force-balance row:
    ``Br_coils = 0`` at the filament position (the filament exerts no
    net force on itself).  Without it an up-down-asymmetric design can
    place the *shape* correctly while the designed field still pushes
    the plasma vertically, so the nearest natural equilibrium sits far
    from the target and can only be held there by a persistent rigid
    shift of the current — a state outside the span of any flux-function
    current basis, which no reconstruction can then fit.
    """
    rc, zc = miller_contour(
        r0,
        minor_radius,
        elongation,
        triangularity,
        _N_CONTROL,
        kappa_lower=elongation_lower,
        delta_lower=triangularity_lower,
    )
    # One weighted sensor per row: flux on the target contour, then the
    # (Br, Bz) null pair at each X-point, then Br at the filament.
    r, z, functional = list(rc), list(zc), [PSI] * _N_CONTROL
    weight = [1.0] * _N_CONTROL
    for rx, zx in x_points:
        r += [rx, rx]
        z += [zx, zx]
        functional += [BR, BZ]
        weight += [_X_POINT_WEIGHT * minor_radius] * 2
    # Plasma estimate: one filament at the magnetic axis.  It threads
    # every row so far; the force-balance row sits on the filament itself.
    n_plasma = len(r)
    if force_balance_weight > 0.0:
        r.append(r0)
        z.append(filament_z)
        functional.append(BR)
        weight.append(force_balance_weight * minor_radius)
    weight = np.array(weight)
    a = np.zeros((len(r), machine.n_coils + 1))
    a[:, :-1] = weight[:, None] * sensor_response(r, z, functional, machine.coil_sources)
    a[:_N_CONTROL, -1] = -1.0  # the unknown boundary constant: flux rows only
    plasma = FilamentSet.points(r0, filament_z)
    b = np.zeros(len(r))
    b[:n_plasma] = -weight[:n_plasma] * ip * sensor_response(
        r[:n_plasma], z[:n_plasma], functional[:n_plasma], plasma
    )[:, 0]
    scale = np.linalg.norm(a[:_N_CONTROL, :-1], ord=2)
    reg = np.zeros((machine.n_coils, machine.n_coils + 1))
    reg[:, : machine.n_coils] = np.sqrt(_DESIGN_RIDGE) * scale * np.eye(machine.n_coils)
    sol, *_ = np.linalg.lstsq(np.vstack([a, reg]), np.concatenate([b, np.zeros(machine.n_coils)]), rcond=None)
    return sol[: machine.n_coils]


def _initial_psi(
    machine: Tokamak,
    grid: RZGrid,
    coil_currents: np.ndarray,
    ip: float,
    r0: float,
    z0: float = 0.0,
) -> np.ndarray:
    """Vacuum flux plus a single-filament plasma estimate (off-node)."""
    psi = machine.psi_from_coils(grid, coil_currents)
    # Offset the seed filament off the mesh nodes in R to avoid the Green
    # function singularity; keep it on the midplane for symmetry unless an
    # asymmetric start was requested.
    rf = r0 + 0.37 * grid.dr
    psi += ip * greens_psi(grid.rr, grid.zz, rf, z0)
    return psi


def solve_forward(
    machine: Tokamak,
    grid: RZGrid,
    profiles: ProfileCoefficients,
    *,
    ip: float = 1.0e6,
    coil_currents: np.ndarray | None = None,
    vessel_currents: np.ndarray | None = None,
    max_iters: int = 200,
    relax_current: float = 1.0,
    edge_smooth: float = 0.0,
    symmetrize: bool = True,
    hold_z_centroid: float | None = None,
    initial_z: float = 0.0,
) -> ForwardEquilibrium:
    """Picard iteration with prescribed profile shapes.

    Each iterate rescales the coefficient vector so the integrated plasma
    current equals ``ip`` — the forward analog of EFIT's Rogowski
    constraint — then recomputes the flux with ``pflux_``.

    ``relax_current`` blends the plasma-current distribution between
    iterates (the forward analog of the reconstruction's current
    relaxation).  Diverted equilibria need it: the in-plasma mask is a
    discrete cell set cut at the separatrix, so near an X-point the
    current jumps discontinuously as ``psiN = 1`` crosses grid nodes, and
    plain Picard falls into a mask limit cycle that no amount of flux
    under-relaxation can damp.

    ``edge_smooth`` tapers the current density to zero over the last
    ``edge_smooth`` of normalised flux (weight ``(1 - psiN)/edge_smooth``
    clipped to [0, 1]) — a finite-width edge falloff that makes the
    discrete current distribution *continuous* in the separatrix
    position, removing the mask limit cycle at its source.  Zero (the
    default) reproduces the sharp EFIT cutoff exactly.

    ``symmetrize`` mirrors the flux about the midplane every iterate.
    Elongated plasmas are vertically unstable and a plain Picard loop has
    no feedback to hold them; for an up-down-symmetric machine the
    symmetric equilibrium is the physical one, so we project onto it (the
    forward analog of a vertical-position control loop).

    Up-down-*asymmetric* plasmas (single-null) cannot be symmetrized;
    ``hold_z_centroid`` instead emulates the control system directly: each
    iterate the current distribution is rigidly shifted (half-gain,
    clamped to a few cells) so its vertical centroid tracks the prescribed
    target — the forward analog of the ``fitdelz`` feedback the
    reconstruction applies.  ``initial_z`` places the seed filament off
    the midplane to start the loop near the asymmetric solution.
    """
    if not (0.0 < relax_current <= 1.0):
        raise FittingError(f"current relaxation parameter {relax_current} outside (0, 1]")
    if not (0.0 <= edge_smooth < 1.0):
        raise FittingError(f"edge smoothing width {edge_smooth} outside [0, 1)")
    if symmetrize and hold_z_centroid is not None:
        raise FittingError("hold_z_centroid requires symmetrize=False")
    if coil_currents is None:
        coil_currents = design_coil_currents(machine, ip=ip)
    coil_currents = np.asarray(coil_currents, dtype=float)

    tables = cached_boundary_tables(grid)
    solver = DSTSolver(grid)
    pflux = PfluxVectorized(grid, tables, solver)
    psi_external = machine.psi_from_coils(grid, coil_currents)
    if vessel_currents is not None:
        psi_external = psi_external + machine.psi_from_vessel(grid, vessel_currents)

    r0_guess = float(machine.limiter.r.mean())
    psi = _initial_psi(machine, grid, coil_currents, ip, r0_guess, initial_z)
    coeffs = profiles.as_vector()
    sign = 1 if ip >= 0 else -1

    boundary = None
    pcurr = np.zeros(grid.shape)
    residual = np.inf
    for iteration in range(1, max_iters + 1):
        boundary = find_boundary(grid, psi, machine.limiter, sign=sign)
        jmat = basis_current_matrix(
            grid, boundary.psin, boundary.mask, profiles.pp_basis, profiles.ffp_basis
        )
        pcurr_flat = jmat @ coeffs
        if edge_smooth > 0.0:
            pcurr_flat = pcurr_flat * grid.flatten(
                np.clip((1.0 - boundary.psin) / edge_smooth, 0.0, 1.0)
            )
        total = float(pcurr_flat.sum())
        if total == 0.0:
            raise ConvergenceError("prescribed profiles carry zero current")
        pcurr_flat *= ip / total
        pcurr = grid.unflatten(pcurr_flat)
        if hold_z_centroid is not None:
            # Vertical-position control: rigidly recenter the current
            # distribution toward the target centroid (half gain, clamped
            # to a few cells — the same linear-shift model as fitdelz).
            z_c = float((pcurr * grid.zz).sum() / pcurr.sum())
            delz = 0.5 * (hold_z_centroid - z_c)
            cap = 4.0 * grid.dz
            delz = float(np.clip(delz, -cap, cap))
            if delz != 0.0:
                pcurr = grid.shift_z(pcurr, delz)
        if relax_current != 1.0 and iteration > 1:
            pcurr = (1.0 - relax_current) * pcurr_prev + relax_current * pcurr
        pcurr_prev = pcurr
        psi_new = pflux.compute(pcurr, psi_external)
        if symmetrize:
            psi_new = 0.5 * (psi_new + psi_new[:, ::-1])
        span = float(np.ptp(psi_new))
        if span == 0.0:
            raise ConvergenceError("flat flux map in forward solve")
        residual = float(np.max(np.abs(psi_new - psi)) / span)
        psi = psi_new
        if residual < _FORWARD_TOL:
            break
    else:
        raise ConvergenceError(
            f"forward solve: residual {residual:.3e} > tol {_FORWARD_TOL:.1e} after {max_iters} iterations"
        )

    final_coeffs = coeffs * (ip / float((jmat @ coeffs).sum()))
    fitted = ProfileCoefficients(
        profiles.pp_basis, profiles.ffp_basis,
        final_coeffs[: profiles.pp_basis.n_terms],
        final_coeffs[profiles.pp_basis.n_terms :],
    )
    return ForwardEquilibrium(
        grid=grid,
        psi=psi,
        pcurr=pcurr,
        boundary=boundary,
        profiles=fitted,
        coil_currents=coil_currents,
        ip=float(pcurr.sum()),
        iterations=iteration,
        residual=residual,
        vessel_currents=(
            np.asarray(vessel_currents, dtype=float) if vessel_currents is not None else None
        ),
    )
