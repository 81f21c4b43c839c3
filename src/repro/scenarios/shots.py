"""Forward-solved synthetic shots for the non-DIII-D scenarios.

Each factory runs the free-boundary forward solve on its machine with
the scenario's settled shaping parameters and measures the full
diagnostic complement from the converged truth.  Factories are cached:
scenario-addressable code paths (CLI, engines, golden suite, property
tests) can call them repeatedly without re-paying the Picard loop.

The shaping parameters below are *load-bearing*: they were tuned so
each truth equilibrium (a) converges under plain Picard with the listed
stabilisers, (b) lands in the declared topology on both the 33^2 and
65^2 grids, and (c) is a *natural* equilibrium of its coil set — for
the up-down-asymmetric single-null this required a vertical
force-balance row in the coil design plus a centroid target at the
secant root of the residual feedback shift (see ``design_coil_currents``
and ``solve_forward``); without those the plasma is held displaced by a
persistent rigid shift that no flux-function current basis can fit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.efit.basis import PolynomialBasis
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.forward import design_coil_currents, solve_forward
from repro.efit.machine import (
    double_null_machine,
    single_null_machine,
    spherical_torus_machine,
)
from repro.efit.measurements import (
    SyntheticShot,
    measure_equilibrium,
    synthetic_shot_186610,
)
from repro.efit.profiles import ProfileCoefficients
from repro.errors import MeasurementError

__all__ = [
    "spherical_torus_shot",
    "double_null_shot",
    "single_null_shot",
    "mse_shot",
]

#: Peaked p' / FF' shapes shared by the forward-solved scenarios (the
#: same family as the g186610 baseline; the forward solve rescales the
#: vector so the total current hits each scenario's Ip).
_ALPHA = (2.0e5, -1.8e5)
_BETA = (0.55, -0.45)


def _profiles() -> ProfileCoefficients:
    return ProfileCoefficients(
        PolynomialBasis(2),
        PolynomialBasis(2),
        alpha=np.array(_ALPHA),
        beta=np.array(_BETA),
    )


def _check_grid(n: int) -> None:
    if n < 17:
        raise MeasurementError("grid too coarse for a meaningful reconstruction")


def _finish(machine, grid, equilibrium, *, noise, seed, name) -> SyntheticShot:
    diagnostics = DiagnosticSet.for_machine(machine)
    measurements = measure_equilibrium(
        machine, diagnostics, grid, equilibrium, noise=noise, seed=seed
    )
    return SyntheticShot(
        machine=machine,
        diagnostics=diagnostics,
        grid=grid,
        truth=equilibrium,
        measurements=measurements,
        name=name,
    )


@lru_cache(maxsize=4)
def _cached_spherical_torus(n: int, noise: float, seed: int) -> SyntheticShot:
    machine = spherical_torus_machine()
    grid = machine.make_grid(n)
    ip = 16.5e6
    # Aim the vacuum-field shaping below the machine's declared kappa —
    # the quadrupole field acting on the full profile over-elongates a
    # tight-aspect-ratio plasma even more than a conventional one.
    coil_currents = design_coil_currents(
        machine,
        r0=2.1,
        minor_radius=1.35,
        elongation=2.4,
        triangularity=0.45,
        ip=ip,
    )
    equilibrium = solve_forward(
        machine, grid, _profiles(), ip=ip, coil_currents=coil_currents
    )
    return _finish(
        machine, grid, equilibrium, noise=noise, seed=seed, name="spherical-torus"
    )


def spherical_torus_shot(n: int, *, noise: float, seed: int) -> SyntheticShot:
    """An NSTX-U-scale spherical torus: 16.5 MA, kappa ~ 2.8, limited."""
    _check_grid(n)
    return _cached_spherical_torus(n, noise, seed)


@lru_cache(maxsize=4)
def _cached_double_null(n: int, noise: float, seed: int) -> SyntheticShot:
    machine = double_null_machine()
    grid = machine.make_grid(n)
    ip = 1.0e6
    r0, a_t, kappa_t, delta_t = 1.69, 0.6, 1.9, 0.5
    zx = kappa_t * a_t
    rx = r0 - a_t * np.sin(delta_t)
    coil_currents = design_coil_currents(
        machine,
        r0=r0,
        minor_radius=a_t,
        elongation=kappa_t,
        triangularity=delta_t,
        ip=ip,
        x_points=((rx, zx), (rx, -zx)),
    )
    # The sharp psiN < 1 current cutoff makes the mask discontinuous in
    # the separatrix position; current blending (relax_current) damps
    # the resulting limit cycle for this up-down-symmetric case.
    equilibrium = solve_forward(
        machine,
        grid,
        _profiles(),
        ip=ip,
        coil_currents=coil_currents,
        relax_current=0.5,
        max_iters=500,
    )
    return _finish(
        machine, grid, equilibrium, noise=noise, seed=seed, name="double-null"
    )


def double_null_shot(n: int, *, noise: float, seed: int) -> SyntheticShot:
    """A balanced double-null diverted discharge (two active X-points)."""
    _check_grid(n)
    return _cached_double_null(n, noise, seed)


@lru_cache(maxsize=4)
def _cached_single_null(n: int, noise: float, seed: int) -> SyntheticShot:
    machine = single_null_machine()
    grid = machine.make_grid(n)
    ip = 1.0e6
    r0, a_t = 1.69, 0.55
    kappa_u, kappa_l = 1.6, 1.9
    delta_u, delta_l = 0.35, 0.55
    zx = kappa_l * a_t
    rx = r0 - a_t * np.sin(delta_l)
    # force_balance_weight adds the Br = 0 row at the filament: without
    # it the designed field pushes the asymmetric plasma vertically and
    # the nearest natural equilibrium is a limited plasma far above the
    # midplane.  hold_z_centroid is the secant root of the persistent
    # feedback shift for this coil set — at that target the converged
    # truth carries no rigid displacement, so it lies exactly in the
    # span of the reconstruction's flux-function current basis.
    coil_currents = design_coil_currents(
        machine,
        r0=r0,
        minor_radius=a_t,
        elongation=kappa_u,
        triangularity=delta_u,
        elongation_lower=kappa_l,
        triangularity_lower=delta_l,
        ip=ip,
        x_points=((rx, -zx),),
        filament_z=-0.05,
        force_balance_weight=10.0,
    )
    z_settle = -0.056465
    equilibrium = solve_forward(
        machine,
        grid,
        _profiles(),
        ip=ip,
        coil_currents=coil_currents,
        edge_smooth=0.01,
        relax_current=0.5,
        max_iters=2000,
        symmetrize=False,
        hold_z_centroid=z_settle,
        initial_z=z_settle,
    )
    return _finish(
        machine, grid, equilibrium, noise=noise, seed=seed, name="single-null"
    )


def single_null_shot(n: int, *, noise: float, seed: int) -> SyntheticShot:
    """An up-down-asymmetric lower single-null diverted discharge."""
    _check_grid(n)
    return _cached_single_null(n, noise, seed)


def mse_shot(n: int, *, noise: float, seed: int) -> SyntheticShot:
    """The g186610 baseline with 12 MSE channels constraining the fit.

    Same machine, truth equilibrium and magnetics seed as the baseline
    scenario, so the fitted-profile difference between the two isolates
    exactly the effect of the internal-field constraint.
    """
    _check_grid(n)
    return synthetic_shot_186610(n, noise=noise, seed=seed, n_mse=12)
