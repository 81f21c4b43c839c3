"""Magnetic diagnostics and their response functions.

EFIT fits the plasma current to external magnetic data: poloidal flux
loops, poloidal-field (Mirnov) probes, and a full Rogowski coil measuring
the total plasma current.  Each diagnostic is linear in every current
source: a point sensor is a position and a ``functional`` — its reading as
a combination of the flux and field there — and
:func:`~repro.efit.greens.sensor_grid_response` and
:func:`~repro.efit.greens.sensor_response` turn any set of them into a
response matrix against the grid or any set of filaments.  :class:`DiagnosticSet`
assembles those matrices once per grid (part of the ``green_`` setup) and
the fit reuses them every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.greens import BR, BZ, PSI, sensor_grid_response, sensor_response
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak
from repro.errors import MeasurementError

__all__ = ["FluxLoop", "MagneticProbe", "RogowskiCoil", "DiagnosticSet"]


def _response(diagnostics, respond, *sources, enclosed: bool, **out) -> np.ndarray:
    """One row per diagnostic, one column per source.

    Point sensors go through ``respond(r, z, functional, *sources,
    **out)`` — :func:`sensor_grid_response` on the grid's axes (``out``
    may name the block it writes) or :func:`sensor_response` on a
    filament set; a Rogowski reads the current it encloses — every ampere
    of plasma (the grid), none of an external conductor.
    """
    rows = respond(
        [diag.r for diag in diagnostics],
        [diag.z for diag in diagnostics],
        [diag.functional for diag in diagnostics],
        *sources,
        **out,
    )
    rows[[isinstance(diag, RogowskiCoil) for diag in diagnostics]] = float(enclosed)
    return rows


class _Diagnostic:
    """What every diagnostic answers, alone or as a row of a set."""

    def _check_position(self, kind: str, *more: float) -> None:
        """Finite ``(r, z, *more)`` (``more``: a probe's angle), ``r > 0``."""
        if not np.isfinite([self.r, self.z, *more]).all():
            raise MeasurementError(f"{kind} {self.name} has a non-finite coordinate")
        if self.r <= 0.0:
            raise MeasurementError(f"{kind} {self.name} at R <= 0")

    def response_to_grid(self, grid: RZGrid) -> np.ndarray:
        """Reading per ampere at each grid node, shape ``(nw, nh)``."""
        row = _response([self], sensor_grid_response, grid.r, grid.z, enclosed=True)[0]
        return grid.unflatten(row)

    def response_to_coils(self, machine: Tokamak) -> np.ndarray:
        """Reading per ampere in each PF coil, shape ``(n_coils,)``."""
        return _response([self], sensor_response, machine.coil_sources, enclosed=False)[0]


@dataclass(frozen=True)
class FluxLoop(_Diagnostic):
    """A toroidal flux loop measuring poloidal flux per radian at (r, z)."""

    name: str
    r: float
    z: float
    functional = PSI

    def __post_init__(self) -> None:
        self._check_position("flux loop")


@dataclass(frozen=True)
class MagneticProbe(_Diagnostic):
    """A local B-field probe at (r, z) oriented ``angle`` radians from the
    R axis in the poloidal plane; measures ``Br cos(a) + Bz sin(a)``."""

    name: str
    r: float
    z: float
    angle: float

    def __post_init__(self) -> None:
        self._check_position("probe", self.angle)

    @property
    def functional(self) -> np.ndarray:
        return np.cos(self.angle) * BR + np.sin(self.angle) * BZ


@dataclass(frozen=True)
class MSEChannel(_Diagnostic):
    """A motional-Stark-effect pitch-angle channel.

    MSE polarimetry views a neutral beam and measures the local magnetic
    pitch ``tan(gamma) = B_z / B_phi`` *inside* the plasma — the internal
    constraint that breaks the ``p'``/``FF'`` degeneracy external
    magnetics leave (the "kinetic EFIT" upgrade of Lao 2022, the EFIT-AI
    paper this work belongs to).  With the vacuum toroidal field
    approximation ``B_phi = F_vac / R`` the measurement is linear in every
    poloidal current source: ``tan(gamma) = B_z R / F_vac``.
    """

    name: str
    r: float
    z: float
    #: Vacuum ``F = R B_phi`` used to normalise the pitch [T m].
    f_vacuum: float

    def __post_init__(self) -> None:
        self._check_position("MSE channel")
        if self.f_vacuum == 0.0:
            raise MeasurementError(f"MSE channel {self.name}: zero vacuum field")

    @property
    def functional(self) -> np.ndarray:
        return self.r / self.f_vacuum * BZ


@dataclass(frozen=True)
class RogowskiCoil(_Diagnostic):
    """A full Rogowski loop: measures the total enclosed plasma current —
    the one diagnostic that is not a point sensor: it has no position and
    reads no field, and :func:`_response` fills in its row."""

    name: str = "IP"
    r = z = float("nan")
    functional = np.zeros(3)


@dataclass(frozen=True)
class DiagnosticSet:
    """The full diagnostic complement of a machine.

    Row ordering everywhere: flux loops, probes, MSE channels (optional),
    Rogowski last (so ``values[-1]`` is always the plasma current).
    """

    flux_loops: tuple[FluxLoop, ...]
    probes: tuple[MagneticProbe, ...]
    rogowski: RogowskiCoil
    mse: tuple[MSEChannel, ...] = ()

    def __post_init__(self) -> None:
        names = (
            [d.name for d in self.flux_loops]
            + [d.name for d in self.probes]
            + [d.name for d in self.mse]
        )
        if len(set(names)) != len(names):
            raise MeasurementError("duplicate diagnostic names")

    @property
    def n_measurements(self) -> int:
        """Flux loops + probes + MSE + Rogowski."""
        return len(self.flux_loops) + len(self.probes) + len(self.mse) + 1

    @property
    def names(self) -> list[str]:
        return (
            [d.name for d in self.flux_loops]
            + [d.name for d in self.probes]
            + [d.name for d in self.mse]
            + [self.rogowski.name]
        )

    def _ordered(self):
        return list(self.flux_loops) + list(self.probes) + list(self.mse) + [self.rogowski]

    def response_to_grid(
        self, grid: RZGrid, *, support: tuple[slice, slice] | None = None
    ) -> np.ndarray:
        """Stacked grid response matrix, shape ``(n_measurements, nw*nh)``.

        ``support``, a pair of slices of the grid's rows (R) and columns
        (Z), builds the entries of that block of nodes only, written in
        place into the one matrix, and leaves every other entry +0.0 —
        what :class:`~repro.efit.fitting.EfitSolver` keeps, on its
        :attr:`GridStatics.response_support
        <repro.efit.fitting.GridStatics.response_support>`.
        """
        rows, cols = support if support is not None else (slice(None), slice(None))
        response = np.zeros((self.n_measurements, grid.size))
        block = response.reshape(-1, *grid.shape)[:, rows, cols]
        axes = grid.r[rows], grid.z[cols]
        _response(self._ordered(), sensor_grid_response, *axes, enclosed=True, out=block)
        return response

    def response_to_coils(self, machine: Tokamak) -> np.ndarray:
        """Stacked coil response matrix, shape ``(n_measurements, n_coils)``."""
        return _response(self._ordered(), sensor_response, machine.coil_sources, enclosed=False)

    def response_to_vessel(self, machine: Tokamak) -> np.ndarray:
        """Response to unit vessel-segment currents,
        shape ``(n_measurements, n_vessel)`` (vessel currents flow outside
        the plasma contour, so the Rogowski sees nothing)."""
        return _response(
            self._ordered(), sensor_response, machine.vessel_sources, enclosed=False
        )

    @classmethod
    def for_machine(
        cls,
        machine: Tokamak,
        *,
        n_flux_loops: int = 40,
        n_probes: int = 60,
        n_mse: int = 0,
        standoff: float = 1.12,
    ) -> "DiagnosticSet":
        """Place diagnostics on a contour ``standoff`` times the limiter.

        Flux loops and probes are spread uniformly in poloidal angle on a
        scaled copy of the limiter (just outside the plasma, inside the
        vessel) — the usual arrangement.  Probe orientations alternate
        between tangential and normal, as on DIII-D.  ``n_mse`` channels,
        if requested, view the outboard midplane (the DIII-D beam line).
        """
        if n_flux_loops < 4 or n_probes < 4:
            raise MeasurementError("too few diagnostics to constrain a fit")
        lr, lz = machine.limiter.r, machine.limiter.z
        r0 = float(lr.mean())
        z0 = float(lz.mean())

        def ring(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            # Scale the limiter about its centroid.
            a = np.interp(
                theta,
                np.arctan2(lz - z0, lr - r0) % (2 * np.pi),
                np.hypot(lr - r0, lz - z0),
                period=2 * np.pi,
            )
            rr = r0 + standoff * a * np.cos(theta)
            zz = z0 + standoff * a * np.sin(theta)
            return rr, zz, theta

        fr, fz, _ = ring(n_flux_loops)
        loops = tuple(
            FluxLoop(f"PSF{i:03d}", float(r), float(z)) for i, (r, z) in enumerate(zip(fr, fz))
        )
        pr, pz, ptheta = ring(n_probes)
        probes = []
        for i, (r, z, th) in enumerate(zip(pr, pz, ptheta)):
            # Tangential to the ring for even i, normal for odd i.
            angle = th + (np.pi / 2.0 if i % 2 == 0 else 0.0)
            probes.append(MagneticProbe(f"MPI{i:03d}", float(r), float(z), float(angle)))
        mse: list[MSEChannel] = []
        if n_mse:
            # Outboard midplane chord from near the axis to near the wall.
            r_lim_out = float(lr.max())
            r_axis = r0
            radii = np.linspace(r_axis + 0.05, 0.98 * r_lim_out, n_mse)
            for i, r in enumerate(radii):
                mse.append(MSEChannel(f"MSE{i:03d}", float(r), 0.0, machine.f_vacuum))
        return cls(
            flux_loops=loops,
            probes=tuple(probes),
            rogowski=RogowskiCoil(),
            mse=tuple(mse),
        )
