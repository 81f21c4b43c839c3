"""Tokamak machine description: poloidal-field coils, limiter, vacuum field.

The reconstruction needs to know where the external (poloidal-field) coils
are — their flux threads every diagnostic and sets the boundary condition —
and where the first wall (limiter) is, which bounds the plasma.

:func:`diiid_like_machine` builds a synthetic device with DIII-D-like
geometry (major radius 1.69 m, 18 shaping coils in up-down-symmetric pairs,
a D-shaped limiter).  It is *not* the real DIII-D engineering description —
that data is not public in convenient form — but it has the same scale,
coil topology and diagnostic coverage, which is what the paper's workload
(DIII-D shot #186610) exercises.  See DESIGN.md, substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.efit.greens import BR, BZ, PSI, FilamentSet, sensor_response
from repro.efit.grid import RZGrid
from repro.errors import MeasurementError

__all__ = [
    "PoloidalFieldCoil",
    "Limiter",
    "Tokamak",
    "miller_contour",
    "diiid_like_machine",
    "spherical_torus_machine",
    "double_null_machine",
    "single_null_machine",
]


@dataclass(frozen=True)
class PoloidalFieldCoil:
    """A rectangular-cross-section PF coil, subdivided into filaments.

    Parameters
    ----------
    name:
        Coil label (``F1A`` ...).
    r, z:
        Centroid position [m].
    width, height:
        Radial and vertical extent of the winding pack [m].
    turns:
        Number of turns; the coil current is per-turn, total ampere-turns
        are ``turns * current``.
    nr, nz:
        Filament subdivision of the cross-section for Green-function
        accuracy (2x2 is plenty at reconstruction-grid resolution).
    """

    name: str
    r: float
    z: float
    width: float = 0.1
    height: float = 0.1
    turns: float = 1.0
    nr: int = 2
    nz: int = 2

    def __post_init__(self) -> None:
        if not np.isfinite([self.r, self.z, self.width, self.height]).all():
            raise MeasurementError(f"coil {self.name} has a non-finite coordinate")
        if self.r - 0.5 * self.width <= 0.0:
            raise MeasurementError(f"coil {self.name} crosses the machine axis")
        if self.nr < 1 or self.nz < 1:
            raise MeasurementError(f"coil {self.name} needs >= 1 filament per direction")

    @cached_property
    def filaments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Filament positions and per-filament turn weights ``(rf, zf, wf)``."""
        rf = self.r + self.width * ((np.arange(self.nr) + 0.5) / self.nr - 0.5)
        zf = self.z + self.height * ((np.arange(self.nz) + 0.5) / self.nz - 0.5)
        rr, zz = np.meshgrid(rf, zf, indexing="ij")
        w = np.full(rr.size, self.turns / (self.nr * self.nz))
        return rr.ravel(), zz.ravel(), w

    def _field_at(self, r, z, functional) -> np.ndarray:
        """``functional @ (psi, Br, Bz)`` per ampere of coil current at
        the broadcast of ``(r, z)``."""
        r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
        sources = FilamentSet.subdivided([self.filaments])
        return sensor_response(r.ravel(), z.ravel(), functional, sources).reshape(r.shape)

    def psi_at(self, r, z) -> np.ndarray:
        """Flux per radian per ampere of coil current at (r, z)."""
        return self._field_at(r, z, PSI)

    def br_at(self, r, z) -> np.ndarray:
        return self._field_at(r, z, BR)

    def bz_at(self, r, z) -> np.ndarray:
        return self._field_at(r, z, BZ)


@dataclass(frozen=True)
class VesselSegment:
    """One toroidal filament of the vacuum-vessel wall.

    During transients the vessel carries induced (eddy) currents that
    pollute the magnetics; production EFIT therefore *fits* a current per
    vessel segment alongside the plasma profile coefficients.  Each
    segment is modeled as a single filament (the wall is thin).
    """

    name: str
    r: float
    z: float

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise MeasurementError(f"vessel segment {self.name} at R <= 0")


class _GeometryMemo:
    """Per-instance memo for arrays that depend only on geometry.

    The limiter's grid mask, densified contour and polygon edges, what the
    boundary search derives from them, and the machine's coil flux tables
    are functions of (machine, grid) alone, yet every Picard iterate
    needs them.  They are built on first use and then held on
    the instance they are a function of, so every caller reaches them
    with no extra argument and they die with the machine.  No eviction:
    the memo holds the grids actually used with that machine (about
    0.6 MB at 65^2).

    The dict sits in the instance ``__dict__`` (the way ``cached_property``
    stores its value on a frozen dataclass), so it is no dataclass field
    and stays out of ``__eq__`` and ``__repr__``; ``__getstate__`` keeps it
    out of pickles and copies — the fleet pickles the machine into every
    worker's arguments.  Arrays are handed out read-only: they are shared
    by every solver on the machine.
    """

    def memoised(self, key, build, *args):
        """``build(*args)``, built on the first call for ``key`` and read
        from the memo afterwards.  ``key`` must name everything the value
        depends on besides this instance.  A tuple value (a named tuple
        too) has its array members made read-only; other members are kept
        as they are.  :mod:`repro.efit.boundary` keeps the ψ-independent
        parts of the boundary search here."""
        memo = self.__dict__.setdefault("_memo", {})
        try:
            return memo[key]
        except KeyError:
            # Two threads may both build a missing entry; the builds are
            # equal and setdefault keeps one, so no lock is needed.
            value = build(*args)
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            return memo.setdefault(key, value)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state


@dataclass(frozen=True)
class Limiter(_GeometryMemo):
    """The first-wall polygon bounding the plasma."""

    r: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if r.ndim != 1 or r.shape != z.shape or r.size < 3:
            raise MeasurementError("limiter needs matching 1-D r/z arrays of >= 3 points")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "z", z)

    @property
    def n_points(self) -> int:
        return int(self.r.size)

    def contains(self, r, z) -> np.ndarray:
        """Vectorised point-in-polygon (even-odd rule).

        Broadcasts edges against query points in one shot — the boundary
        search probes the polygon with scalar X-point candidates every
        Picard iterate, so a per-edge Python loop here dominates
        ``steps_`` time.
        """
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        rp, zp = np.broadcast_arrays(r, z)
        shape = rp.shape
        rp = rp.reshape(1, -1)
        zp = zp.reshape(1, -1)
        x1, y1, y2, dx, dy = self.memoised(("edges",), self._edges)
        crosses = (y1 > zp) != (y2 > zp)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = x1 + (zp - y1) * dx / dy
        inside = np.logical_xor.reduce(crosses & (rp < x_int), axis=0)
        return inside.reshape(shape)

    def _edges(self) -> tuple[np.ndarray, ...]:
        """The polygon's edges as columns ``(x1, y1, y2, x2 - x1, y2 - y1)``,
        each edge from a vertex to the next, shape ``(n_points, 1)``."""
        x1, y1 = self.r[:, None], self.z[:, None]
        x2, y2 = np.roll(self.r, -1)[:, None], np.roll(self.z, -1)[:, None]
        return x1.copy(), y1.copy(), y2, x2 - x1, y2 - y1

    def grid_mask(self, grid: RZGrid) -> np.ndarray:
        """``contains(grid.rr, grid.zz)``: which grid nodes lie inside the
        wall.  Built once per grid and returned read-only."""
        return self.memoised(("grid_mask", grid), self.contains, grid.rr, grid.zz)

    def sample_points(self, n_per_edge: int = 4) -> tuple[np.ndarray, np.ndarray]:
        """Densified limiter contour used for the boundary-psi search.
        Built once per ``n_per_edge`` and returned read-only."""
        if n_per_edge < 1:
            raise MeasurementError("n_per_edge must be >= 1")
        return self.memoised(
            ("sample_points", n_per_edge), self._sample_points, n_per_edge
        )

    def _sample_points(self, n_per_edge: int) -> tuple[np.ndarray, np.ndarray]:
        rs: list[np.ndarray] = []
        zs: list[np.ndarray] = []
        t = np.linspace(0.0, 1.0, n_per_edge, endpoint=False)
        x2 = np.roll(self.r, -1)
        y2 = np.roll(self.z, -1)
        for xa, ya, xb, yb in zip(self.r, self.z, x2, y2):
            rs.append(xa + t * (xb - xa))
            zs.append(ya + t * (yb - ya))
        return np.concatenate(rs), np.concatenate(zs)


@dataclass(frozen=True)
class Tokamak(_GeometryMemo):
    """A machine: coils + limiter + vessel + vacuum toroidal field."""

    name: str
    coils: tuple[PoloidalFieldCoil, ...]
    limiter: Limiter
    #: Vacuum ``F = R * B_phi`` [T m]; sets the boundary value of F.
    f_vacuum: float
    #: Default computational box for this device.
    default_box: tuple[float, float, float, float] = (0.84, 2.54, -1.6, 1.6)
    #: Vacuum-vessel wall segments (eddy-current carriers); may be empty.
    vessel: tuple[VesselSegment, ...] = ()

    def __post_init__(self) -> None:
        if not self.coils:
            raise MeasurementError("a tokamak needs at least one PF coil")
        names = [c.name for c in self.coils]
        if len(set(names)) != len(names):
            raise MeasurementError("duplicate coil names")
        vnames = [v.name for v in self.vessel]
        if len(set(vnames)) != len(vnames):
            raise MeasurementError("duplicate vessel segment names")

    @property
    def n_coils(self) -> int:
        return len(self.coils)

    def coil_index(self, name: str) -> int:
        for i, coil in enumerate(self.coils):
            if coil.name == name:
                return i
        raise MeasurementError(f"no coil named {name!r}")

    def make_grid(self, n: int) -> RZGrid:
        """The ``n x n`` computational grid on this device's default box."""
        rmin, rmax, zmin, zmax = self.default_box
        return RZGrid(n, n, rmin, rmax, zmin, zmax)

    @property
    def coil_sources(self) -> FilamentSet:
        """Every coil's filaments, one owner per coil."""
        return FilamentSet.subdivided([coil.filaments for coil in self.coils])

    @property
    def vessel_sources(self) -> FilamentSet:
        """The vessel wall: one filament per segment."""
        return FilamentSet.points([seg.r for seg in self.vessel], [seg.z for seg in self.vessel])

    def _flux_tables(self, sources: FilamentSet, grid: RZGrid) -> np.ndarray:
        """Flux on the grid per ampere in each owner of ``sources``,
        shape ``(n_owners, nw, nh)``: every node is a flux loop."""
        per_node = sensor_response(grid.rr.ravel(), grid.zz.ravel(), PSI, sources)
        return np.ascontiguousarray(per_node.T).reshape(sources.first.size, *grid.shape)

    def coil_flux_tables(self, grid: RZGrid) -> np.ndarray:
        """Per-coil vacuum flux tables, shape ``(n_coils, nw, nh)``.

        ``psi_vacuum = tensordot(currents, tables, 1)`` — the ``green_``
        setup data for the external sources.  Built once per grid and
        returned read-only.
        """
        return self.memoised(
            ("coil_flux_tables", grid), lambda: self._flux_tables(self.coil_sources, grid)
        )

    def psi_from_coils(self, grid: RZGrid, currents: np.ndarray) -> np.ndarray:
        """Vacuum flux on the grid for the given per-coil currents [A]."""
        currents = np.asarray(currents, dtype=float)
        if currents.shape != (self.n_coils,):
            raise MeasurementError(
                f"need {self.n_coils} coil currents, got shape {currents.shape}"
            )
        return np.tensordot(currents, self.coil_flux_tables(grid), axes=1)

    # -- vessel ------------------------------------------------------------------
    @property
    def n_vessel(self) -> int:
        return len(self.vessel)

    def vessel_flux_tables(self, grid: RZGrid) -> np.ndarray:
        """Per-segment vessel flux tables, shape ``(n_vessel, nw, nh)``.
        Built once per grid and returned read-only."""
        return self.memoised(
            ("vessel_flux_tables", grid), lambda: self._flux_tables(self.vessel_sources, grid)
        )

    def psi_from_vessel(self, grid: RZGrid, currents: np.ndarray) -> np.ndarray:
        """Flux of the vessel eddy currents on the grid."""
        currents = np.asarray(currents, dtype=float)
        if currents.shape != (self.n_vessel,):
            raise MeasurementError(
                f"need {self.n_vessel} vessel currents, got shape {currents.shape}"
            )
        if self.n_vessel == 0:
            return np.zeros(grid.shape)
        return np.tensordot(currents, self.vessel_flux_tables(grid), axes=1)


def miller_contour(
    r0: float,
    a: float,
    kappa: float,
    delta: float,
    n: int,
    *,
    kappa_lower: float | None = None,
    delta_lower: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Miller-parameterised D-shaped closed contour.

    ``r = r0 + a cos(theta + delta sin theta)``, ``z = kappa a sin theta``.
    ``kappa_lower``/``delta_lower`` switch the lower half (``sin theta < 0``)
    to its own elongation/triangularity, producing the up-down-asymmetric
    shapes of single-null plasmas; both halves meet continuously at the
    midplane (``z = 0`` at ``theta = 0, pi`` regardless of the split).
    Defaults reproduce the symmetric contour exactly.
    """
    if a <= 0.0 or r0 - a <= 0.0:
        raise MeasurementError("miller contour crosses the machine axis")
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if kappa_lower is None and delta_lower is None:
        r = r0 + a * np.cos(theta + delta * np.sin(theta))
        z = kappa * a * np.sin(theta)
        return r, z
    k_lo = kappa if kappa_lower is None else kappa_lower
    d_lo = delta if delta_lower is None else delta_lower
    sin_t = np.sin(theta)
    kap = np.where(sin_t >= 0.0, kappa, k_lo)
    dlt = np.where(sin_t >= 0.0, delta, d_lo)
    r = r0 + a * np.cos(theta + dlt * sin_t)
    z = kap * a * sin_t
    return r, z


#: Backwards-compatible private alias (historical internal name).
_miller_contour = miller_contour


def diiid_like_machine(*, n_limiter: int = 64, n_vessel: int = 24) -> Tokamak:
    """A DIII-D-scale synthetic tokamak.

    Eighteen PF coils in nine up-down-symmetric pairs whose layout follows
    the DIII-D F-coil arrangement (inboard solenoid-side stack F1-F5,
    outboard ring F6-F9); D-shaped limiter with R0 = 1.69 m, a = 0.67 m,
    elongation 1.75, triangularity 0.35; vacuum field B0 = 2.0 T; a
    ``n_vessel``-segment vacuum-vessel wall between the limiter and the
    diagnostic ring.
    """
    upper = [
        ("F1A", 0.8608, 0.1683, 0.0508, 0.32, 58.0),
        ("F2A", 0.8614, 0.5081, 0.0508, 0.32, 58.0),
        ("F3A", 0.8628, 0.8491, 0.0508, 0.32, 58.0),
        ("F4A", 0.8611, 1.1899, 0.0508, 0.32, 58.0),
        ("F5A", 1.0041, 1.5169, 0.13, 0.13, 58.0),
        ("F6A", 2.6124, 0.4376, 0.27, 0.17, 55.0),
        ("F7A", 2.3733, 1.1171, 0.17, 0.17, 55.0),
        ("F8A", 1.2518, 1.6019, 0.13, 0.13, 58.0),
        ("F9A", 1.6890, 1.5874, 0.13, 0.13, 55.0),
    ]
    coils: list[PoloidalFieldCoil] = []
    for name, r, z, w, h, turns in upper:
        coils.append(PoloidalFieldCoil(name, r, z, w, h, turns))
        coils.append(PoloidalFieldCoil(name.replace("A", "B"), r, -z, w, h, turns))
    lr, lz = _miller_contour(r0=1.69, a=0.67, kappa=1.75, delta=0.35, n=n_limiter)
    # Vessel wall: the limiter contour scaled out by 6% about its centroid.
    vr, vz = _miller_contour(r0=1.69, a=0.67 * 1.06, kappa=1.75, delta=0.35, n=n_vessel)
    vessel = tuple(
        VesselSegment(f"VS{k:03d}", float(r), float(z)) for k, (r, z) in enumerate(zip(vr, vz))
    )
    return Tokamak(
        name="DIII-D-like",
        coils=tuple(coils),
        limiter=Limiter(lr, lz),
        f_vacuum=1.69 * 2.0,
        default_box=(0.84, 2.54, -1.6, 1.6),
        vessel=vessel,
    )


def _mirror_pairs(
    upper: list[tuple[str, float, float, float, float, float]],
) -> tuple[PoloidalFieldCoil, ...]:
    """Expand an upper-half coil table into up-down-symmetric A/B pairs."""
    coils: list[PoloidalFieldCoil] = []
    for name, r, z, w, h, turns in upper:
        coils.append(PoloidalFieldCoil(name, r, z, w, h, turns))
        coils.append(PoloidalFieldCoil(name.replace("A", "B"), r, -z, w, h, turns))
    return tuple(coils)


def _vessel_ring(
    r0: float,
    a: float,
    kappa: float,
    delta: float,
    n: int,
    *,
    kappa_lower: float | None = None,
    delta_lower: float | None = None,
) -> tuple[VesselSegment, ...]:
    """Vessel wall: the limiter contour scaled out by 6 % about its centroid."""
    vr, vz = miller_contour(
        r0, a * 1.06, kappa, delta, n, kappa_lower=kappa_lower, delta_lower=delta_lower
    )
    return tuple(
        VesselSegment(f"VS{k:03d}", float(r), float(z)) for k, (r, z) in enumerate(zip(vr, vz))
    )


def spherical_torus_machine(*, n_limiter: int = 64, n_vessel: int = 24) -> Tokamak:
    """A spherical-torus (low-aspect-ratio) machine.

    Geometry follows the ST power-plant-scale design point the scenario
    zoo targets: R0 = 2.5 m, aspect ratio A = 1.6 (a = 1.5625 m),
    elongation 2.8 — the regime the EXL-50U reconstruction work shows
    stresses Grad-Shafranov solvers very differently from conventional
    aspect ratio (strong outboard/inboard field asymmetry, near-vertical
    inboard flux surfaces).  A central-solenoid-side coil stack plus an
    outboard PF ring, all in up-down-symmetric pairs.
    """
    r0, a, kappa, delta = 2.5, 1.5625, 2.8, 0.45
    upper = [
        # Central-solenoid-side stack (tall, inboard).
        ("CS1A", 0.42, 0.60, 0.12, 1.00, 60.0),
        ("CS2A", 0.42, 1.75, 0.12, 1.00, 60.0),
        ("CS3A", 0.42, 2.90, 0.12, 1.00, 60.0),
        ("CS4A", 0.42, 4.00, 0.12, 0.90, 60.0),
        # Outboard PF ring tracking the strongly elongated wall.
        ("PF1A", 1.60, 4.95, 0.30, 0.25, 55.0),
        ("PF2A", 3.10, 4.35, 0.30, 0.25, 55.0),
        ("PF3A", 4.45, 2.70, 0.30, 0.25, 55.0),
        ("PF4A", 4.80, 1.05, 0.30, 0.25, 55.0),
    ]
    lr, lz = miller_contour(r0, a, kappa, delta, n_limiter)
    return Tokamak(
        name="spherical-torus",
        coils=_mirror_pairs(upper),
        limiter=Limiter(lr, lz),
        # Low-field ST: B0 ~ 1 T at R0 = 2.5 m.
        f_vacuum=2.5,
        default_box=(0.55, 4.55, -4.85, 4.85),
        vessel=_vessel_ring(r0, a, kappa, delta, n_vessel),
    )


def double_null_machine(*, n_limiter: int = 64, n_vessel: int = 24) -> Tokamak:
    """A DIII-D-scale machine shaped for double-null diverted operation.

    The wall is taller and wider than the DIII-D-like limiter (minor
    radius 0.78 m, elongation 2.05) so an up-down-symmetric separatrix
    with X-points near z = ±1.1 m fits strictly inside it — a diverted
    boundary exists only when the X-point flux surface clears the wall —
    and the upper/lower coil rows sit higher to give the shape-design
    problem radial-field actuators near both nulls.
    """
    r0, a, kappa, delta = 1.69, 0.78, 2.05, 0.45
    upper = [
        ("F1A", 0.8608, 0.25, 0.0508, 0.36, 58.0),
        ("F2A", 0.8614, 0.70, 0.0508, 0.36, 58.0),
        ("F3A", 0.8628, 1.15, 0.0508, 0.36, 58.0),
        ("F4A", 0.8611, 1.60, 0.0508, 0.36, 58.0),
        ("F5A", 1.0041, 1.95, 0.13, 0.13, 58.0),
        ("F6A", 2.6124, 0.52, 0.27, 0.17, 55.0),
        ("F7A", 2.3733, 1.40, 0.17, 0.17, 55.0),
        # Divertor-row coils close above/below the target X-points.
        ("F8A", 1.2518, 1.90, 0.13, 0.13, 58.0),
        ("F9A", 1.6890, 1.85, 0.13, 0.13, 55.0),
    ]
    lr, lz = miller_contour(r0, a, kappa, delta, n_limiter)
    return Tokamak(
        name="double-null",
        coils=_mirror_pairs(upper),
        limiter=Limiter(lr, lz),
        f_vacuum=1.69 * 2.0,
        default_box=(0.84, 2.54, -1.75, 1.75),
        vessel=_vessel_ring(r0, a, kappa, delta, n_vessel),
    )


def single_null_machine(*, n_limiter: int = 64, n_vessel: int = 24) -> Tokamak:
    """A DIII-D-scale machine with an up-down-asymmetric first wall.

    The limiter's lower half is taller and more triangular than the upper
    (kappa 2.05/1.65, delta 0.55/0.35) to host a lower-single-null
    diverted plasma; the coil set is geometrically symmetric (shape
    asymmetry comes from the designed currents), with the same divertor
    rows as :func:`double_null_machine`.
    """
    r0, a = 1.69, 0.67
    kappa_u, kappa_l = 1.65, 2.05
    delta_u, delta_l = 0.35, 0.55
    upper = [
        ("F1A", 0.8608, 0.25, 0.0508, 0.36, 58.0),
        ("F2A", 0.8614, 0.70, 0.0508, 0.36, 58.0),
        ("F3A", 0.8628, 1.15, 0.0508, 0.36, 58.0),
        ("F4A", 0.8611, 1.60, 0.0508, 0.36, 58.0),
        ("F5A", 1.0041, 1.95, 0.13, 0.13, 58.0),
        ("F6A", 2.6124, 0.52, 0.27, 0.17, 55.0),
        ("F7A", 2.3733, 1.40, 0.17, 0.17, 55.0),
        ("F8A", 1.2518, 1.90, 0.13, 0.13, 58.0),
        ("F9A", 1.6890, 1.85, 0.13, 0.13, 55.0),
    ]
    lr, lz = miller_contour(
        r0, a, kappa_u, delta_u, n_limiter, kappa_lower=kappa_l, delta_lower=delta_l
    )
    return Tokamak(
        name="single-null",
        coils=_mirror_pairs(upper),
        limiter=Limiter(lr, lz),
        f_vacuum=1.69 * 2.0,
        default_box=(0.84, 2.54, -1.75, 1.55),
        vessel=_vessel_ring(
            r0, a, kappa_u, delta_u, n_vessel, kappa_lower=kappa_l, delta_lower=delta_l
        ),
    )
