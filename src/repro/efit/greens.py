"""Green functions of the Grad-Shafranov operator: circular-filament fields.

The free-space Green function of ``Delta*`` is the poloidal flux (per radian
of toroidal angle) produced at an observation point ``(R, Z)`` by a unit
toroidal current filament at ``(Rs, Zs)``:

.. math::

    G_\\psi(R, Z; R_s, Z_s) = \\frac{\\mu_0}{2\\pi} \\sqrt{R R_s}\\,
        \\frac{(2 - k^2) K(k) - 2 E(k)}{k},
    \\qquad
    k^2 = \\frac{4 R R_s}{(R + R_s)^2 + (Z - Z_s)^2}

with ``K``/``E`` the complete elliptic integrals.  EFIT builds all of its
machinery on this: the boundary flux sums inside ``pflux_`` (the paper's
O(N^3) kernel), the coil vacuum-flux tables, and every magnetic-diagnostic
response function (``green_``).

The magnetic-field kernels ``greens_br``/``greens_bz`` are the analytic
derivatives (``Br = -psi_Z / R``, ``Bz = psi_R / R``).
:func:`sensor_response` evaluates all three for point sensors against a
:class:`FilamentSet` of sources — every diagnostic response matrix, the
coil and vessel flux tables and the coil-design rows are calls of it.

All functions broadcast over NumPy arrays and are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import ellipe, ellipkm1

from repro.errors import GreensError
from repro.utils.constants import MU0, TWO_PI

__all__ = [
    "greens_psi",
    "greens_br",
    "greens_bz",
    "FilamentSet",
    "PSI",
    "BR",
    "BZ",
    "sensor_response",
    "mutual_inductance",
    "self_flux_per_radian",
]

# Below this k'^2 = 1 - k^2 the filaments are effectively coincident and the
# logarithmic singularity of K makes the point-filament formula meaningless.
_COINCIDENT_KPRIME2 = 1e-14


def _geometry(r, z, rs, zs):
    """Common geometric factors, broadcast: returns (r, z, rs, zs, m,
    denom2) with m = k^2 and denom2 = (R+Rs)^2 + (Z-Zs)^2."""
    r, z, rs, zs = (np.asarray(a, dtype=float) for a in (r, z, rs, zs))
    denom2 = (r + rs) ** 2 + (z - zs) ** 2
    # Every coordinate enters denom2: a NaN or infinite one leaves it non-finite.
    if np.any(r <= 0.0) or np.any(rs <= 0.0) or not np.isfinite(denom2).all():
        raise GreensError("filament Green functions require finite positions, R > 0 on both ends")
    m = 4.0 * r * rs / denom2
    return r, z, rs, zs, m, denom2


def _filament_fields(r, z, rs, zs, components) -> list:
    """The ``components`` (ascending indices into ``(psi, Br, Bz)``) at
    ``(r, z)`` from unit filaments at ``(rs, zs)``, broadcast: one geometry
    and one ``K(k)``, ``E(k)`` evaluation shared by all of them, each formed
    in its own formula's operation order (so any subset gives equal bits)."""
    r, z, rs, zs, m, denom2 = _geometry(r, z, rs, zs)
    mk = np.minimum(m, 1.0)  # guard rounding above 1
    kprime2 = 1.0 - mk
    if np.any(kprime2 < _COINCIDENT_KPRIME2):
        raise GreensError("coincident filaments: use self_flux_per_radian for self terms")
    bigk, bige = ellipkm1(kprime2), ellipe(mk)
    fields = []
    if 0 in components:
        k = np.sqrt(mk)
        fields.append(MU0 / TWO_PI * np.sqrt(r * rs) * ((2.0 - mk) * bigk - 2.0 * bige) / k)
    if 1 in components or 2 in components:
        dz = z - zs
        beta = np.sqrt(denom2)
        alpha2 = (rs - r) ** 2 + dz**2
    if 1 in components:
        num = (rs**2 + r**2 + dz**2) * bige / alpha2 - bigk
        fields.append(MU0 / TWO_PI * dz / (r * beta) * num)
    if 2 in components:
        num = bigk + (rs**2 - r**2 - dz**2) * bige / alpha2
        fields.append(MU0 / TWO_PI / beta * num)
    return fields


def greens_psi(r, z, rs, zs):
    """Poloidal flux per radian at (r, z) from a unit filament at (rs, zs).

    Returns Wb/rad per ampere.  Raises :class:`GreensError` for coincident
    points — callers needing self terms use :func:`self_flux_per_radian`.
    """
    return _filament_fields(r, z, rs, zs, (0,))[0]


def greens_br(r, z, rs, zs):
    """Radial field Br at (r, z) from a unit filament at (rs, zs) [T/A].

    ``Br = -(1/R) d(psi)/dZ``.  Vanishes on the midplane of the source and
    as r -> 0.
    """
    return _filament_fields(r, z, rs, zs, (1,))[0]


def greens_bz(r, z, rs, zs):
    """Vertical field Bz at (r, z) from a unit filament at (rs, zs) [T/A].

    ``Bz = (1/R) d(psi)/dR``.
    """
    return _filament_fields(r, z, rs, zs, (2,))[0]


class FilamentSet(NamedTuple):
    """Current sources as flat filament arrays.

    Filament ``f`` sits at ``(r[f], z[f])`` and carries ``weight[f]``
    amperes per ampere of its owner — a grid node, a PF coil, a vessel
    segment.  Owner ``k`` owns the filaments from ``first[k]`` up to
    ``first[k + 1]`` (the last one, up to the end) and has at least one.
    """

    r: np.ndarray
    z: np.ndarray
    weight: np.ndarray
    first: np.ndarray

    @classmethod
    def points(cls, r, z) -> "FilamentSet":
        """One unit-weight filament per owner."""
        r = np.asarray(r, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        return cls(r, z, np.ones(r.size), np.arange(r.size))

    @classmethod
    def subdivided(cls, parts) -> "FilamentSet":
        """One owner per ``(r, z, weight)`` filament triple of ``parts``."""
        r, z, weight = (np.concatenate(column) for column in zip(*parts))
        counts = np.array([part[0].size for part in parts])
        return cls(r, z, weight, np.cumsum(counts) - counts)


#: The unit sensors of :func:`sensor_response`: flux per radian, radial and
#: vertical field.  A real sensor is a linear combination of them.
_UNIT_SENSORS = np.eye(3)
_UNIT_SENSORS.setflags(write=False)
PSI, BR, BZ = _UNIT_SENSORS

#: Sensor x filament pairs per broadcast block (and table entries per block
#: of :func:`repro.efit.tables.build_boundary_tables`).  The kernel holds
#: about a dozen temporaries of this many doubles (64 kB each), so set-up
#: adds under 1 MB to the peak at any grid size; at 1 << 16 the temporaries
#: alone raised the benchmark's ``peak_rss_mb`` by 6 %.
_BLOCK_PAIRS = 1 << 13


def sensor_response(r, z, functional, sources: FilamentSet) -> np.ndarray:
    """Reading of every point sensor per ampere in every owner of
    ``sources``, shape ``(n_sensors, n_owners)``.

    A magnetic sensor is a linear functional of the field at its position:
    sensor ``i`` at ``(r[i], z[i])`` reads ``functional[i] @ (psi, Br, Bz)``
    — a flux loop is :data:`PSI`, a probe at angle ``a`` is
    ``cos(a) * BR + sin(a) * BZ`` — and one triple stands for every
    sensor.  This is the one place sensors and coil or vessel fields meet
    the filament Green functions.  Sensors that read the same components go
    in blocks against all filaments, one ``K``/``E`` evaluation per pair
    shared by those components (an all-zero functional is never evaluated);
    each row adds its psi, then Br, then Bz term, filaments summed per
    owner in filament order.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    functional = np.broadcast_to(np.asarray(functional, dtype=float).reshape(-1, 3), (r.size, 3))
    first = sources.first
    counts = np.diff(first, append=sources.r.size)
    out = np.zeros((r.size, first.size))
    step = max(1, _BLOCK_PAIRS // max(1, sources.r.size))
    reads = functional != 0.0
    kind_of = reads @ np.array([1, 2, 4])  # which components a sensor reads
    for kind in np.unique(kind_of[kind_of > 0]):  # a Rogowski reads none
        sensors = np.flatnonzero(kind_of == kind)
        components = tuple(np.flatnonzero(reads[sensors[0]]))
        for block in (sensors[k : k + step] for k in range(0, sensors.size, step)):
            fields = _filament_fields(r[block, None], z[block, None], sources.r, sources.z, components)
            for component, field in zip(components, fields):
                pairs = sources.weight * field
                # Add the k-th filament of every owner that has one, so each
                # owner's sum runs in filament order whatever the others hold.
                summed = pairs[:, first]
                for k in range(1, counts.max(initial=0)):
                    owners = np.flatnonzero(counts > k)
                    summed[:, owners] += pairs[:, first[owners] + k]
                summed *= functional[block, component, None]
                out[block] += summed
    return out


def mutual_inductance(r, z, rs, zs):
    """Mutual inductance between two coaxial circular filaments [H].

    ``M = 2*pi * G_psi`` — the full flux linked per ampere.
    """
    return TWO_PI * greens_psi(r, z, rs, zs)


def self_flux_per_radian(rs, minor_radius):
    """Self flux per radian of a circular loop of wire radius ``minor_radius``.

    Uses the uniform-current self-inductance ``L = mu0 R (ln(8R/a) - 7/4)``;
    EFIT uses the same regularisation for grid-cell self terms, with an
    effective filament radius derived from the cell area.
    """
    rs = np.asarray(rs, dtype=float)
    a = np.asarray(minor_radius, dtype=float)
    if np.any(rs <= 0.0):
        raise GreensError("self flux requires R > 0")
    if np.any(a <= 0.0) or np.any(a >= rs):
        raise GreensError("minor radius must satisfy 0 < a < R")
    inductance = MU0 * rs * (np.log(8.0 * rs / a) - 1.75)
    return inductance / TWO_PI
