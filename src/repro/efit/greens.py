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
:class:`FilamentSet` of sources — the coil and vessel responses, the coil
and vessel flux tables and the coil-design rows are calls of it — and
:func:`sensor_grid_response` against a unit filament at every node of a
rectangular grid, the diagnostics' ``green_`` response.  Both run one
loop over the sensors' distinct positions: sensors that share a point (a
flux loop and a probe on one mount) share one ``K``/``E`` evaluation, and
each position meets the grid as its R axis ``(nw, 1)`` against its Z axis
``(1, nh)``, so the terms that separate — ``(R + Rs)^2``, ``4 R Rs``,
``sqrt(R Rs)``, ``(Z - Zs)^2`` — are formed on ``nw`` or ``nh`` values, not
on every node.

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
    "sensor_grid_response",
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
    if (r <= 0.0).any() or (rs <= 0.0).any() or not np.isfinite(denom2).all():
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
    if (kprime2 < _COINCIDENT_KPRIME2).any():
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
    amperes per ampere of its owner — a PF coil, a vessel segment, a
    plasma filament.  Owner ``k`` owns the filaments from ``first[k]`` up
    to ``first[k + 1]`` (the last one, up to the end) and has at least one.
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
        if r.size != z.size:
            raise GreensError(f"filament points need one z per r: {r.size} r, {z.size} z")
        return cls(r, z, np.ones(r.size), np.arange(r.size))

    @classmethod
    def subdivided(cls, parts) -> "FilamentSet":
        """One owner per ``(r, z, weight)`` filament triple of ``parts``."""
        parts = [[np.asarray(a, dtype=float).ravel() for a in part] for part in parts]
        for k, (r, z, weight) in enumerate(parts):
            if not 0 < r.size == z.size == weight.size:
                raise GreensError(
                    f"owner {k} needs at least one filament and one r, z and weight each: "
                    f"{r.size} r, {z.size} z, {weight.size} weights"
                )
        r, z, weight = (np.concatenate(column) for column in zip(*parts))
        counts = np.array([part[0].size for part in parts])
        return cls(r, z, weight, np.cumsum(counts) - counts)


#: The unit sensors of :func:`sensor_response`: flux per radian, radial and
#: vertical field.  A real sensor is a linear combination of them.
_UNIT_SENSORS = np.eye(3)
_UNIT_SENSORS.setflags(write=False)
PSI, BR, BZ = _UNIT_SENSORS

#: Position x filament pairs per broadcast block (and table entries per
#: block of :func:`repro.efit.tables.build_boundary_tables`).  The kernel
#: holds about a dozen temporaries of this many doubles (64 kB each), so
#: set-up adds under 1 MB to the peak at any grid size; at 1 << 16 the
#: temporaries alone raised the benchmark's ``peak_rss_mb`` by 6 %.  A
#: block is never less than one position against every source: from 65^2
#: up, one sensor position against the whole grid.
_BLOCK_PAIRS = 1 << 13


def _checked_sensors(r, z, functional) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sensor arrays as ``(n,)``, ``(n,)`` and ``(n, 3)`` floats."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    functional = np.asarray(functional, dtype=float)
    if r.ndim != 1 or z.shape != r.shape or functional.shape not in ((3,), (r.size, 3)):
        raise GreensError(
            "sensors need 1-D r and z of one length n and a functional of shape (3,) or "
            f"(n, 3): r {r.shape}, z {z.shape}, functional {functional.shape}"
        )
    if not np.isfinite(functional).all():
        raise GreensError("sensor functionals must be finite")
    return r, z, np.broadcast_to(functional, (r.size, 3))


def _positions(r, z, reads) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sensors that read anything, ordered so that each distinct
    position (bit for bit: a -0.0 is not a +0.0) is a run of them and the
    positions go by the components read there.  Returns those sensors,
    each one's position, each position's first sensor (and the end), and
    each position's components as bits (1 psi, 2 Br, 4 Bz)."""
    sensors = np.flatnonzero(reads.any(axis=1))  # a Rogowski reads none
    rb, zb = r[sensors].view(np.int64), z[sensors].view(np.int64)
    order = np.lexsort((zb, rb))
    sensors, rb, zb = sensors[order], rb[order], zb[order]
    new = np.ones(sensors.size, dtype=bool)
    new[1:] = (rb[1:] != rb[:-1]) | (zb[1:] != zb[:-1])
    position = np.cumsum(new) - 1
    kind = np.bitwise_or.reduceat(reads[sensors] @ np.array([1, 2, 4]), np.flatnonzero(new))
    order = np.argsort(kind[position], kind="stable")
    sensors, position = sensors[order], position[order]
    new = np.diff(position, prepend=-1) != 0
    starts = np.append(np.flatnonzero(new), sensors.size)
    return sensors, np.cumsum(new) - 1, starts, kind[position[new]]


def _by_position(r, z, functional, rs, zs, owner_sums, out) -> np.ndarray:
    """Rows of every sensor against unit filaments at the broadcast of
    ``(rs, zs)``, added into the zeros ``out``, ``(n_sensors, *owners)``,
    which is returned.

    The sensors at one position share one kernel call, which forms the
    components any of them reads; positions that read the same components
    go in blocks of up to :data:`_BLOCK_PAIRS` pairs, at least one
    position each.  ``owner_sums`` maps the block's fields, one per
    component, each ``(positions, *filaments)`` (the broadcast's shape),
    to their ``(positions, *owners)`` columns; each sensor row adds its
    psi, then Br, then Bz term times its functional, from zero.
    """
    reads = functional != 0.0
    if not reads.any():
        return out
    sensors, position, starts, kind = _positions(r, z, reads)
    pr, pz = r[sensors[starts[:-1]]], z[sensors[starts[:-1]]]
    source_shape = np.broadcast(rs, zs)
    step = max(1, _BLOCK_PAIRS // max(1, source_shape.size))
    axes = (1,) * source_shape.ndim
    groups = np.append(np.flatnonzero(np.diff(kind, prepend=-1)), kind.size)
    for g0, g1 in zip(groups[:-1], groups[1:]):
        components = tuple(c for c in range(3) if kind[g0] >> c & 1)
        for p0 in range(g0, g1, step):
            p1 = min(p0 + step, g1)
            at = (pr[p0:p1].reshape(-1, *axes), pz[p0:p1].reshape(-1, *axes))
            fields = _filament_fields(*at, rs, zs, components)
            block = sensors[starts[p0] : starts[p1]]
            slot = position[starts[p0] : starts[p1]] - p0  # each sensor's position in the block
            columns = owner_sums(fields)
            for component, column in zip(components, columns):
                hit = reads[block, component]
                rows = block[hit]
                if p1 - p0 > 1:
                    scale = functional[rows, component].reshape(-1, *axes)
                    out[rows] += column[slot[hit]] * scale
                else:  # one position's few rows, each a view: no gather or scatter
                    for row in rows.tolist():
                        out[row] += column[0] * functional[row, component]
    return out


def sensor_response(r, z, functional, sources: FilamentSet) -> np.ndarray:
    """Reading of every point sensor per ampere in every owner of
    ``sources``, shape ``(n_sensors, n_owners)``.

    A magnetic sensor is a linear functional of the field at its position:
    sensor ``i`` at ``(r[i], z[i])`` reads ``functional[i] @ (psi, Br, Bz)``
    — a flux loop is :data:`PSI`, a probe at angle ``a`` is
    ``cos(a) * BR + sin(a) * BZ`` — and one triple stands for every
    sensor.  This and :func:`sensor_grid_response` are the one place
    sensors and coil, vessel or plasma fields meet the filament Green
    functions: one ``K``/``E`` evaluation per distinct sensor position and
    filament, shared by every component the sensors there read (an
    all-zero functional is never evaluated); each row adds its psi, then
    Br, then Bz term, filaments summed per owner in filament order.
    Raises :class:`GreensError`, before any evaluation, unless ``r`` and
    ``z`` are 1-D of one length and ``functional`` is a finite ``(3,)`` or
    ``(n_sensors, 3)``.
    """
    r, z, functional = _checked_sensors(r, z, functional)
    first = sources.first
    counts = np.diff(first, append=sources.r.size)
    later = []  # the owners with a k-th filament, k = 1, 2, ..., and where it sits
    for k in range(1, counts.max(initial=0)):
        owners = np.flatnonzero(counts > k)
        later.append((owners, first[owners] + k))

    def owner_sums(fields):
        pairs = sources.weight * np.stack(fields)
        # Add the k-th filament of every owner that has one, so each
        # owner's sum runs in filament order whatever the others hold.
        summed = pairs[..., first]
        for owners, filaments in later:
            summed[..., owners] += pairs[..., filaments]
        return summed

    out = np.zeros((r.size, first.size))
    return _by_position(r, z, functional, sources.r, sources.z, owner_sums, out)


def sensor_grid_response(r, z, functional, r_axis, z_axis, *, out=None) -> np.ndarray:
    """Reading of every point sensor per ampere at every node of the grid
    ``r_axis`` x ``z_axis``, shape ``(n_sensors, nw * nh)``, node
    ``(i, j)`` in column ``i * nh + j`` (EFIT's flattening).

    The sensors are those of :func:`sensor_response` and each node is a
    unit filament; each position meets the grid as its R axis ``(nw, 1)``
    against its Z axis ``(1, nh)``, so every entry has the bits of the
    node's filament in :func:`sensor_response`.  Given ``out``, a float
    array of shape ``(n_sensors, nw, nh)`` — a view of a larger grid's
    response, say — the readings are written there instead and ``out`` is
    returned.  Raises :class:`GreensError`, before any evaluation, for
    the sensor arrays :func:`sensor_response` refuses or an ``out`` of
    another shape or type.
    """
    r, z, functional = _checked_sensors(r, z, functional)
    r_axis = np.asarray(r_axis, dtype=float).reshape(-1, 1)
    z_axis = np.asarray(z_axis, dtype=float).reshape(1, -1)
    shape = (r.size, r_axis.size, z_axis.size)
    if out is None:
        flat = np.zeros((r.size, r_axis.size * z_axis.size))
        _by_position(r, z, functional, r_axis, z_axis, lambda fields: fields, flat.reshape(shape))
        return flat
    if out.shape != shape or out.dtype != np.float64:
        raise GreensError(f"out must be a {shape} float64 array: {out.shape} {out.dtype}")
    out[...] = 0.0
    return _by_position(r, z, functional, r_axis, z_axis, lambda fields: fields, out)


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
