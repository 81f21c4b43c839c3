"""Magnetic axis and plasma-boundary location (the ``steps_`` subroutine).

After every ``pflux_`` solve, EFIT must (1) find the magnetic axis — the
extremum of ``psi`` inside the limiter, (2) decide the boundary flux
``psi_b`` — either the flux at the limiter contact point or at an X-point
(saddle of ``psi``), whichever bounds the smaller plasma, (3) build the
normalised flux ``psiN = (psi - psi_axis)/(psi_b - psi_axis)`` and the
in-plasma mask used by ``current_``.

The mask keeps only the cells *connected to the axis* through ``psiN < 1``
territory, excluding private-flux regions below an X-point, via a
connected-component labelling.

:func:`find_boundaries` runs the search on a stack of flux maps at once,
and :func:`find_boundary` is its one-map call.  Its grid-sized steps are
array-at-a-time over the stack; the few nodes it looks at closely — each
map's axis node and the 3x3 minima of ``|grad psi|^2`` — have their 3x3
stencils gathered in one fancy index, and their Hessian test and
quadratic refinement run on Python floats, in numpy's operation order, so
a node costs a few float operations instead of a round of array calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import ndimage

from repro.efit.grid import RZGrid
from repro.efit.machine import Limiter
from repro.errors import BoundaryError

__all__ = ["BoundaryResult", "find_axis", "find_xpoints", "find_boundary", "find_boundaries"]


@dataclass(frozen=True)
class BoundaryResult:
    """Everything ``steps_`` produces for one Picard iterate."""

    psi_axis: float
    r_axis: float
    z_axis: float
    psi_boundary: float
    boundary_type: str  # "limiter" or "xpoint"
    psin: np.ndarray  # (nw, nh) normalised flux
    mask: np.ndarray  # (nw, nh) bool, True inside the plasma
    r_xpoint: float | None = None
    z_xpoint: float | None = None

    @property
    def plasma_volume_cells(self) -> int:
        return int(self.mask.sum())


#: How many admissible saddles, flattest first, ``find_boundary`` tries as
#: the plasma's X-point.
MAX_XPOINT_CANDIDATES = 6

#: 4-connectivity, ``ndimage``'s default, built once instead of per call.
_CROSS = ndimage.generate_binary_structure(2, 1)
#: The same within each map of a stack, and no connection between maps.
_CROSS_STACK = np.stack([np.zeros_like(_CROSS), _CROSS, np.zeros_like(_CROSS)])


def _stencil_offsets(nh: int) -> np.ndarray:
    """Flat offsets of a node's 3x3 stencil on a grid ``nh`` columns
    wide, row by row: ``f[i - 1, j - 1]`` first, ``f[i + 1, j + 1]``
    last."""
    return np.array([-nh - 1, -nh, -nh + 1, -1, 0, 1, nh - 1, nh, nh + 1])


def _interior(grid: RZGrid, window: tuple[slice, slice]) -> tuple[slice, slice]:
    """``window`` without the grid's edge ring: the nodes with a full 3x3
    stencil."""
    rows, cols = window
    return (
        slice(max(rows.start, 1), min(rows.stop, grid.nw - 1)),
        slice(max(cols.start, 1), min(cols.stop, grid.nh - 1)),
    )


def _bounding_window(grid: RZGrid, inside: np.ndarray) -> tuple[slice, slice]:
    """The block of grid rows and columns within two cells of ``inside``'s
    nodes, clipped to the grid (empty for an empty mask).

    Everything the boundary search looks for lies in this block, so its
    grid-sized steps run there: the plasma mask is a subset of ``inside``,
    and a saddle the quadratic refinement places inside the wall sits at
    most one cell from its grid node, hence within two of an in-wall node
    wherever the wall is wider than a cell.
    """

    def span(occupied: np.ndarray, n: int) -> slice:
        held = np.flatnonzero(occupied)
        if held.size == 0:
            return slice(0, 0)
        return slice(max(int(held[0]) - 2, 0), min(int(held[-1]) + 3, n))

    return span(inside.any(axis=1), grid.nw), span(inside.any(axis=0), grid.nh)


class _SearchGeometry(NamedTuple):
    """What a search needs of the in-limiter mask and the wall samples
    alone.  A limiter keeps the one of its own mask and contour per grid
    and sample density in its memo (:meth:`Limiter.memoised
    <repro.efit.machine.Limiter.memoised>`), read-only and never pickled."""

    #: The in-limiter grid mask and the contour samples it was built from.
    inside: np.ndarray
    samples_r: np.ndarray
    samples_z: np.ndarray
    #: :func:`_bounding_window` of ``inside``, that block without the grid's
    #: edge ring, and ``inside`` on each.
    window: tuple[slice, slice]
    interior: tuple[slice, slice]
    inside_window: np.ndarray
    inside_interior: np.ndarray
    #: ``(4, n)``: the corners of the wall samples' cells (the first four
    #: rows of the stencil below) as flat indices into the window, or the
    #: window's size — one past its last node — for a corner outside it.
    wall_cells: np.ndarray
    #: :meth:`RZGrid.bilinear_stencil` of the samples inside the box: the
    #: flat indices of their cells' corners, and the offset factors.
    wall_k00: np.ndarray
    wall_k10: np.ndarray
    wall_k01: np.ndarray
    wall_k11: np.ndarray
    wall_ur: np.ndarray
    wall_tr: np.ndarray
    wall_uz: np.ndarray
    wall_tz: np.ndarray

    @classmethod
    def build(
        cls, grid: RZGrid, inside: np.ndarray, samples: tuple[np.ndarray, np.ndarray]
    ) -> "_SearchGeometry":
        inside = np.asarray(inside, dtype=bool)
        lr, lz = (np.asarray(s, dtype=float) for s in samples)
        window = _bounding_window(grid, inside)
        interior = _interior(grid, window)
        keep = grid.contains(lr, lz)
        stencil = grid.bilinear_stencil(lr[keep], lz[keep])
        rows, cols = window
        i, j = np.divmod(np.stack(stencil[:4]), grid.nh)
        height, width = rows.stop - rows.start, cols.stop - cols.start
        cells = np.where(
            (i >= rows.start) & (i < rows.stop) & (j >= cols.start) & (j < cols.stop),
            (i - rows.start) * width + (j - cols.start),
            height * width,
        )
        return cls(
            inside, lr, lz, window, interior, inside[window], inside[interior], cells, *stencil
        )

    @property
    def wall_stencil(self) -> tuple[np.ndarray, ...]:
        return self[-8:]


def _same(given: np.ndarray, own: np.ndarray) -> bool:
    return given is own or (np.shape(given) == own.shape and np.array_equal(given, own))


def search_geometry(
    grid: RZGrid, limiter: Limiter, *, n_limiter_samples: int = 4
) -> _SearchGeometry:
    """What the boundary search derives from ``limiter`` alone on
    ``grid`` — its window, the wall samples' interpolation stencil —
    built on the first call per grid and sample density and kept, read-
    only, in the limiter's memo beside its mask and contour.
    :class:`~repro.efit.fitting.GridStatics` builds it with them."""
    return limiter.memoised(
        ("boundary_search", grid, n_limiter_samples),
        lambda: _SearchGeometry.build(
            grid, limiter.grid_mask(grid), limiter.sample_points(n_limiter_samples)
        ),
    )


def _geometry_for(
    grid: RZGrid,
    limiter: Limiter,
    inside: np.ndarray | None,
    samples: tuple[np.ndarray, np.ndarray] | None,
    n_per_edge: int,
) -> _SearchGeometry:
    """The limiter's own geometry when ``inside`` and ``samples`` are not
    given or equal its own mask and contour (compared by value, so a copy
    takes the same path), else one built for them."""
    own = search_geometry(grid, limiter, n_limiter_samples=n_per_edge)
    own_inside = inside is None or _same(inside, own.inside)
    own_samples = samples is None or (
        _same(samples[0], own.samples_r) and _same(samples[1], own.samples_z)
    )
    if own_inside and own_samples:
        return own
    return _SearchGeometry.build(
        grid,
        own.inside if own_inside else inside,
        (own.samples_r, own.samples_z) if own_samples else samples,
    )


def _axis_nodes(signed: np.ndarray, geometry: _SearchGeometry) -> list[int]:
    """The node of each map of ``signed`` — ψ times its plasma's sign —
    holding its maximum over the in-limiter nodes with a full stencil, as
    a flat index into the stack."""
    rows, cols = geometry.interior
    if not geometry.inside_interior.any():
        raise BoundaryError("no interior grid node inside the limiter")
    work = np.where(geometry.inside_interior, signed[:, rows, cols], -np.inf)
    best = work.reshape(len(work), -1).argmax(axis=1)
    nw, nh = signed.shape[1:]
    width = cols.stop - cols.start
    return [
        (b * nw + rows.start + k // width) * nh + cols.start + k % width
        for b, k in enumerate(best.tolist())
    ]


def _signs(signs: Sequence[int]) -> np.ndarray:
    if any(s not in (1, -1) for s in signs):
        raise BoundaryError("axis sign must be +1 or -1")
    return np.asarray(signs, dtype=float)


def find_axis(
    grid: RZGrid,
    psi: np.ndarray,
    limiter: Limiter,
    sign: int = 1,
    *,
    inside: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Locate the magnetic axis: the extremum of ``sign * psi`` inside the
    limiter.  Returns ``(r_axis, z_axis, psi_axis)``.

    ``inside`` overrides the in-limiter grid mask searched; the default
    is the limiter's own, :meth:`~repro.efit.machine.Limiter.grid_mask`,
    which is built once per grid.
    """
    signed = _signs([sign])[:, None, None] * np.asarray(psi, dtype=float)
    geometry = _geometry_for(grid, limiter, inside, None, 4)
    ((r, z, value),), _ = _node_search(grid, signed, _axis_nodes(signed, geometry), None)
    return r, z, sign * value


def _gradient_squared(grid: RZGrid, psi: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """``|grad psi|^2`` on the block ``rows`` x ``cols`` of every map of
    the stack ``psi``, with ``np.gradient``'s arithmetic on the whole
    grid: central differences, and one-sided ones on the grid's edge ring
    only, where the block meets it."""
    nw, nh = grid.shape
    r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
    # The block's rows and columns with a central difference.
    a, b = max(r0, 1), min(r1, nw - 1)
    c, d = max(c0, 1), min(c1, nh - 1)
    g_r = np.empty((len(psi), r1 - r0, c1 - c0))
    central = g_r[:, a - r0 : b - r0]
    np.subtract(psi[:, a + 1 : b + 1, c0:c1], psi[:, a - 1 : b - 1, c0:c1], out=central)
    central /= 2.0 * grid.dr
    g_z = np.empty_like(g_r)
    central = g_z[..., c - c0 : d - c0]
    np.subtract(psi[:, r0:r1, c + 1 : d + 1], psi[:, r0:r1, c - 1 : d - 1], out=central)
    central /= 2.0 * grid.dz
    if r0 == 0:
        g_r[:, 0] = (psi[:, 1, c0:c1] - psi[:, 0, c0:c1]) / grid.dr
    if r1 == nw:
        g_r[:, -1] = (psi[:, -1, c0:c1] - psi[:, -2, c0:c1]) / grid.dr
    if c0 == 0:
        g_z[..., 0] = (psi[:, r0:r1, 1] - psi[:, r0:r1, 0]) / grid.dz
    if c1 == nh:
        g_z[..., -1] = (psi[:, r0:r1, -1] - psi[:, r0:r1, -2]) / grid.dz
    g_r *= g_r
    g_z *= g_z
    g_r += g_z
    return g_r


def _flat_nodes(
    grid: RZGrid, psi: np.ndarray, interior: tuple[slice, slice]
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of ``interior`` (a block without the grid's edge ring)
    at which ``|grad psi|^2`` of their map of the stack ``psi`` is the
    minimum of their 3x3 neighbourhood: their flat indices into the
    stack, in stack order, and that minimum."""
    rows, cols = interior
    if rows.start >= rows.stop or cols.start >= cols.stop:
        return np.zeros(0, dtype=int), np.zeros(0)
    grad2 = _gradient_squared(
        grid, psi, slice(rows.start - 1, rows.stop + 1), slice(cols.start - 1, cols.stop + 1)
    )
    # Minimum over the 3x3 neighbourhood, one axis at a time.
    row_low = np.minimum(grad2[:, :-2], grad2[:, 1:-1])
    np.minimum(row_low, grad2[:, 2:], out=row_low)
    low = np.minimum(row_low[..., :-2], row_low[..., 1:-1])
    np.minimum(low, row_low[..., 2:], out=low)
    hits = np.flatnonzero(grad2[:, 1:-1, 1:-1] <= low)
    # A node that is its neighbourhood's minimum holds the minimum itself.
    flatness = low.reshape(-1)[hits]
    b, node = np.divmod(hits, low[0].size)
    i, j = np.divmod(node, low.shape[-1])
    return (b * grid.nw + i + rows.start) * grid.nh + j + cols.start, flatness


def _node_search(
    grid: RZGrid,
    field: np.ndarray,
    axis_nodes: Sequence[int],
    interior: tuple[slice, slice] | None,
) -> tuple[list[tuple[float, float, float]], list[tuple[int, float, float, float]]]:
    """The search's node arithmetic on the stack ``field``, from one
    gather of 3x3 stencils: the refined ``(r, z, value)`` of each node of
    ``axis_nodes`` (flat indices into the stack), and the saddles among
    the nodes of ``interior`` (none for ``None``) as refined ``(map, r,
    z, value)``, map by map and flattest first within a map (ties in grid
    order).  A saddle is a 3x3 minimum of ``|grad psi|^2`` whose Hessian
    determinant is negative.

    The differences (in cells) and the refinement — the vertex of the
    stencil's quadratic model, or the node itself where the model is
    degenerate or its vertex leaves the node's cell — run on Python
    floats, one node at a time, in the operation order of their array
    form: IEEE double arithmetic gives the same bits, and the division
    runs only where ``|det| >= 1e-300``.
    """
    nodes, flatness = (
        (np.zeros(0, dtype=int), np.zeros(0))
        if interior is None
        else _flat_nodes(grid, field, interior)
    )
    n_axes = len(axis_nodes)
    index = np.concatenate((np.asarray(axis_nodes, dtype=int), nodes))
    stencils = field.reshape(-1)[index[:, None] + _stencil_offsets(grid.nh)].tolist()
    r_nodes, z_nodes, dr, dz = grid.r.tolist(), grid.z.tolist(), grid.dr, grid.dz
    size, nh = grid.size, grid.nh
    found = []
    for k, (node, flat, stencil) in enumerate(
        zip(index.tolist(), [0.0] * n_axes + flatness.tolist(), stencils)
    ):
        f00, f01, f02, f10, here, f12, f20, f21, f22 = stencil
        fxx = f21 - 2.0 * here + f01
        fyy = f12 - 2.0 * here + f10
        fxy = (f22 - f20 - f02 + f00) / 4.0
        det = fxx * fyy - fxy * fxy
        if k < n_axes:
            if not math.isfinite(here):
                raise BoundaryError("no interior extremum found inside the limiter")
        elif det >= 0.0:
            continue  # a minimum of |grad psi|^2 but no saddle
        b, node = divmod(node, size)
        i, j = divmod(node, nh)
        r, z, value = r_nodes[i], z_nodes[j], here
        if abs(det) >= 1e-300:
            fx = (f21 - f01) / 2.0
            fy = (f12 - f10) / 2.0
            dx = -(fyy * fx - fxy * fy) / det
            dy = -(fxx * fy - fxy * fx) / det
            if abs(dx) <= 1.0 and abs(dy) <= 1.0:
                r, z, value = r + dx * dr, z + dy * dz, here + 0.5 * (fx * dx + fy * dy)
        found.append((b, flat, r, z, value))
    saddles = sorted(found[n_axes:], key=lambda saddle: saddle[:2])  # stable: ties in grid order
    return [axis[2:] for axis in found[:n_axes]], [(b, r, z, v) for b, _, r, z, v in saddles]


def find_xpoints(
    grid: RZGrid, psi: np.ndarray, *, max_points: int = 2
) -> list[tuple[float, float, float]]:
    """Find saddle points of ``psi`` (X-point candidates).

    Scans interior nodes for local minima of ``|grad psi|^2`` whose Hessian
    has negative determinant, keeps the ``max_points`` flattest, refines
    them with the quadratic model and returns them as ``(r, z, psi_x)``
    sorted by gradient magnitude.  A negative ``max_points`` is a
    :class:`~repro.errors.BoundaryError`.
    """
    if max_points < 0:
        raise BoundaryError(f"max_points must be >= 0, got {max_points}")
    psi = np.asarray(psi, dtype=float)[None]
    _, saddles = _node_search(
        grid, psi, (), _interior(grid, (slice(0, grid.nw), slice(0, grid.nh)))
    )
    return [(r, z, value) for _, r, z, value in saddles[:max_points]]


def _axes_and_xpoints(
    grid: RZGrid, signed: np.ndarray, limiter: Limiter, geometry: _SearchGeometry
) -> tuple[list[tuple[float, float, float]], list[list[tuple[float, float, float]]]]:
    """Per map of ``signed`` (ψ times its plasma's sign): the refined axis
    ``(r, z, signed psi_axis)``, and the *admissible* saddles of the
    search's interior block, flattest first, as refined ``(r, z, signed
    psi_x)``.

    Admissible means inside the box *and the limiter* (wall corners and
    coil gaps host spurious vacuum saddles, often flatter than the real
    X-point), at least four cells from the axis, and on the plasma side
    of the axis flux.  Admissibility is decided before the caller cuts
    the list, so no vacuum saddle takes an X-point's place; the polygon
    test, the costly one, sees only the survivors of the cheap ones, of
    every map at once.
    """
    axes, saddles = _node_search(grid, signed, _axis_nodes(signed, geometry), geometry.interior)
    out: list[list[tuple[float, float, float]]] = [[] for _ in axes]
    if not saddles:
        return axes, out
    b, rx, zx, sx = (np.array(column) for column in zip(*saddles))
    r_axis, z_axis, s_axis = (np.array(column) for column in zip(*axes))
    keep = np.flatnonzero(
        grid.contains(rx, zx)
        & (np.hypot(rx - r_axis[b], zx - z_axis[b]) >= 4.0 * max(grid.dr, grid.dz))
        & (sx < s_axis[b])
    )
    keep = keep[limiter.contains(rx[keep], zx[keep])]
    for k in keep.tolist():
        out[saddles[k][0]].append(saddles[k][1:])
    return axes, out


def _core_clears_wall(
    signed: np.ndarray,
    spx: float,
    geometry: _SearchGeometry,
    i_ax: int,
    j_ax: int,
    wall_signed: np.ndarray,
) -> bool:
    """Does the plasma bounded by the X-point at flux ``spx`` avoid the wall?

    ``signed`` is one map of ψ times its plasma's sign, ``spx`` and
    ``wall_signed`` (the flux at the wall samples inside the box) carry
    the same sign.  Wall samples can carry flux above ``spx`` *without*
    limiting the plasma when they sit in a private-flux region
    (below/above a divertor X-point) that is disconnected from the core.
    Label the super-level set ``signed > spx`` and check whether any hot
    wall sample's grid cell touches the component containing the axis; if
    none does, the hot contacts are private flux and the X-point surface
    is a true separatrix.

    The labelling level sits a couple of percent inside ``spx``: the
    refined saddle value is a sub-node minimum, so every node *around*
    the X-point carries flux above ``spx`` and a level set taken exactly
    there always leaks through the saddle, spuriously connecting core to
    private flux on any grid.

    The search window holds the in-limiter mask, so the components are
    labelled there, into a buffer with one zero past the window's last
    node: the label every wall corner outside the window reads
    (:attr:`_SearchGeometry.wall_cells`).
    """
    rows, cols = geometry.window
    level = spx + 0.02 * (signed[i_ax, j_ax] - spx)
    core = (signed[rows, cols] > level) & geometry.inside_window
    labels = np.zeros(core.size + 1, dtype=np.int32)
    ndimage.label(core, structure=_CROSS, output=labels[:-1].reshape(core.shape))
    i, j = i_ax - rows.start, j_ax - cols.start
    height, width = core.shape
    if not (0 <= i < height and 0 <= j < width and labels[i * width + j]):
        return False
    hot = wall_signed >= spx
    if not hot.any():
        return True
    # The corners of the hot samples' cells: their interpolation stencil.
    return not (labels[geometry.wall_cells[:, hot]] == labels[i * width + j]).any()


def _dilate_cross(mask: np.ndarray) -> np.ndarray:
    """``ndimage.binary_dilation`` by the 4-neighbour cross, once, on each
    map of a stack of masks: four shifted ORs."""
    out = mask.copy()
    out[..., 1:, :] |= mask[..., :-1, :]
    out[..., :-1, :] |= mask[..., 1:, :]
    out[..., 1:] |= mask[..., :-1]
    out[..., :-1] |= mask[..., 1:]
    return out


def find_boundaries(
    grid: RZGrid,
    psi: np.ndarray | Sequence[np.ndarray],
    limiter: Limiter,
    *,
    signs: Sequence[int],
    n_limiter_samples: int = 4,
    inside: np.ndarray | None = None,
    limiter_samples: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[BoundaryResult]:
    """Full ``steps_`` boundary determination on a stack of flux maps.

    ``psi`` is a ``(B, nw, nh)`` stack (or a sequence of ``(nw, nh)``
    maps) and ``signs`` each map's plasma-current sign: +1 means that
    ``psi`` has a maximum on the axis (so it decreases outward).  Returns
    one :class:`BoundaryResult` per map, each equal, field for field, to
    what the search on that map alone returns: the maps share the
    ψ-independent set-up, every array step and one gather of the 3x3
    stencils the node arithmetic reads, and only that arithmetic and the
    walk over a map's X-point candidates run map by map.  An empty stack
    is the batch of none: it returns ``[]``.

    ``inside`` and ``limiter_samples`` override the in-limiter grid mask
    and the densified limiter contour.  Both are static per machine+grid
    and default to the limiter's own, built once
    (:meth:`~repro.efit.machine.Limiter.grid_mask`,
    :meth:`~repro.efit.machine.Limiter.sample_points`); so is what the
    search derives from them (its window, the samples' interpolation
    stencil), which the limiter keeps beside them.  Every grid-sized step
    but ``psiN`` itself runs on the block of rows and columns within two
    cells of the in-limiter nodes.
    """
    # A stack of one map is a view of it, not a copy.
    psi = np.asarray(psi[0], dtype=float)[None] if len(psi) == 1 else np.asarray(psi, dtype=float)
    if psi.ndim != 3 or psi.shape[1:] != grid.shape:
        raise BoundaryError(f"psi stack shape {psi.shape} is not (B, {grid.nw}, {grid.nh})")
    if len(signs) != len(psi):
        raise BoundaryError(f"{len(signs)} signs for {len(psi)} flux maps")
    if not len(psi):
        return []
    sign = _signs(signs)
    geometry = _geometry_for(grid, limiter, inside, limiter_samples, n_limiter_samples)
    # The whole search runs on sign * psi, where every plasma is a maximum.
    signed = psi if min(signs) > 0 else sign[:, None, None] * psi
    axes, candidates = _axes_and_xpoints(grid, signed, limiter, geometry)

    # Limiter candidate: the flux value where a shrinking contour first
    # touches the wall = extremal psi along the limiter contour.
    if geometry.wall_k00.size == 0:
        raise BoundaryError("no limiter samples inside the computational box")
    wall = grid.interpolate(signed, geometry.wall_stencil)
    psi_lim = wall.max(axis=1).tolist()

    # X-point candidates bound a *smaller* plasma than the limiter (larger
    # sign*psi).  A candidate below the limiter flux can still win when
    # every wall contact above it sits in disconnected private flux
    # (diverted machines: the divertor legs hug the wall at flux above
    # psi_x).  Of the passing candidates the most binding one (largest
    # sign*psi) sets the boundary.
    n_maps = len(psi)
    found = []  # per map: the BoundaryResult fields but psin and mask
    levels = np.empty((2, n_maps))  # psi_axis and psi_boundary per map
    axis_nodes = np.empty((2, n_maps), dtype=int)
    diverted = np.zeros(n_maps, dtype=bool)
    for b, (r_ax, z_ax, s_ax) in enumerate(axes):
        i_ax = min(max(int(round((r_ax - grid.rmin) / grid.dr)), 0), grid.nw - 1)
        j_ax = min(max(int(round((z_ax - grid.zmin) / grid.dz)), 0), grid.nh - 1)
        psi_b = psi_lim[b]
        boundary_type = "limiter"
        r_x = z_x = None
        for rx, zx, spx in candidates[b][:MAX_XPOINT_CANDIDATES]:
            if boundary_type == "xpoint" and spx <= psi_b:
                continue
            if psi_lim[b] < spx or _core_clears_wall(
                signed[b], spx, geometry, i_ax, j_ax, wall[b]
            ):
                psi_b = spx
                boundary_type = "xpoint"
                r_x, z_x = rx, zx
        s = int(sign[b])
        psi_axis, psi_boundary = s * s_ax, s * psi_b
        if psi_boundary - psi_axis == 0.0:
            raise BoundaryError("degenerate flux range: psi_axis == psi_boundary")
        found.append((psi_axis, r_ax, z_ax, psi_boundary, boundary_type, r_x, z_x))
        levels[:, b] = psi_axis, psi_boundary
        axis_nodes[:, b] = i_ax, j_ax
        diverted[b] = boundary_type == "xpoint"
    psi_axis, psi_boundary = levels[:, :, None, None]
    psin = (psi - psi_axis) / (psi_boundary - psi_axis)
    masks = _plasma_masks(psin, geometry, diverted, axis_nodes)
    return [
        BoundaryResult(p_ax, r_ax, z_ax, p_b, kind, psin[b], masks[b], r_x, z_x)
        for b, (p_ax, r_ax, z_ax, p_b, kind, r_x, z_x) in enumerate(found)
    ]


def _plasma_masks(
    psin: np.ndarray, geometry: _SearchGeometry, diverted: np.ndarray, axis_nodes: np.ndarray
) -> np.ndarray:
    """The in-plasma mask of every map of the stack ``psin``: the
    ``psin < 1`` in-limiter nodes connected to the map's axis node
    (``axis_nodes``, the rows ``i`` and columns ``j`` of one per map).
    The mask is a subset of the in-limiter nodes, so it is built on the
    search window that holds them."""
    window = geometry.window
    inside_w = geometry.inside_window
    psin_w = psin[:, window[0], window[1]]
    candidate = (psin_w < 1.0) & inside_w
    # Keep only the component connected to the axis (drop private flux).
    # On a diverted boundary the ``psin < 1`` set leaks through the
    # saddle into the private-flux region (every node around the
    # refined X-point sits above ``psi_x``), intermittently dumping
    # far-from-core cells into the mask.  Label the component at a
    # slightly interior level instead, then grow its rim back within
    # ``psin < 1`` — the private blob stays more than two rings away.
    # A stack of diverted maps only (a serial diverted fit's every search)
    # takes that branch whole, without a boolean gather.
    every_diverted, any_diverted = diverted.all(), diverted.any()
    connected = candidate
    if every_diverted:
        connected = (psin_w < 0.98) & inside_w
    elif any_diverted:
        connected = candidate.copy()
        connected[diverted] = (psin_w[diverted] < 0.98) & inside_w
    labels, _ = ndimage.label(connected, structure=_CROSS_STACK)
    maps = np.arange(len(labels))
    axis_label = labels[maps, axis_nodes[0] - window[0].start, axis_nodes[1] - window[1].start]
    if not axis_label.all():
        raise BoundaryError("magnetic axis not inside its own plasma mask")
    plasma = labels == axis_label[:, None, None]
    if every_diverted:
        plasma = _dilate_cross(_dilate_cross(plasma)) & candidate
    elif any_diverted:
        plasma[diverted] = _dilate_cross(_dilate_cross(plasma[diverted])) & candidate[diverted]
    masks = np.zeros(psin.shape, dtype=bool)
    masks[:, window[0], window[1]] = plasma
    return masks


def find_boundary(
    grid: RZGrid,
    psi: np.ndarray,
    limiter: Limiter,
    *,
    sign: int = 1,
    n_limiter_samples: int = 4,
    inside: np.ndarray | None = None,
    limiter_samples: tuple[np.ndarray, np.ndarray] | None = None,
) -> BoundaryResult:
    """Full ``steps_`` boundary determination of one flux map: the
    one-map call of :func:`find_boundaries`.

    ``sign`` is the plasma-current sign convention: +1 means ``psi`` has a
    maximum on the axis (so ``psi`` decreases outward).  ``inside`` and
    ``limiter_samples`` override the in-limiter grid mask and the
    densified limiter contour, as there.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != grid.shape:
        raise BoundaryError(f"psi shape {psi.shape} != grid {grid.shape}")
    (result,) = find_boundaries(
        grid,
        psi[None],
        limiter,
        signs=(sign,),
        n_limiter_samples=n_limiter_samples,
        inside=inside,
        limiter_samples=limiter_samples,
    )
    return result
