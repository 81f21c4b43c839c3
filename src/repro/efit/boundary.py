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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.efit.grid import RZGrid
from repro.efit.machine import Limiter
from repro.errors import BoundaryError

__all__ = ["BoundaryResult", "find_axis", "find_xpoints", "find_boundary"]


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

#: Row and column offsets of the 3x3 stencil, broadcast against node indices.
_DI = np.array([[-1], [0], [1]])
_DJ = np.array([[-1, 0, 1]])


def _derivatives(f: np.ndarray, i, j):
    """Central first and second differences of ``f`` (in cells) at one
    interior node or at index arrays of many, from one gather of the 3x3
    stencil: ``(f[i, j], fx, fy, fxx, fyy, fxy)``."""
    s = f[np.asarray(i)[..., None, None] + _DI, np.asarray(j)[..., None, None] + _DJ]
    here = s[..., 1, 1]
    fx = (s[..., 2, 1] - s[..., 0, 1]) / 2.0
    fy = (s[..., 1, 2] - s[..., 1, 0]) / 2.0
    fxx = s[..., 2, 1] - 2.0 * here + s[..., 0, 1]
    fyy = s[..., 1, 2] - 2.0 * here + s[..., 1, 0]
    fxy = (s[..., 2, 2] - s[..., 2, 0] - s[..., 0, 2] + s[..., 0, 0]) / 4.0
    return here, fx, fy, fxx, fyy, fxy


def _quadratic_refine(grid: RZGrid, field: np.ndarray, i, j):
    """Refine grid extrema with a 2-D quadratic fit on the 3x3 stencil.

    ``i`` and ``j`` are one interior node or equal-length index arrays of
    many; returns ``(r, z, value)`` of matching shape.  A node whose
    stencil is degenerate, or whose correction leaves the cell, comes
    back as the node itself.
    """
    here, fx, fy, fxx, fyy, fxy = _derivatives(field, i, j)
    det = fxx * fyy - fxy * fxy
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = -(fyy * fx - fxy * fy) / det
        dy = -(fxx * fy - fxy * fx) / det
    moved = (np.abs(det) >= 1e-300) & (np.abs(dx) <= 1.0) & (np.abs(dy) <= 1.0)
    return (
        np.where(moved, grid.r[i] + dx * grid.dr, grid.r[i]),
        np.where(moved, grid.z[j] + dy * grid.dz, grid.z[j]),
        np.where(moved, here + 0.5 * (fx * dx + fy * dy), here),
    )


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


def _find_axis(
    grid: RZGrid, psi: np.ndarray, sign: int, inside: np.ndarray, window: tuple[slice, slice]
) -> tuple[float, float, float]:
    """:func:`find_axis` on the nodes of ``window``, which holds ``inside``."""
    if sign not in (1, -1):
        raise BoundaryError("axis sign must be +1 or -1")
    # The quadratic refinement needs a full stencil: no edge-ring node.
    window = _interior(grid, window)
    inside = inside[window]
    if not inside.any():
        raise BoundaryError("no interior grid node inside the limiter")
    work = np.where(inside, sign * psi[window], -np.inf)
    i, j = np.unravel_index(int(np.argmax(work)), work.shape)
    if not np.isfinite(work[i, j]):
        raise BoundaryError("no interior extremum found inside the limiter")
    r_axis, z_axis, value = _quadratic_refine(
        grid, sign * psi, i + window[0].start, j + window[1].start
    )
    return float(r_axis), float(z_axis), sign * float(value)


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
    if inside is None:
        inside = limiter.grid_mask(grid)
    return _find_axis(grid, psi, sign, inside, _bounding_window(grid, inside))


def _saddle_nodes(
    grid: RZGrid, psi: np.ndarray, window: tuple[slice, slice]
) -> tuple[np.ndarray, np.ndarray]:
    """Grid saddles of ``psi`` among the interior nodes of ``window``.

    Returns the ``(i, j)`` index arrays of the nodes that are a 3x3 local
    minimum of ``|grad psi|^2`` with a negative Hessian determinant,
    flattest first (ties in grid order).
    """
    rows, cols = _interior(grid, window)
    if rows.start >= rows.stop or cols.start >= cols.stop:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    # Two nodes of context around the window: one for the 3x3
    # neighbourhood, one for its central differences.  Where the context
    # ends at the grid edge, the one-sided difference there is the
    # full-grid gradient's too; where it ends sooner, its outermost nodes
    # are never read.
    i_lo, j_lo = max(rows.start - 2, 0), max(cols.start - 2, 0)
    grad2 = _gradient_squared(psi[i_lo : rows.stop + 2, j_lo : cols.stop + 2], grid.dr, grid.dz)
    near = grad2[
        rows.start - 1 - i_lo : rows.stop + 1 - i_lo,
        cols.start - 1 - j_lo : cols.stop + 1 - j_lo,
    ]
    # Minimum over the 3x3 neighbourhood, one axis at a time.
    low = np.minimum(np.minimum(near[:-2], near[1:-1]), near[2:])
    low = np.minimum(np.minimum(low[:, :-2], low[:, 1:-1]), low[:, 2:])
    here = near[1:-1, 1:-1]
    i, j = np.nonzero(here <= low)
    flatness = here[i, j]
    i += rows.start
    j += cols.start
    _, _, _, fxx, fyy, fxy = _derivatives(psi, i, j)
    saddle = np.flatnonzero(~(fxx * fyy - fxy * fxy >= 0.0))
    order = saddle[np.argsort(flatness[saddle], kind="stable")]
    return i[order], j[order]


def _gradient_squared(f: np.ndarray, dr: float, dz: float) -> np.ndarray:
    """``|grad f|^2`` with ``np.gradient``'s arithmetic — central
    differences inside, one-sided on the block's edges — without its
    per-call set-up."""
    g_r = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=g_r[1:-1])
    g_r[1:-1] /= 2.0 * dr
    g_r[0] = (f[1] - f[0]) / dr
    g_r[-1] = (f[-1] - f[-2]) / dr
    g_z = np.empty_like(f)
    np.subtract(f[:, 2:], f[:, :-2], out=g_z[:, 1:-1])
    g_z[:, 1:-1] /= 2.0 * dz
    g_z[:, 0] = (f[:, 1] - f[:, 0]) / dz
    g_z[:, -1] = (f[:, -1] - f[:, -2]) / dz
    g_r *= g_r
    g_z *= g_z
    g_r += g_z
    return g_r


def find_xpoints(
    grid: RZGrid, psi: np.ndarray, *, max_points: int = 2
) -> list[tuple[float, float, float]]:
    """Find saddle points of ``psi`` (X-point candidates).

    Scans interior nodes for local minima of ``|grad psi|^2`` whose Hessian
    has negative determinant, keeps the ``max_points`` flattest, refines
    them with the quadratic model and returns them as ``(r, z, psi_x)``
    sorted by gradient magnitude.
    """
    i, j = _saddle_nodes(grid, psi, (slice(0, grid.nw), slice(0, grid.nh)))
    r, z, value = _quadratic_refine(grid, psi, i[:max_points], j[:max_points])
    return list(zip(r.tolist(), z.tolist(), value.tolist()))


def _xpoint_candidates(
    grid: RZGrid,
    psi: np.ndarray,
    limiter: Limiter,
    sign: int,
    axis: tuple[float, float, float],
    window: tuple[slice, slice],
) -> list[tuple[float, float, float]]:
    """The *admissible* saddles among the nodes of ``window``, flattest
    first, as refined ``(r, z, psi_x)``.

    Admissible means inside the box *and the limiter* (wall corners and
    coil gaps host spurious vacuum saddles, often flatter than the real
    X-point), at least four cells from the axis, and on the plasma side
    of the axis flux.  Admissibility is decided before the caller cuts
    the list, so no vacuum saddle takes an X-point's place; the polygon
    test, the costly one, sees only the survivors of the cheap ones.
    """
    r_axis, z_axis, psi_axis = axis
    i, j = _saddle_nodes(grid, psi, window)
    if i.size == 0:
        return []
    rx, zx, px = _quadratic_refine(grid, psi, i, j)
    keep = np.flatnonzero(
        grid.contains(rx, zx)
        & (np.hypot(rx - r_axis, zx - z_axis) >= 4.0 * max(grid.dr, grid.dz))
        & (sign * px < sign * psi_axis)
    )
    keep = keep[limiter.contains(rx[keep], zx[keep])]
    return list(zip(rx[keep].tolist(), zx[keep].tolist(), px[keep].tolist()))


def _core_clears_wall(
    grid: RZGrid,
    psi: np.ndarray,
    sign: int,
    spx: float,
    inside_lim: np.ndarray,
    window: tuple[slice, slice],
    i_ax: int,
    j_ax: int,
    lr: np.ndarray,
    lz: np.ndarray,
    psi_wall_signed: np.ndarray,
) -> bool:
    """Does the plasma bounded by the X-point at flux ``spx`` avoid the wall?

    Wall samples can carry flux above ``spx`` *without* limiting the plasma
    when they sit in a private-flux region (below/above a divertor X-point)
    that is disconnected from the core.  Label the super-level set
    ``sign*psi > spx`` and check whether any hot wall sample's grid cell
    touches the component containing the axis; if none does, the hot
    contacts are private flux and the X-point surface is a true separatrix.

    The labelling level sits a couple of percent inside ``spx``: the
    refined saddle value is a sub-node minimum, so every node *around*
    the X-point carries flux above ``spx`` and a level set taken exactly
    there always leaks through the saddle, spuriously connecting core to
    private flux on any grid.

    ``window`` holds ``inside_lim``, so the components are labelled there
    and every node outside it belongs to none.
    """
    level = spx + 0.02 * (sign * psi[i_ax, j_ax] - spx)
    core = (sign * psi[window] > level) & inside_lim[window]
    labels = np.zeros(grid.shape, dtype=np.int32)
    ndimage.label(core, structure=_CROSS, output=labels[window])
    axis_label = labels[i_ax, j_ax]
    if axis_label == 0:
        return False
    hot = psi_wall_signed >= spx
    if not hot.any():
        return True
    i0 = np.clip(((lr[hot] - grid.rmin) / grid.dr).astype(int), 0, grid.nw - 2)
    j0 = np.clip(((lz[hot] - grid.zmin) / grid.dz).astype(int), 0, grid.nh - 2)
    for di in (0, 1):
        for dj in (0, 1):
            if (labels[i0 + di, j0 + dj] == axis_label).any():
                return False
    return True


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
    """Full ``steps_`` boundary determination.

    ``sign`` is the plasma-current sign convention: +1 means ``psi`` has a
    maximum on the axis (so ``psi`` decreases outward).

    ``inside`` and ``limiter_samples`` override the in-limiter grid mask
    and the densified limiter contour.  Both are static per machine+grid
    and default to the limiter's own, built once
    (:meth:`~repro.efit.machine.Limiter.grid_mask`,
    :meth:`~repro.efit.machine.Limiter.sample_points`).  Every
    grid-sized step but ``psiN`` itself runs on the block of rows and
    columns within two cells of the in-limiter nodes.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != grid.shape:
        raise BoundaryError(f"psi shape {psi.shape} != grid {grid.shape}")
    inside_lim = inside if inside is not None else limiter.grid_mask(grid)
    window = _bounding_window(grid, inside_lim)
    r_axis, z_axis, psi_axis = _find_axis(grid, psi, sign, inside_lim, window)

    # Limiter candidate: the flux value where a shrinking contour first
    # touches the wall = extremal psi along the limiter contour.
    lr, lz = (
        limiter_samples
        if limiter_samples is not None
        else limiter.sample_points(n_limiter_samples)
    )
    keep = grid.contains(lr, lz)
    if not keep.any():
        raise BoundaryError("no limiter samples inside the computational box")
    psi_wall = grid.bilinear(psi, lr[keep], lz[keep])
    psi_lim = float(np.max(sign * psi_wall))

    i_ax = min(max(int(round((r_axis - grid.rmin) / grid.dr)), 0), grid.nw - 1)
    j_ax = min(max(int(round((z_axis - grid.zmin) / grid.dz)), 0), grid.nh - 1)

    # X-point candidates bound a *smaller* plasma than the limiter (larger
    # sign*psi).  A candidate below the limiter flux can still win when
    # every wall contact above it sits in disconnected private flux
    # (diverted machines: the divertor legs hug the wall at flux above
    # psi_x).  Of the passing candidates the most binding one (largest
    # sign*psi) sets the boundary.
    psi_b = psi_lim
    boundary_type = "limiter"
    r_x = z_x = None
    psi_wall_signed = sign * psi_wall
    candidates = _xpoint_candidates(grid, psi, limiter, sign, (r_axis, z_axis, psi_axis), window)
    for rx, zx, px in candidates[:MAX_XPOINT_CANDIDATES]:
        spx = sign * px
        if boundary_type == "xpoint" and spx <= psi_b:
            continue
        if psi_lim < spx or _core_clears_wall(
            grid, psi, sign, spx, inside_lim, window, i_ax, j_ax,
            lr[keep], lz[keep], psi_wall_signed,
        ):  # fmt: skip
            psi_b = spx
            boundary_type = "xpoint"
            r_x, z_x = rx, zx
    psi_boundary = sign * psi_b

    denom = psi_boundary - psi_axis
    if denom == 0.0:
        raise BoundaryError("degenerate flux range: psi_axis == psi_boundary")
    psin = (psi - psi_axis) / denom

    # The mask is a subset of the in-limiter nodes, so it is built on the
    # window that holds them.
    inside_w = inside_lim[window]
    candidate = (psin[window] < 1.0) & inside_w
    # Keep only the component connected to the axis (drop private flux).
    # On a diverted boundary the ``psin < 1`` set leaks through the
    # saddle into the private-flux region (every node around the
    # refined X-point sits above ``psi_x``), intermittently dumping
    # far-from-core cells into the mask.  Label the component at a
    # slightly interior level instead, then grow its rim back within
    # ``psin < 1`` — the private blob stays more than two rings away.
    diverted = boundary_type == "xpoint"
    connected = (psin[window] < 0.98) & inside_w if diverted else candidate
    labels, _ = ndimage.label(connected, structure=_CROSS)
    axis_label = labels[i_ax - window[0].start, j_ax - window[1].start]
    if axis_label == 0:
        raise BoundaryError("magnetic axis not inside its own plasma mask")
    plasma = labels == axis_label
    if diverted:
        plasma = ndimage.binary_dilation(plasma, structure=_CROSS, iterations=2) & candidate
    mask = np.zeros(grid.shape, dtype=bool)
    mask[window] = plasma

    return BoundaryResult(
        psi_axis=psi_axis,
        r_axis=r_axis,
        z_axis=z_axis,
        psi_boundary=psi_boundary,
        boundary_type=boundary_type,
        psin=psin,
        mask=mask,
        r_xpoint=r_x,
        z_xpoint=z_x,
    )
