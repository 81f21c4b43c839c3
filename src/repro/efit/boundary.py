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


def _quadratic_refine(grid: RZGrid, field: np.ndarray, i: int, j: int) -> tuple[float, float, float]:
    """Refine a grid extremum with a 2-D quadratic fit on the 3x3 stencil.

    Returns ``(r, z, value)``; falls back to the node itself when the
    stencil is degenerate or the correction leaves the cell.
    """
    f = field
    fx = (f[i + 1, j] - f[i - 1, j]) / 2.0
    fy = (f[i, j + 1] - f[i, j - 1]) / 2.0
    fxx = f[i + 1, j] - 2.0 * f[i, j] + f[i - 1, j]
    fyy = f[i, j + 1] - 2.0 * f[i, j] + f[i, j - 1]
    fxy = (f[i + 1, j + 1] - f[i + 1, j - 1] - f[i - 1, j + 1] + f[i - 1, j - 1]) / 4.0
    det = fxx * fyy - fxy * fxy
    if abs(det) < 1e-300:
        return float(grid.r[i]), float(grid.z[j]), float(f[i, j])
    dx = -(fyy * fx - fxy * fy) / det
    dy = -(fxx * fy - fxy * fx) / det
    if abs(dx) > 1.0 or abs(dy) > 1.0:
        return float(grid.r[i]), float(grid.z[j]), float(f[i, j])
    value = f[i, j] + 0.5 * (fx * dx + fy * dy)
    return (
        float(grid.r[i] + dx * grid.dr),
        float(grid.z[j] + dy * grid.dz),
        float(value),
    )


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
    if sign not in (1, -1):
        raise BoundaryError("axis sign must be +1 or -1")
    if inside is None:
        inside = limiter.grid_mask(grid)
    if not inside.any():
        raise BoundaryError("limiter does not intersect the computational grid")
    work = np.where(inside, sign * psi, -np.inf)
    # Exclude the outer ring so the quadratic refinement has a full stencil.
    work[0, :] = work[-1, :] = -np.inf
    work[:, 0] = work[:, -1] = -np.inf
    i, j = np.unravel_index(int(np.argmax(work)), work.shape)
    if not np.isfinite(work[i, j]):
        raise BoundaryError("no interior extremum found inside the limiter")
    r_axis, z_axis, value = _quadratic_refine(grid, sign * psi, i, j)
    return r_axis, z_axis, sign * value


def find_xpoints(
    grid: RZGrid, psi: np.ndarray, *, max_points: int = 2
) -> list[tuple[float, float, float]]:
    """Find saddle points of ``psi`` (X-point candidates).

    Scans interior nodes for local minima of ``|grad psi|^2`` whose Hessian
    has negative determinant, refines each with the quadratic model, and
    returns up to ``max_points`` candidates as ``(r, z, psi_x)`` sorted by
    gradient magnitude.
    """
    dpsi_dr = np.gradient(psi, grid.dr, axis=0)
    dpsi_dz = np.gradient(psi, grid.dz, axis=1)
    grad2 = dpsi_dr**2 + dpsi_dz**2
    candidates: list[tuple[float, float, float, float]] = []
    interior = grad2[1:-1, 1:-1]
    # Local minima of |grad psi|^2 over the 3x3 neighbourhood.
    neigh_min = ndimage.minimum_filter(grad2, size=3)[1:-1, 1:-1]
    is_min = interior <= neigh_min
    idx_i, idx_j = np.nonzero(is_min)
    for ii, jj in zip(idx_i + 1, idx_j + 1):
        f = psi
        fxx = f[ii + 1, jj] - 2 * f[ii, jj] + f[ii - 1, jj]
        fyy = f[ii, jj + 1] - 2 * f[ii, jj] + f[ii, jj - 1]
        fxy = (
            f[ii + 1, jj + 1] - f[ii + 1, jj - 1] - f[ii - 1, jj + 1] + f[ii - 1, jj - 1]
        ) / 4.0
        if fxx * fyy - fxy * fxy >= 0.0:
            continue  # not a saddle
        r_x, z_x, psi_x = _quadratic_refine(grid, psi, ii, jj)
        candidates.append((grad2[ii, jj], r_x, z_x, psi_x))
    candidates.sort(key=lambda c: c[0])
    return [(r, z, p) for _, r, z, p in candidates[:max_points]]


def _core_clears_wall(
    grid: RZGrid,
    psi: np.ndarray,
    sign: int,
    spx: float,
    inside_lim: np.ndarray,
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
    """
    level = spx + 0.02 * (sign * psi[i_ax, j_ax] - spx)
    core = (sign * psi > level) & inside_lim
    labels, _ = ndimage.label(core)
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
    :meth:`~repro.efit.machine.Limiter.sample_points`).
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != grid.shape:
        raise BoundaryError(f"psi shape {psi.shape} != grid {grid.shape}")
    inside_lim = inside if inside is not None else limiter.grid_mask(grid)
    r_axis, z_axis, psi_axis = find_axis(grid, psi, limiter, sign, inside=inside_lim)

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

    # X-point candidates: must lie inside the box *and the limiter* (wall
    # corners and coil gaps host spurious vacuum saddles), away from the
    # axis, and bound a *smaller* plasma than the limiter (larger
    # sign*psi).  A candidate below the limiter flux can still win when
    # every wall contact above it sits in disconnected private flux
    # (diverted machines: the divertor legs hug the wall at flux above
    # psi_x).  Of the passing candidates the most binding one (largest
    # sign*psi) sets the boundary.
    psi_b = psi_lim
    boundary_type = "limiter"
    r_x = z_x = None
    psi_wall_signed = sign * psi_wall
    cands = find_xpoints(grid, psi, max_points=6)
    if cands:
        # One batched point-in-polygon test for every candidate — the
        # polygon test is the expensive part, and its cost is per-call,
        # not per-point.
        rxs = np.array([c[0] for c in cands])
        zxs = np.array([c[1] for c in cands])
        admissible = (
            grid.contains(rxs, zxs)
            & limiter.contains(rxs, zxs)
            & (np.hypot(rxs - r_axis, zxs - z_axis) >= 4.0 * max(grid.dr, grid.dz))
        )
        for cand_ok, (rx, zx, px) in zip(admissible, cands):
            if not cand_ok:
                continue
            spx = sign * px
            if not spx < sign * psi_axis:
                continue
            if boundary_type == "xpoint" and spx <= psi_b:
                continue
            if psi_lim < spx or _core_clears_wall(
                grid, psi, sign, spx, inside_lim, i_ax, j_ax, lr[keep], lz[keep], psi_wall_signed
            ):
                psi_b = spx
                boundary_type = "xpoint"
                r_x, z_x = rx, zx
    psi_boundary = sign * psi_b

    denom = psi_boundary - psi_axis
    if denom == 0.0:
        raise BoundaryError("degenerate flux range: psi_axis == psi_boundary")
    psin = (psi - psi_axis) / denom

    candidate = (psin < 1.0) & inside_lim
    # Keep only the component connected to the axis (drop private flux).
    if boundary_type == "xpoint":
        # On a diverted boundary the ``psin < 1`` set leaks through the
        # saddle into the private-flux region (every node around the
        # refined X-point sits above ``psi_x``), intermittently dumping
        # far-from-core cells into the mask.  Label the component at a
        # slightly interior level instead, then grow its rim back within
        # ``psin < 1`` — the private blob stays more than two rings away.
        core = (psin < 0.98) & inside_lim
        labels, _ = ndimage.label(core)
        axis_label = labels[i_ax, j_ax]
        if axis_label == 0:
            raise BoundaryError("magnetic axis not inside its own plasma mask")
        mask = ndimage.binary_dilation(labels == axis_label, iterations=2) & candidate
    else:
        labels, _ = ndimage.label(candidate)
        axis_label = labels[i_ax, j_ax]
        if axis_label == 0:
            raise BoundaryError("magnetic axis not inside its own plasma mask")
        mask = labels == axis_label

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
