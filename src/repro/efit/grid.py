"""The rectangular (R, Z) computational grid.

EFIT solves on a uniform rectangular mesh of ``nw`` radial by ``nh`` vertical
points (65x65 ... 513x513 in the paper).  The Fortran code flattens 2-D
fields column-major, ``kk = (i-1)*nh + j`` with ``i`` the R index and ``j``
the Z index — the exact indexing visible in the paper's Figure 2/3 loop
(``kkkk=(ii-1)*nh+jj``).  :class:`RZGrid` preserves that convention so our
kernel implementations can be compared line-by-line against the paper.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import GridError

__all__ = [
    "RZGrid",
    "PAPER_GRID_SIZES",
    "edge_node_indices",
    "edge_strips",
    "field_edge_strips",
    "row_support",
]

#: The four grid sizes evaluated in the paper.
PAPER_GRID_SIZES: tuple[int, ...] = (65, 129, 257, 513)


def row_support(a: np.ndarray) -> tuple[int, int]:
    """The rows ``[lo, hi)`` of the matrix ``a`` that hold every non-zero
    entry of it — ``(0, 0)`` when there is none: one comparison pass, no
    reduction per row.  A flat field's rows are grid nodes, so the
    plasma's current occupies one such run."""
    nonzero = (a != 0.0).reshape(a.size)
    if not nonzero.any():
        return 0, 0
    width = a.size // a.shape[0]
    first = int(nonzero.argmax())
    last = a.size - 1 - int(nonzero[::-1].argmax())
    return first // width, last // width + 1


def edge_node_indices(nw: int, nh: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (i, j) indices of the grid-edge ring.

    Ordering: left column (``i=0``, all ``j``), right column (``i=nw-1``),
    bottom row interior (``j=0``, ``i=1..nw-2``), top row interior
    (``j=nh-1``).  The four corners belong to the vertical edges.  Length
    is ``2*nw + 2*nh - 4``, matching :attr:`RZGrid.n_boundary`.
    """
    if nw < 3 or nh < 3:
        raise GridError(f"grid must be at least 3x3, got {nw}x{nh}")
    ei = np.concatenate(
        [
            np.zeros(nh, dtype=np.intp),
            np.full(nh, nw - 1, dtype=np.intp),
            np.arange(1, nw - 1, dtype=np.intp),
            np.arange(1, nw - 1, dtype=np.intp),
        ]
    )
    ej = np.concatenate(
        [
            np.arange(nh, dtype=np.intp),
            np.arange(nh, dtype=np.intp),
            np.zeros(nw - 2, dtype=np.intp),
            np.full(nw - 2, nh - 1, dtype=np.intp),
        ]
    )
    return ei, ej


def edge_strips(edge: np.ndarray, nw: int, nh: int) -> tuple[np.ndarray, np.ndarray]:
    """The strip pairs of an ``(n_edge, B)`` stack of edge values in
    :func:`edge_node_indices` order, as views of it in any layout:
    ``vertical`` ``(2, nh, B)`` holds the left and right edges (corners
    included), ``horizontal`` ``(2, nw-2, B)`` the bottom and top edges'
    interior nodes."""
    nb = edge.shape[1]
    return edge[: 2 * nh].reshape(2, nh, nb), edge[2 * nh :].reshape(2, nw - 2, nb)


def field_edge_strips(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same strip pairs as views of the edge ring of a ``(B, nw, nh)``
    stack of full-grid fields, for reading or writing."""
    nw, nh = field.shape[1:]
    return field[:, :: nw - 1].transpose(1, 2, 0), field[:, 1:-1, :: nh - 1].transpose(2, 1, 0)


def _tap(out: np.ndarray, rows: np.ndarray, n: int, weight: float) -> None:
    """``out[p] = rows[p - n] * weight``, zero where ``p - n`` leaves the
    rows: one contiguous product and the zero fill beside it."""
    width = rows.size
    n = max(-width, min(width, n))
    if n >= 0:
        out[:n] = 0.0
        np.multiply(rows[: width - n], weight, out=out[n:])
    else:
        np.multiply(rows[-n:], weight, out=out[: width + n])
        out[width + n :] = 0.0


@dataclass(frozen=True)
class RZGrid:
    """A uniform rectangular grid over ``[rmin, rmax] x [zmin, zmax]``.

    Parameters
    ----------
    nw, nh:
        Number of radial (R) and vertical (Z) grid points, including the
        boundary points.  Must each be >= 3.
    rmin, rmax, zmin, zmax:
        Domain extents in metres.  ``rmin`` must be positive: the
        Grad-Shafranov operator ``Delta*`` is singular on the axis R=0.

    Fields on this grid are stored as ``(nw, nh)`` arrays indexed
    ``psi[i, j]`` with ``i`` along R and ``j`` along Z.  The Fortran
    column-major flat index is ``kk = i*nh + j`` (0-based).
    """

    nw: int
    nh: int
    rmin: float = 0.84
    rmax: float = 2.54
    zmin: float = -1.60
    zmax: float = 1.60

    def __post_init__(self) -> None:
        if self.nw < 3 or self.nh < 3:
            raise GridError(f"grid must be at least 3x3, got {self.nw}x{self.nh}")
        if self.rmin <= 0.0:
            raise GridError(f"rmin must be positive (Delta* singular at R=0), got {self.rmin}")
        if self.rmax <= self.rmin:
            raise GridError(f"rmax ({self.rmax}) must exceed rmin ({self.rmin})")
        if self.zmax <= self.zmin:
            raise GridError(f"zmax ({self.zmax}) must exceed zmin ({self.zmin})")

    # -- coordinates ---------------------------------------------------------
    @cached_property
    def r(self) -> np.ndarray:
        """Radial node coordinates, shape ``(nw,)``."""
        return np.linspace(self.rmin, self.rmax, self.nw)

    @cached_property
    def z(self) -> np.ndarray:
        """Vertical node coordinates, shape ``(nh,)``."""
        return np.linspace(self.zmin, self.zmax, self.nh)

    @property
    def dr(self) -> float:
        return (self.rmax - self.rmin) / (self.nw - 1)

    @property
    def dz(self) -> float:
        return (self.zmax - self.zmin) / (self.nh - 1)

    @property
    def cell_area(self) -> float:
        """Area element dR*dZ used when integrating grid current."""
        return self.dr * self.dz

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nw, self.nh)

    @property
    def size(self) -> int:
        return self.nw * self.nh

    @cached_property
    def rr(self) -> np.ndarray:
        """R coordinate broadcast over the grid, shape ``(nw, nh)``."""
        return np.broadcast_to(self.r[:, None], self.shape).copy()

    @cached_property
    def zz(self) -> np.ndarray:
        """Z coordinate broadcast over the grid, shape ``(nw, nh)``."""
        return np.broadcast_to(self.z[None, :], self.shape).copy()

    # -- Fortran-style flattening -------------------------------------------
    def flatten(self, field: np.ndarray) -> np.ndarray:
        """Flatten an ``(nw, nh)`` field to EFIT's column-major vector."""
        field = np.asarray(field)
        if field.shape != self.shape:
            raise GridError(f"field shape {field.shape} != grid shape {self.shape}")
        return field.reshape(self.size)

    def unflatten(self, vec: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`flatten`."""
        vec = np.asarray(vec)
        if vec.shape != (self.size,):
            raise GridError(f"vector length {vec.shape} != grid size {self.size}")
        return vec.reshape(self.shape)

    def flat_index(self, i: int, j: int) -> int:
        """0-based flat index of node (i, j): ``kk = i*nh + j``."""
        if not (0 <= i < self.nw and 0 <= j < self.nh):
            raise GridError(f"node ({i}, {j}) outside {self.nw}x{self.nh} grid")
        return i * self.nh + j

    def geometry_hash(self) -> str:
        """Stable hex fingerprint of the grid geometry.

        Two grids share a hash iff they share mesh counts and domain
        extents — exactly the condition under which Green tables and
        edge operators are interchangeable.  The on-disk table cache
        names its files with it.
        """
        blob = (
            f"rzgrid-v1:{self.nw}:{self.nh}:"
            f"{self.rmin!r}:{self.rmax!r}:{self.zmin!r}:{self.zmax!r}"
        )
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]

    # -- boundary bookkeeping -------------------------------------------------
    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Boolean ``(nw, nh)`` mask of the grid-edge nodes."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask

    @property
    def n_boundary(self) -> int:
        """Number of distinct grid-edge nodes."""
        return 2 * self.nw + 2 * self.nh - 4

    def interior_slice(self) -> tuple[slice, slice]:
        """Slices selecting the interior nodes of an ``(nw, nh)`` field."""
        return (slice(1, self.nw - 1), slice(1, self.nh - 1))

    # -- interpolation ---------------------------------------------------------
    def bilinear(self, field: np.ndarray, r: float | np.ndarray, z: float | np.ndarray) -> np.ndarray:
        """Bilinear interpolation of a grid field at points (r, z).

        Points outside the domain are clamped to the boundary; EFIT's
        limiter and diagnostics always lie inside the computational box, so
        clamping only guards against round-off at the edges.
        """
        field = np.asarray(field)
        if field.shape != self.shape:
            raise GridError(f"field shape {field.shape} != grid shape {self.shape}")
        return self.interpolate(field, self.bilinear_stencil(r, z))

    def bilinear_stencil(
        self, r: float | np.ndarray, z: float | np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """What :meth:`bilinear` needs of the points alone: the flat
        indices of the four corners of each point's cell, lower corner
        ``(i0, j0)`` first — ``k00, k10, k01, k11`` with ``k00 = i0 * nh +
        j0`` — and the factors ``(1 - tr, tr, 1 - tz, tz)`` of the point's
        offset in that cell."""
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        fr = np.clip((r - self.rmin) / self.dr, 0.0, self.nw - 1 - 1e-12)
        fz = np.clip((z - self.zmin) / self.dz, 0.0, self.nh - 1 - 1e-12)
        i0 = fr.astype(int)
        j0 = fz.astype(int)
        tr = fr - i0
        tz = fz - j0
        k00 = i0 * self.nh + j0
        return k00, k00 + self.nh, k00 + 1, k00 + self.nh + 1, 1 - tr, tr, 1 - tz, tz

    @staticmethod
    def interpolate(field: np.ndarray, stencil: tuple[np.ndarray, ...]) -> np.ndarray:
        """:meth:`bilinear` at the points of a :meth:`bilinear_stencil`, on
        a field or on a stack of them (shape ``(..., nw, nh)``)."""
        k00, k10, k01, k11, ur, tr, uz, tz = stencil
        flat = field.reshape(*field.shape[:-2], -1)
        return (
            flat[..., k00] * ur * uz
            + flat[..., k10] * tr * uz
            + flat[..., k01] * ur * tz
            + flat[..., k11] * tr * tz
        )

    def contains(self, r: float | np.ndarray, z: float | np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the computational box."""
        r = np.asarray(r)
        z = np.asarray(z)
        return (r >= self.rmin) & (r <= self.rmax) & (z >= self.zmin) & (z <= self.zmax)

    def shift_z(self, field: np.ndarray, delz: float | np.ndarray) -> np.ndarray:
        """Shift a grid field vertically by ``delz`` metres (linear
        interpolation, zero fill) — ``f_new(z) = f(z - delz)``.

        This is the rigid vertical transport used both by EFIT's
        ``fitdelz`` feedback (shifting the fitted current distribution)
        and by the forward solver's vertical-position hold.  Rows shift
        independently, so ``field`` may be any ``(k, nh)`` block of grid
        rows — the fit shifts only the rows the plasma occupies — or a
        stack of them, ``(B, k, nh)``, each shifted by its own entry of a
        ``(B,)`` ``delz``.

        A constant shift is an integer offset ``n = ceil(delz / dz)`` and
        one fraction ``t = n - delz / dz``: the new column ``j`` is ``(1 -
        t) f[j - n] + t f[j - n + 1]``, zero wherever ``j - delz / dz``
        leaves ``[0, nh - 1]``.  On a field's flattened rows each tap is
        one contiguous product of the rows with its weight, offset by
        ``n`` or ``n - 1``, beside a zero fill — the columns a tap reads
        across a row's end are zeroed with the rest — so a field costs
        three passes and two column strips whatever its offset, and the
        offsets and the zeroed columns are scalar arithmetic.  A ``delz``
        that is neither one shift
        nor one per field of the stack, or a NaN or infinite one, is a
        :class:`~repro.errors.GridError`, raised before anything is
        allocated.
        """
        field = np.asarray(field)
        if field.ndim < 2 or field.shape[-1] != self.nh:
            raise GridError(f"field shape {field.shape} is not rows of a {self.shape} grid")
        lead = field.shape[:-2]
        delz = np.asarray(delz, dtype=float)
        if delz.size != 1 and delz.shape != lead:
            raise GridError(
                f"vertical shift delz of shape {delz.shape} does not fit fields of shape "
                f"{field.shape}: pass one shift, or one per field ({lead})"
            )
        if not np.isfinite(delz).all():
            raise GridError(f"non-finite vertical shift delz = {delz.tolist()}")
        nh = self.nh
        flat = field.reshape(-1, field.shape[-2] * nh)
        out = np.empty(flat.shape)
        upper = np.empty(flat.shape[1])
        shifts = (np.zeros(lead) + delz / self.dz).reshape(-1).tolist()
        for rows, lower, s in zip(flat, out, shifts):
            # Beyond nh every column is zero fill, whatever the offset.
            n = max(-nh, min(nh, math.ceil(s)))
            t = n - s
            _tap(lower, rows, n, 1.0 - t)
            _tap(upper, rows, n - 1, t)
            lower += upper
            # The columns whose source j - s leaves [0, nh - 1]: j < s, and
            # j - s > nh - 1 as the subtraction rounds.
            first = max(0, min(nh, n))
            last = max(first, min(nh, math.floor(s) + nh))
            while last > first and (last - 1) - s > nh - 1:
                last -= 1
            while last < nh and not last - s > nh - 1:
                last += 1
            grid_rows = lower.reshape(-1, nh)
            grid_rows[:, :first] = 0.0
            grid_rows[:, last:] = 0.0
        return out.reshape(field.shape)

    def refined(self, factor: int = 2) -> "RZGrid":
        """A grid with (n-1)*factor+1 points per direction on the same box.

        Doubling 65 -> 129 -> 257 -> 513 reproduces the paper's sweep.
        """
        if factor < 1:
            raise GridError("refinement factor must be >= 1")
        return RZGrid(
            nw=(self.nw - 1) * factor + 1,
            nh=(self.nh - 1) * factor + 1,
            rmin=self.rmin,
            rmax=self.rmax,
            zmin=self.zmin,
            zmax=self.zmax,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RZGrid({self.nw}x{self.nh}, R=[{self.rmin}, {self.rmax}], "
            f"Z=[{self.zmin}, {self.zmax}])"
        )
