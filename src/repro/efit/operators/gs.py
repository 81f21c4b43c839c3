"""Finite-difference discretisation of the Grad-Shafranov operator.

``Delta* psi = R d/dR( (1/R) dpsi/dR ) + d^2 psi / dZ^2`` is discretised in
conservative (self-adjoint) form on the uniform grid:

.. math::

    (\\Delta^* \\psi)_{ij} \\approx
      \\frac{R_i}{\\Delta R^2}\\left[
          \\frac{\\psi_{i+1,j} - \\psi_{ij}}{R_{i+1/2}}
        - \\frac{\\psi_{ij} - \\psi_{i-1,j}}{R_{i-1/2}}
      \\right]
      + \\frac{\\psi_{i,j+1} - 2\\psi_{ij} + \\psi_{i,j-1}}{\\Delta Z^2}

which is second-order accurate and annihilates the exact ``Delta*``
null-space elements ``1``, ``Z`` and ``R^2`` to machine precision — a
property the test suite checks.  The same stencil coefficients drive both
the matrix-free :meth:`GradShafranovOperator.apply` (used for residuals)
and the sparse matrix consumed by the direct interior solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.efit.grid import RZGrid, field_edge_strips
from repro.errors import GridError

__all__ = ["GradShafranovOperator"]


@dataclass(frozen=True)
class GradShafranovOperator:
    """Matrix-free and assembled forms of the discrete ``Delta*``."""

    grid: RZGrid

    # -- stencil coefficients --------------------------------------------------
    @cached_property
    def a_plus(self) -> np.ndarray:
        """East coefficient ``R_i / R_{i+1/2}`` for interior columns, shape (nw-2,)."""
        r = self.grid.r
        ri = r[1:-1]
        return ri / (ri + 0.5 * self.grid.dr)

    @cached_property
    def a_minus(self) -> np.ndarray:
        """West coefficient ``R_i / R_{i-1/2}`` for interior columns, shape (nw-2,)."""
        r = self.grid.r
        ri = r[1:-1]
        return ri / (ri - 0.5 * self.grid.dr)

    # -- matrix-free application ------------------------------------------------
    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Apply ``Delta*`` to a full ``(nw, nh)`` field.

        Returns an ``(nw, nh)`` array whose interior holds the stencil value
        and whose edge ring is zero (the operator needs both neighbours).
        """
        grid = self.grid
        psi = np.asarray(psi, dtype=float)
        if psi.shape != grid.shape:
            raise GridError(f"field shape {psi.shape} != grid shape {grid.shape}")
        out = np.zeros_like(psi)
        inner = psi[1:-1, 1:-1]
        east = psi[2:, 1:-1]
        west = psi[:-2, 1:-1]
        north = psi[1:-1, 2:]
        south = psi[1:-1, :-2]
        ap = self.a_plus[:, None]
        am = self.a_minus[:, None]
        dr2 = grid.dr**2
        dz2 = grid.dz**2
        out[1:-1, 1:-1] = (ap * (east - inner) - am * (inner - west)) / dr2 + (
            north - 2.0 * inner + south
        ) / dz2
        return out

    def residual(self, psi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Interior residual ``Delta* psi - rhs`` (edge ring zero)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self.grid.shape:
            raise GridError(f"rhs shape {rhs.shape} != grid shape {self.grid.shape}")
        res = self.apply(psi)
        res[1:-1, 1:-1] -= rhs[1:-1, 1:-1]
        return res

    # -- assembled interior matrix ----------------------------------------------
    @cached_property
    def interior_matrix(self) -> sp.csc_matrix:
        """Sparse ``Delta*`` over interior unknowns with Dirichlet edges.

        Unknowns are ordered with the grid's Fortran-style flattening
        restricted to the interior: ``k = (i-1)*(nh-2) + (j-1)``.
        """
        grid = self.grid
        ni = grid.nw - 2
        nj = grid.nh - 2
        n = ni * nj
        dr2 = grid.dr**2
        dz2 = grid.dz**2
        ap = self.a_plus
        am = self.a_minus

        diag = np.empty(n)
        east = np.zeros(n)
        west = np.zeros(n)
        north = np.zeros(n)
        south = np.zeros(n)
        for ii in range(ni):
            s = slice(ii * nj, (ii + 1) * nj)
            diag[s] = -(ap[ii] + am[ii]) / dr2 - 2.0 / dz2
            east[s] = ap[ii] / dr2
            west[s] = am[ii] / dr2
            north[s] = 1.0 / dz2
            south[s] = 1.0 / dz2
        # Zero couplings that would cross the Dirichlet edge.
        north_off = north.copy()
        south_off = south.copy()
        north_off[nj - 1 :: nj] = 0.0  # top interior row has no interior north
        south_off[0::nj] = 0.0
        mat = sp.diags(
            [diag, east[: n - nj], west[nj:], north_off[: n - 1], south_off[1:]],
            [0, nj, -nj, 1, -1],
            shape=(n, n),
            format="csc",
        )
        return mat

    def dirichlet_rhs_correction(self, psi_boundary: np.ndarray) -> np.ndarray:
        """Move known edge values to the right-hand side of the interior system.

        ``psi_boundary`` is a full ``(nw, nh)`` field whose edge ring holds
        the Dirichlet data (interior values are ignored).  Returns the
        flattened interior correction to *subtract* from the RHS vector:
        :meth:`dirichlet_rhs_correction_batch` on one slice.
        """
        psi_boundary = np.asarray(psi_boundary, dtype=float)
        if psi_boundary.shape != self.grid.shape:
            raise GridError("boundary field shape mismatch")
        return self.dirichlet_rhs_correction_batch(psi_boundary[None]).reshape(-1)

    def dirichlet_rhs_correction_batch(self, psi_boundary: np.ndarray) -> np.ndarray:
        """Batched :meth:`dirichlet_rhs_correction` over stacked slices.

        ``psi_boundary`` is ``(B, nw, nh)``; returns the ``(B, ni, nj)``
        interior corrections.  The arithmetic is elementwise, so a slice's
        correction does not depend on how many share the call.
        """
        grid = self.grid
        psi_boundary = np.asarray(psi_boundary, dtype=float)
        if psi_boundary.ndim != 3 or psi_boundary.shape[1:] != grid.shape:
            raise GridError("batched boundary field shape mismatch")
        ni = grid.nw - 2
        nj = grid.nh - 2
        dr2 = grid.dr**2
        dz2 = grid.dz**2
        corr = np.zeros((psi_boundary.shape[0], ni, nj))
        corr[:, 0, :] += self.a_minus[0] / dr2 * psi_boundary[:, 0, 1:-1]
        corr[:, -1, :] += self.a_plus[-1] / dr2 * psi_boundary[:, -1, 1:-1]
        corr[:, :, 0] += psi_boundary[:, 1:-1, 0] / dz2
        corr[:, :, -1] += psi_boundary[:, 1:-1, -1] / dz2
        return corr

    @cached_property
    def _edge_row_coefficients(self) -> np.ndarray:
        """The west and east Dirichlet couplings, ``(2, 1, 1)``."""
        return np.array([[[self.a_minus[0]]], [[self.a_plus[-1]]]]) / self.grid.dr**2

    def subtract_dirichlet_edges(
        self, rhs_t: np.ndarray, vertical: np.ndarray, horizontal: np.ndarray
    ) -> np.ndarray:
        """``rhs - dirichlet_rhs_correction_batch(psi_boundary)``, bit for
        bit, in place on the interior right-hand sides ``rhs_t``, which it
        returns — laid out Z index first, ``rhs_t[b, j, i]`` being
        ``rhs[b, i, j]``, shape ``(B, nj, ni)``.

        The edge data come as two strip pairs, not a full-grid field:
        ``vertical`` ``(2, nh, B)`` holds the left and right edges (``i = 0``
        and ``nw - 1``, corners included), ``horizontal`` ``(2, ni, B)`` the
        bottom and top edges' interior nodes (``j = 0`` and ``nh - 1``) —
        the strips of :func:`repro.efit.grid.edge_strips`.  Only the
        four edge strips of ``rhs_t`` are touched, in six array operations
        whatever the width: the edge rows' and edge columns' terms, each
        corner's two terms summed, one subtraction per pair of strips.  A
        grid with one interior row or column, where a strip is its own
        opposite, subtracts the whole correction.
        """
        grid = self.grid
        ni, nj = grid.nw - 2, grid.nh - 2
        if ni < 2 or nj < 2:
            psi_boundary = np.zeros((rhs_t.shape[0],) + grid.shape)
            ring_vertical, ring_horizontal = field_edge_strips(psi_boundary)
            ring_vertical[...] = vertical
            ring_horizontal[...] = horizontal
            correction = self.dirichlet_rhs_correction_batch(psi_boundary)
            return np.subtract(rhs_t, correction.transpose(0, 2, 1), out=rhs_t)
        rows = vertical[:, 1:-1] * self._edge_row_coefficients  # (2, nj, B)
        cols = horizontal / grid.dz**2  # (2, ni, B)
        cols[:, :: ni - 1] += rows[:, :: nj - 1].transpose(1, 0, 2)
        rhs_t[:, 1:-1, :: ni - 1] -= rows[:, 1:-1].transpose(2, 1, 0)
        rhs_t[:, :: nj - 1] -= cols.transpose(2, 0, 1)
        return rhs_t
