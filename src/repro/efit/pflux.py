"""The ``pflux_`` subroutine: poloidal flux from the grid current.

This is the routine the paper GPU-offloads — 47-92 % of ``fit_`` time on a
CPU core (Table 2).  It has three parts:

1. **Boundary Green sums** — the O(N^3) loop nests of Figures 2/3: for
   every node on the edge of the computational box, sum the precomputed
   Green table against all ``nw x nh`` node currents.  The paper's two
   kernels are here:

   * :func:`boundary_flux_reference` — a line-by-line translation of the
     paper's Fortran loops (including its sign convention, the
     ``kk=(nw-1)*nh+j`` flattening and the ``mj=|j-jj|`` table indexing).
     This is the "original code" analog: pure Python loops, kept for
     correctness comparison and as the slow baseline in the real
     wall-clock benchmarks.
   * :func:`boundary_flux_vectorized` — the same arithmetic cast as BLAS
     contractions (one ``(nh,nw)x(nw,nh)`` matmul per vertical edge, one
     ``tensordot`` per horizontal edge), the "optimized" analog and the
     numeric payload executed by the simulated GPU kernels.

   Both run behind :class:`TableSumEdgeOperator`, one more
   :class:`~repro.efit.operators.EdgeOperator` beside the dense and
   structured forms of :mod:`repro.efit.operators.edge`.

2. **Right-hand side** — ``-mu0 R J_phi`` over the grid (O(N^2)).

3. **Interior solve** — Dirichlet solve with the boundary sums (plus the
   external coil flux) as edge data.

:class:`PfluxStructured` is the one flux step, whatever operator forms
the sums; :class:`PfluxVectorized` is that step on the BLAS table sums.
"""

from __future__ import annotations

import numpy as np

from repro.efit.grid import RZGrid, edge_node_indices, edge_strips
from repro.efit.operators import EdgeOperator
from repro.efit.solvers.base import GSInteriorSolver
from repro.efit.tables import BoundaryGreensTables
from repro.efit.workspace import FitWorkspace
from repro.errors import GridError, OperatorError
from repro.utils.constants import MU0

__all__ = [
    "boundary_flux_reference",
    "boundary_flux_vectorized",
    "edge_flux_operator",
    "edge_node_indices",
    "TableSumEdgeOperator",
    "PfluxStructured",
    "PfluxVectorized",
]


def boundary_flux_reference(gridpc: np.ndarray, pcurr: np.ndarray, nw: int, nh: int) -> np.ndarray:
    """Paper Figure 2/3 boundary loops, translated loop-for-loop.

    Parameters
    ----------
    gridpc:
        The ``(nw*nh, nw)`` Fortran-layout Green table
        (:meth:`BoundaryGreensTables.fortran_view`), row ``i_b*nh + |dj|``.
    pcurr:
        Flat node currents in EFIT ordering ``kkkk = ii*nh + jj``.  Note
        the kernel keeps the paper's ``psi = -sum(gridpc * pcurr)`` sign;
        callers wanting physical flux pass ``-pcurr`` (see
        :class:`TableSumEdgeOperator`).

    Returns the flat ``(nw*nh,)`` flux vector with only the edge entries
    filled.
    """
    if gridpc.shape != (nw * nh, nw):
        raise GridError(f"gridpc shape {gridpc.shape} != {(nw * nh, nw)}")
    if pcurr.shape != (nw * nh,):
        raise GridError(f"pcurr length {pcurr.shape} != {nw * nh}")
    psi = np.zeros(nw * nh)

    # --- left (i_b = 0) and right (i_b = nw-1) edges: the paper's loop ----
    for j in range(nh):
        kk = (nw - 1) * nh + j
        tempsum1 = 0.0
        tempsum2 = 0.0
        for ii in range(nw):
            for jj in range(nh):
                kkkk = ii * nh + jj
                mj = abs(j - jj)
                mk = (nw - 1) * nh + mj
                tempsum1 = tempsum1 - gridpc[mj, ii] * pcurr[kkkk]
                tempsum2 = tempsum2 - gridpc[mk, ii] * pcurr[kkkk]
        psi[j] = tempsum1
        psi[kk] = tempsum2

    # --- bottom (j_b = 0) and top (j_b = nh-1) edges: analogous loop ------
    for i in range(nw):
        kb = i * nh
        kt = i * nh + (nh - 1)
        tempsum1 = 0.0
        tempsum2 = 0.0
        for ii in range(nw):
            for jj in range(nh):
                kkkk = ii * nh + jj
                mb = i * nh + jj
                mt = i * nh + (nh - 1 - jj)
                tempsum1 = tempsum1 - gridpc[mb, ii] * pcurr[kkkk]
                tempsum2 = tempsum2 - gridpc[mt, ii] * pcurr[kkkk]
        psi[kb] = tempsum1
        psi[kt] = tempsum2
    return psi


def boundary_flux_vectorized(tables: BoundaryGreensTables, pcurr: np.ndarray) -> np.ndarray:
    """BLAS form of :func:`boundary_flux_reference` (same sign convention).

    ``pcurr`` is the ``(nw, nh)`` node-current grid.  Returns an
    ``(nw, nh)`` field with only the edge ring filled.
    """
    grid = tables.grid
    nw, nh = grid.nw, grid.nh
    pcurr = np.asarray(pcurr, dtype=float)
    if pcurr.shape != grid.shape:
        raise GridError(f"pcurr shape {pcurr.shape} != grid {grid.shape}")
    gpc = tables.gpc
    psi = np.zeros(grid.shape)

    # Vertical edges: W[d, jj] = sum_ii gpc[i_b, d, ii] pcurr[ii, jj];
    # psi[i_b, j] = -sum_jj W[|j - jj|, jj].
    dj = np.abs(np.arange(nh)[:, None] - np.arange(nh)[None, :])  # (j, jj)
    cols = np.arange(nh)[None, :]
    for i_b in (0, nw - 1):
        w = gpc[i_b] @ pcurr  # (nh_d, nh_jj): one N^3 matmul
        psi[i_b, :] = -w[dj, cols].sum(axis=1)

    # Horizontal edges: d is a function of jj alone, so the whole edge is
    # one tensordot over (d, ii).
    psi[:, 0] = -np.tensordot(gpc, pcurr, axes=([1, 2], [1, 0]))
    psi[:, -1] = -np.tensordot(gpc, pcurr[:, ::-1], axes=([1, 2], [1, 0]))
    return psi


def edge_flux_operator(tables: BoundaryGreensTables) -> np.ndarray:
    """Factor the boundary Green sums into one dense edge operator.

    Returns the ``(n_edge, nw*nh)`` matrix ``E`` such that
    ``E @ pcurr_flat`` equals the boundary sums of
    :func:`boundary_flux_reference` / :func:`boundary_flux_vectorized`
    (same ``psi = -sum(G * pcurr)`` sign convention), with edge nodes
    ordered by :func:`edge_node_indices`.  Columns follow the grid's
    Fortran flattening ``kkkk = ii*nh + jj``.

    The factorisation turns the four per-edge contractions into a single
    GEMM — and, stacking ``B`` current columns, into one
    ``(n_edge, nw*nh) @ (nw*nh, B)`` product that computes the boundary
    flux of a whole batch of time slices at once
    (:class:`~repro.efit.operators.DenseEdgeOperator`).  At the corner
    nodes the vertical and horizontal Green rows coincide analytically
    (``|j - jj|`` degenerates to ``jj`` or ``nh-1-jj``), so the operator
    is unambiguous.

    Storage is ``(2*nw + 2*nh - 4) * nw * nh`` doubles — 8.6 MB at 65x65,
    68 MB at 129x129 — built once per grid and shared across slices.
    """
    grid = tables.grid
    nw, nh = grid.nw, grid.nh
    gpc = tables.gpc
    dj = np.abs(np.arange(nh)[:, None] - np.arange(nh)[None, :])  # (j, jj)
    # Vertical edges: row (i_b, j) holds gpc[i_b, |j - jj|, ii], laid out
    # (j, ii, jj) to match the Fortran column flattening.
    left = np.transpose(gpc[0][dj], (0, 2, 1)).reshape(nh, nw * nh)
    right = np.transpose(gpc[nw - 1][dj], (0, 2, 1)).reshape(nh, nw * nh)
    # Horizontal edges: the Z offset is a function of jj alone.
    bottom = np.transpose(gpc, (0, 2, 1))[1:-1].reshape(nw - 2, nw * nh)
    top = np.transpose(gpc[:, ::-1, :], (0, 2, 1))[1:-1].reshape(nw - 2, nw * nh)
    return -np.concatenate([left, right, bottom, top], axis=0)


class TableSumEdgeOperator(EdgeOperator):
    """The paper's boundary Green sums (Figures 2/3) as an edge operator.

    ``method`` names the kernel that forms them: ``"vectorized"``
    (:func:`boundary_flux_vectorized`, the BLAS contractions) or
    ``"reference"`` (:func:`boundary_flux_reference`, the loop-for-loop
    translation).  Each slice's current rows are laid into a full
    ``(nw, nh)`` field, zero elsewhere, the kernel sums the whole table
    against it, and the ring is gathered in
    :func:`~repro.efit.grid.edge_node_indices` order, so a batch is a
    loop over its slices.  It aliases the Green table and stores nothing
    of its own.
    """

    def __init__(self, tables: BoundaryGreensTables, method: str = "vectorized") -> None:
        if method not in _TABLE_SUM_KERNELS:
            raise OperatorError(
                f"unknown table-sum kernel {method!r}; choose one of {tuple(_TABLE_SUM_KERNELS)}"
            )
        super().__init__(tables.grid)
        self.tables = tables
        self.method = method
        self._ring = edge_node_indices(self.grid.nw, self.grid.nh)

    @property
    def nbytes(self) -> int:
        return 0

    def error_bound(self, x_norm: float = 1.0) -> float:
        scale = float(np.abs(self.tables.gpc).max()) * np.sqrt(self.n_grid)
        return 64.0 * float(np.finfo(np.float64).eps) * scale * x_norm

    def _apply_rows(self, rows: np.ndarray, i0: int, out: np.ndarray) -> None:
        kernel = _TABLE_SUM_KERNELS[self.method]
        field = np.zeros(self.grid.shape)
        for b, block in enumerate(rows):
            field[i0 : i0 + len(block)] = block
            # The kernels keep the paper's -sum(G * pcurr) sign.
            out[:, b] = kernel(self.tables, -field)[self._ring]


def _reference_field(tables: BoundaryGreensTables, pcurr: np.ndarray) -> np.ndarray:
    """:func:`boundary_flux_reference` on a ``(nw, nh)`` field."""
    grid = tables.grid
    flat = boundary_flux_reference(tables.fortran_view(), grid.flatten(pcurr), grid.nw, grid.nh)
    return grid.unflatten(flat)


_TABLE_SUM_KERNELS = {"vectorized": boundary_flux_vectorized, "reference": _reference_field}


class PfluxStructured:
    """``pflux_``: the boundary Green sums through an
    :class:`~repro.efit.operators.EdgeOperator`, the interior right-hand
    side ``-mu0 R J_phi`` and the Dirichlet solve, plus the external
    (coil) flux by superposition.

    The boundary sums are one operator apply — the FFT/Toeplitz and
    low-rank compressed forms every fit applies, the exact dense matrix,
    or the paper's table sums (:class:`TableSumEdgeOperator`) — which
    reads only the grid rows the plasma's current occupies.
    :meth:`compute_batch` is the one body: one operator apply and one
    multi-RHS interior solve for a stack of slices; :meth:`compute` is its
    batch of one.

    The step owns its batch-level arrays: views of one buffer of its
    :attr:`workspace`, sized for the widest batch the step has served
    (:meth:`reserve`), so a batch whose width falls as its slices
    converge, and every later batch no wider, requests no new buffer.
    So one instance is driven from one thread at a time, as its solver is.
    """

    def __init__(self, grid, tables, solver, operator) -> None:
        if tables.grid.shape != grid.shape:
            raise GridError("Green tables built for a different grid")
        if solver.grid.shape != grid.shape:
            raise GridError("solver built for a different grid")
        if operator.grid.shape != grid.shape:
            raise GridError("edge operator built for a different grid")
        self.grid = grid
        self.tables = tables
        self.solver = solver
        self.operator = operator
        #: ``rhs = rhs_factor * pcurr`` on the interior, associated as
        #: ``-(mu0 / dA) * R * pcurr`` is, Z index first as the solver takes it.
        self._rhs_factor = (-(MU0 / grid.cell_area) * grid.rr)[1:-1, 1:-1].T.copy()
        #: The flux step's buffers; its counters are the engines' allocation check.
        self.workspace = FitWorkspace()
        #: The widest batch reserved so far: the buffer's slice capacity.
        self._width = 0

    def reserve(self, width: int) -> np.ndarray:
        """The step's buffer, sized for batches of ``width`` slices or the
        widest it has served, whichever is wider: room for that many
        slices' edge sums and interior right-hand sides, of which a batch
        takes the head — so every batch-level array is contiguous at any
        width.  A :class:`~repro.batch.engine.BatchFitEngine` reserves its
        ``batch_size`` when it is built."""
        self._width = max(self._width, width)
        grid = self.grid
        per_slice = grid.n_boundary + (grid.nw - 2) * (grid.nh - 2)
        return self.workspace.array("pflux", (self._width * per_slice,))

    def compute(self, pcurr: np.ndarray, psi_external: np.ndarray | None = None) -> np.ndarray:
        """:meth:`compute_batch` on one slice."""
        if psi_external is not None:
            psi_external = np.asarray(psi_external, dtype=float)[None]
        return self.compute_batch(np.asarray(pcurr, dtype=float)[None], psi_external)[0]

    def compute_batch(
        self, pcurr: np.ndarray, psi_external: np.ndarray | None = None
    ) -> np.ndarray:
        """:meth:`compute` for a stack of slices — the slices of a
        lock-step batch still iterating, or one slice.

        ``pcurr`` and ``psi_external`` are their ``(B, nw, nh)`` stacks of
        node currents and external fluxes (``None``: no external flux);
        returns the fresh ``(B, nw, nh)`` stack of their new fluxes, whose
        slices the caller may keep.

        The shapes are checked here, once.  The operator reads the current
        stack's plasma rows as they lie, and its edge sums are the
        Dirichlet strips the solver subtracts and writes out — no
        full-grid boundary field is formed; the interior right-hand sides
        are formed straight into the solver's Z-major layout, and the
        external flux is added as the flux is written.  The transforms of
        the interior solve make their own arrays.  A one-slice batch is the
        same arithmetic at any buffer capacity; wider batches agree with it
        to round-off.
        """
        grid = self.grid
        ni, nj = grid.nw - 2, grid.nh - 2
        if pcurr.ndim != 3 or pcurr.shape[1:] != grid.shape:
            raise GridError(f"pcurr stack shape {pcurr.shape} != (B,) + {grid.shape}")
        if psi_external is not None and psi_external.shape != pcurr.shape:
            raise GridError("psi_external shape mismatch")
        nb = len(pcurr)
        buffer = self.reserve(nb)
        edge = buffer[: nb * grid.n_boundary].reshape(grid.n_boundary, nb)
        rhs_t = buffer[edge.size : edge.size + nb * ni * nj].reshape(nb, nj, ni)
        self.operator._edge_sums(pcurr, edge)
        np.multiply(self._rhs_factor, pcurr[:, 1:-1, 1:-1].transpose(0, 2, 1), out=rhs_t)
        vertical, horizontal = edge_strips(edge, grid.nw, grid.nh)
        return self.solver._solve_edges(
            rhs_t, vertical, horizontal, np.empty((nb,) + grid.shape), psi_external
        )


class PfluxVectorized(PfluxStructured):
    """The flux step on the paper's BLAS table sums."""

    def __init__(self, grid: RZGrid, tables: BoundaryGreensTables, solver: GSInteriorSolver):
        super().__init__(grid, tables, solver, TableSumEdgeOperator(tables))
