"""The ``pflux_`` subroutine: poloidal flux from the grid current.

This is the routine the paper GPU-offloads — 47-92 % of ``fit_`` time on a
CPU core (Table 2).  It has three parts:

1. **Boundary Green sums** — the O(N^3) loop nests of Figures 2/3: for
   every node on the edge of the computational box, sum the precomputed
   Green table against all ``nw x nh`` node currents.  Two implementations
   are provided:

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

2. **Right-hand side** — ``-mu0 R J_phi`` over the grid (O(N^2)).

3. **Interior solve** — Dirichlet solve with the boundary sums (plus the
   external coil flux) as edge data.

Both implementations produce bit-comparable fluxes; the test suite checks
them against each other and against direct Green-function superposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.grid import RZGrid
from repro.efit.solvers.base import GSInteriorSolver
from repro.efit.tables import BoundaryGreensTables
from repro.efit.workspace import FitWorkspace
from repro.errors import GridError
from repro.utils.constants import MU0

__all__ = [
    "boundary_flux_reference",
    "boundary_flux_vectorized",
    "edge_flux_operator",
    "edge_node_indices",
    "PfluxBase",
    "PfluxReference",
    "PfluxVectorized",
    "PfluxStructured",
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
        :class:`PfluxBase`).

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


@dataclass
class PfluxBase:
    """Shared driver for the ``pflux_`` computation.

    ``compute`` forms the plasma boundary flux, the interior RHS and the
    Dirichlet solve, then adds the external (coil) flux.  Subclasses choose
    the boundary-sum kernel; :meth:`compute_batch`, the form the Picard
    loop calls, runs ``compute`` slice by slice.
    """

    grid: RZGrid
    tables: BoundaryGreensTables
    solver: GSInteriorSolver

    def __post_init__(self) -> None:
        if self.tables.grid.shape != self.grid.shape:
            raise GridError("Green tables built for a different grid")
        if self.solver.grid.shape != self.grid.shape:
            raise GridError("solver built for a different grid")

    def _boundary_flux(self, pcurr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compute(self, pcurr: np.ndarray, psi_external: np.ndarray | None = None) -> np.ndarray:
        """Full flux from node currents ``pcurr`` [(nw, nh), amperes].

        ``psi_external`` is the vacuum flux of the PF coils (added by
        superposition).  Returns the total ``(nw, nh)`` flux.
        """
        grid = self.grid
        pcurr = np.asarray(pcurr, dtype=float)
        if pcurr.shape != grid.shape:
            raise GridError(f"pcurr shape {pcurr.shape} != grid {grid.shape}")
        # The paper's kernels compute -sum(G * pcurr); feeding -pcurr gives
        # the physically signed +sum(G * pcurr).
        psi_edge = self._boundary_flux(-pcurr)
        rhs = -(MU0 / grid.cell_area) * grid.rr * pcurr
        psi_plasma = self.solver.solve(rhs, psi_edge)
        if psi_external is None:
            return psi_plasma
        psi_external = np.asarray(psi_external, dtype=float)
        if psi_external.shape != grid.shape:
            raise GridError("psi_external shape mismatch")
        return psi_plasma + psi_external

    def compute_batch(self, pcurr: np.ndarray, psi_external: np.ndarray) -> np.ndarray:
        """The fluxes of a batch of slices: ``pcurr`` and ``psi_external``
        are the ``(B, nw, nh)`` stacks of their node currents and external
        fluxes; returns the fresh ``(B, nw, nh)`` stack of :meth:`compute`
        on each pair."""
        return np.stack([self.compute(*pair) for pair in zip(pcurr, psi_external)])


class PfluxReference(PfluxBase):
    """``pflux_`` with the pure-loop boundary kernel (the slow baseline)."""

    def _boundary_flux(self, pcurr: np.ndarray) -> np.ndarray:
        flat = boundary_flux_reference(
            self.tables.fortran_view(),
            self.grid.flatten(pcurr),
            self.grid.nw,
            self.grid.nh,
        )
        return self.grid.unflatten(flat)


class PfluxVectorized(PfluxBase):
    """``pflux_`` with the BLAS boundary kernels (the optimized path)."""

    def _boundary_flux(self, pcurr: np.ndarray) -> np.ndarray:
        return boundary_flux_vectorized(self.tables, pcurr)


class PfluxStructured(PfluxBase):
    """``pflux_`` through an :class:`~repro.efit.operators.EdgeOperator`.

    The boundary sums are one operator apply — the exact dense GEMM or
    the FFT/Toeplitz and low-rank compressed forms that beat it on large
    grids (see :mod:`repro.efit.operators.edge`) — which reads only the
    grid rows the plasma's current occupies.  :meth:`compute_batch` is
    the one body: one operator apply and one multi-RHS interior solve for
    a stack of slices; :meth:`compute` is its batch of one.

    The step owns its batch-level arrays: views of one buffer of its
    :attr:`workspace`, sized for the widest batch the step has served
    (:meth:`reserve`), so a batch whose width falls as its slices
    converge, and every later batch no wider, requests no new buffer.
    So one instance is driven from one thread at a time, as its solver is.
    """

    def __init__(self, grid, tables, solver, operator) -> None:
        super().__init__(grid, tables, solver)
        if operator.grid.shape != grid.shape:
            raise GridError("edge operator built for a different grid")
        self.operator = operator
        edge_i, edge_j = edge_node_indices(grid.nw, grid.nh)
        #: Flat grid index of every edge node, in the operator's order.
        self._edge_nodes = edge_i * grid.nh + edge_j
        #: ``rhs = rhs_factor * pcurr``, associated as :class:`PfluxBase` does.
        self._rhs_factor = -(MU0 / grid.cell_area) * grid.rr
        #: The flux step's buffers; its counters are the engines' allocation check.
        self.workspace = FitWorkspace()
        #: The widest batch reserved so far: the buffer's slice capacity.
        self._width = 0

    def reserve(self, width: int) -> np.ndarray:
        """The step's buffer, sized for batches of ``width`` slices or the
        widest it has served, whichever is wider: five blocks of that many
        fields, of which a batch takes the contiguous head — so every
        batch-level array is contiguous at any width.  A
        :class:`~repro.batch.engine.BatchFitEngine` reserves its
        ``batch_size`` when it is built."""
        self._width = max(self._width, width)
        return self.workspace.array("pflux", (5, self._width * self.grid.size))

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
        slices the caller may keep.  The transforms of the interior solve
        make their own arrays.  A one-slice batch is the same arithmetic
        at any buffer capacity (a one-column apply is the vector apply);
        wider batches agree with it to round-off.
        """
        grid = self.grid
        nw, nh = grid.nw, grid.nh
        if pcurr.ndim != 3 or pcurr.shape[1:] != grid.shape:
            raise GridError(f"pcurr stack shape {pcurr.shape} != (B,) + {grid.shape}")
        if psi_external is not None and psi_external.shape != pcurr.shape:
            raise GridError("psi_external shape mismatch")
        nb = len(pcurr)
        blocks = self.reserve(nb)[:, : nb * grid.size]
        pcurr_neg = blocks[0].reshape(grid.size, nb)
        edge = blocks[1, : nb * grid.n_boundary].reshape(grid.n_boundary, nb)
        rhs, psi_bound, psi_plasma = blocks[2:].reshape(3, nb, nw, nh)
        # The paper's kernels compute -sum(G * pcurr); feeding -pcurr gives
        # the physically signed +sum(G * pcurr).
        np.multiply(pcurr.reshape(nb, grid.size).T, -1.0, out=pcurr_neg)
        np.multiply(self._rhs_factor, pcurr, out=rhs)
        self.operator.apply(pcurr_neg, out=edge)
        psi_bound.reshape(nb, grid.size)[:, self._edge_nodes] = edge.T
        self.solver.solve_batch(rhs, psi_bound, out=psi_plasma)
        if psi_external is None:
            return psi_plasma.copy()
        return np.add(psi_plasma, psi_external)
