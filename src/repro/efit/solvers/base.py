"""Common interface for the interior Grad-Shafranov solvers."""

from __future__ import annotations

import abc

import numpy as np

from repro.efit.grid import RZGrid, field_edge_strips
from repro.efit.operators import GradShafranovOperator
from repro.errors import GridError, SolverError

__all__ = ["GSInteriorSolver", "make_solver", "SOLVER_NAMES"]


def _flux_blocks(field: np.ndarray) -> tuple[np.ndarray, ...]:
    """The views a ``(B, nw, nh)`` flux stack is written in: its edge
    strip pairs (:func:`~repro.efit.grid.field_edge_strips`) and its
    interior laid out Z index first."""
    return (*field_edge_strips(field), field[:, 1:-1, 1:-1].transpose(0, 2, 1))


class GSInteriorSolver(abc.ABC):
    """Solve ``Delta* psi = rhs`` inside the box with Dirichlet edge data.

    Implementations precompute whatever factorisation they need at
    construction (per-grid cost, amortised over the Picard iterations) and
    solve one interior system (:meth:`_solve_interior`) or a stack of them
    laid out Z index first (:meth:`_solve_interior_batch`).
    :meth:`_solve_edges` is the one body — the package's internal
    interface to the flux step (:class:`repro.efit.pflux.PfluxStructured`
    calls it on its own buffers), not public API — :meth:`solve_batch` its
    checked entry on full-grid fields, and :meth:`solve` the batch of one.
    """

    def __init__(self, grid: RZGrid) -> None:
        self.grid = grid
        self.operator = GradShafranovOperator(grid)

    @abc.abstractmethod
    def _solve_interior(self, b: np.ndarray) -> np.ndarray:
        """Solve the interior system ``A x = b`` with ``b`` shaped
        ``(nw-2, nh-2)``; returns ``x`` with the same shape."""

    def _solve_interior_batch(self, b_t: np.ndarray) -> np.ndarray:
        """Solve ``B`` stacked interior systems laid out Z index first:
        ``b_t[k, j, i]`` is entry ``(i, j)`` of system ``k``, shape ``(B,
        nh-2, nw-2)``; returns the solutions in the same layout.  The
        default loops :meth:`_solve_interior`; solvers with a genuine
        multi-RHS path (the DST solver, whose modes are this layout, hands
        LAPACK one right-hand-side column per slice) override this."""
        out = np.empty_like(b_t)
        for k in range(b_t.shape[0]):
            out[k] = self._solve_interior(b_t[k].T).T
        return out

    def solve(self, rhs: np.ndarray, psi_boundary: np.ndarray) -> np.ndarray:
        """Solve for the full ``(nw, nh)`` flux: :meth:`solve_batch` on one
        slice.

        Parameters
        ----------
        rhs:
            Full-grid right-hand side ``-mu0 R J_phi``; only the interior
            values are used.
        psi_boundary:
            Full-grid field whose edge ring supplies the Dirichlet data
            (typically the Green-function boundary sums plus coil flux).
        """
        grid = self.grid
        rhs = np.asarray(rhs, dtype=float)
        psi_boundary = np.asarray(psi_boundary, dtype=float)
        if rhs.shape != grid.shape or psi_boundary.shape != grid.shape:
            raise GridError("rhs/boundary shape mismatch with grid")
        return self.solve_batch(rhs[None], psi_boundary[None])[0]

    def solve_batch(
        self,
        rhs: np.ndarray,
        psi_boundary: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve ``B`` independent slices stacked along the leading axis.

        ``rhs`` and ``psi_boundary`` are ``(B, nw, nh)``; returns the
        ``(B, nw, nh)`` fluxes, written into ``out`` when given.  The
        Dirichlet correction and the interior solve are vectorised across
        the batch where the backend supports it; a slice's result does not
        depend on how many share the call.
        """
        grid = self.grid
        rhs = np.asarray(rhs, dtype=float)
        psi_boundary = np.asarray(psi_boundary, dtype=float)
        if rhs.ndim != 3 or rhs.shape[1:] != grid.shape or psi_boundary.shape != rhs.shape:
            raise GridError("batched rhs/boundary shape mismatch with grid")
        nb = rhs.shape[0]
        if out is None:
            out = np.empty((nb,) + grid.shape)
        elif out.shape != (nb,) + grid.shape:
            raise GridError(f"out shape {out.shape} != {(nb,) + grid.shape}")
        vertical, horizontal = field_edge_strips(psi_boundary)
        return self._solve_edges(
            rhs[:, 1:-1, 1:-1].transpose(0, 2, 1).copy(), vertical, horizontal, out
        )

    def _solve_edges(
        self,
        rhs_t: np.ndarray,
        vertical: np.ndarray,
        horizontal: np.ndarray,
        out: np.ndarray,
        external: np.ndarray | None = None,
    ) -> np.ndarray:
        """The solve behind :meth:`solve_batch` and the flux step,
        unchecked: the interior right-hand sides ``rhs_t`` ``(B, nh-2,
        nw-2)``, Z index first, which it overwrites; the Dirichlet data as
        the strip pairs of :func:`~repro.efit.grid.edge_strips`
        (``vertical`` ``(2, nh, B)``, ``horizontal`` ``(2, nw-2, B)``).
        Writes the ``(B, nw, nh)`` fluxes into ``out`` — plus
        ``external``, added as each block is written, when given — and
        returns it.
        """
        self.operator.subtract_dirichlet_edges(rhs_t, vertical, horizontal)
        x_t = self._solve_interior_batch(rhs_t)
        if x_t.shape != rhs_t.shape:
            raise SolverError(f"batched interior solution shape {x_t.shape} != {rhs_t.shape}")
        blocks = (vertical, horizontal, x_t)
        if external is None:
            for target, block in zip(_flux_blocks(out), blocks):
                target[...] = block
        else:
            for target, block, ext in zip(_flux_blocks(out), blocks, _flux_blocks(external)):
                np.add(block, ext, out=target)
        return out


SOLVER_NAMES = ("direct", "dst", "cyclic", "cg")


def make_solver(name: str, grid: RZGrid, **kwargs) -> GSInteriorSolver:
    """Factory keyed on solver name (``direct`` | ``dst`` | ``cyclic`` | ``cg``)."""
    from repro.efit.solvers.cyclic import CyclicReductionSolver
    from repro.efit.solvers.direct import DirectLUSolver
    from repro.efit.solvers.dst import DSTSolver
    from repro.efit.solvers.iterative import ConjugateGradientSolver

    table = {
        "direct": DirectLUSolver,
        "dst": DSTSolver,
        "cyclic": CyclicReductionSolver,
        "cg": ConjugateGradientSolver,
    }
    try:
        cls = table[name]
    except KeyError:
        raise SolverError(f"unknown solver {name!r}; choose from {SOLVER_NAMES}") from None
    return cls(grid, **kwargs)
