"""Common interface for the interior Grad-Shafranov solvers."""

from __future__ import annotations

import abc

import numpy as np

from repro.efit.grid import RZGrid
from repro.efit.operators import GradShafranovOperator
from repro.errors import GridError, SolverError

__all__ = ["GSInteriorSolver", "make_solver", "SOLVER_NAMES"]


class GSInteriorSolver(abc.ABC):
    """Solve ``Delta* psi = rhs`` inside the box with Dirichlet edge data.

    Implementations precompute whatever factorisation they need at
    construction (per-grid cost, amortised over the Picard iterations) and
    solve one interior system (:meth:`_solve_interior`) or a stack of them
    (:meth:`_solve_interior_batch`); :meth:`solve_batch` is the one driver,
    and :meth:`solve` its batch of one.
    """

    def __init__(self, grid: RZGrid) -> None:
        self.grid = grid
        self.operator = GradShafranovOperator(grid)

    @abc.abstractmethod
    def _solve_interior(self, b: np.ndarray) -> np.ndarray:
        """Solve the interior system ``A x = b`` with ``b`` shaped
        ``(nw-2, nh-2)``; returns ``x`` with the same shape."""

    def _solve_interior_batch(self, b: np.ndarray) -> np.ndarray:
        """Solve ``B`` stacked interior systems, ``b`` shaped
        ``(B, nw-2, nh-2)``.  The default loops :meth:`_solve_interior`;
        solvers with a genuine multi-RHS path (the DST solver hands LAPACK
        one right-hand-side column per slice) override this."""
        out = np.empty_like(b)
        for k in range(b.shape[0]):
            out[k] = self._solve_interior(b[k])
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
        ``(B, nw, nh)`` fluxes.  The Dirichlet correction and the interior
        solve are vectorised across the batch where the backend supports
        it; a slice's result does not depend on how many share the call.
        ``out`` lets the flux step reuse a workspace buffer.
        """
        grid = self.grid
        rhs = np.asarray(rhs, dtype=float)
        psi_boundary = np.asarray(psi_boundary, dtype=float)
        if rhs.ndim != 3 or rhs.shape[1:] != grid.shape or psi_boundary.shape != rhs.shape:
            raise GridError("batched rhs/boundary shape mismatch with grid")
        nb = rhs.shape[0]
        ni, nj = grid.nw - 2, grid.nh - 2
        corr = self.operator.dirichlet_rhs_correction_batch(psi_boundary)
        b = np.subtract(rhs[:, 1:-1, 1:-1], corr, out=corr)
        x = self._solve_interior_batch(b)
        if x.shape != (nb, ni, nj):
            raise SolverError(f"batched interior solution shape {x.shape} != {(nb, ni, nj)}")
        if out is None:
            out = np.empty((nb,) + grid.shape)
        elif out.shape != (nb,) + grid.shape:
            raise GridError(f"out shape {out.shape} != {(nb,) + grid.shape}")
        out[:, 0, :] = psi_boundary[:, 0, :]
        out[:, -1, :] = psi_boundary[:, -1, :]
        out[:, :, 0] = psi_boundary[:, :, 0]
        out[:, :, -1] = psi_boundary[:, :, -1]
        out[:, 1:-1, 1:-1] = x
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
