"""Symmetrised conjugate-gradient interior solver (iterative reference).

The conservative ``Delta*`` stencil is self-adjoint under the ``1/R``
weight: scaling row ``i`` of the interior matrix by ``1/R_i`` produces a
symmetric negative-definite system.  We solve ``-(D A) x = -(D b)`` with
plain CG.  This solver exists as an independent cross-check on the direct
and DST solvers and as the fallback for meshes whose LU factorisation
would not fit in memory.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from repro.efit.grid import RZGrid
from repro.efit.solvers.base import GSInteriorSolver
from repro.errors import ConvergenceError

__all__ = ["ConjugateGradientSolver"]


class ConjugateGradientSolver(GSInteriorSolver):
    """CG on the 1/R-symmetrised interior system, to a relative residual of
    1e-12 within ``20 (nw + nh - 4)`` iterations."""

    def __init__(self, grid: RZGrid) -> None:
        super().__init__(grid)
        ni, nj = grid.nw - 2, grid.nh - 2
        self.maxiter = 20 * (ni + nj)
        r_interior = np.repeat(grid.r[1:-1], nj)
        weight = sp.diags(1.0 / r_interior, format="csc")
        # Negate so the system is positive definite for CG.
        self._mat = (-(weight @ self.operator.interior_matrix)).tocsc()
        self._weight_diag = 1.0 / r_interior

    def _solve_interior(self, b: np.ndarray) -> np.ndarray:
        ni, nj = self.grid.nw - 2, self.grid.nh - 2
        rhs = -(self._weight_diag * b.reshape(ni * nj))
        x, info = cg(self._mat, rhs, rtol=1e-12, maxiter=self.maxiter)
        if info != 0:
            raise ConvergenceError(f"CG failed to converge (info={info})")
        return x.reshape(ni, nj)
