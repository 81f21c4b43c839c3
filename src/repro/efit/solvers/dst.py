"""Fast Grad-Shafranov solver: sine transform in Z, tridiagonals in R.

The ``Delta*`` operator separates on the uniform mesh: the Z part is the
constant-coefficient second difference, diagonalised by the type-I discrete
sine transform (Dirichlet-Dirichlet), while the R part is a tridiagonal
operator per mode.  This is the same O(N^2 log N) structure as the
Buneman/cyclic-reduction solver EFIT's ``pflux_`` uses, and it is the
implementation offloaded in :mod:`repro.core.offload`.

Algorithm for the interior unknowns (shape ``(ni, nj)``):

1. DST-I each interior row along Z: ``b_hat[i, m]``.
2. For each mode ``m`` with eigenvalue
   ``lam_m = -4 sin^2(pi (m+1) / (2 (nh-1))) / dz^2`` solve the tridiagonal
   system ``am_i x[i-1] + (d_i + lam_m) x[i] + ap_i x[i+1] = b_hat[i, m]``.
   The first sub-diagonal and last super-diagonal entry of each system are
   zero, so the ``nj`` systems laid end to end are *one* tridiagonal
   system of ``ni * nj`` unknowns: LAPACK factors it once at construction
   (``dgttrf``) and every solve is one ``dgttrs`` call, with one
   right-hand-side column per slice of a batch.
3. Inverse DST-I back to physical space.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dst, idst
from scipy.linalg.lapack import dgttrf, dgttrs

from repro.efit.grid import RZGrid
from repro.efit.solvers.base import GSInteriorSolver
from repro.errors import SolverError

__all__ = ["DSTSolver"]


class DSTSolver(GSInteriorSolver):
    """Sine-transform fast solver (EFIT's production solver class)."""

    def __init__(self, grid: RZGrid) -> None:
        super().__init__(grid)
        ni = grid.nw - 2
        nj = grid.nh - 2
        dr2 = grid.dr**2
        dz2 = grid.dz**2
        modes = np.arange(1, nj + 1)
        #: Z-direction eigenvalues of the second difference, shape (nj,).
        self.lam = -4.0 / dz2 * np.sin(np.pi * modes / (2.0 * (grid.nh - 1))) ** 2
        ap = self.operator.a_plus / dr2
        am = self.operator.a_minus / dr2
        base_diag = -(self.operator.a_plus + self.operator.a_minus) / dr2
        # Mode-major unknowns: entry m * ni + i is row i of mode m.  The
        # zeros that end each mode's off-diagonals decouple the blocks.
        lower = np.tile(np.concatenate(([0.0], am[1:])), nj)[1:]
        upper = np.tile(np.concatenate((ap[:-1], [0.0])), nj)[:-1]
        diag = (self.lam[:, None] + base_diag[None, :]).reshape(ni * nj)
        if np.any(np.abs(diag) < 1e-300):
            raise SolverError("singular mode diagonal in DST solver")
        *factors, info = dgttrf(lower, diag, upper)
        # The blocks are diagonally dominant, so the elimination never
        # pivots; a pivot would mean this is not the system described above.
        if info != 0 or np.any(factors[-1] != np.arange(1, ni * nj + 1)):
            raise SolverError(f"tridiagonal factorisation failed in DST solver (info={info})")
        #: ``dgttrf``'s ``(dl, d, du, du2, ipiv)``, as ``dgttrs`` takes them.
        self._factors = tuple(factors)
        self._ni = ni
        self._nj = nj

    def _solve_interior(self, b: np.ndarray) -> np.ndarray:
        return self._solve_interior_batch(b[None])[0]

    def _solve_interior_batch(self, b: np.ndarray) -> np.ndarray:
        """The whole batch in one transform pair around one ``dgttrs``."""
        # Forward DST-I along Z; ortho norm makes idst the inverse.
        b_hat = dst(b, type=1, axis=2, norm="ortho")
        return idst(self._solve_modes(b_hat), type=1, axis=2, norm="ortho")

    def _solve_modes(self, b_hat: np.ndarray) -> np.ndarray:
        """Solve every mode's tridiagonal system for ``B`` stacked
        transformed right-hand sides, shape ``(B, ni, nj)``.

        One ``dgttrs`` call with a column per slice.  LAPACK sweeps the
        columns one after another with the same scalar arithmetic, so a
        slice's solution does not depend on how many share the call.

        A method of its own because it is the kernel the tests hold against
        the Thomas sweep (and swap for it).
        """
        nb = b_hat.shape[0]
        ni, nj = self._ni, self._nj
        # (B, ni, nj) -> mode-major (B, nj * ni), whose transpose is the
        # Fortran-ordered (n, nrhs) block dgttrs takes.
        modes = np.ascontiguousarray(b_hat.transpose(0, 2, 1)).reshape(nb, nj * ni)
        x, info = dgttrs(*self._factors, modes.T, overwrite_b=1)
        if info != 0:
            raise SolverError(f"dgttrs failed in DST solver (info={info})")
        return x.T.reshape(nb, nj, ni).transpose(0, 2, 1)
