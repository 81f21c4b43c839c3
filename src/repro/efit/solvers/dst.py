"""Fast Grad-Shafranov solver: sine transform in Z, tridiagonals in R.

The ``Delta*`` operator separates on the uniform mesh: the Z part is the
constant-coefficient second difference, diagonalised by the type-I discrete
sine transform (Dirichlet-Dirichlet), while the R part is a tridiagonal
operator per mode.  This is the same O(N^2 log N) structure as the
Buneman/cyclic-reduction solver EFIT's ``pflux_`` uses, and it is the
implementation offloaded in :mod:`repro.core.offload`.

Algorithm for the interior unknowns (shape ``(ni, nj)``):

1. DST-I each interior row along Z: ``b_hat[m, i]``.
2. For each mode ``m`` with eigenvalue
   ``lam_m = -4 sin^2(pi (m+1) / (2 (nh-1))) / dz^2`` solve the tridiagonal
   system ``T_m x = b_hat[m]``, ``am_i x[i-1] + (d_i + lam_m) x[i] +
   ap_i x[i+1] = b_hat[m, i]``.  ``T_m`` is not symmetric, but the
   diagonal scaling ``D`` with ``D[i+1] / D[i] = sqrt(ap_i / am_{i+1})``
   (0.58-1.0 on the machine's grids) makes ``S_m = D T_m D^-1``
   symmetric, with off-diagonals ``sqrt(ap_i am_{i+1})``, and
   ``-S_m`` is positive definite.  So the mode solve is ``-S_m y = -D b``,
   ``x = D^-1 y``.  The first sub-diagonal and last super-diagonal entry of
   each system are zero, so the ``nj`` systems laid end to end are *one*
   symmetric tridiagonal system of ``ni * nj`` unknowns: LAPACK factors it
   once at construction (``dpttrf``, ``L D L^T``) and every solve is one
   ``dpttrs`` call, with one right-hand-side column per slice of a batch.
   The right-hand sides arrive laid out Z index first (``(B, nj, ni)``),
   so the transformed stack is already in that mode-major order; the
   right-hand side's scaling is one pass, the solution's one in place.
3. Inverse DST-I back to physical space, again down axis 1.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dst, idst
from scipy.linalg.lapack import dpttrf, dpttrs

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
        scale = np.concatenate(([1.0], np.cumprod(np.sqrt(ap[:-1] / am[1:]))))
        #: Row factors of the right-hand side (``-D``) and of the solution
        #: (``D^-1``) of the symmetrised systems, shape (ni,).
        self._rhs_scale = -scale
        self._solution_scale = 1.0 / scale
        # Mode-major unknowns of -S: entry m * ni + i is row i of mode m.
        # The zeros that end each mode's off-diagonal decouple the blocks.
        diag = -(self.lam[:, None] + base_diag[None, :]).reshape(ni * nj)
        offdiag = np.tile(np.concatenate((-np.sqrt(ap[:-1] * am[1:]), [0.0])), nj)[:-1]
        d, e, info = dpttrf(diag, offdiag)
        # -S is diagonally dominant with a positive diagonal, so every
        # pivot of L D L^T is positive; one that is not means this is not
        # the system described above.
        if info != 0 or not np.all(d > 0.0):
            raise SolverError(
                f"symmetric tridiagonal factorisation failed in DST solver "
                f"(info={info}, min pivot {float(np.min(d)):.3e})"
            )
        #: ``dpttrf``'s ``(d, e)``, as ``dpttrs`` takes them.
        self._factors = (d, e)
        self._ni = ni
        self._nj = nj

    def _solve_interior(self, b: np.ndarray) -> np.ndarray:
        return self._solve_interior_batch(b.T[None])[0].T

    def _solve_interior_batch(self, b_t: np.ndarray) -> np.ndarray:
        """The whole batch in one transform pair around one ``dpttrs``.
        The stack is Z index first, so the transforms run down axis 1 and
        their output is already mode-major."""
        # Forward DST-I along Z; ortho norm makes idst the inverse.
        b_hat = dst(b_t, type=1, axis=1, norm="ortho")
        return idst(self._solve_modes(b_hat), type=1, axis=1, norm="ortho")

    def _solve_modes(self, b_hat: np.ndarray) -> np.ndarray:
        """Solve every mode's tridiagonal system ``T_m x = b_hat[m]`` for
        ``B`` stacked transformed right-hand sides, mode-major: shape
        ``(B, nj, ni)``, ``b_hat[k, m]`` being mode ``m`` of slice ``k``.

        One ``dpttrs`` call with a column per slice.  LAPACK sweeps the
        columns one after another with the same scalar arithmetic, so a
        slice's solution does not depend on how many share the call.

        A method of its own because it is the kernel the tests hold against
        the Thomas sweep (and swap for it).
        """
        nb = b_hat.shape[0]
        ni, nj = self._ni, self._nj
        # Scaled by -D, the stack's flat transpose is the Fortran-ordered
        # (n, nrhs) block dpttrs takes.
        modes = np.multiply(b_hat, self._rhs_scale)
        y, info = dpttrs(*self._factors, modes.reshape(nb, nj * ni).T, overwrite_b=1)
        if info != 0:
            raise SolverError(f"dpttrs failed in DST solver (info={info})")
        x = y.T.reshape(nb, nj, ni)
        x *= self._solution_scale
        return x
