"""The ``green_`` subroutine: response-matrix assembly and the linear fit.

Every Picard iteration re-assembles the measurement response to the
*current basis* of this iterate (the basis current matrix depends on
``psiN``, which moved) and solves a weighted linear least-squares problem
for the profile coefficients; the data side of that system — the
measurements less the known PF-coil contribution, and the weights — does
not move and is built once per slice.  This module owns all three.

The least squares and its residual are stacked kernels
(:func:`solve_lsq_stack`, :func:`weighted_residuals`): a lock-step batch
solves every slice's system in one call, and the one-system call
:func:`solve_weighted_lsq` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dtrtrs

from repro.efit.grid import row_support
from repro.errors import FittingError

__all__ = [
    "ResponseAssembly",
    "assemble_response",
    "basis_response",
    "measurement_system",
    "solve_lsq_stack",
    "solve_weighted_lsq",
    "weighted_residuals",
]


@dataclass(frozen=True)
class ResponseAssembly:
    """One iteration's linear system ``A c ~ d`` with weights ``w``."""

    matrix: np.ndarray  # (n_meas, n_coeffs)
    data: np.ndarray  # (n_meas,)
    weights: np.ndarray  # (n_meas,)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise FittingError("response matrix must be 2-D")
        n_meas = self.matrix.shape[0]
        if self.data.shape != (n_meas,) or self.weights.shape != (n_meas,):
            raise FittingError("data/weights length mismatch with response matrix")
        if np.any(self.weights < 0.0):
            raise FittingError("negative measurement weights")

    def weighted(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w A, w d)``: the system the least squares solves."""
        return self.matrix * self.weights[:, None], self.data * self.weights


def measurement_system(
    coil_response: np.ndarray,
    coil_currents: np.ndarray,
    measured: np.ndarray,
    uncertainties: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The half of a slice's least-squares system that no Picard iterate
    changes: ``(data, weights)``, the measurements less the known PF-coil
    contribution and ``1 / sigma``.  The fit builds and validates it once
    per slice (:meth:`~repro.efit.fitting.EfitSolver.start_fit`).

    ``coil_response`` is ``(n_meas, n_coils)``, the response to unit coil
    currents; ``measured`` and ``uncertainties`` the measurement vector
    and its 1-sigma uncertainties.
    """
    n_meas = coil_response.shape[0]
    if measured.shape != (n_meas,) or uncertainties.shape != (n_meas,):
        raise FittingError("measurement vector length mismatch")
    if np.any(uncertainties <= 0.0):
        raise FittingError("uncertainties must be positive")
    data = measured - coil_response @ np.asarray(coil_currents, dtype=float)
    weights = 1.0 / np.asarray(uncertainties, dtype=float)
    return data, weights


def basis_response(grid_response: np.ndarray, basis_currents: np.ndarray) -> np.ndarray:
    """Response of every diagnostic to every basis function: the
    contraction over grid nodes, one GEMM.

    ``basis_currents`` holds the node currents per unit coefficient of
    one slice, ``(n_nodes, n_coeffs)``, or of a batch of slices
    coefficient-major, ``(B, n_coeffs, n_nodes)`` (a block of
    :class:`~repro.efit.current.BasisSlabs`); ``grid_response`` the
    matching ``(n_meas, n_nodes)`` columns of the diagnostic response to
    unit node currents.  Returns ``(n_meas, n_coeffs)`` or ``(B, n_meas,
    n_coeffs)``.
    """
    if basis_currents.ndim == 2:
        return grid_response @ basis_currents
    n_slices, n_coeffs, n_nodes = basis_currents.shape
    product = grid_response @ basis_currents.reshape(n_slices * n_coeffs, n_nodes).T
    return product.reshape(-1, n_slices, n_coeffs).transpose(1, 0, 2)


def assemble_response(
    grid_response: np.ndarray,
    basis_currents: np.ndarray,
    coil_response: np.ndarray,
    coil_currents: np.ndarray,
    measured: np.ndarray,
    uncertainties: np.ndarray,
) -> ResponseAssembly:
    """Build the least-squares system for one Picard iterate.

    Parameters
    ----------
    grid_response:
        ``(n_meas, nw*nh)`` diagnostic response to unit node currents
        (precomputed once per grid in ``green_`` setup).
    basis_currents:
        ``(nw*nh, n_coeffs)`` node currents per unit coefficient from
        ``current_`` — the per-iteration part.  Zero outside the plasma:
        only the columns of ``grid_response`` between its first and last
        non-zero row are read.
    coil_response:
        ``(n_meas, n_coils)`` response to unit coil currents.
    coil_currents:
        Known coil currents [A].
    measured, uncertainties:
        The measurement vector and its 1-sigma uncertainties.
    """
    n_meas, n_grid = grid_response.shape
    if basis_currents.shape[0] != n_grid:
        raise FittingError("grid response / basis current size mismatch")
    data, weights = measurement_system(coil_response, coil_currents, measured, uncertainties)
    # The plasma fills a contiguous run of the flat node index and every
    # row of ``basis_currents`` outside it is zero, so the product is taken
    # over that run — whether the caller passes the whole grid or the
    # block of grid rows the mask is in.
    lo, hi = row_support(basis_currents)
    matrix = basis_response(grid_response[:, lo:hi], basis_currents[lo:hi])
    return ResponseAssembly(matrix=matrix, data=data, weights=weights)


def solve_lsq_stack(matrices: np.ndarray, data: np.ndarray, *, ridge: float) -> np.ndarray:
    """Solve ``min_c || a_b c - d_b ||^2 + ridge || diag(|a_b|) c ||^2`` for
    every system ``b`` of a stack at once.

    ``matrices`` is the ``(B, m, n)`` stack of weighted matrices ``w A``
    and ``data`` the ``(B, m)`` weighted data ``w d``; returns the ``(B,
    n)`` coefficients.  Column equilibration: the p' and FF' columns
    differ in sensitivity by ~5 orders of magnitude (SI units), so the
    ridge acts on *scaled* coefficients or it silently crushes the weak
    columns.  The scaled system, the constant ``sqrt(ridge) I`` rows
    below it and the data beside it form one ``(m + n, n + 1)`` block per
    system, built for the whole stack in Fortran order, and each block
    takes one LAPACK thin QR (``dgeqrf``, in place) and one triangular
    solve (``dtrtrs``): the triangle's last column is ``Q^T d``, so no
    ``Q`` is formed.  An all-zero column keeps a unit diagonal in place of
    the ridge and gets a zero coefficient, so ``ridge = 0`` stays solvable
    for it.

    Every system is factorised alone, so a row of the result does not
    depend on the other systems of the stack.
    """
    if ridge < 0.0:
        raise FittingError("ridge must be non-negative")
    n_sys, m, n = matrices.shape
    # np.linalg.norm's arithmetic, without its wrapper.
    norms = np.sqrt(np.add.reduce(matrices * matrices, axis=1))
    empty = norms == 0.0
    norms[empty] = 1.0
    # blocks[b].T is system b's (m + n, n + 1) block, Fortran-ordered.
    blocks = np.zeros((n_sys, n + 1, m + n))
    np.divide(matrices.transpose(0, 2, 1), norms[:, :, None], out=blocks[:, :n, :m])
    blocks[:, n, :m] = data
    ridge_rows = blocks.reshape(n_sys, (n + 1) * (m + n))[:, m : n * (m + n) : m + n + 1]
    ridge_rows[...] = math.sqrt(ridge)
    ridge_rows[empty] = 1.0
    scaled = np.empty((n_sys, n))
    for block, out in zip(blocks, scaled):
        triangle, _, _, _ = dgeqrf(block.T, overwrite_a=1)
        out[:], info = dtrtrs(triangle[:n, :n], triangle[:n, n])
        if info > 0:
            raise FittingError("rank-deficient least-squares system: use ridge > 0")
    return scaled / norms


def weighted_residuals(matrices: np.ndarray, data: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``d_b - a_b c_b`` for a stack of weighted systems (the arguments of
    :func:`solve_lsq_stack` and its result): one batched product, shape
    ``(B, m)``.  Its row norms squared are the systems' chi^2."""
    return data - np.matmul(matrices, coeffs[..., None])[..., 0]


def solve_weighted_lsq(assembly: ResponseAssembly, *, ridge: float = 0.0) -> np.ndarray:
    """Solve ``min_c || w (A c - d) ||^2 + ridge ||c||^2``: the one-system
    call of :func:`solve_lsq_stack`.

    A tiny Tikhonov term on the equilibrated coefficients keeps the
    system well-posed when bases are nearly collinear early in the Picard
    loop, exactly the regularisation role EFIT's fitting weights play.
    """
    matrix, data = assembly.weighted()
    return solve_lsq_stack(matrix[None], data[None], ridge=ridge)[0]
