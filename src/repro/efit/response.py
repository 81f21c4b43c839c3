"""The ``green_`` subroutine: response-matrix assembly and the linear fit.

Every Picard iteration re-assembles the measurement response to the
*current basis* of this iterate (the basis current matrix depends on
``psiN``, which moved), subtracts the known PF-coil contribution from the
data, and solves a weighted linear least-squares problem for the profile
coefficients.  This module owns both steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FittingError

__all__ = ["ResponseAssembly", "solve_weighted_lsq", "chi_squared"]


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


def _row_support(a: np.ndarray) -> tuple[int, int]:
    """The rows ``[lo, hi)`` of the matrix ``a`` that hold every non-zero
    entry of it: one comparison pass, no reduction per row."""
    nonzero = a.reshape(a.size) != 0.0
    if not nonzero.any():
        return 0, 0
    first = int(nonzero.argmax())
    last = a.size - 1 - int(nonzero[::-1].argmax())
    return first // a.shape[1], last // a.shape[1] + 1


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
    if measured.shape != (n_meas,) or uncertainties.shape != (n_meas,):
        raise FittingError("measurement vector length mismatch")
    if np.any(uncertainties <= 0.0):
        raise FittingError("uncertainties must be positive")
    # The contraction over grid nodes: response of every diagnostic to
    # every basis function.  The plasma fills a contiguous run of the flat
    # node index and every row of ``basis_currents`` outside it is zero, so
    # the product is taken over that run — whether the caller passes the
    # whole grid or, as the fit does, the block of grid rows the mask is in.
    lo, hi = _row_support(basis_currents)
    matrix = grid_response[:, lo:hi] @ basis_currents[lo:hi]
    data = measured - coil_response @ np.asarray(coil_currents, dtype=float)
    weights = 1.0 / np.asarray(uncertainties, dtype=float)
    return ResponseAssembly(matrix=matrix, data=data, weights=weights)


def solve_weighted_lsq(assembly: ResponseAssembly, *, ridge: float = 0.0) -> np.ndarray:
    """Solve ``min_c || w (A c - d) ||^2 + ridge ||c||^2``.

    A tiny Tikhonov term (scaled by the largest singular value) keeps the
    system well-posed when bases are nearly collinear early in the Picard
    loop, exactly the regularisation role EFIT's fitting weights play.
    """
    a = assembly.matrix * assembly.weights[:, None]
    d = assembly.data * assembly.weights
    if ridge < 0.0:
        raise FittingError("ridge must be non-negative")
    # Column equilibration: the p' and FF' columns differ in sensitivity by
    # ~5 orders of magnitude (SI units), so the ridge must act on *scaled*
    # coefficients or it silently crushes the weak columns.
    col_norms = np.linalg.norm(a, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    a_scaled = a / col_norms
    if ridge > 0.0:
        n = a.shape[1]
        a_scaled = np.vstack([a_scaled, np.sqrt(ridge) * np.eye(n)])
        d = np.concatenate([d, np.zeros(n)])
    coeffs, *_ = np.linalg.lstsq(a_scaled, d, rcond=None)
    return coeffs / col_norms


def chi_squared(assembly: ResponseAssembly, coeffs: np.ndarray) -> float:
    """Weighted residual ``chi^2`` of a coefficient vector."""
    resid = (assembly.matrix @ coeffs - assembly.data) * assembly.weights
    return float(resid @ resid)
