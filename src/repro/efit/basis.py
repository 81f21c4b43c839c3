"""Polynomial basis functions for the ``p'`` and ``FF'`` source profiles.

EFIT parameterises the two free flux functions of the Grad-Shafranov source
as low-order polynomials in the normalised flux ``x = psiN`` (Lao et al.,
Nucl. Fusion 25 (1985) 1611):

.. math::

    p'(x)  = \\sum_k \\alpha_k b_k(x), \\qquad
    FF'(x) = \\sum_k \\beta_k b_k(x),
    \\qquad b_k(x) = x^k \\;\\;(\\text{or } x^k - x^{n} \\text{ edge-constrained})

The fitting step (``current_`` + least squares) solves for the coefficient
vectors; the basis itself is shared between the forward model, the response
matrices and the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FittingError

__all__ = ["PolynomialBasis"]


@dataclass(frozen=True)
class PolynomialBasis:
    """A polynomial basis ``{b_0 ... b_{n-1}}`` on ``x in [0, 1]``.

    Parameters
    ----------
    n_terms:
        Number of basis functions (EFIT typically uses 2-4).
    vanish_at_edge:
        When True every basis function is ``x^k - x^n_terms`` so the fitted
        profile is identically zero at the plasma boundary (``x = 1``) —
        the standard EFIT edge constraint for ``p'``.
    """

    n_terms: int
    vanish_at_edge: bool = False

    def __post_init__(self) -> None:
        if self.n_terms < 1:
            raise FittingError("basis needs at least one term")

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at ``x``: shape ``x.shape + (n_terms,)``."""
        x = np.asarray(x, dtype=float)
        powers = np.stack([x**k for k in range(self.n_terms)], axis=-1)
        if self.vanish_at_edge:
            powers = powers - (x**self.n_terms)[..., None]
        return powers

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Profile value ``sum_k c_k b_k(x)``."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_terms,):
            raise FittingError(
                f"coefficient vector has {coeffs.shape}, basis has {self.n_terms} terms"
            )
        return self.design_matrix(x) @ coeffs

    def antiderivative(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``int_x^1 profile(t) dt`` — used to build pressure from ``p'``.

        Evaluated analytically term by term so no quadrature error enters
        the pressure profile.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_terms,):
            raise FittingError("coefficient/basis size mismatch")
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for k, c in enumerate(coeffs):
            # int_x^1 t^k dt = (1 - x^{k+1}) / (k+1)
            out = out + c * (1.0 - x ** (k + 1)) / (k + 1)
        if self.vanish_at_edge:
            n = self.n_terms
            total = float(np.sum(coeffs))
            out = out - total * (1.0 - x ** (n + 1)) / (n + 1)
        return out
