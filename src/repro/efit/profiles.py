"""Fitted source profiles ``p'(psiN)`` and ``FF'(psiN)`` and derived physics.

A :class:`ProfileCoefficients` bundles the two coefficient vectors produced
by the least-squares fit with their shared bases, and evaluates the derived
pressure and poloidal-current profiles the gEQDSK output records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.basis import PolynomialBasis
from repro.errors import FittingError

__all__ = ["ProfileCoefficients"]


@dataclass(frozen=True)
class ProfileCoefficients:
    """Coefficients of the fitted ``p'`` and ``FF'`` profiles.

    Attributes
    ----------
    pp_basis, ffp_basis:
        Bases for the two profiles (need not match).
    alpha:
        ``p'`` coefficients [Pa / (Wb/rad)].
    beta:
        ``FF'`` coefficients [T^2 m^2 / (Wb/rad)].
    """

    pp_basis: PolynomialBasis
    ffp_basis: PolynomialBasis
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != (self.pp_basis.n_terms,):
            raise FittingError("alpha length does not match p' basis")
        if beta.shape != (self.ffp_basis.n_terms,):
            raise FittingError("beta length does not match FF' basis")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def from_vector(
        cls, pp_basis: PolynomialBasis, ffp_basis: PolynomialBasis, c: np.ndarray
    ) -> "ProfileCoefficients":
        """Split a stacked least-squares solution ``[alpha; beta]``."""
        c = np.asarray(c, dtype=float)
        n_pp = pp_basis.n_terms
        n_total = n_pp + ffp_basis.n_terms
        if c.shape != (n_total,):
            raise FittingError(f"coefficient vector length {c.shape} != {n_total}")
        return cls(pp_basis, ffp_basis, c[:n_pp], c[n_pp:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    # -- profile evaluation ------------------------------------------------------
    def pprime(self, x: np.ndarray) -> np.ndarray:
        """``dp/dpsi`` at normalised flux ``x``."""
        return self.pp_basis.evaluate(self.alpha, x)

    def ffprime(self, x: np.ndarray) -> np.ndarray:
        """``F dF/dpsi`` at normalised flux ``x``."""
        return self.ffp_basis.evaluate(self.beta, x)

    def pressure(self, x: np.ndarray, psi_axis: float, psi_boundary: float) -> np.ndarray:
        """Pressure with ``p(1) = 0``: ``p(x) = -dpsi * int_x^1 p'(t) dt``
        where ``dpsi = psi_boundary - psi_axis`` maps psiN to psi."""
        dpsi = psi_boundary - psi_axis
        return -dpsi * self.pp_basis.antiderivative(self.alpha, x)

    def f_squared(self, x: np.ndarray, psi_axis: float, psi_boundary: float, f_boundary: float) -> np.ndarray:
        """``F^2(x)`` with the vacuum value at the boundary:
        ``F^2(x) = F_b^2 - 2 dpsi int_x^1 FF'(t) dt``."""
        dpsi = psi_boundary - psi_axis
        return f_boundary**2 - 2.0 * dpsi * self.ffp_basis.antiderivative(self.beta, x)
