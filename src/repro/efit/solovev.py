"""Analytic Solov'ev equilibria for verification.

With constant ``p'`` and ``FF'`` the Grad-Shafranov equation becomes linear
with polynomial right-hand side, ``Delta* psi = A R^2 + C``, and admits
closed-form solutions (Solov'ev 1968; Cerfon & Freidberg 2010).  We use the
particular solution ``A R^4/8 + C Z^2/2`` plus the polynomial null-space of
``Delta*``::

    {1, R^2, R^4 - 4 R^2 Z^2, Z, Z R^2}

These equilibria exercise every numerical piece — the FD operator, the
interior solvers, the boundary search and the current integrator — against
exact answers, which is how the test suite validates the substrate the
performance study runs on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.efit.grid import RZGrid
from repro.errors import SolverError
from repro.utils.constants import MU0

__all__ = ["SolovevEquilibrium"]

_N_HOMOGENEOUS = 5


def _homogeneous_terms(r: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """The five polynomial null-space elements of Delta* we use."""
    one = np.ones_like(np.broadcast_arrays(r, z)[0], dtype=float)
    return [
        one,
        r**2 * one,
        (r**4 - 4.0 * r**2 * z**2) * one,
        z * one,
        z * r**2 * one,
    ]


@dataclass(frozen=True)
class SolovevEquilibrium:
    """``psi = A R^4/8 + C Z^2/2 + sum_k c_k h_k(R, Z)``.

    ``Delta* psi = A R^2 + C`` exactly, corresponding to the uniform source
    profiles ``mu0 p' = -A`` and ``FF' = -C``.
    """

    a_coef: float
    c_coef: float
    homogeneous: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.homogeneous, dtype=float)
        if h.shape != (_N_HOMOGENEOUS,):
            raise SolverError(f"need {_N_HOMOGENEOUS} homogeneous coefficients")
        object.__setattr__(self, "homogeneous", h)

    # -- fields -----------------------------------------------------------------
    def psi(self, r: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Poloidal flux per radian at (r, z)."""
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        val = self.a_coef * r**4 / 8.0 + self.c_coef * z**2 / 2.0
        for ck, hk in zip(self.homogeneous, _homogeneous_terms(r, z)):
            val = val + ck * hk
        return val

    def delta_star(self, r: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Exact ``Delta* psi`` — linear in ``R^2`` by construction."""
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        return self.a_coef * r**2 + self.c_coef + 0.0 * z

    def j_phi(self, r: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Toroidal current density ``-Delta* psi / (mu0 R)`` [A/m^2]."""
        r = np.asarray(r, dtype=float)
        return -self.delta_star(r, z) / (MU0 * r)

    @property
    def pprime(self) -> float:
        """The (constant) ``dp/dpsi`` this equilibrium corresponds to."""
        return -self.a_coef / MU0

    @property
    def ffprime(self) -> float:
        """The (constant) ``F F'`` this equilibrium corresponds to."""
        return -self.c_coef

    # -- grid sampling -------------------------------------------------------------
    def psi_grid(self, grid: RZGrid) -> np.ndarray:
        return self.psi(grid.rr, grid.zz)

    # -- shaped factory --------------------------------------------------------------
    @classmethod
    def shaped(
        cls,
        minor_radius: float = 0.6,
        elongation: float = 1.6,
        triangularity: float = 0.4,
    ) -> "SolovevEquilibrium":
        """An up-down-symmetric D-shaped equilibrium about ``R0 = 1.69`` m
        with ``A = -0.2`` and ``C = -0.1``.

        Coefficients of ``{1, R^2, R^4 - 4 R^2 Z^2}`` are chosen so that
        ``psi = 0`` on the outer equator ``(r0 + a, 0)``, the inner equator
        ``(r0 - a, 0)`` and the top ``(r0 - delta a, kappa a)``; the
        ``psi = 0`` contour is then a closed, D-shaped boundary.
        """
        r0, a_coef, c_coef = 1.69, -0.2, -0.1
        if minor_radius <= 0 or r0 - minor_radius <= 0:
            raise SolverError("invalid minor radius for shaped equilibrium")
        points = [
            (r0 + minor_radius, 0.0),
            (r0 - minor_radius, 0.0),
            (r0 - triangularity * minor_radius, elongation * minor_radius),
        ]
        rows = []
        rhs = []
        for rp, zp in points:
            h = _homogeneous_terms(np.asarray(rp), np.asarray(zp))
            rows.append([float(h[0]), float(h[1]), float(h[2])])
            rhs.append(-(a_coef * rp**4 / 8.0 + c_coef * zp**2 / 2.0))
        try:
            c123 = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate shapes
            raise SolverError(f"degenerate Solov'ev shaping points: {exc}") from exc
        homogeneous = np.array([c123[0], c123[1], c123[2], 0.0, 0.0])
        return cls(a_coef=a_coef, c_coef=c_coef, homogeneous=homogeneous)
