"""The ``current_`` subroutine: distribute ``J_phi`` over the grid.

Given the normalised flux and the in-plasma mask from ``steps_`` and the
profile bases, ``current_`` produces

the *basis current matrix* ``J``: column ``k`` holds the node currents
[A] generated by unit coefficient ``k`` — ``R b_k(psiN) dA`` for the
``p'`` terms and ``b_k(psiN) dA / (mu0 R)`` for the ``FF'`` terms, zero
outside the plasma.  For a fitted coefficient vector the node currents
``pcurr = J @ c`` feed ``pflux_`` and the response assembly.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.efit.basis import PolynomialBasis
from repro.efit.grid import RZGrid
from repro.errors import FittingError
from repro.utils.constants import MU0

__all__ = [
    "BasisSlabs",
    "basis_current_matrix",
    "basis_current_slabs",
]


class BasisSlabs(NamedTuple):
    """The basis current matrices of a batch of plasmas on the grid rows
    any of them occupies (:func:`basis_current_slabs`), coefficient-major."""

    #: Every mask lies within grid rows ``[i0, i1)``.
    i0: int
    i1: int
    #: Flat node range ``[lo, hi)`` from the first node of the masks'
    #: union to the last: the columns of ``matrix`` outside it, offset by
    #: ``i0 * nh``, are zero for every plasma.
    lo: int
    hi: int
    #: ``(B, n_pp + n_ffp, (i1 - i0) * nh)``; ``matrix[b].T`` holds rows
    #: ``i0 * nh : i1 * nh`` of plasma ``b``'s :func:`basis_current_matrix`.
    matrix: np.ndarray


def basis_current_slabs(
    grid: RZGrid,
    psin: Sequence[np.ndarray],
    masks: Sequence[np.ndarray],
    pp_basis: PolynomialBasis,
    ffp_basis: PolynomialBasis,
) -> BasisSlabs:
    """The basis current matrices of ``B`` plasmas, side by side, on the
    union of the grid rows their masks occupy.

    The flat index is ``i * nh + j``, so ``matrix[b, k]`` pairs with
    columns ``i0 * nh : i1 * nh`` of a grid response.  The bases are
    evaluated on every node of those rows and multiplied by radial
    weights that carry each plasma's mask: a node inside it is its value
    times ``1.0``, every other node ``0`` — no gather, no scatter.
    """
    if len(psin) != len(masks) or any(
        np.shape(p) != grid.shape or np.shape(m) != grid.shape for p, m in zip(psin, masks)
    ):
        raise FittingError("psin/mask shape mismatch with grid")
    n_plasmas = len(masks)
    n_coeffs = pp_basis.n_terms + ffp_basis.n_terms
    union = np.logical_or.reduce(masks, axis=0) if n_plasmas else np.zeros(grid.shape, bool)
    # The union's first and last node, flat: the rows and the node range.
    union = union.reshape(grid.size)
    lo = int(union.argmax())
    if not union[lo]:
        return BasisSlabs(0, 0, 0, 0, np.zeros((n_plasmas, n_coeffs, 0)))
    hi = grid.size - int(union[::-1].argmax())
    i0, i1 = lo // grid.nh, (hi - 1) // grid.nh + 1
    x = np.stack([p[i0:i1] for p in psin], dtype=float)
    np.clip(x, 0.0, 1.0, out=x)
    held = np.stack([m[i0:i1] for m in masks], dtype=float)
    r = grid.rr[i0:i1]
    da = grid.cell_area
    n_pp = pp_basis.n_terms
    matrix = np.empty((n_plasmas, n_coeffs, (i1 - i0) * grid.nh))
    columns = matrix.reshape(n_plasmas, n_coeffs, i1 - i0, grid.nh)
    _write_basis(columns[:, :n_pp], pp_basis, x, held, r * da)
    _write_basis(columns[:, n_pp:], ffp_basis, x, held, da / (MU0 * r))
    return BasisSlabs(i0, i1, lo, hi, matrix)


def _write_basis(
    out: np.ndarray, basis: PolynomialBasis, x: np.ndarray, held: np.ndarray, radial: np.ndarray
) -> None:
    """``out[:, k] = b_k(x) * held * radial`` for every term ``k`` of
    ``basis``.

    Column 0 (``b_0 = 1``) is the masked radial weight itself and the
    other columns are multiples of it; every power is the arithmetic of
    :meth:`PolynomialBasis.design_matrix`, so a node inside the mask holds
    exactly the value an evaluation on the mask's nodes alone gives.
    """
    weight = np.multiply(held, radial, out=out[:, 0])
    edge = x**basis.n_terms if basis.vanish_at_edge else None
    for k in range(1, basis.n_terms):
        value = x if k == 1 else x**k
        if edge is not None:
            value = value - edge
        np.multiply(value, weight, out=out[:, k])
    if edge is not None:
        np.multiply(1.0 - edge, weight, out=weight)


def basis_current_matrix(
    grid: RZGrid,
    psin: np.ndarray,
    mask: np.ndarray,
    pp_basis: PolynomialBasis,
    ffp_basis: PolynomialBasis,
) -> np.ndarray:
    """Node currents per unit coefficient, shape ``(nw*nh, n_pp + n_ffp)``.

    The flattening follows the grid's Fortran convention so these columns
    feed the ``pflux_`` kernels directly.
    """
    slabs = basis_current_slabs(grid, [psin], [mask], pp_basis, ffp_basis)
    cols = np.zeros((grid.size, slabs.matrix.shape[1]))
    cols[slabs.i0 * grid.nh : slabs.i1 * grid.nh] = slabs.matrix[0].T
    return cols
