"""Structured operators on the computational grid.

Two families live here:

* :mod:`repro.efit.operators.gs` — the finite-difference Grad-Shafranov
  ``Delta*`` stencil (matrix-free apply, assembled interior matrix,
  Dirichlet corrections).
* :mod:`repro.efit.operators.edge` — representations of the dense
  edge-flux operator of :func:`repro.efit.pflux.edge_flux_operator`:
  the exact dense matrix, a block-Toeplitz/FFT apply and a
  truncated-SVD low-rank apply, all behind the common
  :class:`EdgeOperator` protocol: a solver applies the instance it is
  handed (``pflux_impl=`` / ``edge_operator=``), or
  :func:`cached_edge_operator` of its grid.
"""

from repro.efit.operators.edge import (
    EDGE_METHODS,
    DenseEdgeOperator,
    EdgeOperator,
    LowRankEdgeOperator,
    ToeplitzFFTEdgeOperator,
    build_edge_operator,
    cached_edge_operator,
    drop_edge_operator,
    edge_operator_from_arrays,
    seed_edge_operator,
    validate_edge_structure,
)
from repro.efit.operators.gs import GradShafranovOperator

__all__ = [
    "GradShafranovOperator",
    "EdgeOperator",
    "EDGE_METHODS",
    "DenseEdgeOperator",
    "ToeplitzFFTEdgeOperator",
    "LowRankEdgeOperator",
    "build_edge_operator",
    "cached_edge_operator",
    "seed_edge_operator",
    "drop_edge_operator",
    "edge_operator_from_arrays",
    "validate_edge_structure",
]
