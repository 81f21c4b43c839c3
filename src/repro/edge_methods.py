"""The edge-flux operator method names, importable without numpy: the CLI
builds its ``--boundary-method`` choices from them at parser-construction
time, :mod:`repro.efit.operators` builds operators against them."""

__all__ = ["EDGE_METHODS", "DEFAULT_EDGE_METHOD"]

#: Every edge-operator method ``build_edge_operator`` builds and
#: ``--boundary-method`` names. ``dense`` (first) is the O(N^3) matrix and
#: the ground truth; the others are exact-arithmetic structured forms of
#: the same operator (docs/MODEL.md section 7).
EDGE_METHODS = ("dense", "toeplitz", "lowrank")

#: The method of the operator a solver, an engine, a fleet or a CLI
#: command applies when handed none (``cached_edge_operator``'s default):
#: built in 0.00 s from the Green table at every grid and 0.1-1.1 MB,
#: where ``dense`` costs 6-60 s and 68-541 MB at 129^2-257^2
#: (``results/edge_operator_methods.txt``).
DEFAULT_EDGE_METHOD = "toeplitz"
