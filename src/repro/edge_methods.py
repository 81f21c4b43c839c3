"""The edge-flux operator method names, importable without numpy: the CLI
builds its ``--boundary-method`` choices from them at parser-construction
time, :mod:`repro.efit.operators` builds operators against them."""

__all__ = ["EDGE_METHODS"]

#: Every ``boundary_method`` value the solvers accept. ``dense`` is the
#: default and the ground truth; the others are exact-arithmetic structured
#: forms of the same operator (docs/MODEL.md section 7).
EDGE_METHODS = ("dense", "toeplitz", "lowrank")
