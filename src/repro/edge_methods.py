"""The edge-flux operator method names, importable without numpy: the CLI
builds its ``--boundary-method`` choices from them at parser-construction
time, :mod:`repro.efit.operators` builds operators against them."""

__all__ = ["EDGE_METHODS"]

#: Every ``boundary_method`` value the solvers accept. ``dense`` is the
#: default and the ground truth; ``-fp32`` variants store their factors in
#: single precision and refine with a second pass on the split residual.
EDGE_METHODS = ("dense", "toeplitz", "lowrank", "toeplitz-fp32", "lowrank-fp32")
