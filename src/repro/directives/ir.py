"""Loop-nest intermediate representation.

A :class:`LoopNest` captures what the cost models need to know about a
Fortran ``do``-loop nest without carrying its source: the iteration space
(outer "distributable" loops vs inner loops), the arithmetic per iteration,
and the arrays it touches with their unique footprints.  From these the IR
derives the quantities the roofline and traffic models consume:

* ``total_flops``          — arithmetic work,
* ``streaming_bytes``      — traffic if every access misses (no reuse),
* ``footprint_bytes``      — traffic if every element is fetched exactly
  once (perfect reuse),
* ``outer_iterations`` / ``inner_iterations`` — exposed parallelism under
  a given directive mapping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import prod

from repro.errors import DirectiveError

__all__ = ["AccessMode", "Loop", "ArrayRef", "LoopNest"]


class AccessMode(enum.Enum):
    """How a kernel touches an array (drives the read/write counter split)."""

    READ = "read"
    WRITE = "write"
    READWRITE = "readwrite"


@dataclass(frozen=True)
class Loop:
    """One loop of a nest: an index name and its trip count."""

    index: str
    extent: int

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise DirectiveError(f"loop {self.index} has non-positive extent {self.extent}")


@dataclass(frozen=True)
class ArrayRef:
    """One array referenced by the nest.

    Parameters
    ----------
    elements:
        Unique elements touched over the whole nest execution.
    accesses_per_iteration:
        Reads+writes of this array issued per innermost iteration.
    """

    name: str
    elements: int
    mode: AccessMode = AccessMode.READ
    accesses_per_iteration: float = 1.0
    bytes_per_element: int = 8

    def __post_init__(self) -> None:
        if self.elements < 0:
            raise DirectiveError(f"array {self.name}: negative element count")
        if self.accesses_per_iteration < 0:
            raise DirectiveError(f"array {self.name}: negative access count")
        if self.bytes_per_element < 1:
            raise DirectiveError(f"array {self.name}: non-positive element width")

    @property
    def footprint_bytes(self) -> int:
        return self.elements * self.bytes_per_element


@dataclass(frozen=True)
class LoopNest:
    """A directive-annotatable loop nest.

    ``n_outer`` marks how many leading loops form the "distribute" level
    (gang/teams); the rest are inner (worker/vector/thread) loops.
    """

    name: str
    loops: tuple[Loop, ...]
    flops_per_iteration: float
    arrays: tuple[ArrayRef, ...] = field(default_factory=tuple)
    n_outer: int = 1
    #: Reduction variables carried across the inner loops (paper kernels
    #: reduce two scalars, tempsum1/tempsum2).
    reductions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.loops:
            raise DirectiveError("loop nest has no loops", kernel=self.name)
        if not (1 <= self.n_outer <= len(self.loops)):
            raise DirectiveError(
                f"n_outer={self.n_outer} outside 1..{len(self.loops)}",
                kernel=self.name,
            )
        if self.flops_per_iteration < 0:
            raise DirectiveError("negative flops per iteration", kernel=self.name)
        names = [a.name for a in self.arrays]
        if len(set(names)) != len(names):
            raise DirectiveError("duplicate array names in nest", kernel=self.name)

    # -- iteration space -----------------------------------------------------------
    @property
    def total_iterations(self) -> int:
        return prod(loop.extent for loop in self.loops)

    @property
    def outer_iterations(self) -> int:
        return prod(loop.extent for loop in self.loops[: self.n_outer])

    @property
    def inner_iterations(self) -> int:
        return prod(loop.extent for loop in self.loops[self.n_outer :]) if len(self.loops) > self.n_outer else 1

    # -- work ------------------------------------------------------------------------
    @property
    def total_flops(self) -> float:
        return self.flops_per_iteration * self.total_iterations

    @property
    def streaming_bytes(self) -> float:
        """Traffic with zero reuse: every access goes to memory."""
        per_iter = sum(a.accesses_per_iteration * a.bytes_per_element for a in self.arrays)
        return per_iter * self.total_iterations

    @property
    def footprint_bytes(self) -> float:
        """Traffic with perfect reuse: each unique element moves once."""
        return float(sum(a.footprint_bytes for a in self.arrays))

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per *footprint* byte — the roofline upper-bound AI."""
        fb = self.footprint_bytes
        if fb == 0:
            return float("inf")
        return self.total_flops / fb

    def array(self, name: str) -> ArrayRef:
        for a in self.arrays:
            if a.name == name:
                return a
        raise DirectiveError(f"nest has no array {name!r}", kernel=self.name)
