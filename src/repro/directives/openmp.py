"""OpenMP-target directive objects.

Renders the forms of Table 5 and Figure 3 plus the explicit data-region
directive the Intel port needs (Section 6.2), which the linter's
data-environment rules look for::

    !$omp target teams distribute reduction(+:tempsum1,tempsum2)
    !$omp target teams distribute parallel do collapse(2)
    !$omp parallel do reduction(+:tempsum1,tempsum2) collapse(2)
    !$omp target data map(to:gridpc,pcurr) map(from:psi)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DirectiveParseError

__all__ = [
    "OmpDirective",
    "OmpTargetTeamsDistribute",
    "OmpParallelDo",
    "OmpTargetData",
]

_SENTINEL = "!$omp"


@dataclass(frozen=True)
class OmpDirective:
    def to_pragma(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class OmpTargetTeamsDistribute(OmpDirective):
    """``!$omp target teams distribute [parallel do] [collapse(n)] [reduction]``.

    With ``parallel_do=True`` this is the fused form used on the simple
    O(N^2) loops; without, it distributes the outer loop across teams and
    an inner :class:`OmpParallelDo` handles the thread level (the paper's
    Figure 3 split).
    """

    parallel_do: bool = False
    collapse: int | None = None
    reduction: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.collapse is not None and self.collapse < 2:
            raise DirectiveParseError("collapse requires >= 2 loops")

    def to_pragma(self) -> str:
        parts = [f"{_SENTINEL} target teams distribute"]
        if self.parallel_do:
            parts.append("parallel do")
        if self.reduction:
            parts.append(f"reduction(+:{','.join(self.reduction)})")
        if self.collapse is not None:
            parts.append(f"collapse({self.collapse})")
        return " ".join(parts)


@dataclass(frozen=True)
class OmpParallelDo(OmpDirective):
    """``!$omp parallel do [reduction] [collapse(n)]`` — inner thread level."""

    collapse: int | None = None
    reduction: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.collapse is not None and self.collapse < 2:
            raise DirectiveParseError("collapse requires >= 2 loops")

    def to_pragma(self) -> str:
        parts = [f"{_SENTINEL} parallel do"]
        if self.reduction:
            parts.append(f"reduction(+:{','.join(self.reduction)})")
        if self.collapse is not None:
            parts.append(f"collapse({self.collapse})")
        return " ".join(parts)


@dataclass(frozen=True)
class OmpTargetData(OmpDirective):
    """``!$omp target data map(to:...) map(from:...)`` — the explicit data
    region required for performance on Intel PVC (no unified memory)."""

    map_to: tuple[str, ...] = ()
    map_from: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.map_to and not self.map_from:
            raise DirectiveParseError("target data region with no maps")

    def to_pragma(self) -> str:
        parts = [f"{_SENTINEL} target data"]
        if self.map_to:
            parts.append(f"map(to:{','.join(self.map_to)})")
        if self.map_from:
            parts.append(f"map(from:{','.join(self.map_from)})")
        return " ".join(parts)
