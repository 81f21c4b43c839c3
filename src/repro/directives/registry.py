"""Kernel registry and directive census (Tables 4 and 5).

An :class:`AnnotatedKernel` ties together a loop nest, its OpenACC and
OpenMP annotations, and the numeric payload that actually computes it.
:func:`directive_census` counts pragma lines per directive kind — exactly
how the paper reports its "8 lines, ~2 % of the routine" productivity
claim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.directives.ir import LoopNest
from repro.directives.openacc import AccDirective
from repro.directives.openmp import OmpDirective
from repro.errors import DirectiveError

__all__ = ["AnnotatedKernel", "KernelRegistry", "directive_census"]


@dataclass(frozen=True)
class AnnotatedKernel:
    """One offloadable loop nest with both annotations."""

    nest: LoopNest
    acc_directives: tuple[AccDirective, ...]
    omp_directives: tuple[OmpDirective, ...]
    #: Coarse complexity class used by reports ("O(N^3)", "O(N^2)", ...).
    complexity: str = "O(N^2)"
    #: Device kernels this region launches (a fused ``kernels`` region
    #: covering several loops emits several launches).
    launches: int = 1

    @property
    def name(self) -> str:
        return self.nest.name


class KernelRegistry:
    """Ordered collection of the kernels forming one offloaded subroutine."""

    def __init__(self, subroutine: str, total_source_lines: int) -> None:
        if total_source_lines < 1:
            raise DirectiveError(
                "subroutine must have at least one source line", subroutine=subroutine
            )
        self.subroutine = subroutine
        #: Source-line count of the routine being annotated; the paper's
        #: pflux_ is ~400 lines (8 directive lines = 2 %).
        self.total_source_lines = total_source_lines
        self._kernels: dict[str, AnnotatedKernel] = {}

    def register(self, kernel: AnnotatedKernel) -> AnnotatedKernel:
        if kernel.name in self._kernels:
            raise DirectiveError(
                "kernel already registered",
                kernel=kernel.name,
                subroutine=self.subroutine,
            )
        self._kernels[kernel.name] = kernel
        return kernel

    def __iter__(self):
        return iter(self._kernels.values())

    def get(self, name: str) -> AnnotatedKernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise DirectiveError(
                "no kernel with this name is registered",
                kernel=name,
                subroutine=self.subroutine,
            ) from None

    # -- census -----------------------------------------------------------------
    def acc_census(self) -> dict[str, int]:
        return directive_census(d for k in self for d in k.acc_directives)

    def omp_census(self) -> dict[str, int]:
        return directive_census(d for k in self for d in k.omp_directives)

    def census_table(self, model: str) -> list[tuple[str, int, float]]:
        """Rows of (pragma form, count, % of routine lines) — Table 4/5."""
        if model == "openacc":
            census = self.acc_census()
        elif model == "openmp":
            census = self.omp_census()
        else:
            raise DirectiveError(
                f"unknown model {model!r}", subroutine=self.subroutine
            )
        return [
            (pragma, count, 100.0 * count / self.total_source_lines)
            for pragma, count in sorted(census.items())
        ]

    def directive_line_count(self, model: str) -> int:
        return sum(count for _, count, _ in self.census_table(model))


def directive_census(directives) -> dict[str, int]:
    """Count directives by their *rendered form without clause values* —
    the granularity of the paper's Tables 4 and 5."""
    counter: Counter[str] = Counter()
    for d in directives:
        counter[_canonical_form(d)] += 1
    return dict(counter)


def _canonical_form(directive) -> str:
    """The pragma with numeric arguments and variable lists stripped."""
    import re

    text = directive.to_pragma()
    text = re.sub(r"\(\+?:?[^)]*\)", "", text)  # drop clause arguments
    # Tuning clauses (accelerator-specific knobs) are not part of the
    # paper's census rows: "!$acc parallel loop gang worker".
    text = re.sub(r"\b(num_workers|vector_length)\b", "", text)
    text = re.sub(r"\s+", " ", text).strip()
    return text
