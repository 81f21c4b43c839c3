"""Directive-based offload DSL: OpenACC and OpenMP-target pragmas as objects.

The paper's entire methodology is "annotate the existing loops with
directives and let the compiler offload them".  This package models that
workflow: loop nests are described by a small IR
(:class:`~repro.directives.ir.LoopNest`), pragmas are first-class objects
that render the exact strings of the paper's Figures 2 and 3, and
:mod:`~repro.directives.translate` performs the OpenACC -> OpenMP mapping
of Tables 4 and 5.
"""

from repro.directives.ir import Loop, ArrayRef, LoopNest, AccessMode
from repro.directives.openacc import (
    AccDirective,
    AccKernels,
    AccEndKernels,
    AccParallelLoop,
    AccLoop,
)
from repro.directives.openmp import (
    OmpDirective,
    OmpTargetTeamsDistribute,
    OmpParallelDo,
    OmpTargetData,
)
from repro.directives.translate import acc_to_omp, translate_kernel_acc_to_omp
from repro.directives.registry import KernelRegistry, AnnotatedKernel, directive_census

__all__ = [
    "Loop",
    "ArrayRef",
    "LoopNest",
    "AccessMode",
    "AccDirective",
    "AccKernels",
    "AccEndKernels",
    "AccParallelLoop",
    "AccLoop",
    "OmpDirective",
    "OmpTargetTeamsDistribute",
    "OmpParallelDo",
    "OmpTargetData",
    "acc_to_omp",
    "translate_kernel_acc_to_omp",
    "KernelRegistry",
    "AnnotatedKernel",
    "directive_census",
]
