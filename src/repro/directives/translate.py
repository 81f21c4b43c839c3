"""OpenACC -> OpenMP directive translation.

Section 5.2 of the paper stresses that its Tables 4 and 5 "map precisely"
so readers can translate between the models.  This module encodes that
mapping:

=====================================  =============================================
OpenACC                                OpenMP
=====================================  =============================================
``!$acc kernel``                       ``!$omp target teams distribute parallel do
                                       collapse(2)``
``!$acc parallel loop gang worker``    ``!$omp target teams distribute reduction``
``!$acc loop vector reduction``        ``!$omp parallel do reduction collapse(2)``
=====================================  =============================================

Clause parameters that have no analog — ``num_workers`` /
``vector_length`` / ``async`` — are dropped, as the paper notes these are
accelerator-specific tuning knobs.

The two models place ``reduction`` clauses differently: the paper's
OpenACC declares it only on the inner ``!$acc loop`` while its OpenMP
declares it on *both* the ``teams distribute`` and the ``parallel do``
level (Tables 4/5).  Translating one directive at a time cannot know the
other level's clauses, so :func:`translate_kernel_acc_to_omp` translates
a kernel's whole annotation set and hoists the reduction the way Table 5
does — :func:`~repro.core.offload.build_pflux_registry` derives every
kernel's OpenMP annotation with it, so the census reproduces Tables 4
and 5 from one source.
"""

from __future__ import annotations

from repro.directives.openacc import (
    AccDirective,
    AccEndKernels,
    AccKernels,
    AccLoop,
    AccParallelLoop,
    AccWait,
)
from repro.directives.openmp import OmpDirective, OmpParallelDo, OmpTargetTeamsDistribute
from repro.errors import TranslationError

__all__ = ["acc_to_omp", "translate_kernel_acc_to_omp"]


def acc_to_omp(directive: AccDirective) -> OmpDirective | None:
    """Translate one OpenACC directive to its OpenMP-target counterpart.

    ``!$acc end kernel`` has no OpenMP analog (the fused ``parallel do``
    form needs no end marker) and maps to ``None``.
    """
    if isinstance(directive, AccKernels):
        # async is an accelerator-side scheduling knob with no analog in
        # the paper's OpenMP subset; dropped like the tuning clauses.
        return OmpTargetTeamsDistribute(parallel_do=True, collapse=2)
    if isinstance(directive, (AccEndKernels, AccWait)):
        return None
    if isinstance(directive, AccParallelLoop):
        return OmpTargetTeamsDistribute(
            parallel_do=False, reduction=directive.reduction
        )
    if isinstance(directive, AccLoop):
        return OmpParallelDo(reduction=directive.reduction, collapse=2)
    raise TranslationError(f"no OpenMP mapping for {type(directive).__name__}")


def translate_kernel_acc_to_omp(
    acc_directives: tuple[AccDirective, ...],
) -> tuple[OmpDirective, ...]:
    """Translate a kernel's whole OpenACC annotation set to OpenMP.

    Unlike the per-directive :func:`acc_to_omp`, this sees the full set
    and reproduces the paper's clause placement: the reduction declared
    on the inner ``!$acc loop`` is *also* hoisted onto the translated
    ``teams distribute`` level, exactly as Table 5 writes it.
    """
    inner_reductions: tuple[str, ...] = ()
    for d in acc_directives:
        if isinstance(d, AccLoop) and d.reduction:
            inner_reductions = d.reduction
            break
    out: list[OmpDirective] = []
    for d in acc_directives:
        omp = acc_to_omp(d)
        if omp is None:
            continue
        if (
            isinstance(d, AccParallelLoop)
            and isinstance(omp, OmpTargetTeamsDistribute)
            and not omp.reduction
            and inner_reductions
        ):
            omp = OmpTargetTeamsDistribute(
                parallel_do=omp.parallel_do, reduction=inner_reductions
            )
        out.append(omp)
    return tuple(out)
