"""Tests of OpenACC/OpenMP pragma objects and the exact strings they render."""

import pytest

from repro.directives.openacc import (
    AccEndKernels,
    AccKernels,
    AccLoop,
    AccParallelLoop,
    AccWait,
)
from repro.directives.openmp import OmpParallelDo, OmpTargetData, OmpTargetTeamsDistribute
from repro.errors import DirectiveParseError

TEMPSUMS = ("tempsum1", "tempsum2")

#: Every OpenACC directive class and clause combination, with the literal
#: pragma it renders.
ACC_LITERALS = [
    (AccKernels(), "!$acc kernel"),
    (AccKernels(async_queue=2), "!$acc kernel async(2)"),
    (AccEndKernels(), "!$acc end kernel"),
    (AccParallelLoop(gang=False), "!$acc parallel loop"),
    (AccParallelLoop(), "!$acc parallel loop gang"),
    (AccParallelLoop(gang=False, worker=True), "!$acc parallel loop worker"),
    (AccParallelLoop(worker=True), "!$acc parallel loop gang worker"),
    (
        AccParallelLoop(worker=True, num_workers=4, vector_length=64),
        "!$acc parallel loop gang worker num_workers(4) vector_length(64)",
    ),
    (AccParallelLoop(num_workers=8), "!$acc parallel loop gang num_workers(8)"),
    (AccParallelLoop(vector_length=128), "!$acc parallel loop gang vector_length(128)"),
    (
        AccParallelLoop(worker=True, reduction=TEMPSUMS, async_queue=1),
        "!$acc parallel loop gang worker reduction(+:tempsum1,tempsum2) async(1)",
    ),
    (AccLoop(), "!$acc loop vector"),
    (AccLoop(vector=False, reduction=("s",)), "!$acc loop reduction(+:s)"),
    (AccLoop(reduction=TEMPSUMS), "!$acc loop vector reduction(+:tempsum1,tempsum2)"),
    (AccWait(), "!$acc wait"),
    (AccWait(queue=3), "!$acc wait(3)"),
]

#: Every OpenMP directive class and clause combination, with the literal
#: pragma it renders.
OMP_LITERALS = [
    (OmpTargetTeamsDistribute(), "!$omp target teams distribute"),
    (
        OmpTargetTeamsDistribute(reduction=TEMPSUMS),
        "!$omp target teams distribute reduction(+:tempsum1,tempsum2)",
    ),
    (
        OmpTargetTeamsDistribute(parallel_do=True, collapse=2),
        "!$omp target teams distribute parallel do collapse(2)",
    ),
    (
        OmpTargetTeamsDistribute(parallel_do=True, collapse=3, reduction=("a", "b")),
        "!$omp target teams distribute parallel do reduction(+:a,b) collapse(3)",
    ),
    (OmpParallelDo(), "!$omp parallel do"),
    (
        OmpParallelDo(reduction=TEMPSUMS, collapse=2),
        "!$omp parallel do reduction(+:tempsum1,tempsum2) collapse(2)",
    ),
    (OmpTargetData(map_to=("gridpc",)), "!$omp target data map(to:gridpc)"),
    (OmpTargetData(map_from=("psi",)), "!$omp target data map(from:psi)"),
    (
        OmpTargetData(map_to=("gridpc", "pcurr"), map_from=("psi",)),
        "!$omp target data map(to:gridpc,pcurr) map(from:psi)",
    ),
]


class TestAccRendering:
    def test_paper_figure2_pragmas(self):
        """The exact directives of the paper's Figure 2."""
        outer = AccParallelLoop(gang=True, worker=True, num_workers=4, vector_length=32)
        assert (
            outer.to_pragma()
            == "!$acc parallel loop gang worker num_workers(4) vector_length(32)"
        )
        inner = AccLoop(vector=True, reduction=("tempsum1", "tempsum2"))
        assert inner.to_pragma() == "!$acc loop vector reduction(+:tempsum1,tempsum2)"

    def test_kernel_pair(self):
        assert AccKernels().to_pragma() == "!$acc kernel"
        assert AccEndKernels().to_pragma() == "!$acc end kernel"

    def test_invalid_clause_values(self):
        with pytest.raises(DirectiveParseError):
            AccParallelLoop(num_workers=0)
        with pytest.raises(DirectiveParseError):
            AccParallelLoop(vector_length=-1)


class TestAccLiterals:
    @pytest.mark.parametrize(
        "directive, pragma", ACC_LITERALS, ids=[pragma for _, pragma in ACC_LITERALS]
    )
    def test_renders(self, directive, pragma):
        assert directive.to_pragma() == pragma

    def test_negative_queues_rejected(self):
        with pytest.raises(DirectiveParseError):
            AccKernels(async_queue=-1)
        with pytest.raises(DirectiveParseError):
            AccWait(queue=-1)


class TestOmpRendering:
    def test_paper_figure3_pragmas(self):
        outer = OmpTargetTeamsDistribute(reduction=("tempsum1", "tempsum2"))
        assert (
            outer.to_pragma()
            == "!$omp target teams distribute reduction(+:tempsum1,tempsum2)"
        )
        inner = OmpParallelDo(reduction=("tempsum1", "tempsum2"), collapse=2)
        assert (
            inner.to_pragma()
            == "!$omp parallel do reduction(+:tempsum1,tempsum2) collapse(2)"
        )

    def test_fused_form(self):
        d = OmpTargetTeamsDistribute(parallel_do=True, collapse=2)
        assert d.to_pragma() == "!$omp target teams distribute parallel do collapse(2)"

    def test_target_data_maps(self):
        d = OmpTargetData(map_to=("gridpc", "pcurr"), map_from=("psi",))
        assert d.to_pragma() == "!$omp target data map(to:gridpc,pcurr) map(from:psi)"

    def test_empty_data_region_rejected(self):
        with pytest.raises(DirectiveParseError):
            OmpTargetData()

    def test_collapse_validation(self):
        with pytest.raises(DirectiveParseError):
            OmpParallelDo(collapse=1)


class TestOmpLiterals:
    @pytest.mark.parametrize(
        "directive, pragma", OMP_LITERALS, ids=[pragma for _, pragma in OMP_LITERALS]
    )
    def test_renders(self, directive, pragma):
        assert directive.to_pragma() == pragma
