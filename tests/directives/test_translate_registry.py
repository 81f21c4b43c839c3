"""Tests of ACC->OMP translation and the kernel registry census."""

import pytest

from repro.core import paper
from repro.core.offload import PFLUX_SOURCE_LINES, build_pflux_registry
from repro.directives.openacc import (
    AccEndKernels,
    AccKernels,
    AccLoop,
    AccParallelLoop,
)
from repro.directives.openmp import OmpParallelDo, OmpTargetTeamsDistribute
from repro.directives.registry import AnnotatedKernel, KernelRegistry, directive_census
from repro.directives.translate import acc_to_omp
from repro.directives.ir import Loop, LoopNest
from repro.errors import DirectiveError


class TestTranslation:
    def test_kernels_region_maps_to_fused_form(self):
        out = acc_to_omp(AccKernels())
        assert isinstance(out, OmpTargetTeamsDistribute)
        assert out.parallel_do and out.collapse == 2

    def test_end_kernel_has_no_counterpart(self):
        assert acc_to_omp(AccEndKernels()) is None

    def test_parallel_loop_maps_to_teams_distribute(self):
        out = acc_to_omp(AccParallelLoop(reduction=("t1", "t2")))
        assert isinstance(out, OmpTargetTeamsDistribute)
        assert not out.parallel_do
        assert out.reduction == ("t1", "t2")

    def test_loop_vector_maps_to_parallel_do(self):
        out = acc_to_omp(AccLoop(reduction=("t1",)))
        assert isinstance(out, OmpParallelDo)
        assert out.collapse == 2 and out.reduction == ("t1",)

    def test_tuning_clauses_dropped(self):
        """num_workers / vector_length have no OpenMP analog."""
        out = acc_to_omp(AccParallelLoop(num_workers=4, vector_length=32))
        assert isinstance(out, OmpTargetTeamsDistribute)


class TestRegistry:
    def test_pflux_registry_kernel_names(self):
        reg = build_pflux_registry(65)
        names = {k.name for k in reg}
        assert names == {
            "boundary_lr",
            "boundary_tb",
            "rhs_build",
            "solver_fast",
            "small_loops",
            "assemble",
        }

    def test_duplicate_registration_rejected(self):
        reg = build_pflux_registry(17)
        with pytest.raises(DirectiveError):
            reg.register(reg.get("assemble"))

    def test_get_unknown(self):
        with pytest.raises(DirectiveError):
            build_pflux_registry(17).get("nope")

    def test_census_matches_table4(self):
        reg = build_pflux_registry(65)
        census = {p: c for p, c, _ in reg.census_table("openacc")}
        assert census == paper.TABLE4_ACC_CENSUS

    def test_census_matches_table5(self):
        reg = build_pflux_registry(65)
        census = {p: c for p, c, _ in reg.census_table("openmp")}
        assert census == paper.TABLE5_OMP_CENSUS

    def test_omp_line_count_is_the_papers_eight(self):
        reg = build_pflux_registry(65)
        assert reg.directive_line_count("openmp") == 8
        # "roughly 2% of the routine"
        assert 8 / PFLUX_SOURCE_LINES == pytest.approx(0.02)

    def test_census_percentages_match_paper(self):
        reg = build_pflux_registry(65)
        for pragma, count, pct in reg.census_table("openacc"):
            assert pct == pytest.approx(100.0 * count / PFLUX_SOURCE_LINES)

    def test_unknown_model_rejected(self):
        with pytest.raises(DirectiveError):
            build_pflux_registry(17).census_table("sycl")

    def test_census_strips_clause_arguments(self):
        census = directive_census(
            [AccParallelLoop(num_workers=4, vector_length=32), AccParallelLoop(num_workers=8)]
        )
        assert census == {"!$acc parallel loop gang": 2} or census == {
            "!$acc parallel loop gang worker": 2
        }

    def test_registry_requires_positive_lines(self):
        with pytest.raises(DirectiveError):
            KernelRegistry("x", 0)

    def test_kernel_payload_optional(self):
        """A kernel is its nest and its two annotations; it launches once
        unless told otherwise."""
        nest = LoopNest("k", (Loop("i", 4),), 1.0, arrays=())
        k = AnnotatedKernel(nest=nest, acc_directives=(), omp_directives=())
        assert k.launches == 1


class TestTranslationProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    names = st.lists(
        st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
        min_size=0,
        max_size=3,
        unique=True,
    ).map(tuple)

    @given(reduction=names)
    @settings(max_examples=50, deadline=None)
    def test_reductions_survive_translation(self, reduction):
        """acc -> omp preserves reduction semantics for both paper
        directive shapes."""
        for start in (
            AccParallelLoop(gang=True, worker=True, reduction=reduction),
            AccLoop(vector=True, reduction=reduction),
        ):
            assert acc_to_omp(start).reduction == reduction
