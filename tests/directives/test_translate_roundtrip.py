"""Translation over every *registered* pflux kernel.

Coverage for :mod:`repro.directives.translate`: Section 5.2 claims Tables
4 and 5 "map precisely", so translating each registered kernel's real
OpenACC annotations must keep their reductions, and the translated census
must agree with the paper's Table 5 — which is why the registry derives
its OpenMP annotations by translation.
"""

import pytest

from repro.core import paper
from repro.core.offload import build_pflux_registry
from repro.directives.openacc import AccDirective
from repro.directives.openmp import OmpDirective
from repro.directives.registry import directive_census
from repro.directives.translate import acc_to_omp, translate_kernel_acc_to_omp
from repro.errors import TranslationError


@pytest.fixture(scope="module")
def registry():
    return build_pflux_registry(65)


class TestRoundTripEveryRegisteredKernel:
    """The OpenACC -> OpenMP leg over every registered kernel (the
    OpenMP -> OpenACC direction was removed with ``omp_to_acc``)."""

    def test_every_acc_directive_translates(self, registry):
        for kernel in registry:
            for d in kernel.acc_directives:
                out = acc_to_omp(d)
                assert out is None or isinstance(out, OmpDirective)

    def test_reduction_kernels_keep_their_reductions(self, registry):
        """The Figure 2/3 boundary kernels' tempsum reductions must never
        be dropped by translation (that is the directive-race bug)."""
        for name in ("boundary_lr", "boundary_tb"):
            kernel = registry.get(name)
            translated = [acc_to_omp(d) for d in kernel.acc_directives]
            declared = set()
            for d in translated:
                declared.update(getattr(d, "reduction", ()) or ())
            assert {"tempsum1", "tempsum2"} <= declared


class TestTranslatedCensusesMatchTables:
    def test_acc_to_omp_census_matches_table5(self, registry):
        """Kernel-level translation of the whole OpenACC annotation set
        yields exactly the paper's Table 5 OpenMP census (the reduction
        is hoisted onto the teams-distribute level, as Table 5 spells it)."""
        translated = [
            d
            for kernel in registry
            for d in translate_kernel_acc_to_omp(kernel.acc_directives)
        ]
        assert directive_census(translated) == paper.TABLE5_OMP_CENSUS

    @pytest.mark.parametrize("vector_length", [32, 64])
    @pytest.mark.parametrize("n", [65, 513])
    def test_translation_writes_figure3_and_the_fused_form(self, n, vector_length):
        """The OpenMP annotations the translation gives every kernel are
        the paper's literal forms: Figure 3's pair on the two O(N^3) nests,
        the fused ``parallel do`` on the four simple regions."""
        figure3 = [
            "!$omp target teams distribute reduction(+:tempsum1,tempsum2)",
            "!$omp parallel do reduction(+:tempsum1,tempsum2) collapse(2)",
        ]
        fused = ["!$omp target teams distribute parallel do collapse(2)"]
        for kernel in build_pflux_registry(n, vector_length=vector_length):
            expected = figure3 if kernel.complexity == "O(N^3)" else fused
            assert [d.to_pragma() for d in kernel.omp_directives] == expected, kernel.name

    def test_kernel_translation_preserves_boundary_reductions(self, registry):
        """Both placements end up declared: teams-distribute and
        parallel-do each carry the tempsum pair after hoisting."""
        for name in ("boundary_lr", "boundary_tb"):
            omp = translate_kernel_acc_to_omp(registry.get(name).acc_directives)
            assert all(d.reduction == ("tempsum1", "tempsum2") for d in omp)


class TestTranslationErrors:
    def test_unknown_directive_types_are_rejected(self):
        class FakeAcc(AccDirective):
            pass

        with pytest.raises(TranslationError):
            acc_to_omp(FakeAcc())
