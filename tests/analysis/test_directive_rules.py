"""Tests of the directive checkers, one per rule id.

The fixtures build deliberately-misannotated kernels (a shared write
without a reduction clause, an uncovered device array, an ``async``
region with no ``wait``) and assert the rules catch each with the right
location and fix hint.  The paper-reproduction tests run the *real*
``pflux_`` registry: the OpenACC lowering must be flagged for excess
traffic on the AMD site model while the OpenMP lowering stays clean.
"""

import pytest

from repro.analysis.directive_rules import (
    RULE_ASYNC,
    RULE_IMPLICIT,
    RULE_RACE,
    RULE_REGION,
    RULE_TRAFFIC,
    DirectiveAnalysisContext,
    check_async_wait,
    check_data_environment,
    check_races,
    check_traffic,
    run_directive_rules,
)
from repro.analysis.findings import Severity
from repro.core.offload import build_pflux_registry, pflux_device_arrays
from repro.directives.ir import AccessMode, ArrayRef, Loop, LoopNest
from repro.directives.openacc import AccLoop, AccParallelLoop, AccWait
from repro.directives.openmp import OmpParallelDo, OmpTargetTeamsDistribute
from repro.directives.registry import AnnotatedKernel, KernelRegistry
from repro.errors import AnalysisError
from repro.machines.site import ALL_SITES, frontier, perlmutter, sunspot

REDUCTIONS = ("tempsum1", "tempsum2")


def _boundary_nest(name="boundary_bad", *, reductions=REDUCTIONS):
    """A Figure 2-shaped O(N^3) nest: edge loop over a full-grid sum."""
    n = 33
    return LoopNest(
        name,
        (Loop("j", n), Loop("ii", n), Loop("jj", n)),
        flops_per_iteration=4.0,
        arrays=(
            ArrayRef("gridpc", n * n * n, AccessMode.READ, 2.0),
            ArrayRef("pcurr", n * n, AccessMode.READ, 2.0),
            ArrayRef("psi", 2 * n, AccessMode.WRITE, 2.0 / (n * n)),
        ),
        n_outer=1,
        reductions=reductions,
    )


def _registry(*kernels):
    reg = KernelRegistry("pflux_fixture", 400)
    for k in kernels:
        reg.register(k)
    return reg


@pytest.fixture(scope="module")
def real_registry():
    return build_pflux_registry(65)


class TestRaceRule:
    def test_misannotated_fixture_kernel_is_caught(self):
        """The intentionally-misannotated kernel: a reduction-carrying
        nest whose directives declare no reduction clause."""
        bad = AnnotatedKernel(
            nest=_boundary_nest(),
            acc_directives=(AccParallelLoop(gang=True, worker=True), AccLoop(vector=True)),
            omp_directives=(OmpTargetTeamsDistribute(), OmpParallelDo(collapse=2)),
        )
        findings = check_races(_registry(bad))
        assert {f.rule_id for f in findings} == {RULE_RACE}
        assert len(findings) == 2  # one per programming model
        for f in findings:
            assert f.severity is Severity.ERROR
            assert f.location.ident == "pflux_fixture::boundary_bad"
            assert "tempsum1" in f.message and "tempsum2" in f.message
            assert "reduction(+:tempsum1,tempsum2)" in f.fix_hint

    def test_shared_write_without_any_reduction(self):
        """Variant (b): no reductions anywhere, but an array smaller than
        the parallel iteration space is written."""
        bad = AnnotatedKernel(
            nest=_boundary_nest(reductions=()),
            acc_directives=(AccParallelLoop(gang=True),),
            omp_directives=(OmpTargetTeamsDistribute(),),
        )
        findings = check_races(_registry(bad))
        assert len(findings) == 2
        assert all("psi" in f.message for f in findings)
        assert all("private" in f.fix_hint or "atomic" in f.fix_hint for f in findings)

    def test_correctly_annotated_kernel_is_clean(self):
        good = AnnotatedKernel(
            nest=_boundary_nest(),
            acc_directives=(
                AccParallelLoop(gang=True, worker=True),
                AccLoop(vector=True, reduction=REDUCTIONS),
            ),
            omp_directives=(
                OmpTargetTeamsDistribute(reduction=REDUCTIONS),
                OmpParallelDo(reduction=REDUCTIONS, collapse=2),
            ),
        )
        assert check_races(_registry(good)) == []

    def test_registered_pflux_kernels_are_race_clean(self, real_registry):
        assert check_races(real_registry) == []


class TestAsyncRule:
    def test_async_without_wait_is_flagged(self):
        bad = AnnotatedKernel(
            nest=_boundary_nest(),
            acc_directives=(
                AccParallelLoop(gang=True, reduction=REDUCTIONS, async_queue=1),
                AccLoop(reduction=REDUCTIONS),
            ),
            omp_directives=(OmpTargetTeamsDistribute(reduction=REDUCTIONS),),
        )
        findings = check_async_wait(_registry(bad))
        assert [f.rule_id for f in findings] == [RULE_ASYNC]
        assert findings[0].detail == "async:1"
        assert "AccWait" in findings[0].fix_hint

    def test_matching_wait_clears_the_finding(self):
        good = AnnotatedKernel(
            nest=_boundary_nest(),
            acc_directives=(
                AccParallelLoop(gang=True, reduction=REDUCTIONS, async_queue=1),
                AccLoop(reduction=REDUCTIONS),
                AccWait(queue=1),
            ),
            omp_directives=(OmpTargetTeamsDistribute(reduction=REDUCTIONS),),
        )
        assert check_async_wait(_registry(good)) == []

    def test_bare_wait_drains_every_queue(self):
        good = AnnotatedKernel(
            nest=_boundary_nest(),
            acc_directives=(
                AccParallelLoop(gang=True, reduction=REDUCTIONS, async_queue=3),
                AccWait(),
            ),
            omp_directives=(OmpTargetTeamsDistribute(reduction=REDUCTIONS),),
        )
        assert check_async_wait(_registry(good)) == []

    def test_registered_pflux_kernels_use_no_async(self, real_registry):
        assert check_async_wait(real_registry) == []


class TestTrafficRule:
    """Reproduces Figure 5: OpenACC flagged on the AMD site, OpenMP clean."""

    def test_openacc_on_frontier_exceeds_threshold(self, real_registry):
        ctx = DirectiveAnalysisContext(sites=(frontier(),), data_env=None)
        findings = check_traffic(real_registry, ctx)
        flagged = {(f.location.kernel, f.detail) for f in findings}
        assert flagged == {
            ("boundary_lr", "openacc@frontier"),
            ("boundary_tb", "openacc@frontier"),
        }
        for f in findings:
            assert f.severity is Severity.WARNING
            assert f.data["traffic_factor"] > 3.5  # the paper's ~3.7x
            assert f.data["modeled_bytes"] > f.data["streaming_bytes"]

    def test_openmp_is_clean_on_every_site(self, real_registry):
        ctx = DirectiveAnalysisContext(sites=ALL_SITES(), data_env=None)
        findings = check_traffic(real_registry, ctx)
        assert all(not f.detail.startswith("openmp") for f in findings)

    def test_nvidia_openacc_is_clean(self, real_registry):
        ctx = DirectiveAnalysisContext(sites=(perlmutter(),), data_env=None)
        assert check_traffic(real_registry, ctx) == []

    def test_threshold_is_configurable(self, real_registry):
        loose = DirectiveAnalysisContext(
            sites=(frontier(),), data_env=None, max_traffic_ratio=5.0
        )
        assert check_traffic(real_registry, loose) == []
        tight = DirectiveAnalysisContext(
            sites=(frontier(),), data_env=None, max_traffic_ratio=1.1
        )
        assert len(check_traffic(real_registry, tight)) > 2

    def test_threshold_must_exceed_one(self):
        with pytest.raises(AnalysisError):
            DirectiveAnalysisContext(sites=(), data_env=None, max_traffic_ratio=0.5)


class TestDataEnvironmentRules:
    def test_missing_region_flagged_on_explicit_memory_site_only(self, real_registry):
        ctx = DirectiveAnalysisContext(sites=ALL_SITES(), data_env=None)
        findings = check_data_environment(real_registry, ctx)
        assert findings, "sunspot kernels need an enclosing data region"
        assert {f.rule_id for f in findings} == {RULE_REGION}
        assert {f.detail for f in findings} == {"region@sunspot"}
        assert all("target data" in f.fix_hint for f in findings)

    def test_unified_memory_sites_need_no_region(self, real_registry):
        ctx = DirectiveAnalysisContext(sites=(perlmutter(), frontier()), data_env=None)
        assert check_data_environment(real_registry, ctx) == []

    def test_uncovered_array_predicts_transfer_bytes(self, real_registry):
        env = {a.name for a in pflux_device_arrays(65)} - {"gridpc"}
        ctx = DirectiveAnalysisContext(sites=(sunspot(),), data_env=frozenset(env))
        findings = check_data_environment(real_registry, ctx)
        assert findings
        assert {f.rule_id for f in findings} == {RULE_IMPLICIT}
        assert all(f.detail == "gridpc@sunspot" for f in findings)
        for f in findings:
            assert f.severity is Severity.ERROR
            assert f.data["implied_bytes_per_call"] > 0
            assert "gridpc" in f.fix_hint

    def test_full_device_environment_is_clean(self, real_registry):
        env = frozenset(a.name for a in pflux_device_arrays(65))
        ctx = DirectiveAnalysisContext(sites=tuple(ALL_SITES()), data_env=env)
        assert check_data_environment(real_registry, ctx) == []

    def test_work_array_family_counts_as_covered(self, real_registry):
        """A nest array 'work' is covered by env entries work00..work19."""
        env = frozenset(a.name for a in pflux_device_arrays(65))
        assert "work" not in env and any(e.startswith("work") for e in env)
        ctx = DirectiveAnalysisContext(sites=(sunspot(),), data_env=env)
        assert check_data_environment(real_registry, ctx) == []


class TestRunAll:
    def test_real_registry_with_device_env_yields_only_figure5(self, real_registry):
        env = frozenset(a.name for a in pflux_device_arrays(65))
        ctx = DirectiveAnalysisContext(sites=ALL_SITES(), data_env=env)
        findings = run_directive_rules(real_registry, ctx)
        assert {f.rule_id for f in findings} == {RULE_TRAFFIC}
        assert all(f.detail == "openacc@frontier" for f in findings)
