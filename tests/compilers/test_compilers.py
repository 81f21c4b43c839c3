"""Tests of compiler models: flag parsing, configuration, lowering."""

import pytest

from repro.compilers.cce import CceCompiler
from repro.compilers.flags import parse_flags
from repro.compilers.nvhpc import NvhpcCompiler
from repro.compilers.oneapi import OneApiCompiler
from repro.compilers.registry import compiler_for_vendor
from repro.config import frontier_env, perlmutter_env, sunspot_env
from repro.core.offload import build_pflux_registry
from repro.errors import CompilerError, UnsupportedTargetError
from repro.hardware.amd import mi250x_gcd
from repro.hardware.intel import pvc_stack
from repro.hardware.nvidia import a100
from repro.runtime.allocator import AllocationPolicy


class TestFlagParsing:
    @pytest.mark.parametrize(
        "line,model,managed,sysalloc",
        [
            ("-mp=gpu -gpu=cc80,managed", "openmp", True, False),
            ("-acc -gpu=cc80,managed", "openacc", True, False),
            ("-h omp -hsystem_alloc", "openmp", False, True),
            ("-h acc -hsystem_alloc", "openacc", False, True),
            ("-h omp", "openmp", False, False),
            ("-fopenmp -fopenmp-targets=spir64", "openmp", False, False),
        ],
    )
    def test_table3_lines(self, line, model, managed, sysalloc):
        f = parse_flags(line)
        assert f.model == model
        assert f.managed_memory is managed
        assert f.system_alloc is sysalloc

    def test_spir64_target_captured(self):
        assert parse_flags("-fopenmp -fopenmp-targets=spir64").target == "spir64"

    def test_unknown_flag_rejected(self):
        with pytest.raises(CompilerError):
            parse_flags("-O3")
        with pytest.raises(CompilerError):
            parse_flags("-h weird")
        with pytest.raises(CompilerError):
            parse_flags("-h")

    def test_no_model_rejected(self):
        with pytest.raises(CompilerError):
            parse_flags("-gpu=cc80")


class TestConfiguration:
    def test_nvhpc_requires_managed(self):
        c = NvhpcCompiler()
        with pytest.raises(CompilerError):
            c.configure(parse_flags("-mp=gpu -gpu=cc80"), perlmutter_env(), a100())

    def test_nvhpc_build(self):
        c = NvhpcCompiler()
        b = c.configure(parse_flags("-acc -gpu=cc80,managed"), perlmutter_env(), a100())
        assert b.unified_memory
        assert b.allocation_policy is AllocationPolicy.ARENA_REUSE
        assert b.model == "openacc"

    def test_cce_requires_unified_memory_env(self):
        c = CceCompiler()
        with pytest.raises(CompilerError):
            c.configure(parse_flags("-h omp -hsystem_alloc"), perlmutter_env(), mi250x_gcd())

    def test_cce_allocator_policy_from_flags(self):
        c = CceCompiler()
        fast = c.configure(parse_flags("-h omp -hsystem_alloc"), frontier_env(), mi250x_gcd())
        assert fast.allocation_policy is AllocationPolicy.ARENA_REUSE
        slow = c.configure(
            parse_flags("-h omp"), frontier_env(system_alloc=False), mi250x_gcd()
        )
        assert slow.allocation_policy is AllocationPolicy.TRIM_ON_FREE

    def test_oneapi_requires_spir64(self):
        c = OneApiCompiler()
        with pytest.raises(CompilerError):
            c.configure(parse_flags("-fopenmp"), sunspot_env(), pvc_stack())

    def test_oneapi_target_data_switch(self):
        c = OneApiCompiler()
        flags = parse_flags("-fopenmp -fopenmp-targets=spir64")
        assert c.configure(flags, sunspot_env(), pvc_stack()).use_target_data
        assert not c.configure(
            flags, sunspot_env(), pvc_stack(), use_target_data=False
        ).use_target_data

    def test_no_openacc_for_intel(self):
        """'OpenACC data on Intel GPUs are not available since there are no
        OpenACC compilers supporting Intel GPUs' (Section 6.1)."""
        c = OneApiCompiler()
        assert not c.supports("openacc", pvc_stack())
        with pytest.raises(UnsupportedTargetError):
            c.check_target("openacc", pvc_stack())

    def test_cross_vendor_rejected(self):
        with pytest.raises(UnsupportedTargetError):
            NvhpcCompiler().check_target("openmp", mi250x_gcd())
        with pytest.raises(UnsupportedTargetError):
            CceCompiler().check_target("openacc", a100())

    def test_registry(self):
        assert isinstance(compiler_for_vendor("NVIDIA"), NvhpcCompiler)
        assert isinstance(compiler_for_vendor("AMD"), CceCompiler)
        assert isinstance(compiler_for_vendor("Intel"), OneApiCompiler)
        with pytest.raises(UnsupportedTargetError):
            compiler_for_vendor("Imagination")


class TestLowering:
    @pytest.fixture(scope="class")
    def registry(self):
        return build_pflux_registry(129)

    def test_boundary_plan_shapes(self, registry):
        k = registry.get("boundary_lr")
        nv = NvhpcCompiler().lower(k, "openmp", a100())
        assert nv.teams == 129  # outer loop distributed
        assert nv.threads_per_team == 256
        assert nv.traffic_factor == pytest.approx(1.0)

    def test_acc_vs_omp_traffic_on_nvidia(self, registry):
        """Figure 5: OpenACC moves 1.6x more on NVIDIA."""
        k = registry.get("boundary_lr")
        c = NvhpcCompiler()
        acc = c.lower(k, "openacc", a100())
        omp = c.lower(k, "openmp", a100())
        assert acc.traffic_factor / omp.traffic_factor == pytest.approx(1.6)

    def test_cce_acc_pathology(self, registry):
        """CCE OpenACC: ~3.7x OpenMP traffic, occupancy-insensitive."""
        k = registry.get("boundary_tb")
        c = CceCompiler()
        acc = c.lower(k, "openacc", mi250x_gcd())
        omp = c.lower(k, "openmp", mi250x_gcd())
        assert acc.traffic_factor / omp.traffic_factor == pytest.approx(3.7, rel=0.02)
        assert not acc.occupancy_sensitive
        assert omp.occupancy_sensitive

    def test_solver_region_emits_multiple_launches(self, registry):
        plan = NvhpcCompiler().lower(registry.get("solver_fast"), "openmp", a100())
        assert plan.launches == 6

    def test_small_loops_pay_many_launches(self, registry):
        from repro.calibration import PFLUX_SMALL_LOOPS

        plan = NvhpcCompiler().lower(registry.get("small_loops"), "openmp", a100())
        assert plan.launches == PFLUX_SMALL_LOOPS

    def test_lowering_checks_target(self, registry):
        with pytest.raises(UnsupportedTargetError):
            OneApiCompiler().lower(registry.get("boundary_lr"), "openacc", pvc_stack())

    def test_unknown_complexity_rejected(self):
        from repro.directives.ir import Loop, LoopNest
        from repro.directives.registry import AnnotatedKernel

        weird = AnnotatedKernel(
            nest=LoopNest("w", (Loop("i", 4),), 1.0, arrays=()),
            acc_directives=(),
            omp_directives=(),
            complexity="O(N^9)",
        )
        with pytest.raises(CompilerError):
            NvhpcCompiler().lower(weird, "openmp", a100())
