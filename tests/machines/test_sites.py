"""Tests of the facility node configurations."""

import pytest

from repro.compilers.cce import CceCompiler
from repro.compilers.nvhpc import NvhpcCompiler
from repro.compilers.oneapi import OneApiCompiler
from repro.config import Environment
from repro.core import paper
from repro.errors import HardwareError
from repro.machines.site import ALL_SITES, frontier, perlmutter, sunspot


class TestSites:
    def test_three_sites(self):
        sites = ALL_SITES()
        assert [s.name for s in sites] == ["perlmutter", "frontier", "sunspot"]

    def test_node_compositions(self):
        assert perlmutter().devices_per_node == 4  # 4x A100
        assert frontier().devices_per_node == 8  # 8 GCDs
        assert sunspot().devices_per_node == 12  # 6 GPUs x 2 stacks

    def test_acceleration_thresholds_match_section4(self):
        for site in ALL_SITES():
            expected = paper.ACCELERATION_THRESHOLDS[site.name]
            assert site.acceleration_threshold == pytest.approx(expected, rel=0.01)

    def test_facility_compilers(self):
        assert isinstance(perlmutter().compiler, NvhpcCompiler)
        assert isinstance(frontier().compiler, CceCompiler)
        assert isinstance(sunspot().compiler, OneApiCompiler)

    def test_flag_lines_parse_and_configure(self):
        from repro.compilers.flags import parse_flags

        for site in ALL_SITES():
            for model in site.models:
                flags = parse_flags(site.flags(model))
                build = site.compiler.configure(flags, site.env, site.gpu)
                assert build.model == model

    def test_sunspot_has_no_openacc_line(self):
        with pytest.raises(HardwareError):
            sunspot().flags("openacc")

    def test_frontier_env_variables(self):
        env = frontier().env
        assert env.flag("CRAY_ACC_USE_UNIFIED_MEM")
        assert env.flag("HSA_XNACK")
        assert env.cray_mallopt_off

    def test_frontier_slow_variant(self):
        site = frontier(system_alloc=False)
        assert not site.env.cray_mallopt_off
        assert "-hsystem_alloc" not in site.flags("openmp")

    def test_sunspot_affinity_mask(self):
        assert sunspot().env.variables["ZE_AFFINITY_MASK"] == "0.0"

    def test_vendor_pairing(self):
        assert perlmutter().gpu.vendor == "NVIDIA"
        assert frontier().gpu.vendor == "AMD"
        assert sunspot().gpu.vendor == "Intel"


class TestEnvironment:
    def test_flag_parsing_variants(self):
        env = Environment({**perlmutter().env.variables, "X": "TRUE", "Y": "0"})
        assert env.flag("X")
        assert not env.flag("Y")
        assert not env.flag("MISSING")

    def test_unified_memory_needs_both_vars(self):
        from repro.config import Environment

        assert not Environment({"CRAY_ACC_USE_UNIFIED_MEM": "1"}).unified_memory_requested
        assert not Environment({"HSA_XNACK": "1"}).unified_memory_requested
        assert Environment(
            {"CRAY_ACC_USE_UNIFIED_MEM": "1", "HSA_XNACK": "1"}
        ).unified_memory_requested
