"""Tests of the device models and the roofline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hardware import (
    a100,
    attainable_gflops,
    epyc_7763_milan,
    epyc_7a53_optimized,
    mi250x_gcd,
    pvc_stack,
    roofline_time,
    xeon_sapphire_rapids,
)
from repro.hardware.arch import CPUArchitecture, GPUArchitecture
from repro.hardware.roofline import occupancy_factor


class TestDeviceCatalog:
    def test_paper_flop_rate_relations(self):
        """Section 4.1: a PVC stack has ~1.5x the A100 FP64 rate and ~0.6x
        one MI250X GCD."""
        ratio_a100 = pvc_stack().peak_fp64_gflops / a100().peak_fp64_gflops
        ratio_gcd = pvc_stack().peak_fp64_gflops / mi250x_gcd().peak_fp64_gflops
        assert ratio_a100 == pytest.approx(1.5, rel=0.05)
        assert ratio_gcd == pytest.approx(0.6, rel=0.05)

    def test_bandwidths_comparable(self):
        """Section 4.1: comparable HBM bandwidth across the three devices."""
        bws = [a100().hbm_bw_gbs, mi250x_gcd().hbm_bw_gbs, pvc_stack().hbm_bw_gbs]
        assert max(bws) / min(bws) < 1.35

    def test_a100_datasheet(self):
        g = a100()
        assert g.peak_fp64_gflops == pytest.approx(9700, rel=0.01)
        assert g.compute_units == 108 and g.simd_width == 32
        assert g.unified_memory

    def test_mi250x_gcd_small_llc(self):
        """The 8 MB GCD L2 (vs 40 MB on A100) is the paper's data-reuse
        pain point."""
        assert mi250x_gcd().llc_mib < a100().llc_mib / 4

    def test_pvc_has_no_unified_memory(self):
        assert not pvc_stack().unified_memory

    def test_machine_balance_all_compute_rich(self):
        for g in (a100(), mi250x_gcd(), pvc_stack()):
            # FLOPs/byte at the roofline ridge: all bandwidth-starved
            assert g.peak_fp64_gflops / g.hbm_bw_gbs > 5.0

    def test_validation(self):
        with pytest.raises(HardwareError):
            GPUArchitecture(
                name="x", vendor="X", peak_fp64_gflops=-1, hbm_bw_gbs=100,
                hbm_efficiency=0.8, llc_mib=1, compute_units=1, simd_width=1,
                threads_for_saturation=1, kernel_launch_us=1, host_link_gbs=1,
                page_kib=4, page_fault_us=1, fault_batch_pages=1, hbm_gib=40,
                unified_memory=True,
            )

    def test_hbm_capacities(self):
        assert a100().hbm_gib == 40.0
        assert mi250x_gcd().hbm_gib == 64.0


class TestCPUs:
    def test_three_percent_optimization(self):
        """Section 6: scalar reductions gave 3x on the CPU."""
        for cpu in (epyc_7763_milan(), epyc_7a53_optimized(), xeon_sapphire_rapids()):
            ratio = cpu.sustained_gflops_optimized / cpu.sustained_gflops_baseline
            assert ratio == pytest.approx(3.0, rel=0.01)

    def test_core_counts_match_paper(self):
        assert epyc_7763_milan().cores_per_node == 64
        assert epyc_7a53_optimized().cores_per_node == 64
        assert xeon_sapphire_rapids().cores_per_node == 104

    def test_sustained_selector(self):
        cpu = epyc_7763_milan()
        assert cpu.sustained_gflops(False) == cpu.sustained_gflops_baseline
        assert cpu.sustained_gflops(True) == cpu.sustained_gflops_optimized

    def test_validation(self):
        with pytest.raises(HardwareError):
            CPUArchitecture("x", "X", 2.0, 1.0, 20.0, 4.0, 1.0, 64)


class TestRoofline:
    def test_compute_bound_limit(self):
        g = a100()
        flops = 1e12
        t = roofline_time(g, flops, 1.0)
        assert t == pytest.approx(flops / (g.peak_fp64_gflops * 1e9))

    def test_memory_bound_limit(self):
        g = a100()
        nbytes = 1e10
        t = roofline_time(g, 1.0, nbytes)
        assert t == pytest.approx(nbytes / (g.hbm_bw_gbs * 1e9 * g.hbm_efficiency))

    def test_efficiencies_slow_things_down(self):
        g = mi250x_gcd()
        fast = roofline_time(g, 1e10, 1e9)
        slow = roofline_time(g, 1e10, 1e9, compute_efficiency=0.5, bandwidth_efficiency=0.5)
        assert slow > fast

    def test_validation(self):
        with pytest.raises(HardwareError):
            roofline_time(a100(), -1, 0)
        with pytest.raises(HardwareError):
            roofline_time(a100(), 1, 1, compute_efficiency=0.0)

    def test_attainable_ridge(self):
        g = a100()
        low = attainable_gflops(g, 0.1)
        high = attainable_gflops(g, 1e6)
        assert low < g.peak_fp64_gflops
        assert high == g.peak_fp64_gflops

    @given(st.floats(min_value=1, max_value=1e7))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded(self, threads):
        occ = occupancy_factor(a100(), threads)
        assert 0.02 <= occ <= 1.0

    def test_occupancy_monotone(self):
        g = mi250x_gcd()
        vals = [occupancy_factor(g, t) for t in (1e3, 1e4, 1e5, 1e6)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @given(st.floats(min_value=0, max_value=1e12), st.floats(min_value=0, max_value=1e12))
    @settings(max_examples=50, deadline=None)
    def test_roofline_monotone_in_work(self, flops, nbytes):
        g = pvc_stack()
        t1 = roofline_time(g, flops, nbytes)
        t2 = roofline_time(g, flops * 2, nbytes * 2)
        assert t2 >= t1
