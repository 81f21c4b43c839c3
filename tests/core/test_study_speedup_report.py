"""Tests of the study driver, speedup accounting and report rendering."""

import pytest

from repro.core import paper
from repro.core.report import (
    fig1_report,
    fig4_report,
    fig5_report,
    fig6_report,
    fig7_report,
    table1_report,
    table2_report,
    table4_5_report,
    table6_report,
    table7_report,
)
from repro.core.speedup import (
    meets_threshold,
    node_throughput_ratio,
)
from repro.core.study import PortabilityStudy, cpu_nonpflux_seconds
from repro.errors import CalibrationError
from repro.machines.site import ALL_SITES, perlmutter


@pytest.fixture(scope="module")
def study():
    return PortabilityStudy(ALL_SITES(), grid_sizes=(65, 129))


class TestStudy:
    def test_site_lookup(self, study):
        assert study.site("frontier").name == "frontier"
        with pytest.raises(CalibrationError):
            study.site("summit")

    def test_results_cached(self, study):
        a = study.gpu_pflux(study.site("perlmutter"), "openmp", 65)
        b = study.gpu_pflux(study.site("perlmutter"), "openmp", 65)
        assert a is b

    def test_deterministic_across_instances(self):
        s1 = PortabilityStudy(ALL_SITES(), grid_sizes=(65,))
        s2 = PortabilityStudy(ALL_SITES(), grid_sizes=(65,))
        r1 = s1.gpu_pflux(s1.site("frontier"), "openmp", 65)
        r2 = s2.gpu_pflux(s2.site("frontier"), "openmp", 65)
        assert r1.seconds == r2.seconds
        assert r1.boundary_dram_bytes == r2.boundary_dram_bytes

    def test_sweep_models_skips_unbuildable(self, study):
        out = study.sweep_models(study.site("sunspot"))
        assert set(out) == {"openmp"}  # no OpenACC on Intel
        out = study.sweep_models(study.site("perlmutter"))
        assert set(out) == {"openacc", "openmp"}

    def test_gpu_fit_exceeds_pflux(self, study):
        site = study.site("perlmutter")
        pflux = study.gpu_pflux(site, "openmp", 129).seconds
        fit = study.gpu_fit_seconds(site, "openmp", 129)
        assert fit > pflux
        assert fit - pflux < cpu_nonpflux_seconds(site, 129)

    def test_breakdown_shares_sum_to_one(self, study):
        shares = study.fit_breakdown_gpu(study.site("frontier"), "openmp", 129)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_speedup_summary_keys(self, study):
        series = study.speedup_summary(study.site("perlmutter"))
        assert {"cpu_optimized", "openacc", "openmp"} <= set(series)

    def test_nonpflux_unknown_site(self):
        from repro.machines.site import MachineSite
        import dataclasses

        site = dataclasses.replace(perlmutter(), name="summit")
        with pytest.raises(CalibrationError):
            cpu_nonpflux_seconds(site, 65)

    def test_result_boundary_seconds_subset(self, study):
        r = study.gpu_pflux(study.site("frontier"), "openmp", 129)
        boundary = r.per_kernel["boundary_lr"] + r.per_kernel["boundary_tb"]
        assert 0 < boundary < r.seconds


class TestSpeedupMath:
    def test_threshold_semantics(self):
        site = perlmutter()
        assert not meets_threshold(site, 15.9)
        assert meets_threshold(site, 16.0)

    def test_node_throughput_ratio(self):
        site = perlmutter()  # 64 cores, 4 devices
        assert node_throughput_ratio(site, 16.0) == pytest.approx(1.0)
        assert node_throughput_ratio(site, 32.0) == pytest.approx(2.0)
        with pytest.raises(CalibrationError):
            node_throughput_ratio(site, -1.0)


class TestReports:
    """Reports must render and contain both model and paper rows."""

    def test_table1(self, study):
        text = table1_report(study).render()
        assert "model" in text and "paper" in text and "perlmutter" in text

    def test_table2(self, study):
        text = table2_report(study).render()
        assert "% fit_" in text

    def test_table4_5_counts(self):
        t4, t5 = table4_5_report()
        assert "!$acc kernel" in t4.render()
        assert "!$omp target teams distribute reduction" in t5.render()

    def test_table6_and_7(self, study):
        assert "NVIDIA" in table6_report(study).render()
        t7 = table7_report(study).render()
        assert "Intel" in t7 and "AMD" in t7

    def test_fig_reports_render(self, study):
        assert "pflux_" in fig1_report(study).render()
        assert "gain" in fig4_report().render()
        assert "1.60x" in fig5_report(study).render() or "x" in fig5_report(study).render()
        assert "paper" in fig6_report(study).render().lower()
        assert "cpu optimized" in fig7_report(study).render()

    def test_fig5_ratio_columns(self, study):
        text = fig5_report(study).render()
        assert "AMD openacc" in text


class TestRooflineReport:
    def test_renders_all_kernels(self, study):
        from repro.core.report import roofline_report

        text = roofline_report(study, "perlmutter", "openmp").render()
        for name in ("boundary_lr", "boundary_tb", "solver_fast", "assemble"):
            assert name in text

    def test_achieved_below_attainable(self, study):
        """No kernel may exceed its roofline bound — a consistency check
        on the whole cost model."""
        from repro.core.offload import build_pflux_registry
        from repro.hardware.roofline import attainable_gflops

        site = study.site("frontier")
        result = study.gpu_pflux(site, "openmp", 129)
        for kernel in build_pflux_registry(129):
            seconds = result.per_kernel[kernel.name]
            achieved = kernel.nest.total_flops / seconds / 1e9
            ai = kernel.nest.total_flops / max(kernel.nest.streaming_bytes, 1.0)
            assert achieved <= attainable_gflops(site.gpu, ai) * 1.001

    def test_amd_acc_boundary_far_below_nvidia_omp(self, study):
        """The roofline view of the portability story."""
        from repro.core.offload import build_pflux_registry

        reg = build_pflux_registry(129)
        k = reg.get("boundary_lr")
        nv = study.gpu_pflux(study.site("perlmutter"), "openmp", 129)
        amd = study.gpu_pflux(study.site("frontier"), "openacc", 129)
        gf_nv = k.nest.total_flops / nv.per_kernel["boundary_lr"]
        gf_amd = k.nest.total_flops / amd.per_kernel["boundary_lr"]
        # The gap widens with N (4x+ at 513^2); at 129^2 NVIDIA is still
        # occupancy-limited, so require a modest factor only.
        assert gf_nv > 1.5 * gf_amd
