"""Coverage of the small supporting modules: config, calibration, paper data."""

import numpy as np
import pytest

from repro import calibration
from repro.config import Environment, frontier_env, perlmutter_env, sunspot_env
from repro.core import paper
from repro.errors import CalibrationError
from repro.utils.tables import Table


class TestEnvironment:
    def test_presets(self):
        assert perlmutter_env().variables == {}
        assert frontier_env().unified_memory_requested
        assert not frontier_env(system_alloc=False).cray_mallopt_off
        assert sunspot_env().variables["ZE_AFFINITY_MASK"] == "0.0"

    def test_truthy_variants(self):
        for v in ("1", "true", "YES", "On"):
            assert Environment({"X": v}).flag("X")
        for v in ("0", "false", "", "off"):
            assert not Environment({"X": v}).flag("X")


class TestCalibrationTable:
    def test_all_paper_combinations_present(self):
        combos = [
            ("nvhpc", "openacc", "NVIDIA"),
            ("nvhpc", "openmp", "NVIDIA"),
            ("cce", "openacc", "AMD"),
            ("cce", "openmp", "AMD"),
            ("oneapi", "openmp", "Intel"),
        ]
        for compiler, model, vendor in combos:
            for kc in calibration.KernelClass:
                q = calibration.lowering_quality(compiler, model, vendor, kc)
                assert q.traffic_factor > 0
                assert 0 < q.bandwidth_efficiency <= 1
                assert 0 < q.compute_efficiency <= 1

    def test_unknown_combination_raises(self):
        with pytest.raises(CalibrationError):
            calibration.lowering_quality("gcc", "openmp", "NVIDIA", calibration.KernelClass.SOLVER)

    def test_figure5_ratios_encoded(self):
        """The traffic-factor ratios must encode the Figure 5 claims."""
        kc = calibration.KernelClass.BOUNDARY_N3
        nv = calibration.lowering_quality("nvhpc", "openacc", "NVIDIA", kc).traffic_factor
        nv_omp = calibration.lowering_quality("nvhpc", "openmp", "NVIDIA", kc).traffic_factor
        amd = calibration.lowering_quality("cce", "openacc", "AMD", kc).traffic_factor
        amd_omp = calibration.lowering_quality("cce", "openmp", "AMD", kc).traffic_factor
        assert nv / nv_omp == pytest.approx(1.6, rel=0.05)
        assert amd / amd_omp == pytest.approx(3.7, rel=0.05)

    def test_nonpflux_split_sums_to_one(self):
        assert sum(calibration.NONPFLUX_SPLIT.values()) == pytest.approx(1.0)

    def test_flop_count_anchors_table2(self):
        """8 N^3 FLOPs at ~1 GF/s reproduces the Perlmutter Table 2 row."""
        for n, t in paper.TABLE2_PFLUX_CPU["perlmutter"].items():
            rate = 8.0 * n**3 / t / 1e9
            assert 0.85 < rate < 1.15


class TestPaperData:
    def test_speedups_consistent_with_times(self):
        """Table 6/7 speedups must equal Table 2 baseline / GPU time,
        within the paper's own rounding."""
        for site, times in paper.TABLE7_OMP_TIME.items():
            for n, t in times.items():
                implied = paper.TABLE2_PFLUX_CPU[site][n] / t
                stated = paper.TABLE7_OMP_SPEEDUP[site][n]
                assert implied == pytest.approx(stated, rel=0.25)

    def test_grid_sizes_cover_all_tables(self):
        for table in (paper.TABLE1_FIT_CPU, paper.TABLE2_PFLUX_CPU, paper.TABLE7_OMP_TIME):
            for per_site in table.values():
                assert set(per_site) == set(paper.GRID_SIZES)

    def test_census_totals(self):
        assert sum(paper.TABLE4_ACC_CENSUS.values()) == 12
        assert sum(paper.TABLE5_OMP_CENSUS.values()) == 8  # "eight lines"


class TestTableEdgeCases:
    def test_empty_table_renders(self):
        t = Table(["a", "b"])
        out = t.render()
        assert "| a" in out and out.count("\n") >= 2

    def test_wide_cells_expand_columns(self):
        t = Table(["x"])
        t.add_row(["a" * 50])
        assert "a" * 50 in t.render()
