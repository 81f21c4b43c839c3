"""Offload cost model under compressed boundary representations."""

from __future__ import annotations

import pytest

from repro.core.offload import (
    LOWRANK_RANK_FRACTION,
    build_pflux_registry,
    pflux_device_arrays,
)
from repro.edge_methods import EDGE_METHODS
from repro.errors import AnalysisError

STRUCTURED = tuple(m for m in EDGE_METHODS if m != "dense")


def _boundary_read_bytes(registry):
    total = 0.0
    for name in ("boundary_lr", "boundary_tb"):
        nest = registry.get(name).nest
        total += sum(a.footprint_bytes for a in nest.arrays if a.name != "psi")
    return total


class TestStructuredRegistry:
    def test_nest_names_stable_across_methods(self):
        """Baseline fingerprints key on kernel names; the structured
        swap must not rename the boundary pair."""
        dense = {k.nest.name for k in build_pflux_registry(65)}
        for method in STRUCTURED:
            reg = build_pflux_registry(65, boundary_method=method)
            assert {k.nest.name for k in reg} == dense

    def test_dense_registry_unchanged_by_default(self):
        reg = build_pflux_registry(65)
        assert reg.get("boundary_lr").complexity == "O(N^3)"
        arrays = {a.name for a in reg.get("boundary_tb").nest.arrays}
        assert "gridpc" in arrays

    @pytest.mark.parametrize("method", STRUCTURED)
    def test_structured_boundary_is_grid_class(self, method):
        reg = build_pflux_registry(65, boundary_method=method)
        assert reg.get("boundary_lr").complexity == "O(N^2)"
        assert reg.get("boundary_tb").complexity == "O(N^2)"

    def test_compressed_footprints_shrink(self):
        dense = _boundary_read_bytes(build_pflux_registry(257))
        lowrank = _boundary_read_bytes(
            build_pflux_registry(257, boundary_method="lowrank")
        )
        toeplitz = _boundary_read_bytes(
            build_pflux_registry(257, boundary_method="toeplitz")
        )
        assert lowrank < toeplitz < dense

    def test_modeled_rank_matches_measured_calibration(self):
        """The count-only model prices r̄ = max(4, 0.12*(nw-2)); pin the
        constant so a silent recalibration shows up in review."""
        assert LOWRANK_RANK_FRACTION == pytest.approx(0.12)

    def test_unknown_method_raises(self):
        with pytest.raises(AnalysisError, match="butterfly"):
            build_pflux_registry(65, boundary_method="butterfly")
        # A removed name is unknown too — not priced as the method whose
        # name it starts with.
        with pytest.raises(AnalysisError, match="dense, toeplitz, lowrank"):
            build_pflux_registry(65, boundary_method="lowrank-fp32")


class TestStructuredDeviceArrays:
    @pytest.mark.parametrize("method", STRUCTURED)
    def test_names_cover_nest_arrays(self, method):
        """Every array a boundary nest touches must exist in the device
        environment, or the implicit-transfer rule fires on our own
        model."""
        env = {a.name for a in pflux_device_arrays(65, boundary_method=method)}
        reg = build_pflux_registry(65, boundary_method=method)
        for name in ("boundary_lr", "boundary_tb"):
            refs = {a.name for a in reg.get(name).nest.arrays}
            assert refs <= env, f"{method}/{name}: {refs - env} not staged"

    def test_green_table_replaced_not_duplicated(self):
        env = {a.name for a in pflux_device_arrays(65, boundary_method="lowrank")}
        assert "gridpc" not in env
        assert {"edge_spectra", "pcurr_hat", "edge_u", "edge_w"} <= env

    def test_resident_bytes_shrink_with_compression(self):
        def resident(method):
            return sum(
                a.nbytes
                for a in pflux_device_arrays(257, boundary_method=method)
                if a.persistent
            )

        assert resident("lowrank") < resident("dense")


class TestAnalyzerThreading:
    @pytest.mark.parametrize("method", EDGE_METHODS)
    def test_full_analysis_clean_under_committed_baseline(self, method):
        """The committed-baseline CI job runs dense; the structured
        variants must be equally clean under the same suppressions (no
        new implicit transfers, no new traffic blowups) or the
        boundary_method knob is a trap."""
        from repro.analysis.baseline import Baseline
        from repro.analysis.engine import AnalysisConfig, analyze_repo

        baseline = Baseline.load("analysis-baseline.json")
        report = analyze_repo(AnalysisConfig(boundary_method=method))
        fresh = [f for f in report.findings if not baseline.is_suppressed(f)]
        assert fresh == []

    def test_config_field_reaches_registry(self):
        from repro.analysis.engine import AnalysisConfig

        config = AnalysisConfig(boundary_method="lowrank")
        assert config.boundary_method == "lowrank"
        with pytest.raises(AnalysisError):
            build_pflux_registry(
                config.grid, boundary_method="not-" + config.boundary_method
            )
