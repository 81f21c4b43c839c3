"""Tests of the full-offload projection (paper future work)."""

import pytest

from repro.core.extension import project_full_offload
from repro.core.report import extension_report
from repro.core.study import PortabilityStudy
from repro.errors import CalibrationError
from repro.machines.site import ALL_SITES


@pytest.fixture(scope="module")
def study():
    return PortabilityStudy(ALL_SITES())


class TestProjection:
    def test_full_offload_always_faster(self, study):
        for name in ("perlmutter", "frontier", "sunspot"):
            p = project_full_offload(study, study.site(name), "openmp", 513)
            assert p.fit_seconds_full < p.fit_seconds_pflux_only
            assert p.fit_speedup_full > p.fit_speedup_pflux_only

    def test_perlmutter_clears_bar_only_after_full_offload(self, study):
        """The punchline: pflux_-only offload leaves Perlmutter's *fit_*
        below its 16x break-even (Amdahl); offloading the rest clears it."""
        site = study.site("perlmutter")
        p = project_full_offload(study, site, "openmp", 513)
        assert p.fit_speedup_pflux_only < site.acceleration_threshold
        assert p.fit_speedup_full > site.acceleration_threshold
        assert p.clears_threshold

    def test_amdahl_consistency(self, study):
        """The projected full-offload speedup must respect the Amdahl cap
        set by the remaining host fraction."""
        from repro.core.study import cpu_fit_seconds

        site = study.site("frontier")
        p = project_full_offload(study, site, "openmp", 513)
        baseline = cpu_fit_seconds(site, 513)
        host_fraction_acc = 1.0 - p.host_remainder_seconds / baseline
        assert p.fit_speedup_full < 1.0 / (1.0 - host_fraction_acc)

    def test_host_remainder_positive(self, study):
        """The serial slice of steps_ + LSQ never disappears."""
        p = project_full_offload(study, study.site("sunspot"), "openmp", 257)
        assert p.other_device_seconds > 0
        assert p.host_remainder_seconds > 0

    def test_unbuildable_model_rejected(self, study):
        with pytest.raises(CalibrationError):
            project_full_offload(study, study.site("sunspot"), "openacc", 257)

    def test_report_renders(self, study):
        text = extension_report(study).render()
        assert "full offload" in text and "clears node bar?" in text
