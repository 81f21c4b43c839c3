"""Tests of clocks, the region profiler, and utility helpers."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.regions import RegionProfiler
from repro.profiling.timer import VirtualClock, WallClock
from repro.utils.tables import Table, format_bytes, format_seconds, format_speedup
from tests.core.test_reproduction import within_factor


class TestClocks:
    def test_wall_clock_advances(self):
        c = WallClock()
        t0 = c.now()
        time.sleep(0.002)
        assert c.now() > t0

    def test_wall_clock_not_advanceable(self):
        with pytest.raises(NotImplementedError):
            WallClock().advance(1.0)

    def test_virtual_clock(self):
        c = VirtualClock()
        assert c.now() == 0.0
        c.advance(1.5)
        c.advance(0.5)
        assert c.now() == 2.0

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestRegionProfiler:
    def test_exclusive_nesting(self):
        clock = VirtualClock()
        prof = RegionProfiler(clock)
        with prof.region("fit_"):
            clock.advance(1.0)
            with prof.region("pflux_"):
                clock.advance(9.0)
        rep = prof.report()
        assert rep.totals["pflux_"] == pytest.approx(9.0)
        assert rep.totals["fit_"] == pytest.approx(1.0)  # exclusive
        assert rep.fraction("pflux_") == pytest.approx(0.9)

    def test_repeated_regions_accumulate(self):
        clock = VirtualClock()
        prof = RegionProfiler(clock)
        for _ in range(3):
            with prof.region("green_"):
                clock.advance(2.0)
        rep = prof.report()
        assert rep.totals["green_"] == pytest.approx(6.0)
        assert rep.calls["green_"] == 3

    def test_percentages_sum_to_100(self):
        clock = VirtualClock()
        prof = RegionProfiler(clock)
        for name, dt in [("a", 1.0), ("b", 3.0), ("c", 6.0)]:
            with prof.region(name):
                clock.advance(dt)
        assert sum(prof.report().percentages().values()) == pytest.approx(100.0)

    def test_empty_report(self):
        rep = RegionProfiler(VirtualClock()).report()
        assert rep.grand_total == 0.0
        assert rep.fraction("anything") == 0.0

    def test_reset(self):
        clock = VirtualClock()
        prof = RegionProfiler(clock)
        with prof.region("a"):
            clock.advance(1.0)
        prof.reset()
        assert prof.report().grand_total == 0.0

    def test_exception_still_records(self):
        clock = VirtualClock()
        prof = RegionProfiler(clock)
        with pytest.raises(RuntimeError):
            with prof.region("a"):
                clock.advance(2.0)
                raise RuntimeError("boom")
        assert prof.report().totals["a"] == pytest.approx(2.0)


class TestStats:
    def test_within_factor(self):
        assert within_factor(2.0, 1.0, 2.0)
        assert within_factor(0.5, 1.0, 2.0)
        assert not within_factor(2.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            within_factor(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            within_factor(1.0, 1.0, 0.5)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_within_factor_symmetric(self, x, f):
        assert within_factor(x, x, f)
        assert within_factor(x * f, x, f) == within_factor(x, x * f, f)


class TestFormatting:
    def test_format_seconds_paper_style(self):
        assert format_seconds(1.48e-2) == "1.48e-02"
        assert format_seconds(1.15) == "1.15"
        assert format_seconds(0.0) == "0"

    def test_format_bytes(self):
        assert format_bytes(6.48e9) == "6.48 GB"
        assert format_bytes(2048) == "2.05 KB"
        assert format_bytes(12) == "12 B"

    def test_format_speedup(self):
        assert format_speedup(70.4) == "70x"
        assert format_speedup(2.4) == "2.4x"
        assert format_speedup(0.35) == "0.35x"

    def test_table_rendering(self):
        t = Table(["a", "b"], title="demo")
        t.add_row([1, "xx"])
        out = t.render()
        assert "demo" in out and "| 1" in out and "xx" in out

    def test_table_row_length_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])
