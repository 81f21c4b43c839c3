"""MetricsRegistry: counters/gauges/histograms plus live counter sources."""

from __future__ import annotations

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.metrics import scheduler_source
from repro.parallel.merge import merge_metrics
from repro.parallel.scheduler import WorkerReport
from repro.runtime.counters import SchedulerCounters


class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter("launches")
        c.inc()
        c.inc()
        assert c.value == 2.0

    def test_gauge_rejects_non_finite(self):
        g = Gauge("resident_bytes")
        g.set(1.5)
        g.set(-2.0)
        assert g.value == -2.0
        with pytest.raises(ObservabilityError, match="non-finite"):
            g.set(math.nan)

    def test_histogram_bucketing_inclusive_upper_bounds(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(v)
        # <=1 | <=10 | overflow
        assert h.counts == [2, 2, 1]
        assert h.total == 5
        assert h.sum == pytest.approx(27.5)
        assert h.mean == pytest.approx(5.5)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ObservabilityError, match="strictly increase"):
            Histogram("bad", bounds=(1.0, 1.0))
        with pytest.raises(ObservabilityError, match="at least one"):
            Histogram("empty", bounds=())

    def test_histogram_quantile_conservative(self):
        h = Histogram("q", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.75) == 2.0
        assert h.quantile(1.0) == 4.0
        h.observe(100.0)
        assert h.quantile(1.0) == math.inf
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_histogram_quantile_boundaries(self):
        """The q=0 / q=1 / empty / overflow corner cases the serving
        scoreboard leans on."""
        empty = Histogram("empty", bounds=(1.0, 2.0))
        assert empty.quantile(0.0) == 0.0
        assert empty.quantile(0.5) == 0.0
        assert empty.quantile(1.0) == 0.0

        h = Histogram("q", bounds=(1.0, 2.0, 4.0))
        h.observe(3.0)
        # q=0 reports the minimum sample's bucket, not bounds[0]: the
        # leading empty buckets must be skipped.
        assert h.quantile(0.0) == 4.0
        assert h.quantile(1.0) == 4.0
        h.observe(0.5)
        assert h.quantile(0.0) == 1.0

        overflow = Histogram("of", bounds=(1.0,))
        overflow.observe(50.0)
        assert overflow.quantile(0.0) == math.inf
        assert overflow.quantile(1.0) == math.inf
        for q in (-0.1, 1.1, math.nan):
            with pytest.raises(ObservabilityError):
                overflow.quantile(q)

    def test_histogram_merge_requires_same_bounds(self):
        """The fleet's merge refuses per-worker histograms whose bucket
        bounds differ."""
        a = Histogram("a", bounds=(1.0, 2.0))
        b = Histogram("b", bounds=(1.0, 3.0))
        reports = [
            WorkerReport(worker=k, pid=0, jobs_done=0, records=(),
                         metrics={"metrics": {"h": h.to_dict()}})
            for k, h in enumerate((a, b))
        ]
        with pytest.raises(ObservabilityError, match="bounds differ"):
            merge_metrics(reports)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.gauge("x")

    def test_collect_flattens_metrics_and_sources(self):
        reg = MetricsRegistry()
        for _ in range(7):
            reg.counter("iters").inc()
        reg.gauge("chi2").set(500.0)
        h = reg.histogram("dt", bounds=(1.0,))
        h.observe(0.5)
        reg.register_source("extra", lambda: {"a": 1.0})
        snap = reg.collect()
        assert snap["iters"] == 7.0
        assert snap["chi2"] == 500.0
        assert snap["dt.count"] == 1.0
        assert snap["dt.mean"] == 0.5
        assert snap["extra.a"] == 1.0

    def test_sources_are_live_not_snapshots(self):
        reg = MetricsRegistry()
        counters = SchedulerCounters()
        reg.register_source("scheduler", scheduler_source(counters))
        assert reg.collect()["scheduler.retries"] == 0.0
        counters.retries += 3
        assert reg.collect()["scheduler.retries"] == 3.0

    def test_duplicate_source_prefix_raises(self):
        reg = MetricsRegistry()
        reg.register_source("p", lambda: {})
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.register_source("p", lambda: {})

    def test_to_dict_keeps_histogram_buckets(self):
        reg = MetricsRegistry()
        reg.histogram("dt", bounds=(1.0, 2.0)).observe(1.5)
        dumped = reg.to_dict()
        assert dumped["metrics"]["dt"]["counts"] == [0, 1, 0]
        assert dumped["collected"]["dt.count"] == 1.0
