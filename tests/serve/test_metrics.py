"""ServeMetrics: the serve.* family and its scoreboard."""

import json
import math

from repro.serve import LATENCY_BOUNDS, ServeMetrics
from repro.utils.jsonio import dump_json


class TestServeMetrics:
    def test_registers_on_shared_registry(self):
        m = ServeMetrics()
        collected = m.registry.collect()
        for name in (
            "serve.slices",
            "serve.deadline_misses",
            "serve.frames_shed",
            "serve.frames_failed",
            "serve.streams_rejected",
            "serve.warm_start_fallbacks",
            "serve.streams_active",
            "serve.slice_seconds.count",
            "serve.queue_seconds.count",
            "serve.warm_iterations.count",
            "serve.cold_iterations.count",
        ):
            assert name in collected
        assert m.slice_seconds.bounds == LATENCY_BOUNDS

    def test_summary_savings(self):
        m = ServeMetrics()
        for iters in (40, 42):
            m.cold_iterations.observe(iters)
        for iters in (3, 5):
            m.warm_iterations.observe(iters)
        s = m.summary()
        assert s["cold_iterations_mean"] == 41.0
        assert s["warm_iterations_mean"] == 4.0
        assert s["warm_iteration_savings"] == 37.0

    def test_savings_zero_without_both_populations(self):
        m = ServeMetrics()
        m.cold_iterations.observe(40)
        assert m.summary()["warm_iteration_savings"] == 0.0

    def test_latency_quantiles_conservative(self):
        m = ServeMetrics()
        for v in (0.003, 0.004, 0.009, 0.4):
            m.slice_seconds.observe(v)
        s = m.summary()
        assert s["latency_p50_s"] == 5e-3
        assert s["latency_p99_s"] == 0.5

    def test_to_dict_is_strict_json_safe(self):
        """Overflow quantiles are inf — the export must still survive
        allow_nan=False emission."""
        m = ServeMetrics()
        m.slice_seconds.observe(100.0)  # beyond the last bound
        payload = m.to_dict()
        assert payload["summary"]["latency_p99_s"] is None
        text = dump_json(payload)
        assert not math.isinf(json.loads(text)["metrics"]["serve.slices"])
