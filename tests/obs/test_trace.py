"""TraceRecorder behaviour: nesting, exports, profiler agreement.

The headline test is the acceptance check of the observability layer: a
traced 65^2 reconstruction must produce a Chrome-trace JSON whose
per-region exclusive totals agree with the solver's own
:class:`~repro.profiling.regions.RegionProfiler` report.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    TraceHooks,
    TraceRecorder,
    chrome_trace,
    jsonl_records,
    region_totals,
    write_chrome_trace,
    write_jsonl,
)
from repro.profiling.regions import RegionProfiler
from repro.profiling.timer import VirtualClock


def make_recorder():
    return TraceRecorder(VirtualClock())


class TestSpans:
    def test_nesting_depth_and_parents(self):
        rec = make_recorder()
        with rec.span("outer") as outer:
            rec.clock.advance(1.0)
            with rec.span("inner") as inner:
                rec.clock.advance(0.25)
        assert outer.depth == 0 and inner.depth == 1
        assert inner.parent_index == outer.index
        assert outer.duration == pytest.approx(1.25)
        assert inner.duration == pytest.approx(0.25)
        assert outer.exclusive == pytest.approx(1.0)

    def test_sibling_children_both_subtracted(self):
        rec = make_recorder()
        with rec.span("fit_"):
            for _ in range(3):
                with rec.span("steps_"):
                    rec.clock.advance(0.1)
                rec.clock.advance(0.01)
        totals = rec.region_totals()
        assert totals["steps_"] == pytest.approx(0.3)
        assert totals["fit_"] == pytest.approx(0.03)

    def test_live_attributes_editable_until_close(self):
        rec = make_recorder()
        with rec.span("steps_", iteration=3) as span:
            span.attributes["chi2"] = 17.0
        assert span.attributes == {"iteration": 3, "chi2": 17.0}

    def test_out_of_order_close_raises(self):
        rec = make_recorder()
        outer = rec.span("outer")
        inner = rec.span("inner")
        assert inner is not outer
        with pytest.raises(ObservabilityError, match="out of order"):
            outer.close()
        inner.close()
        outer.close()

    def test_disabled_recorder_records_nothing(self):
        rec = TraceRecorder(VirtualClock(), enabled=False)
        with rec.span("x"):
            rec.instant("e")
            rec.complete("k", start=0.0, duration=1.0)
        assert rec.records == ()

    def test_disabled_recorder_shares_one_null_context(self):
        rec = TraceRecorder(enabled=False)
        assert rec.span("a") is rec.span("b")

    def test_reset_refuses_open_spans(self):
        rec = make_recorder()
        handle = rec.span("open")
        with pytest.raises(ObservabilityError, match="open spans"):
            rec.reset()
        handle.close()
        rec.reset()
        assert rec.records == ()

    def test_complete_does_not_touch_parent_child_duration(self):
        # Modeled device spans live on a different clock; host exclusive
        # time must not have them subtracted.
        rec = make_recorder()
        with rec.span("pflux_") as host:
            rec.complete("boundary_lr", start=0.0, duration=5.0)
            rec.clock.advance(0.5)
        assert host.child_duration == 0.0
        assert host.exclusive == pytest.approx(0.5)
        kernels = list(rec.spans(category="kernel"))
        assert len(kernels) == 1 and kernels[0].duration == 5.0


class TestExports:
    def _traced(self):
        rec = make_recorder()
        with rec.span("fit_", iteration=1):
            with rec.span("steps_"):
                rec.clock.advance(0.125)
            rec.instant("picard_iteration", chi2=42.0)
            rec.clock.advance(0.0625)
        return rec

    def test_chrome_payload_shape(self):
        payload = chrome_trace(self._traced())
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases.count("M") == 1
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        x = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        # Chrome timestamps are microseconds
        assert {e["name"]: e["dur"] for e in x} == pytest.approx(
            {"fit_": 187500.0, "steps_": 125000.0}
        )

    def test_chrome_round_trip_region_totals(self):
        rec = self._traced()
        payload = chrome_trace(rec)
        assert region_totals(payload) == pytest.approx(rec.region_totals())

    def test_region_totals_rejects_non_trace(self):
        with pytest.raises(ObservabilityError, match="traceEvents"):
            region_totals({"foo": 1})

    def test_jsonl_lines_parse_and_carry_schema(self):
        rec = self._traced()
        lines = [json.loads(line) for line in jsonl_records(rec)]
        assert len(lines) == 3
        assert all(line["schema_version"] == 1 for line in lines)
        kinds = sorted(line["kind"] for line in lines)
        assert kinds == ["event", "span", "span"]

    def test_chrome_trace_equals_its_lane_in_the_merged_trace(self):
        """One encoder: a recorder's events are the same whether it is
        exported alone, as a fleet's parent lane or as a worker's lane
        (the records a worker ships are their ``to_dict()`` form)."""
        from repro.parallel.merge import merged_chrome_trace
        from repro.parallel.scheduler import WorkerReport

        rec = self._traced()
        rec.span("never_closed").__enter__()
        alone = [e for e in chrome_trace(rec)["traceEvents"] if e["ph"] != "M"]
        assert len(alone) == 3
        records = tuple(r.to_dict() for r in rec.records)
        report = WorkerReport(worker=0, pid=1, jobs_done=1, records=records, metrics={})
        merged = merged_chrome_trace([report], parent=rec)["traceEvents"]
        for pid in (0, 1):
            lane = [e for e in merged if e["pid"] == pid and e["ph"] != "M"]
            assert lane == [dict(e, pid=pid) for e in alone]

    def test_writers_create_files(self, tmp_path):
        rec = self._traced()
        chrome = write_chrome_trace(rec, tmp_path / "t.json")
        jsonl = write_jsonl(rec, tmp_path / "t.jsonl")
        assert json.loads(chrome.read_text())["displayTimeUnit"] == "ms"
        assert len(jsonl.read_text().splitlines()) == 3


class TestProfilerAgreement:
    def test_paired_region_totals_identical(self):
        clock = VirtualClock()
        rec = TraceRecorder(clock)
        hooks = TraceHooks(rec)
        profiler = RegionProfiler(clock)
        with hooks.profiled_region(profiler, "fit_"):
            with hooks.profiled_region(profiler, "steps_"):
                clock.advance(0.25)
            clock.advance(0.0625)
        report = profiler.report()
        assert rec.region_totals() == report.totals

    def test_traced_65sq_reconstruction_matches_profiler(self):
        """The acceptance criterion: trace-derived exclusive region totals
        from the Chrome JSON agree with RegionProfiler.report() within 1%
        on a full 65^2 reconstruction."""
        from repro.efit.fitting import EfitSolver
        from repro.efit.measurements import synthetic_shot_186610

        rec = TraceRecorder()
        shot = synthetic_shot_186610(65)
        solver = EfitSolver(
            shot.machine, shot.diagnostics, shot.grid, hooks=TraceHooks(rec)
        )
        result = solver.fit(shot.measurements)
        assert result.converged

        payload = chrome_trace(rec)
        trace_totals = region_totals(payload)
        profiler_totals = solver.profiler.report().totals
        assert set(trace_totals) == set(profiler_totals)
        for name, expected in profiler_totals.items():
            assert trace_totals[name] == pytest.approx(expected, rel=0.01), name

        # Per-iteration Picard events rode along, one per iterate.
        events = [e for e in rec.events() if e.name == "picard_iteration"]
        assert len(events) == result.iterations
        assert events[-1].attributes["converged"] is True
        assert events[-1].attributes["chi2"] == pytest.approx(result.chi2)


class TestKernelSpans:
    def test_offload_model_emits_kernel_spans(self):
        from repro.compilers.flags import parse_flags
        from repro.core.offload import PfluxOffloadModel
        from repro.machines.site import perlmutter

        site = perlmutter()
        model = site.models[0]
        build = site.compiler.configure(
            parse_flags(site.flags(model)), site.env, site.gpu
        )
        rec = TraceRecorder()
        offload = PfluxOffloadModel(65, 65, build, hooks=TraceHooks(rec))
        per_kernel = offload.invoke()

        spans = {s.name: s for s in rec.spans(category="kernel")}
        assert set(spans) == {k for k in per_kernel if k != "__total__"}
        for name, span in spans.items():
            assert span.duration == pytest.approx(per_kernel[name])
            assert span.attributes["model"] == build.model
            assert span.attributes["hbm_bytes"] > 0
