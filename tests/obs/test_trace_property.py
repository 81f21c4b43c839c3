"""Stateful property tests of the TraceRecorder.

A random interleaving of span-open / span-close / clock-advance /
instant-event must never violate the recorder's invariants:

* timestamps are monotone and every closed span has a non-negative
  duration;
* nesting depth always equals the open-span stack depth;
* exclusive time is non-negative and children never exceed their parent;
* the recorder's exclusive region totals equal a co-driven
  :class:`~repro.profiling.regions.RegionProfiler` exactly (shared-clock
  pairing), whatever the nesting pattern.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.obs import TraceHooks, TraceRecorder, chrome_trace, region_totals
from repro.profiling.regions import RegionProfiler
from repro.profiling.timer import VirtualClock

NAMES = ["fit_", "steps_", "current_", "green_", "pflux_"]


class TraceRecorderMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.recorder = TraceRecorder(self.clock)
        self.hooks = TraceHooks(self.recorder)
        self.profiler = RegionProfiler(self.clock)
        self.open = []  # paired-region context managers, innermost last

    @rule(name=st.sampled_from(NAMES), dt=st.floats(min_value=0.0, max_value=1.0))
    def open_span(self, name, dt):
        self.clock.advance(dt)
        cm = self.hooks.profiled_region(self.profiler, name, depth=len(self.open))
        cm.__enter__()
        self.open.append(cm)

    @precondition(lambda self: bool(self.open))
    @rule(dt=st.floats(min_value=0.0, max_value=1.0))
    def close_span(self, dt):
        self.clock.advance(dt)
        self.open.pop().__exit__(None, None, None)

    @rule(dt=st.floats(min_value=0.0, max_value=0.5))
    def advance(self, dt):
        self.clock.advance(dt)

    @rule(name=st.sampled_from(NAMES))
    def emit_event(self, name):
        self.hooks.event(name, marker=True)

    @invariant()
    def timestamps_monotone_and_nonnegative(self):
        starts = []
        for record in self.recorder.records:
            t = getattr(record, "start", None)
            if t is None:
                t = record.timestamp
            starts.append(t)
        assert starts == sorted(starts)
        for span in self.recorder.spans():
            assert span.duration >= 0.0

    @invariant()
    def open_count_matches_stack(self):
        still_open = [r for r in self.recorder.records if r.kind == "span" and not r.closed]
        assert len(still_open) == len(self.open)

    @invariant()
    def exclusive_nonnegative_and_children_bounded(self):
        for span in self.recorder.spans():
            assert span.child_duration <= span.duration + 1e-12
            assert span.exclusive >= -1e-12

    @invariant()
    def depth_tracks_parenthood(self):
        records = self.recorder.records
        for span in self.recorder.spans():
            if span.parent_index is None:
                assert span.depth == 0
            else:
                assert span.depth == records[span.parent_index].depth + 1

    def teardown(self):
        while self.open:
            self.open.pop().__exit__(None, None, None)
        # Closed out: trace totals, profiler totals and the Chrome-JSON
        # round trip must all agree.  Both sides sum the same clock
        # deltas but associate the additions differently (recorder: per
        # span at close; profiler: running exclusive accumulator), so
        # deep nests can disagree in the last ULP — compare to tolerance,
        # not bit-for-bit.
        trace_totals = self.recorder.region_totals()
        assert trace_totals == pytest.approx(self.profiler.report().totals, abs=1e-9)
        rebuilt = region_totals(chrome_trace(self.recorder))
        assert rebuilt == pytest.approx(trace_totals, abs=1e-9)


TestTraceRecorderStateful = TraceRecorderMachine.TestCase
TestTraceRecorderStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
