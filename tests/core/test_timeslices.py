"""Tests of the time-slice scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeslices import (
    ScheduleResult,
    TimeSlice,
    schedule_slices,
    synthetic_slice_counts,
)
from repro.errors import ReproError


class TestSliceGeneration:
    def test_deterministic(self):
        a = synthetic_slice_counts(50)
        b = synthetic_slice_counts(50)
        assert a == b

    def test_paper_iteration_range(self):
        """'ten or hundreds of iterations' (Section 2)."""
        slices = synthetic_slice_counts(500)
        counts = np.array([s.iterations for s in slices])
        assert counts.min() >= 10
        assert counts.max() <= 400
        assert counts.max() / counts.min() > 3  # genuinely heterogeneous

    def test_validation(self):
        with pytest.raises(ReproError):
            synthetic_slice_counts(0)
        with pytest.raises(ReproError):
            TimeSlice(0, 0)


class TestScheduling:
    def test_single_worker_is_serial(self):
        slices = synthetic_slice_counts(20)
        res = schedule_slices(slices, 1, 0.01)
        total = sum(s.iterations for s in slices) * 0.01
        assert res.makespan_seconds == pytest.approx(total)
        assert res.utilisation == pytest.approx(1.0)

    def test_all_slices_assigned_once(self):
        slices = synthetic_slice_counts(37)
        res = schedule_slices(slices, 8, 0.01)
        assigned = sorted(i for a in res.assignments for i in a)
        assert assigned == list(range(37))

    def test_lower_and_upper_makespan_bounds(self):
        """Greedy scheduling: total/P <= makespan <= total/P + max."""
        slices = synthetic_slice_counts(100)
        total = sum(s.iterations for s in slices) * 0.01
        longest = max(s.iterations for s in slices) * 0.01
        for p in (2, 8, 64):
            res = schedule_slices(slices, p, 0.01)
            assert res.makespan_seconds >= total / p - 1e-9
            assert res.makespan_seconds <= total / p + longest + 1e-9

    def test_lpt_no_worse_than_fifo(self):
        """Against a naive driver that dispatches in time order, each slice
        to the worker that frees up first."""
        slices = synthetic_slice_counts(100)
        lpt = schedule_slices(slices, 8, 0.01)
        busy = [0.0] * 8
        for s in slices:
            busy[busy.index(min(busy))] += s.iterations * 0.01
        assert lpt.makespan_seconds <= max(busy) * 1.001

    def test_more_workers_never_slower(self):
        slices = synthetic_slice_counts(64)
        spans = [
            schedule_slices(slices, p, 0.01).makespan_seconds for p in (1, 4, 16, 64)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(spans, spans[1:]))

    def test_validation(self):
        slices = synthetic_slice_counts(4)
        with pytest.raises(ReproError):
            schedule_slices(slices, 0, 0.01)
        with pytest.raises(ReproError):
            schedule_slices(slices, 2, 0.0)
        with pytest.raises(ReproError):
            schedule_slices((), 2, 0.01)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_work_conservation(self, n, p):
        slices = synthetic_slice_counts(n)
        res = schedule_slices(slices, p, 0.001)
        total = sum(s.iterations for s in slices) * 0.001
        assert res.worker_seconds.sum() == pytest.approx(total)


class TestNodeComparison:
    def test_gpu_node_beats_cpu_node_at_high_resolution(self):
        """The paper's throughput argument with heterogeneous slices:
        at 513^2, 8 Frontier GCDs beat 64 host cores."""
        from repro.core.study import PortabilityStudy, cpu_fit_seconds
        from repro.machines.site import frontier

        site = frontier()
        study = PortabilityStudy((site,))
        slices = synthetic_slice_counts(200)
        cpu = schedule_slices(slices, site.cpu.cores_per_node, cpu_fit_seconds(site, 513))
        gpu = schedule_slices(
            slices,
            site.devices_per_node,
            study.gpu_fit_seconds(site, "openmp", 513),
        )
        assert gpu.makespan_seconds < cpu.makespan_seconds

    def test_cpu_node_wins_at_low_resolution(self):
        from repro.core.study import PortabilityStudy, cpu_fit_seconds
        from repro.machines.site import frontier

        site = frontier()
        study = PortabilityStudy((site,))
        slices = synthetic_slice_counts(200)
        cpu = schedule_slices(slices, site.cpu.cores_per_node, cpu_fit_seconds(site, 65))
        gpu = schedule_slices(
            slices, site.devices_per_node, study.gpu_fit_seconds(site, "openmp", 65)
        )
        assert cpu.makespan_seconds < gpu.makespan_seconds
