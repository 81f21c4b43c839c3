"""Tests of counters and the offload executor."""

import pytest

from repro.directives.ir import AccessMode, ArrayRef, Loop, LoopNest
from repro.errors import LaunchError, RuntimeModelError
from repro.hardware.amd import mi250x_gcd
from repro.hardware.intel import pvc_stack
from repro.hardware.nvidia import a100
from repro.runtime.allocator import AllocationPolicy
from repro.runtime.counters import CounterSet
from repro.runtime.executor import OffloadExecutor
from repro.runtime.kernel import ExecutionPlan
from repro.runtime.memory import DeviceArray, Direction


def nest(n=64):
    return LoopNest(
        name="k",
        loops=(Loop("i", n), Loop("j", n)),
        flops_per_iteration=2.0,
        arrays=(
            ArrayRef("a", n * n, AccessMode.READ, 1.0),
            ArrayRef("b", n * n, AccessMode.WRITE, 1.0),
        ),
        n_outer=1,
    )


def plan(**kw):
    defaults = dict(
        kernel_name="k",
        teams=64,
        threads_per_team=64,
        traffic_factor=1.0,
        compute_efficiency=0.5,
        bandwidth_efficiency=0.5,
    )
    defaults.update(kw)
    return ExecutionPlan(**defaults)


def arrays(n=64):
    return [
        DeviceArray("a", n * n * 8, Direction.IN),
        DeviceArray("b", n * n * 8, Direction.OUT),
    ]


class TestCounters:
    def test_record_and_totals(self):
        c = CounterSet()
        c.record_launch("k", flops=10.0, read_bytes=100.0, write_bytes=50.0, seconds=1e-3)
        c.record_launch("k", flops=10.0, read_bytes=100.0, write_bytes=50.0, seconds=1e-3)
        k = c.kernel("k")
        assert k.launches == 2
        assert k.dram_bytes == 300.0
        assert k.device_seconds == pytest.approx(2e-3)

    def test_negative_rejected(self):
        with pytest.raises(RuntimeModelError):
            CounterSet().record_launch("k", flops=-1, read_bytes=0, write_bytes=0, seconds=0)


class TestExecutorLifecycle:
    def test_launch_outside_invocation_rejected(self):
        ex = OffloadExecutor(arch=a100())
        with pytest.raises(LaunchError):
            ex.launch(nest(), plan())

    def test_nested_invocations_rejected(self):
        ex = OffloadExecutor(arch=a100())
        ex.begin_invocation(arrays())
        with pytest.raises(RuntimeModelError):
            ex.begin_invocation(arrays())

    def test_end_without_begin_rejected(self):
        with pytest.raises(RuntimeModelError):
            OffloadExecutor(arch=a100()).end_invocation()

    def test_full_invocation_advances_clock_and_counters(self):
        ex = OffloadExecutor(arch=a100())
        ex.begin_invocation(arrays())
        t = ex.launch(nest(), plan())
        ex.end_invocation()
        assert t > 0
        assert ex.clock.now() >= t
        assert ex.counters.kernel("k").launches == 1
        assert ex.counters.h2d_bytes > 0  # input staged
        assert ex.counters.d2h_bytes > 0  # output returned

    def test_launch_overhead_floor(self):
        """A tiny kernel costs at least the launch latency (the paper's
        '10us of latency will impede acceleration of the smaller loops')."""
        ex = OffloadExecutor(arch=a100())
        tiny = LoopNest("t", (Loop("i", 2),), 1.0, arrays=())
        ex.begin_invocation([])
        t = ex.launch(tiny, plan(kernel_name="t", teams=2, threads_per_team=1))
        assert t >= a100().kernel_launch_us * 1e-6

    def test_multi_launch_regions_pay_multiple_latencies(self):
        ex = OffloadExecutor(arch=a100())
        tiny = LoopNest("t", (Loop("i", 2),), 1.0, arrays=())
        ex.begin_invocation([])
        t1 = ex.launch(tiny, plan(kernel_name="t", teams=2, threads_per_team=1, launches=1))
        t24 = ex.launch(tiny, plan(kernel_name="t", teams=2, threads_per_team=1, launches=24))
        assert t24 == pytest.approx(t1 + 23 * a100().kernel_launch_us * 1e-6, rel=1e-6)

    def test_occupancy_insensitive_plans_ignore_thread_count(self):
        ex = OffloadExecutor(arch=mi250x_gcd())
        big = nest(256)
        ex.begin_invocation([])
        t_few = ex.launch(big, plan(teams=4, threads_per_team=4, occupancy_sensitive=False))
        t_many = ex.launch(big, plan(teams=4096, threads_per_team=256, occupancy_sensitive=False))
        assert t_few == pytest.approx(t_many)

    def test_occupancy_sensitive_plans_speed_up_with_threads(self):
        ex = OffloadExecutor(arch=mi250x_gcd())
        big = nest(256)
        ex.begin_invocation([])
        t_few = ex.launch(big, plan(teams=16, threads_per_team=64))
        t_many = ex.launch(big, plan(teams=4096, threads_per_team=256))
        assert t_many < t_few

    def test_dram_counters_reflect_traffic_factor(self):
        n1 = nest()
        ex = OffloadExecutor(arch=a100())
        ex.begin_invocation([])
        ex.launch(n1, plan(traffic_factor=1.0))
        first = ex.counters.kernel("k").dram_bytes
        ex.launch(n1, plan(traffic_factor=2.0))
        second = ex.counters.kernel("k").dram_bytes - first
        assert second == pytest.approx(2.0 * first)


class TestIntelPaths:
    def test_target_data_much_faster_than_implicit(self):
        """The Section 6.2 optimisation: explicit data regions vs per-kernel
        implicit maps."""
        def run(use_target_data):
            ex = OffloadExecutor(arch=pvc_stack(), use_target_data=use_target_data)
            arrs = arrays(1024)
            for _ in range(5):
                ex.begin_invocation(arrs)
                for _ in range(10):
                    ex.launch(nest(1024), plan(teams=1024, threads_per_team=256))
                ex.end_invocation()
            return ex.clock.now()

        assert run(False) > 2.0 * run(True)

    def test_trim_policy_costs_more_on_amd(self):
        def run(policy):
            ex = OffloadExecutor(arch=mi250x_gcd(), allocation_policy=policy)
            arrs = arrays(64) + [
                DeviceArray(f"w{k}", 64 * 64 * 8, Direction.SCRATCH, persistent=False)
                for k in range(8)
            ]
            for _ in range(4):
                ex.begin_invocation(arrs)
                ex.launch(nest(), plan())
                ex.end_invocation()
            return ex.clock.now()

        assert run(AllocationPolicy.TRIM_ON_FREE) > run(AllocationPolicy.ARENA_REUSE)
