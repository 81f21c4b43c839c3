"""Calibrated seconds on a fake clock: machine speed cancels, op speed does not."""

from __future__ import annotations

import pytest

from benchmarks.perf.calibration import Calibrator, Kernel, Sample, summarize, time_ops


class FakeMachine:
    """A clock that only advances when work is done on it, ``slowdown``
    times slower than on the reference box."""

    def __init__(self, slowdown: float = 1.0) -> None:
        self.now = 0.0
        self.slowdown = slowdown

    def clock(self) -> float:
        return self.now

    def work(self, reference_seconds: float) -> None:
        self.now += reference_seconds * self.slowdown


def run(machine_slowdown: float, op_slowdown: float) -> dict[str, float]:
    machine = FakeMachine(machine_slowdown)
    kernels = [
        Kernel("short", lambda: machine.work(0.002), 0.002),
        Kernel("long", lambda: machine.work(0.005), 0.005),
    ]
    # Ops of unequal length, so p50, p90 and the throughput all differ.
    ops = [lambda k=k: machine.work((0.30 + 0.01 * k) * op_slowdown) for k in range(40)]
    samples = time_ops(ops, Calibrator(kernels, clock=machine.clock))
    assert len(samples) == 40
    return summarize(samples)


def test_uniform_slowdown_cancels_op_slowdown_shows():
    base = run(1.0, 1.0)
    everything_slower = run(1.3, 1.0)
    op_slower = run(1.0, 1.3)
    for name, value in base.items():
        assert everything_slower[name] == pytest.approx(value, rel=0.01), name
    assert op_slower["op_cal_s_p50"] == pytest.approx(1.3 * base["op_cal_s_p50"], rel=0.01)
    assert op_slower["op_cal_s_p90"] == pytest.approx(1.3 * base["op_cal_s_p90"], rel=0.01)
    assert op_slower["ops_per_cal_s"] == pytest.approx(base["ops_per_cal_s"] / 1.3, rel=0.01)


def test_sample_takes_the_mean_of_the_calibrations_around_it():
    machine = FakeMachine()
    calibrator = Calibrator([Kernel("k", lambda: machine.work(0.01), 0.01)], clock=machine.clock)

    def op() -> None:
        machine.work(1.0)
        machine.slowdown = 1.2  # the machine slows while the op runs

    (sample,) = time_ops([op], calibrator)
    assert calibrator.factors == pytest.approx([1.0, 1.2])
    assert sample.factor == pytest.approx(1.1)
    assert sample.cal_s == pytest.approx(sample.raw_s / 1.1)


def test_time_box_counts_calibration_pauses():
    machine = FakeMachine()
    calibrator = Calibrator(
        [Kernel("k", lambda: machine.work(0.1), 0.1)], clock=machine.clock, reps=1
    )
    ops = [lambda: machine.work(0.4)] * 100
    # 0.1 (first calibration) + n * (0.4 + 0.1) >= 2.0 first holds at n = 4.
    assert len(time_ops(ops, calibrator, seconds=2.0)) == 4


def test_percentiles_interpolate():
    got = summarize([Sample(float(x), 1.0) for x in (1, 2, 3, 4, 5)])
    assert got["op_cal_s_p50"] == 3.0
    assert got["op_cal_s_p90"] == pytest.approx(4.6)
    assert got["ops_per_cal_s"] == pytest.approx(5 / 15)
