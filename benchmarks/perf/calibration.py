"""Calibrated seconds: wall time divided by an in-process speed factor.

A shared two-core box drifts by tens of percent from minute to minute
(neighbours, frequency, cache pressure), which is more than any bound a
regression gate could use.  Every timing the benchmark reports is therefore
divided by a *speed factor* ``f`` measured in the same process, right
before and right after the sample:

    f = equal-weight mean over five micro-kernels of (measured / reference)

so ``f`` is 1.0 on the reference box in its reference state, 1.3 when
everything runs 1.3x slower, and ``wall / f`` — a *calibrated second* —
stays put when the machine, not the code, changed speed.  The kernels
mirror the mix a fit is made of: interpreter dispatch, a small GEMM, the
sine transform of the interior solve, a memory stream, and the
mask/where/gradient array passes of the boundary search.  The reference
times are frozen constants: changing them rescales every calibrated
number, so they only ever change together with a new noise study.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "Kernel",
    "Calibrator",
    "Sample",
    "default_kernels",
    "time_ops",
    "summarize",
]


@dataclass(frozen=True)
class Kernel:
    """One micro-kernel and its frozen reference time."""

    name: str
    run: Callable[[], object]
    #: Seconds one ``run()`` takes on the reference box (frozen).
    reference_s: float


def default_kernels() -> tuple[Kernel, ...]:
    """The five benchmark-owned kernels (inputs are fixed, not seeded)."""
    import numpy as np
    import scipy.fft

    rng = np.random.default_rng(20231112)
    a = rng.standard_normal((200, 200))
    b = rng.standard_normal((200, 200))
    ab = np.empty((200, 200))
    field = rng.standard_normal((65, 65))
    stream = np.ones(4_000_000)  # 32 MB: past L2, streams from L3/DRAM

    def interpreter() -> int:
        acc = 0
        for i in range(3000):
            acc += i & 7
        return acc

    def gemm() -> None:
        # out=: a fresh 320 KB result would be mmapped and page-faulted on
        # every call whenever the program's own frees have moved the
        # allocator's thresholds, and the kernel would time the allocator.
        for _ in range(5):
            np.matmul(a, b, out=ab)

    def dst() -> None:
        for _ in range(20):
            scipy.fft.dstn(field, type=1)

    def stream_multiply() -> None:
        np.multiply(stream, 1.0000001, out=stream)  # in place: 32 MB of RSS, not 64

    def mask_gradient() -> None:
        for _ in range(40):
            mask = field > 0.1
            np.where(mask, field, 0.0)
            np.gradient(field, 0.01, axis=1)

    return (
        Kernel("interpreter", interpreter, 1.0e-4),
        Kernel("gemm", gemm, 1.8e-3),
        Kernel("dst", dst, 1.4e-3),
        Kernel("stream", stream_multiply, 2.3e-3),
        Kernel("mask_gradient", mask_gradient, 1.3e-3),
    )


class Calibrator:
    """Measures the speed factor and remembers every reading."""

    def __init__(
        self,
        kernels: Sequence[Kernel],
        clock: Callable[[], float] = time.perf_counter,
        reps: int = 3,
    ) -> None:
        if not kernels:
            raise ValueError("need at least one calibration kernel")
        self.kernels = tuple(kernels)
        self.clock = clock
        self.reps = reps
        #: Every speed factor measured so far, in order.
        self.factors: list[float] = []

    def calibrate(self) -> float:
        """One calibration: each kernel's mean time over ``reps`` runs
        divided by its reference, averaged with equal weights.

        The mean, not the median or the minimum: an op sees the machine's
        average state over its window, bursts included, and while sizing
        the benchmark the mean of the repetitions followed the ops about
        twice as closely as either robust choice.
        """
        clock = self.clock
        ratios = []
        for kernel in self.kernels:
            t0 = clock()
            for _ in range(self.reps):
                kernel.run()
            ratios.append((clock() - t0) / (self.reps * kernel.reference_s))
        factor = statistics.fmean(ratios)
        self.factors.append(factor)
        return factor


@dataclass(frozen=True)
class Sample:
    """One timed sample and the speed factor bracketing it."""

    raw_s: float
    factor: float

    @property
    def cal_s(self) -> float:
        return self.raw_s / self.factor


def time_ops(
    ops: Iterable[Callable[[], object]],
    calibrator: Calibrator,
    *,
    seconds: float | None = None,
) -> list[Sample]:
    """Time each op between two calibrations (the one after op *i* is the
    one before op *i+1*).  With ``seconds`` the loop stops taking new ops
    once that much time, calibration pauses included, has passed."""
    clock = calibrator.clock
    samples: list[Sample] = []
    started = clock()
    before = calibrator.calibrate()
    for op in ops:
        t0 = clock()
        op()
        raw = clock() - t0
        after = calibrator.calibrate()
        samples.append(Sample(raw, 0.5 * (before + after)))
        before = after
        if seconds is not None and clock() - started >= seconds:
            break
    return samples


def summarize(samples: Sequence[Sample]) -> dict[str, float]:
    """The three op-time metrics, from per-op samples in calibrated seconds."""
    cal = [s.cal_s for s in samples]
    return {
        "op_cal_s_p50": statistics.median(cal),
        # linear interpolation between order statistics, as numpy's default
        "op_cal_s_p90": statistics.quantiles(cal, n=10, method="inclusive")[-1],
        "ops_per_cal_s": len(cal) / sum(cal),
    }
