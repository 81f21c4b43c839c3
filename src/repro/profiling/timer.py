"""Wall and virtual clocks behind one interface."""

from __future__ import annotations

import abc
import time

__all__ = ["Clock", "WallClock", "VirtualClock"]


class Clock(abc.ABC):
    """Monotonic seconds source."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds."""

    def advance(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` — a no-op on real clocks."""
        raise NotImplementedError(f"{type(self).__name__} cannot be advanced")


class WallClock(Clock):
    """``time.perf_counter`` — the ``omp_get_wtime()`` analog."""

    def now(self) -> float:
        return time.perf_counter()


class VirtualClock(Clock):
    """A deterministic clock advanced explicitly by cost models.

    Every modeled kernel launch, page migration and host transfer calls
    :meth:`advance`; reading :meth:`now` at region boundaries produces
    simulated timings that are bit-reproducible across runs.
    """

    def __init__(self) -> None:
        self._t = 0.0

    def now(self) -> float:
        return self._t

    def advance(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError(f"cannot advance a clock by {seconds} s")
        self._t += seconds
