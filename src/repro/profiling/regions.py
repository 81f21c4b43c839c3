"""Named-region profiler for the ``fit_`` subroutine breakdowns.

The paper instruments ``fit_`` with ``omp_get_wtime()`` around its four
principal callees (``green_``, ``current_``, ``pflux_``, ``steps_``) and
plots the relative shares as pie charts (Figures 1 and 6).
:class:`RegionProfiler` does the same for our solver: regions nest, repeat
and accumulate; :meth:`RegionProfiler.report` yields totals, call counts
and percentage shares ready for the figure harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiling.timer import Clock, WallClock

__all__ = ["RegionProfiler", "RegionReport"]


@dataclass
class _RegionStats:
    total: float = 0.0
    calls: int = 0


@dataclass(frozen=True)
class RegionReport:
    """Immutable snapshot of the profiler state."""

    totals: dict[str, float]
    calls: dict[str, int]

    @property
    def grand_total(self) -> float:
        return sum(self.totals.values())

    def fraction(self, name: str) -> float:
        """Share of ``name`` in the grand total (0 when nothing recorded)."""
        total = self.grand_total
        if total <= 0.0:
            return 0.0
        return self.totals.get(name, 0.0) / total

    def percentages(self) -> dict[str, float]:
        """Region -> percentage of the grand total, the pie-chart data."""
        total = self.grand_total
        if total <= 0.0:
            return {name: 0.0 for name in self.totals}
        return {name: 100.0 * t / total for name, t in self.totals.items()}

    def time_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        if calls == 0:
            return 0.0
        return self.totals[name] / calls


class _Region:
    """One :meth:`RegionProfiler.region`: an object, not a generator, as
    every Picard iterate opens several."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "RegionProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> None:
        self._profiler.begin(self._name)

    def __exit__(self, *exc: object) -> bool:
        self._profiler.end()
        return False


class RegionProfiler:
    """Accumulates exclusive time per named region on an injectable clock.

    Regions may nest; time spent in an inner region is *excluded* from the
    enclosing one (exclusive timing), matching how the paper attributes
    ``fit_`` time to its callees plus an ``other`` remainder.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._stats: dict[str, _RegionStats] = {}
        # (name, inner time to subtract, start timestamp)
        self._stack: list[tuple[str, float, float]] = []

    def begin(self, name: str, now: float | None = None) -> None:
        """Open a region at ``now`` (default: read the clock).

        The explicit-timestamp form lets a co-instrumenting recorder (see
        :class:`~repro.obs.hooks.TraceHooks`) share one clock read with
        the profiler, so both report identical region totals.
        """
        if now is None:
            now = self.clock.now()
        self._stack.append((name, 0.0, now))

    def end(self, now: float | None = None) -> None:
        """Close the innermost open region at ``now`` and account it."""
        if not self._stack:
            raise ValueError("RegionProfiler.end() without a matching begin()")
        if now is None:
            now = self.clock.now()
        name, inner, start = self._stack.pop()
        elapsed = now - start
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = _RegionStats()
        stats.total += elapsed - inner
        stats.calls += 1
        if self._stack:
            outer_name, outer_inner, outer_start = self._stack[-1]
            self._stack[-1] = (outer_name, outer_inner + elapsed, outer_start)

    def region(self, name: str) -> "_Region":
        """A ``with``-able region: :meth:`begin` on entry, :meth:`end` on
        exit, whatever the exit."""
        return _Region(self, name)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record time directly (used by the simulated executors)."""
        if seconds < 0.0:
            raise ValueError("negative region time")
        stats = self._stats.setdefault(name, _RegionStats())
        stats.total += seconds
        stats.calls += calls

    def report(self) -> RegionReport:
        return RegionReport(
            totals={k: v.total for k, v in self._stats.items()},
            calls={k: v.calls for k, v in self._stats.items()},
        )

    def reset(self) -> None:
        self._stats.clear()
        self._stack.clear()
