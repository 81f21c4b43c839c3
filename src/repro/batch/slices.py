"""Slice-sequence utilities and throughput statistics.

A between-shot analysis reconstructs hundreds of time slices of the same
discharge: same machine, same grid, measurement vectors that drift
slowly in time.  :func:`synthetic_slice_sequence` manufactures such a
sequence from one synthetic shot (per-slice resampled measurement noise)
so benchmarks and examples can exercise the batch engine with realistic,
mutually distinct slices.  :func:`batch_groups` is the one place a slice
sequence is cut into lock-step groups — the batch engine's batches and
the fleet's jobs are its output.  :class:`BatchStats` is the aggregate
throughput report the engine returns: slices/s plus latency percentiles,
the figures of merit of the real-time reconstruction literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.efit.measurements import MeasurementSet, SyntheticShot
from repro.errors import FittingError, MeasurementError

__all__ = ["BatchStats", "batch_groups", "synthetic_slice_sequence"]


def batch_groups(
    slices: Sequence, psi_initial: Sequence | None, batch_size: int
) -> list[tuple[int, list, list | None]]:
    """Cut ``slices`` into ``fit_many``'s lock-step groups, in input order.

    Returns ``(start, group, seeds)`` triples: ``group`` is
    ``slices[start : start + batch_size]`` and ``seeds`` the matching
    ``psi_initial`` entries (``None`` when no warm starts were given).
    Raises :class:`~repro.errors.FittingError` on an empty sequence or a
    ``psi_initial`` of the wrong length.
    """
    slices = list(slices)
    if not slices:
        raise FittingError("fit_many needs at least one slice")
    if psi_initial is not None:
        psi_initial = list(psi_initial)
        if len(psi_initial) != len(slices):
            raise FittingError(
                f"psi_initial has {len(psi_initial)} entries for "
                f"{len(slices)} slices"
            )
    return [
        (
            start,
            slices[start : start + batch_size],
            psi_initial[start : start + batch_size]
            if psi_initial is not None
            else None,
        )
        for start in range(0, len(slices), batch_size)
    ]


@dataclass(frozen=True)
class BatchStats:
    """Aggregate throughput statistics of one engine run."""

    n_slices: int
    n_converged: int
    total_iterations: int
    wall_seconds: float
    slices_per_second: float
    latency_p50: float
    latency_p95: float
    latency_mean: float

    @classmethod
    def from_latencies(
        cls,
        latencies: np.ndarray,
        wall_seconds: float,
        *,
        total_iterations: int,
        n_converged: int,
    ) -> "BatchStats":
        """Reduce per-slice completion latencies into the aggregate view."""
        latencies = np.asarray(latencies, dtype=float)
        if latencies.ndim != 1 or latencies.size == 0:
            raise MeasurementError("need a non-empty 1-D latency vector")
        return cls(
            n_slices=int(latencies.size),
            n_converged=int(n_converged),
            total_iterations=int(total_iterations),
            wall_seconds=float(wall_seconds),
            slices_per_second=float(latencies.size / wall_seconds) if wall_seconds > 0 else 0.0,
            latency_p50=float(np.percentile(latencies, 50)),
            latency_p95=float(np.percentile(latencies, 95)),
            latency_mean=float(latencies.mean()),
        )

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.n_slices} slices ({self.n_converged} converged, "
            f"{self.total_iterations} iterations) in {self.wall_seconds:.3f} s "
            f"= {self.slices_per_second:.1f} slices/s, "
            f"latency p50 {1e3 * self.latency_p50:.1f} ms / "
            f"p95 {1e3 * self.latency_p95:.1f} ms"
        )


def synthetic_slice_sequence(
    shot: SyntheticShot, n_slices: int, *, noise_scale: float = 0.3, seed: int = 0
) -> list[MeasurementSet]:
    """A shot's worth of mutually distinct time slices.

    Each slice re-samples the measurement noise of ``shot`` at
    ``noise_scale`` times the per-channel uncertainty — slices share the
    underlying equilibrium (like neighbouring times of a flat-top) but
    carry independent realisations, so every reconstruction follows its
    own Picard trajectory.
    """
    if n_slices < 1:
        raise MeasurementError("need at least one slice")
    if noise_scale < 0.0:
        raise MeasurementError("noise_scale must be non-negative")
    rng = np.random.default_rng(seed)
    base = shot.measurements
    out: list[MeasurementSet] = []
    for _ in range(n_slices):
        values = base.values + rng.normal(0.0, noise_scale * base.uncertainties)
        out.append(
            MeasurementSet(
                values=values,
                uncertainties=base.uncertainties.copy(),
                coil_currents=base.coil_currents.copy(),
                names=base.names,
            )
        )
    return out
