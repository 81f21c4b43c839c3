"""Shared fixtures and the synchronous serving helper of the suite.

Everything here rides on the session-scoped ``shot33`` fixture: one
33^2 engine whose per-grid state (tables, statics, factorisation) every
test shares read-only, exactly as the service itself shares it across
streams.  :func:`serve_reports` is how a test outside this package (the
scenario relations, the statics spies, the operator checks) serves
frames: ``from tests.serve.conftest import serve_reports``.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.serve import Frame, ReconstructionService, ServeConfig


def serve_reports(engine, streams, *, metrics=None, clock=time.perf_counter, **config):
    """Serve ``streams`` — ``{stream id: [MeasurementSet, ...]}``, or one
    list for a single stream ``"s"`` — through a fresh
    :class:`ReconstructionService` on ``engine`` under ``asyncio.run``.

    Frame ``i`` of stream ``sid`` is ``Frame(sid, i, slices[i])``,
    submitted round-robin across streams before any is solved.  The
    config defaults to no deadline and queues deep enough that nothing is
    shed; ``config`` keywords override any :class:`ServeConfig` field.
    Returns each stream's reports in solve order (a list for one list)."""
    one = not isinstance(streams, dict)
    if one:
        streams = {"s": streams}
    n = max(len(slices) for slices in streams.values())
    service = ReconstructionService(
        engine,
        config=ServeConfig(
            **{"deadline_s": None, "queue_depth": n, "max_streams": len(streams), **config}
        ),
        metrics=metrics,
        clock=clock,
    )

    async def replay():
        async with service:
            for sid in streams:
                await service.open_stream(sid)
            for i in range(n):
                for sid, slices in streams.items():
                    if i < len(slices):
                        await service.submit(sid, Frame(sid, i, slices[i]))
            return await service.stop()

    reports = {sid: list(s.reports) for sid, s in asyncio.run(replay()).items()}
    return reports["s"] if one else reports


@pytest.fixture(scope="session")
def engine33(shot33):
    return BatchFitEngine(
        shot33.machine, shot33.diagnostics, shot33.grid, batch_size=2
    )


@pytest.fixture(scope="session")
def slices3(shot33):
    return synthetic_slice_sequence(shot33, 3, seed=7)
