"""Warm-start seeds across process-parallel workers: bit-identity.

The satellite contract: warm ``ParallelFitEngine.fit_many`` must be
bit-identical to warm serial ``BatchFitEngine.fit_many`` — seeds ride
the job payloads into the workers without perturbing a single ulp.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.errors import FittingError
from repro.parallel import CRASH_RATE_ENV, ParallelFitEngine, SchedulerConfig


@pytest.fixture(scope="module")
def slices(shot33):
    return synthetic_slice_sequence(shot33, 4, seed=3)


@pytest.fixture(scope="module")
def seeds(shot33, slices):
    engine = BatchFitEngine(
        shot33.machine, shot33.diagnostics, shot33.grid, batch_size=2
    )
    return [r.psi for r in engine.fit_many(slices).results]


@pytest.fixture(autouse=True)
def no_crash_env(monkeypatch):
    monkeypatch.delenv(CRASH_RATE_ENV, raising=False)


def _inline_engine(shot, *, workers=2):
    return ParallelFitEngine(
        shot.machine,
        shot.diagnostics,
        shot.grid,
        batch_size=2,
        config=SchedulerConfig(workers=workers, transport="inline"),
    )


class TestWarmParallel:
    def test_warm_parallel_bit_identical_to_warm_serial(
        self, shot33, slices, seeds
    ):
        serial_engine = BatchFitEngine(
            shot33.machine, shot33.diagnostics, shot33.grid, batch_size=2
        )
        serial = serial_engine.fit_many(slices, psi_initial=seeds)
        with _inline_engine(shot33) as engine:
            parallel = engine.fit_many(slices, psi_initial=seeds)
        for a, b in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(a.psi, b.psi)
            assert a.chi2 == b.chi2
            assert a.iterations == b.iterations
            assert a.warm_start and b.warm_start

    def test_warm_cuts_iterations_across_workers(self, shot33, slices, seeds):
        with _inline_engine(shot33) as engine:
            cold = engine.fit_many(slices)
            warm = engine.fit_many(slices, psi_initial=seeds)
        assert warm.stats.total_iterations < cold.stats.total_iterations
        assert all(r.warm_start for r in warm.results)

    def test_seed_length_mismatch_rejected(self, shot33, slices, seeds):
        with _inline_engine(shot33) as engine:
            with pytest.raises(FittingError):
                engine.fit_many(slices, psi_initial=seeds[:-1])
