"""Per-slice warm-start seeds through the batched engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.errors import FittingError


@pytest.fixture(scope="module")
def engine(shot33):
    return BatchFitEngine(
        shot33.machine, shot33.diagnostics, shot33.grid, batch_size=2
    )


@pytest.fixture(scope="module")
def slices(shot33):
    return synthetic_slice_sequence(shot33, 4, seed=3)


@pytest.fixture(scope="module")
def cold_batch(engine, slices):
    return engine.fit_many(slices)


class TestWarmBatch:
    def test_seeded_slices_converge_faster(self, engine, slices, cold_batch):
        seeds = [r.psi for r in cold_batch.results]
        warm = engine.fit_many(slices, psi_initial=seeds)
        for w, c in zip(warm.results, cold_batch.results):
            assert w.converged and w.warm_start
            assert w.iterations < c.iterations

    def test_sparse_seeding_mixes_warm_and_cold(self, engine, slices, cold_batch):
        """None entries stay cold; only the seeded slice goes warm.  The
        cold ones run the cold iterates: to round-off, because the warm
        slice leaves its batch early and the ``green_`` products its
        companion shares shrink to one slice's width from then on
        (DESIGN.md §6, second row)."""
        seeds = [None, cold_batch.results[1].psi, None, None]
        mixed = engine.fit_many(slices, psi_initial=seeds)
        flags = [r.warm_start for r in mixed.results]
        assert flags == [False, True, False, False]
        assert mixed.results[1].iterations < cold_batch.results[1].iterations
        for k in (0, 2, 3):
            got, cold = mixed.results[k], cold_batch.results[k]
            assert got.iterations == cold.iterations
            assert np.max(np.abs(got.psi - cold.psi)) <= 1e-9 * np.ptp(cold.psi)
        # The batch of two cold slices is the same batch in both runs.
        for k in (2, 3):
            np.testing.assert_array_equal(mixed.results[k].psi, cold_batch.results[k].psi)

    def test_warm_batch_matches_warm_serial_solver(
        self, engine, slices, cold_batch
    ):
        """A warm batched slice runs the same op sequence as a warm
        serial fit up to GEMM-shape round-off: identical iteration
        counts, matching flux maps."""
        seeds = [r.psi for r in cold_batch.results]
        warm = engine.fit_many(slices, psi_initial=seeds)
        for m, seed, w in zip(slices, seeds, warm.results):
            serial = engine.solver.fit(m, psi_initial=seed)
            assert serial.iterations == w.iterations
            np.testing.assert_allclose(serial.psi, w.psi, rtol=1e-12, atol=1e-12)

    def test_seed_length_mismatch_rejected(self, engine, slices):
        with pytest.raises(FittingError):
            engine.fit_many(slices, psi_initial=[None, None])
