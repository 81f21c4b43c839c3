"""Property: the parallel merge is invisible in the output.

For *any* worker count and *any* job completion order, the
:class:`~repro.parallel.engine.ParallelFitEngine` must hand back results
bit-identical to the serial :class:`~repro.batch.engine.BatchFitEngine`
on the same slices — element-wise equal ``psi`` arrays, equal ``chi2``,
equal iteration counts.  This holds because jobs are the serial engine's
exact ``batch_size`` groups (identical GEMM operand shapes inside every
group) and the merge orders outcomes by submission index.

The Hypothesis search runs on the inline transport, without paying
process spawns per example.  Process-transport equality is pinned
separately in
``test_engine.py``.  The reconstruction target is the Solov'ev golden
case: an analytic equilibrium, so convergence is guaranteed and the
reference is meaningful physics, not just a fixture.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.measurements import synthetic_solovev_shot
from repro.parallel import CRASH_RATE_ENV, ParallelFitEngine, SchedulerConfig

N_SLICES = 6
BATCH_SIZE = 2


@pytest.fixture(scope="module")
def shot():
    return synthetic_solovev_shot(65)


@pytest.fixture(scope="module")
def slices(shot):
    return synthetic_slice_sequence(shot, N_SLICES, seed=3)


@pytest.fixture(scope="module")
def serial(shot, slices):
    engine = BatchFitEngine(
        shot.machine, shot.diagnostics, shot.grid, batch_size=BATCH_SIZE
    )
    return engine.fit_many(slices)


@pytest.fixture(autouse=True)
def no_crash_env(monkeypatch):
    monkeypatch.delenv(CRASH_RATE_ENV, raising=False)


@settings(max_examples=6, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=3),
)
def test_merge_is_bit_identical_to_serial(shot, slices, serial, workers):
    config = SchedulerConfig(workers=workers, transport="inline")
    with ParallelFitEngine(
        shot.machine,
        shot.diagnostics,
        shot.grid,
        batch_size=BATCH_SIZE,
        config=config,
    ) as engine:
        parallel = engine.fit_many(slices)
    assert len(parallel.results) == len(serial.results) == N_SLICES
    for ours, ref in zip(parallel.results, serial.results):
        assert np.array_equal(ours.psi, ref.psi)  # bit-for-bit, not approx
        assert ours.chi2 == ref.chi2
        assert ours.iterations == ref.iterations
        assert ours.converged and ref.converged
    assert parallel.stats.total_iterations == serial.stats.total_iterations
