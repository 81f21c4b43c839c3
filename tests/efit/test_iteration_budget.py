"""Picard iterate budgets: seconds per slice is iterates x seconds per
iterate, and this file gates the first factor with counts, which repeat
exactly, where the benchmark gates the product with timings.

Measured under the one scheme (the full least-squares step from a
trusted seed; EXPERIMENTS.md "Picard step (PR 20)" and "Measured cold
start"): a cold base shot seeded from its own magnetics takes 6-13
iterates at 33^2 and 65^2 (10-17 from the filament seed and its three
warm-up iterates), a warm-chained 65^2 frame 3-4.
``Scenario.max_iterations`` is about twice the filament count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.fitting import EfitSolver
from repro.scenarios import get_scenario, scenario_names


#: Cold base-shot iterate budgets, ``(33^2, 65^2)``: the measured-seed
#: counts plus two.  Double-null's 65^2 seed is revoked by the guard
#: (13 iterates, one more than the filament start's 12).
COLD_BUDGET = {
    "g186610": (8, 8),
    "solovev": (10, 9),
    "spherical-torus": (12, 12),
    "double-null": (13, 15),
    "single-null": (11, 12),
    "mse": (12, 11),
}


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("name", scenario_names())
def test_cold_base_shot_within_envelope(name, n):
    sc = get_scenario(name)
    shot = sc.make_shot(n)
    result = EfitSolver.for_scenario(sc, shot=shot).fit(shot.measurements)
    assert result.iterations <= COLD_BUDGET[name][n == 65] <= sc.max_iterations
    assert result.chi2 <= sc.max_chi2
    # Undamped, the map contracts several-fold an iterate; the half-step
    # scheme this replaced sat at 0.8.
    assert result.contraction < 0.5


@pytest.mark.parametrize("name", ["g186610", "single-null"])
def test_warm_chain_budget(name):
    """Twelve frames, each seeded with the previous psi — the serve path."""
    sc = get_scenario(name)
    shot = sc.make_shot(65)
    solver = EfitSolver.for_scenario(sc, shot=shot)
    prev = solver.fit(shot.measurements)
    iterations = []
    for frame in synthetic_slice_sequence(shot, 12, seed=0):
        prev = solver.fit(frame, psi_initial=prev.psi)
        assert prev.warm_start, "divergence guard fell back to a cold warm-up"
        iterations.append(prev.iterations)
    assert np.mean(iterations) <= 4.5
    assert max(iterations) <= 8


@pytest.mark.parametrize("name", scenario_names())
def test_batch_of_eight_iterates_equal_serial(name):
    """Lock-step batching changes no slice's trajectory: same count per
    slice as the engine's own solver run serially, inside the envelope."""
    sc = get_scenario(name)
    shot = sc.make_shot(65)
    engine = BatchFitEngine.for_scenario(sc, shot=shot, batch_size=8)
    slices = synthetic_slice_sequence(shot, 8, seed=0)
    batched = [r.iterations for r in engine.fit_many(slices).results]
    assert batched == [engine.solver.fit(m).iterations for m in slices]
    assert max(batched) <= sc.max_iterations
