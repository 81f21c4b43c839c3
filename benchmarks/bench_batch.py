"""Throughput benchmarks of the batched multi-slice engine.

The headline contrast: a serial loop of ``EfitSolver.fit`` calls versus
``BatchFitEngine.fit_many`` over the same slices at the paper's 65x65
production grid.  Both paths read the same geometry statics (limiter
mask, coil flux tables) and the same factorisation; what the batched path
adds is the whole iterate taken over the batch at once — one boundary
search on the stack of fluxes, one ``green_`` product with
``B * n_coeffs`` columns, one GEMM for every slice's boundary Green sums
and one multi-RHS interior solve.  Batching ``pflux_`` alone was worth
about 1.2x at B=8; with the pre-flux half batched too, B=8 runs at
``SPEEDUP_FLOOR`` or better against the serial loop, with the same psi
and workspaces that are reused.  (The >= 2x this file demanded before the
statics were hoisted was mostly the serial path rebuilding them every
iterate.)  The measured ratios (slices/s vs batch size at 65^2 and 129^2)
land in ``results/batch_throughput.json`` and
``results/batch_throughput_129.json``.
"""

from __future__ import annotations

import json
import time
from functools import partial

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.fitting import EfitSolver

from benchmarks.conftest import write_artifact

N_SLICES = 8
#: What B=8 owes the serial loop at 65^2, in slices/s: the committed table
#: reads 1.98x with one BLAS thread (1.96x with two), and best-of-five
#: runs on a shared box wobble by 20 %.
SPEEDUP_FLOOR = 1.5


@pytest.fixture(scope="module")
def slices65(shot65):
    return synthetic_slice_sequence(shot65, N_SLICES, seed=3)


def _timed(run):
    t0 = time.perf_counter()
    result = run()
    return time.perf_counter() - t0, result


def _timed_run(engine, slices):
    engine.fit_many(slices)  # warm the workspaces and caches
    return _timed(lambda: engine.fit_many(slices))


def test_batch_vs_serial_65(shot65, slices65):
    """The acceptance run: B=8 on 65^2 beats the serial loop by
    ``SPEEDUP_FLOOR``, same psi, workspaces reused."""
    serial = EfitSolver(shot65.machine, shot65.diagnostics, shot65.grid)
    serial.fit(slices65[0])  # warm the table cache
    engines = {
        bs: BatchFitEngine(shot65.machine, shot65.diagnostics, shot65.grid, batch_size=bs)
        for bs in (8, 4, 2, 1)  # B=8, the asserted one, runs next to the serial loop
    }
    for engine in engines.values():
        engine.fit_many(slices65)  # warm the workspaces and caches

    # The box drifts by 20-30 % from minute to minute, and the ratio asked
    # for is now close to 1.  So the serial loop and the engines take
    # turns, a noisy stretch lands on all of them, and each keeps its
    # shortest run.
    runs = {"serial": lambda: [serial.fit(m) for m in slices65]}
    runs.update({bs: partial(engine.fit_many, slices65) for bs, engine in engines.items()})
    best = {}
    for _ in range(5):
        for name, run in runs.items():
            timed = _timed(run)
            if name not in best or timed[0] < best[name][0]:
                best[name] = timed
    t_serial, serial_results = best.pop("serial")

    sweep: dict[str, dict] = {}
    for bs, (t_batch, batch) in sorted(best.items()):
        sweep[str(bs)] = {
            "slices_per_second": batch.stats.slices_per_second,
            "wall_seconds": t_batch,
            "speedup_vs_serial": t_serial / t_batch,
            "latency_p50_ms": 1e3 * batch.stats.latency_p50,
            "latency_p95_ms": 1e3 * batch.stats.latency_p95,
        }
        if bs == 8:
            max_rel = max(
                float(np.max(np.abs(s.psi - b.psi)) / np.max(np.abs(s.psi)))
                for s, b in zip(serial_results, batch.results)
            )
            counters = engines[bs].workspace_counters()
            sweep[str(bs)]["max_rel_psi_err"] = max_rel
            # The three acceptance criteria of the batch engine:
            assert t_serial / t_batch >= SPEEDUP_FLOOR, sweep
            assert max_rel <= 1e-10
            assert counters.reuses > 0

    artifact = {
        "grid": "65x65",
        "n_slices": N_SLICES,
        "serial_wall_seconds": t_serial,
        "serial_slices_per_second": N_SLICES / t_serial,
        "batch": sweep,
    }
    write_artifact("batch_throughput", json.dumps(artifact, indent=2), suffix=".json")


def test_batch_scaling_129():
    """Batch-size scaling at 129^2 (fewer slices: each fit is ~10x 65^2).

    No serial baseline here — B=1 through the engine is the reference, so
    the numbers isolate what batching itself buys at a larger grid."""
    from repro.efit.measurements import synthetic_shot_186610

    shot = synthetic_shot_186610(129)
    slices = synthetic_slice_sequence(shot, 4, seed=5)
    sweep: dict[str, dict] = {}
    for bs in (1, 4):
        engine = BatchFitEngine(
            shot.machine, shot.diagnostics, shot.grid, batch_size=bs
        )
        t_batch, batch = _timed_run(engine, slices)
        sweep[str(bs)] = {
            "slices_per_second": batch.stats.slices_per_second,
            "wall_seconds": t_batch,
        }
    assert sweep["4"]["slices_per_second"] >= sweep["1"]["slices_per_second"] * 0.9
    write_artifact(
        "batch_throughput_129",
        json.dumps({"grid": "129x129", "n_slices": 4, "batch": sweep}, indent=2),
        suffix=".json",
    )


def test_engine_fit_many_65(benchmark, shot65, slices65):
    """pytest-benchmark timing of the steady-state batched run."""
    engine = BatchFitEngine(
        shot65.machine, shot65.diagnostics, shot65.grid, batch_size=8
    )
    engine.fit_many(slices65)  # warm-up
    result = benchmark(engine.fit_many, slices65)
    benchmark.extra_info["slices_per_second"] = result.stats.slices_per_second
    assert result.stats.n_converged == N_SLICES
