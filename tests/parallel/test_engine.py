"""ParallelFitEngine: API parity, bit-identical merge, failure modes."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.measurements import synthetic_shot_186610
from repro.efit.operators import cached_edge_operator
from repro.efit.tables import cached_boundary_tables
from repro.efit.grid import RZGrid
from repro.errors import FittingError, GridError, JobQuarantinedError
from repro.obs import TraceHooks, TraceRecorder
from repro.parallel import CRASH_RATE_ENV, ParallelFitEngine, SchedulerConfig
from repro.parallel.engine import _map_arena


@pytest.fixture(scope="module")
def shot():
    return synthetic_shot_186610(33)


@pytest.fixture(scope="module")
def slices(shot):
    return synthetic_slice_sequence(shot, 6, seed=3)


@pytest.fixture(scope="module")
def serial_result(shot, slices):
    engine = BatchFitEngine(shot.machine, shot.diagnostics, shot.grid, batch_size=2)
    return engine.fit_many(slices)


@pytest.fixture(autouse=True)
def no_crash_env(monkeypatch):
    monkeypatch.delenv(CRASH_RATE_ENV, raising=False)


def _inline_engine(shot, *, workers, **kwargs):
    return ParallelFitEngine(
        shot.machine,
        shot.diagnostics,
        shot.grid,
        batch_size=2,
        config=SchedulerConfig(workers=workers, transport="inline"),
        **kwargs,
    )


def _assert_identical(serial, parallel):
    assert len(serial.results) == len(parallel.results)
    for a, b in zip(serial.results, parallel.results):
        np.testing.assert_array_equal(a.psi, b.psi)
        assert a.chi2 == b.chi2
        assert a.iterations == b.iterations
        assert a.converged == b.converged


class TestBitIdenticalMerge:
    def test_real_processes_match_serial(self, shot, slices, serial_result):
        with ParallelFitEngine(
            shot.machine, shot.diagnostics, shot.grid, batch_size=2
        ) as engine:
            parallel = engine.fit_many(slices)
        _assert_identical(serial_result, parallel)
        assert parallel.stats.n_slices == 6
        assert parallel.stats.n_converged == 6
        assert parallel.stats.total_iterations == serial_result.stats.total_iterations

    def test_inline_matches_serial(self, shot, slices, serial_result):
        with _inline_engine(shot, workers=3) as engine:
            parallel = engine.fit_many(slices)
        _assert_identical(serial_result, parallel)

    def test_spawned_processes_match_serial(self, shot, slices):
        """A spawned worker has nothing of the parent's but the pickled
        init arguments: the arena's path must map in a fresh
        interpreter, and the merge must not care how workers started."""
        serial = BatchFitEngine(
            shot.machine, shot.diagnostics, shot.grid, batch_size=2
        ).fit_many(slices[:4])
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            batch_size=2,
            config=SchedulerConfig(workers=2, start_method="spawn"),
        ) as engine:
            parallel = engine.fit_many(slices[:4])
        _assert_identical(serial, parallel)


class TestEngineApi:
    def test_bad_batch_size(self, shot):
        with pytest.raises(FittingError):
            ParallelFitEngine(
                shot.machine, shot.diagnostics, shot.grid, batch_size=0
            )

    def test_worker_count_from_the_config(self, shot):
        for config, expected in (
            (SchedulerConfig(workers=3, transport="inline"), 3),
            (SchedulerConfig(transport="inline"), 2),
            (None, 2),  # the pool starts lazily: no process is spawned here
        ):
            with ParallelFitEngine(
                shot.machine, shot.diagnostics, shot.grid, config=config
            ) as engine:
                assert engine.config.workers == expected

    def test_empty_slices(self, shot):
        with _inline_engine(shot, workers=1) as engine:
            with pytest.raises(FittingError):
                engine.fit_many([])

    def test_each_engine_owns_its_arena(self, shot, slices, serial_result):
        """Two fleets on one grid and operator stage two directories of
        the same bytes; closing one removes its own and leaves the other
        fleet reconstructing."""
        e1 = _inline_engine(shot, workers=1)
        with _inline_engine(shot, workers=1) as e2:
            try:
                assert e1.arena != e2.arena
                (t1, op1), (t2, op2) = (
                    _map_arena(e.arena, shot.grid, "toeplitz") for e in (e1, e2)
                )
                assert t1.gpc.tobytes() == t2.gpc.tobytes()
                a1, a2 = op1.to_arrays(), op2.to_arrays()
                assert a1.keys() == a2.keys()
                assert all(a1[name].tobytes() == a2[name].tobytes() for name in a1)
            finally:
                e1.close()
            assert not os.path.exists(e1.arena)
            assert os.path.isdir(e2.arena)
            _assert_identical(serial_result, e2.fit_many(slices))
        assert not os.path.exists(e2.arena)

    def test_failed_construction_releases_the_arena(self, shot, monkeypatch, arena_tmpdir):
        """No engine comes back to close(), so the constructor removes the
        arena it staged itself."""
        import repro.parallel.engine as engine_module

        def refuse(*args, **kwargs):
            raise RuntimeError("no pool today")

        monkeypatch.setattr(engine_module, "ProcessScheduler", refuse)
        before = set(arena_tmpdir.glob("repro_arena_*"))
        lowrank = cached_edge_operator(cached_boundary_tables(shot.grid), "lowrank")
        with pytest.raises(RuntimeError, match="no pool today"):
            _inline_engine(shot, workers=1, edge_operator=lowrank)
        assert set(arena_tmpdir.glob("repro_arena_*")) == before

    def test_a_fleet_dropped_without_close_leaves_no_arena(self, tmp_path):
        """A script that never calls close() still leaves its ``TMPDIR``
        clean: the arena's finalizer removes the directory at exit."""
        script = textwrap.dedent(
            """
            import glob, os
            from repro.batch import synthetic_slice_sequence
            from repro.efit.measurements import synthetic_shot_186610
            from repro.parallel import ParallelFitEngine, SchedulerConfig

            shot = synthetic_shot_186610(17)
            engine = ParallelFitEngine(
                shot.machine, shot.diagnostics, shot.grid, batch_size=2,
                config=SchedulerConfig(workers=1, transport="inline"),
            )
            engine.fit_many(synthetic_slice_sequence(shot, 2, seed=3))
            print(len(glob.glob(os.path.join(os.environ["TMPDIR"], "repro_arena_*"))))
            """
        )
        env = {**os.environ, "TMPDIR": str(tmp_path)}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        env.pop(CRASH_RATE_ENV, None)
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["1"]  # the arena was there while it ran ...
        assert not list(tmp_path.glob("repro_arena_*"))  # ... and is gone

    @pytest.mark.parametrize(
        "other",
        [
            RZGrid(17, 17),
            RZGrid(33, 33, rmax=1.1 * 2.54),
        ],
        ids=["coarser", "wider"],
    )
    def test_an_operator_on_another_grid_is_refused_before_staging(
        self, shot, other, arena_tmpdir
    ):
        """The workers reconstruct on the fleet's grid: an operator built
        on another — another shape, or the same shape over other extents —
        is a ``GridError`` before any arena exists (the fleet used to
        stage it and return flux maps on the operator's grid)."""
        op = cached_edge_operator(cached_boundary_tables(other))
        before = set(arena_tmpdir.glob("repro_arena_*"))
        with pytest.raises(GridError, match="edge operator built for grid"):
            _inline_engine(shot, workers=1, edge_operator=op)
        assert set(arena_tmpdir.glob("repro_arena_*")) == before

    def test_close_is_idempotent(self, shot):
        engine = _inline_engine(shot, workers=1)
        engine.close()
        engine.close()


class TestFailureModes:
    def test_quarantine_raises_by_default(self, shot, slices, monkeypatch):
        monkeypatch.setenv(CRASH_RATE_ENV, "1.0")
        with _inline_engine(shot, workers=2) as engine:
            with pytest.raises(JobQuarantinedError) as excinfo:
                engine.fit_many(slices)
        assert len(excinfo.value.failures) == 3  # one per job group
        assert all(f.reason == "crash" for f in excinfo.value.failures)

    def test_allow_failures_returns_survivors(self, shot, slices, monkeypatch):
        # Seeded so some jobs crash past the retry budget and some survive.
        monkeypatch.setenv(CRASH_RATE_ENV, "0.6")
        monkeypatch.setenv("REPRO_PARALLEL_CRASH_SEED", "1")
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            batch_size=2,
            config=SchedulerConfig(
                workers=2,
                transport="inline",
                max_retries=0,
                backoff_seconds=0.0,
            ),
        ) as engine:
            result = engine.fit_many(slices, allow_failures=True)
        assert result.failures  # some quarantined ...
        assert result.results  # ... some survived
        assert len(result.results) == 6 - 2 * len(result.failures)

    @pytest.mark.parametrize("transport", ["process", "inline"])
    def test_missing_arena_is_a_typed_quarantine(self, shot, slices, transport):
        """A worker that cannot map its arena fails each job once, naming
        why — not a raw exception out of ``fit_many``, not a pool that
        respawns until it is declared broken."""
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            batch_size=2,
            config=SchedulerConfig(workers=2, transport=transport),
        ) as engine:
            shutil.rmtree(engine.arena)
            with pytest.raises(JobQuarantinedError) as excinfo:
                engine.fit_many(slices)
        failures = excinfo.value.failures
        assert len(failures) == 3  # one per job group
        for failure in failures:
            assert failure.reason == "error" and failure.attempts == 1
            assert "ArenaError" in failure.detail


class TestMergedObservability:
    def test_trace_and_metrics(self, shot, slices):
        recorder = TraceRecorder()
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            batch_size=2,
            hooks=TraceHooks(recorder),
        ) as engine:
            result = engine.fit_many(slices)
            trace = engine.merged_trace()
            metrics = engine.merged_metrics()
        assert sum(r.jobs_done for r in result.worker_reports) == 3
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert 0 in pids and len(pids) == 3
        # Worker lanes carry the engine's own instrumentation (pflux_
        # batch regions) nested under the scheduler's job spans.
        span_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X" and e["pid"] > 0
        }
        assert "job" in span_names and "pflux_" in span_names
        assert metrics["metrics"]["jobs_completed"] == 3.0
        assert metrics["metrics"]["job_seconds"]["count"] == 3
        assert metrics["parent"]["scheduler.completed"] == 3.0
        assert metrics["parent"]["scheduler.quarantined"] == 0.0
