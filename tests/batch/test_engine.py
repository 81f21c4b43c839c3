"""Tests of the batch engine against the serial single-slice driver."""

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.errors import ConvergenceError, FittingError, MeasurementError
from repro.profiling.regions import RegionProfiler


@pytest.fixture(scope="module")
def slices6(shot33):
    return synthetic_slice_sequence(shot33, 6, seed=7)


@pytest.fixture(scope="module")
def serial_results(shot33, slices6):
    from repro.efit.fitting import EfitSolver

    solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
    return [solver.fit(m) for m in slices6]


@pytest.fixture(scope="module")
def engine(shot33):
    return BatchFitEngine(
        shot33.machine, shot33.diagnostics, shot33.grid, batch_size=4
    )


class TestEngineVsSerial:
    def test_psi_matches_serial(self, engine, slices6, serial_results):
        """Batched and serial reconstructions agree to <= 1e-10 relative
        (acceptance criterion; in practice they track to round-off)."""
        batch = engine.fit_many(slices6)
        assert len(batch.results) == len(slices6)
        for serial, batched in zip(serial_results, batch.results):
            scale = np.max(np.abs(serial.psi))
            assert np.max(np.abs(serial.psi - batched.psi)) <= 1e-10 * scale
            assert batched.converged == serial.converged
            assert len(batched.history) == len(serial.history)
            assert batched.chi2 == pytest.approx(serial.chi2, rel=1e-9)

    def test_ragged_final_batch(self, engine, slices6):
        """Six slices at batch_size=4 exercise the 4+2 split."""
        batch = engine.fit_many(slices6)
        assert batch.stats.n_slices == 6
        assert batch.stats.n_converged == 6


class TestLockStepIterate:
    def test_no_step_of_an_iterate_loops_over_the_slices(self, shot33, monkeypatch):
        """At B = 8 a lock-step iterate makes one stacked least-squares
        call (over the slices past their warm-up), one vertical shift of
        the current stack and one post-flux pass — none per slice."""
        import repro.efit.fitting as fitting
        from repro.efit.fitting import N_WARMUP
        from repro.efit.grid import RZGrid

        calls = {"lsq": [], "shift": [], "post": []}
        lsq, shift, post = fitting.solve_lsq_stack, RZGrid.shift_z, fitting.EfitSolver.iterate_post

        def spy_lsq(matrices, data, *, ridge):
            calls["lsq"].append(len(matrices))
            return lsq(matrices, data, ridge=ridge)

        def spy_shift(grid, field, delz):
            calls["shift"].append(np.shape(delz))
            return shift(grid, field, delz)

        def spy_post(solver, states, psi_new):
            calls["post"].append(len(states))
            return post(solver, states, psi_new)

        monkeypatch.setattr(fitting, "solve_lsq_stack", spy_lsq)
        monkeypatch.setattr(RZGrid, "shift_z", spy_shift)
        monkeypatch.setattr(fitting.EfitSolver, "iterate_post", spy_post)
        profiler = RegionProfiler()
        engine = BatchFitEngine(
            shot33.machine, shot33.diagnostics, shot33.grid, batch_size=8, profiler=profiler
        )
        result = engine.fit_many(synthetic_slice_sequence(shot33, 8, seed=11))
        iterates = profiler.report().calls["fit_"]
        widths = [
            sum(r.iterations >= k for r in result.results) for k in range(1, iterates + 1)
        ]
        assert widths[0] == 8 and iterates == max(r.iterations for r in result.results)
        assert calls["post"] == widths
        assert calls["shift"] == [(width,) for width in widths]
        assert calls["lsq"] == widths[N_WARMUP:]


class TestEngineSteadyState:
    def test_zero_allocations_after_warmup(self, engine, slices6):
        """Repeat runs reuse every workspace buffer: the allocation count
        is flat while the reuse count keeps climbing (each reading is a
        snapshot, not the live counters)."""
        engine.fit_many(slices6)  # warm-up (may allocate)
        warm = engine.workspace_counters()
        engine.fit_many(slices6)
        engine.fit_many(slices6)
        steady = engine.workspace_counters()
        assert steady is not warm
        assert steady.allocations == warm.allocations
        assert steady.reuses > warm.reuses
        assert steady.resident_bytes == warm.resident_bytes

    def test_serial_fits_and_served_frames_request_no_flux_buffer(
        self, engine, shot33, slices6
    ):
        """Every fit runs the solver's one flux step: a warm ``solver.fit``
        and a served frame take views of the buffers a batch sized, and a
        bare solver's second fit those its first one made."""
        from repro.efit.fitting import EfitSolver
        from tests.serve.conftest import serve_reports

        engine.fit_many(slices6)
        warm = engine.workspace_counters()
        engine.solver.fit(slices6[0])
        serve_reports(engine, slices6[:2])
        steady = engine.workspace_counters()
        assert steady.allocations == warm.allocations
        assert steady.reuses > warm.reuses
        bare = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        bare.fit(slices6[0])
        allocations = bare.pflux.workspace.counters.allocations
        bare.fit(slices6[1])
        assert bare.pflux.workspace.counters.allocations == allocations

    def test_a_state_owns_its_flux(self, engine, slices6):
        """The flux step writes into its own workspace buffers, but the
        ``psi_new`` it hands each state is the state's own: two lock-step
        iterates of ``fit_many``'s loop leave the first iterate's flux of
        every slice untouched."""
        solver = engine.solver
        states = [solver.start_fit(m) for m in slices6[:4]]
        loop = solver.picard(states)
        next(loop)
        saved = [state.psi for state in states]
        copies = [psi.copy() for psi in saved]
        next(loop)
        for state, psi, copy in zip(states, saved, copies):
            assert state.psi is not psi
            np.testing.assert_array_equal(psi, copy)

    def test_stats_sane(self, engine, slices6):
        stats = engine.fit_many(slices6).stats
        assert stats.n_slices == 6
        assert stats.wall_seconds > 0
        assert stats.slices_per_second > 0
        assert 0 < stats.latency_p50 <= stats.latency_p95 <= stats.wall_seconds * 1.01
        assert stats.total_iterations >= stats.n_slices
        assert "slices/s" in stats.summary()

    def test_latencies_returned_per_slice(self, engine, slices6):
        batch = engine.fit_many(slices6)
        assert batch.latencies.shape == (6,)
        assert (batch.latencies > 0).all()

    def test_records_into_the_solver_profiler(self, shot33, slices6):
        """``profiler=`` reaches the engine's solver, and ``fit_many``
        records into it: one ``fit_`` and one ``pflux_`` call per batched
        iterate."""
        profiler = RegionProfiler()
        engine = BatchFitEngine(
            shot33.machine, shot33.diagnostics, shot33.grid, batch_size=4,
            profiler=profiler,
        )  # fmt: skip
        assert engine.solver.profiler is profiler
        engine.fit_many(slices6)
        calls = profiler.report().calls
        assert calls["fit_"] == calls["pflux_"] > 0


class TestEngineValidation:
    def test_bad_construction(self, shot33):
        with pytest.raises(FittingError):
            BatchFitEngine(
                shot33.machine, shot33.diagnostics, shot33.grid, batch_size=0
            )
        with pytest.raises(FittingError, match="ParallelFitEngine"):
            BatchFitEngine(
                shot33.machine, shot33.diagnostics, shot33.grid, n_workers=0
            )

    def test_empty_slices_rejected(self, engine):
        with pytest.raises(FittingError):
            engine.fit_many([])

    def test_unconverged_raises_unless_waived(self, shot33, slices6):
        tight = BatchFitEngine(
            shot33.machine,
            shot33.diagnostics,
            shot33.grid,
            batch_size=4,
            max_iters=3,
        )
        with pytest.raises(ConvergenceError):
            tight.fit_many(slices6[:2])
        batch = tight.fit_many(slices6[:2], require_convergence=False)
        assert not any(r.converged for r in batch.results)
        assert batch.stats.n_converged == 0


class TestSliceSequence:
    def test_slices_distinct_but_same_channels(self, shot33):
        slices = synthetic_slice_sequence(shot33, 3, seed=2)
        base = shot33.measurements
        for m in slices:
            assert m.names == base.names
            assert np.array_equal(m.uncertainties, base.uncertainties)
            assert not np.array_equal(m.values, base.values)
        assert not np.array_equal(slices[0].values, slices[1].values)

    def test_validation(self, shot33):
        with pytest.raises(MeasurementError):
            synthetic_slice_sequence(shot33, 0)
