"""ReconstructionService: warm chaining, deadlines, the solver thread,
admission, backpressure, drain."""

import asyncio
import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.errors import AdmissionError, ServeError
from repro.obs.hooks import TraceHooks
from repro.obs.trace import TraceRecorder
from repro.profiling.regions import RegionProfiler
from repro.serve import (
    Frame,
    ReconstructionService,
    ServeConfig,
    ServeMetrics,
)
from tests.serve.conftest import serve_reports


def _run(coro):
    return asyncio.run(coro)


class TestWarmChaining:
    def test_later_slices_warm_and_faster(self, engine33, slices3):
        reports = serve_reports(engine33, slices3)
        assert all(r.converged for r in reports)
        assert not reports[0].warm_start
        for r in reports[1:]:
            assert r.warm_start
            assert r.iterations < reports[0].iterations

    def test_bit_identical_to_chained_serial_fit(self, engine33, slices3):
        """The acceptance criterion: a served slice that converged is
        bit-identical to the serial solver run with the same chaining."""
        reports = serve_reports(engine33, slices3)
        solver = engine33.solver
        prev_psi = prev_coeffs = None
        for r, m in zip(reports, slices3):
            serial = solver.fit(
                m, psi_initial=prev_psi, coeffs_initial=prev_coeffs
            )
            np.testing.assert_array_equal(serial.psi, r.result.psi)
            assert serial.chi2 == r.result.chi2
            assert serial.iterations == r.iterations
            prev_psi = serial.psi
            prev_coeffs = serial.history[-1].coefficients

    def test_warm_start_disabled_stays_cold(self, engine33, slices3):
        reports = serve_reports(engine33, slices3, warm_start=False)
        assert not any(r.warm_start for r in reports)

    def test_metrics_split_warm_and_cold(self, engine33, slices3):
        metrics = ServeMetrics()
        serve_reports(engine33, slices3, metrics=metrics)
        s = metrics.summary()
        assert s["cold_slices"] == 1 and s["warm_slices"] == 2
        assert s["warm_iteration_savings"] > 0
        assert s["slices"] == 3.0 and s["deadline_misses"] == 0.0


class TestDeadlines:
    """``ServeConfig.deadline_s`` is the one per-slice budget.  The fake
    clocks below jump a fixed step per reading; the service reads it once
    per submit, once when a solve starts, once after each iterate and once
    when the solve ends."""

    def test_starved_clock_misses_deadline(self, engine33, slices3):
        """A clock that jumps one second per reading starves the budget:
        the solve stops early, reports a miss, still returns a sealed
        partial result with a boundary."""
        metrics = ServeMetrics()
        fake = itertools.count()
        (report,) = serve_reports(
            engine33, slices3[:1], deadline_s=1.5, metrics=metrics,
            clock=lambda: float(next(fake)),
        )  # fmt: skip
        assert report.deadline_missed
        assert not report.converged
        # The solve starts at t=1: iterate 1 sees t=2 (1 s spent, < 1.5,
        # continue), iterate 2 sees t=3 (a miss).
        assert report.iterations == 2
        assert report.result.boundary is not None
        assert metrics.summary()["deadline_misses"] == 1.0

    def test_missed_slice_is_not_chained(self, engine33, slices3):
        """The next frame is not offered the missed slice's psi: it
        starts cold, and no warm start fell back."""
        metrics = ServeMetrics()
        fake = itertools.count()
        first, second = serve_reports(
            engine33, slices3[:2], deadline_s=1.5, metrics=metrics,
            clock=lambda: float(next(fake)),
        )  # fmt: skip
        assert first.deadline_missed
        assert not second.warm_start
        assert metrics.warm_start_fallbacks.value == 0.0

    def test_first_iterate_always_runs(self, engine33, slices3):
        """Even a zero-budget-equivalent clock yields one iterate, so a
        missed slice still carries a flux map."""
        fake = itertools.count(0, 1000)
        (report,) = serve_reports(
            engine33, slices3[:1], deadline_s=0.5, clock=lambda: float(next(fake))
        )
        assert report.deadline_missed and report.iterations == 1

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ServeError, match="deadline_s"):
            ServeConfig(deadline_s=0.0)

    def test_open_stream_takes_no_deadline(self, engine33):
        async def scenario():
            async with ReconstructionService(engine33) as svc:
                with pytest.raises(TypeError):
                    await svc.open_stream("s", deadline_s=1.0)

        _run(scenario())


class TestSolverThread:
    def test_every_solve_runs_on_one_solver_thread(self, engine33, shot33, monkeypatch):
        """Four streams, one thread: every frame's solve starts on the
        same thread, and it is not the event loop's."""
        threads = []
        start_fit = engine33.solver.start_fit

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return start_fit(*args, **kwargs)

        monkeypatch.setattr(engine33.solver, "start_fit", spy)
        streams = {
            f"s{k}": synthetic_slice_sequence(shot33, 2, seed=31 + k) for k in range(4)
        }
        reports = serve_reports(engine33, streams)
        assert sum(len(r) for r in reports.values()) == len(threads) == 8
        assert len(set(threads)) == 1
        assert threads[0] != threading.get_ident()  # asyncio.run's loop

    def test_queue_includes_the_wait_for_the_solver_thread(self, engine33, slices3):
        """Two streams submitted together: the frame solved second waited
        for the solver thread while the first solved, and its queue time
        says so."""
        reports = serve_reports(engine33, {"a": slices3[:1], "b": slices3[1:2]})
        first, second = sorted(
            (r for rs in reports.values() for r in rs), key=lambda r: r.queue_seconds
        )
        assert second.queue_seconds >= first.solve_seconds

    def test_traced_engine_serves_visibly(self, shot33, slices3):
        """A served frame records into the engine's solver: its hooks see
        every frame's start_fit / finish_fit and every iterate, and its
        profiler times every fit_ call."""
        recorder, profiler = TraceRecorder(), RegionProfiler()
        engine = BatchFitEngine(
            shot33.machine, shot33.diagnostics, shot33.grid,
            hooks=TraceHooks(recorder), profiler=profiler,
        )  # fmt: skip
        reports = serve_reports(engine, slices3)
        iterations = sum(r.iterations for r in reports)
        names = [e.name for e in recorder.events()]
        assert names.count("start_fit") == names.count("finish_fit") == len(slices3)
        assert names.count("picard_iteration") == iterations
        assert {"serve_start", "serve_stop"} <= set(names)
        assert profiler.report().calls["fit_"] == iterations


class TestLifecycle:
    def test_requires_start(self, engine33, slices3):
        svc = ReconstructionService(engine33)

        async def use_cold():
            await svc.open_stream("s")

        with pytest.raises(ServeError, match="not running"):
            _run(use_cold())

    def test_double_start_rejected(self, engine33):
        async def scenario():
            async with ReconstructionService(engine33) as svc:
                with pytest.raises(ServeError, match="already started"):
                    await svc.start()

        _run(scenario())

    def test_stop_idempotent_and_drains(self, engine33, slices3):
        async def scenario():
            svc = ReconstructionService(
                engine33, config=ServeConfig(deadline_s=None)
            )
            await svc.start()
            await svc.open_stream("s")
            for i, m in enumerate(slices3):
                await svc.submit("s", Frame(stream_id="s", index=i, measurements=m))
            summaries = await svc.stop()
            assert await svc.stop() == {}
            return summaries

        summaries = _run(scenario())
        assert len(summaries["s"].reports) == 3
        assert all(r.converged for r in summaries["s"].reports)

    def test_unknown_stream(self, engine33, slices3):
        async def scenario():
            async with ReconstructionService(engine33) as svc:
                with pytest.raises(ServeError, match="unknown stream"):
                    await svc.submit(
                        "ghost",
                        Frame(stream_id="ghost", index=0, measurements=slices3[0]),
                    )

        _run(scenario())


class TestAdmission:
    def test_capacity_enforced(self, engine33):
        metrics = ServeMetrics()
        config = ServeConfig(max_streams=2, deadline_s=None)

        async def scenario():
            async with ReconstructionService(
                engine33, config=config, metrics=metrics
            ) as svc:
                await svc.open_stream("a")
                await svc.open_stream("b")
                with pytest.raises(AdmissionError, match="refused"):
                    await svc.open_stream("c")
                # Closing one frees the slot.
                await svc.close_stream("a")
                await svc.open_stream("c")

        _run(scenario())
        assert metrics.streams_rejected.value == 1.0
        assert metrics.streams_active.value == 0.0

    def test_duplicate_stream_id_rejected(self, engine33):
        async def scenario():
            async with ReconstructionService(engine33) as svc:
                await svc.open_stream("a")
                with pytest.raises(ServeError, match="already open"):
                    await svc.open_stream("a")

        _run(scenario())


class TestBackpressure:
    def test_full_queue_sheds_oldest(self, engine33, shot33):
        slices = synthetic_slice_sequence(shot33, 4, seed=5)
        metrics = ServeMetrics()
        config = ServeConfig(queue_depth=2, deadline_s=None)

        async def scenario():
            async with ReconstructionService(
                engine33, config=config, metrics=metrics
            ) as svc:
                await svc.open_stream("s")
                # No await between submits: the worker cannot dequeue, so
                # the 3rd and 4th submit must shed the two oldest frames.
                accepted = [
                    await svc.submit(
                        "s", Frame(stream_id="s", index=i, measurements=m)
                    )
                    for i, m in enumerate(slices)
                ]
                summary = await svc.close_stream("s")
                return accepted, summary

        accepted, summary = _run(scenario())
        assert accepted == [True, True, False, False]
        assert summary.frames_shed == 2
        assert [r.index for r in summary.reports] == [2, 3]
        assert metrics.frames_shed.value == 2.0


class TestConcurrentStreams:
    def test_four_streams_bit_identical_to_serial(self, engine33, shot33):
        """The acceptance criterion end-to-end: >= 4 concurrent streams,
        every converged slice bit-identical to the chained serial solver,
        warm starts saving iterations on every stream."""
        n_streams, n_slices = 4, 3
        frames = {
            f"s{k}": synthetic_slice_sequence(shot33, n_slices, seed=11 + k)
            for k in range(n_streams)
        }
        metrics = ServeMetrics()
        config = ServeConfig(
            deadline_s=None, executor_workers=4, queue_depth=n_slices
        )

        async def scenario():
            async with ReconstructionService(
                engine33, config=config, metrics=metrics
            ) as svc:
                for sid in frames:
                    await svc.open_stream(sid)
                for i in range(n_slices):
                    for sid, slices in frames.items():
                        await svc.submit(
                            sid,
                            Frame(stream_id=sid, index=i, measurements=slices[i]),
                        )
                return await svc.stop()

        summaries = _run(scenario())
        assert len(summaries) == n_streams
        solver = engine33.solver
        for sid, slices in frames.items():
            reports = summaries[sid].reports
            assert len(reports) == n_slices
            assert summaries[sid].deadline_misses == 0
            assert not reports[0].warm_start
            assert all(r.warm_start for r in reports[1:])
            prev_psi = prev_coeffs = None
            for r, m in zip(reports, slices):
                serial = solver.fit(
                    m, psi_initial=prev_psi, coeffs_initial=prev_coeffs
                )
                np.testing.assert_array_equal(serial.psi, r.result.psi)
                assert serial.chi2 == r.result.chi2
                prev_psi = serial.psi
                prev_coeffs = serial.history[-1].coefficients
        s = metrics.summary()
        assert s["slices"] == float(n_streams * n_slices)
        assert s["warm_iteration_savings"] > 0


class TestPoisonedFrames:
    """A frame the solver rejects costs that frame, never the stream or
    the service (ROADMAP aim 3)."""

    @staticmethod
    def _frames(sid, slices):
        return [Frame(stream_id=sid, index=i, measurements=m) for i, m in enumerate(slices)]

    def test_bad_frame_mid_stream_costs_only_itself(self, engine33, shot33):
        """Two streams; a frame that lost a PF supply channel (one coil
        current short, which ``start_fit`` rejects by validation) in the
        middle of one.  Every other frame on both streams solves, the
        summary names the failure, stop() returns and the service can be
        started again.  (Zeroed PF currents are not a poison the solver
        is sure to refuse: that frame "converges" at chi^2 = 2.5e7 —
        ROADMAP's failure-mode matrix.)"""
        good_a = synthetic_slice_sequence(shot33, 3, seed=21)
        good_b = synthetic_slice_sequence(shot33, 3, seed=22)
        short_pf = replace(good_a[1], coil_currents=good_a[1].coil_currents[:-1])
        frames = {
            "a": self._frames("a", [good_a[0], short_pf, good_a[2]]),
            "b": self._frames("b", good_b),
        }
        metrics = ServeMetrics()
        svc = ReconstructionService(
            engine33, config=ServeConfig(deadline_s=None), metrics=metrics
        )

        async def cycle():
            await svc.start()
            for sid in frames:
                await svc.open_stream(sid)
            for i in range(3):
                for sid in frames:
                    await svc.submit(sid, frames[sid][i])
            return await svc.stop()

        async def scenario():
            first = await cycle()
            idle = (svc._running, svc._executor, dict(svc._streams))
            return first, idle, await cycle()

        first, idle, second = _run(scenario())
        assert idle == (False, None, {})
        for summaries in (first, second):
            a, b = summaries["a"], summaries["b"]
            assert [r.index for r in a.reports] == [0, 2]
            assert [r.index for r in b.reports] == [0, 1, 2]
            assert all(r.converged for r in a.reports + b.reports)
            (failure,) = a.failures
            assert (failure.stream_id, failure.index) == ("a", 1)
            assert failure.error == "FittingError" and "coil currents" in failure.message
            assert b.failures == ()
            # The frame behind the bad one starts from a reset chain and
            # is therefore exactly the solver's cold fit.
            assert not a.reports[1].warm_start
            cold = engine33.solver.fit(good_a[2])
            np.testing.assert_array_equal(cold.psi, a.reports[1].result.psi)
        assert metrics.frames_failed.value == 2.0
        assert metrics.slices.value == 10.0
        assert metrics.summary()["frames_failed"] == 2.0

    def test_foreign_diagnostic_set_refused_at_submit(self, engine33, slices3):
        m = slices3[0]
        foreign = replace(
            m, values=m.values[1:], uncertainties=m.uncertainties[1:], names=m.names[1:]
        )

        async def scenario():
            async with ReconstructionService(
                engine33, config=ServeConfig(deadline_s=None)
            ) as svc:
                await svc.open_stream("s")
                with pytest.raises(ServeError, match="measurements"):
                    await svc.submit("s", Frame(stream_id="s", index=0, measurements=foreign))
                await svc.submit("s", Frame(stream_id="s", index=1, measurements=m))
                return await svc.stop()

        summaries = _run(scenario())
        assert [r.index for r in summaries["s"].reports] == [1]
        assert summaries["s"].failures == ()

    def test_frame_of_another_stream_refused_at_submit(self, engine33, slices3):
        """A frame names its stream: handed to another one it is refused
        before it is queued, and that stream goes on serving its own."""
        m = slices3[0]

        async def scenario():
            async with ReconstructionService(
                engine33, config=ServeConfig(deadline_s=None)
            ) as svc:
                await svc.open_stream("a")
                with pytest.raises(ServeError, match="'b' submitted to stream 'a'"):
                    await svc.submit("a", Frame(stream_id="b", index=0, measurements=m))
                await svc.submit("a", Frame(stream_id="a", index=1, measurements=m))
                return await svc.stop()

        summaries = _run(scenario())
        assert [(r.stream_id, r.index) for r in summaries["a"].reports] == [("a", 1)]
        assert summaries["a"].failures == ()

    def test_stop_cleans_up_when_a_worker_dies(self, engine33, slices3, monkeypatch):
        """A non-library exception (a bug) still kills its stream's worker,
        but stop() closes every stream and the solver thread before
        re-raising it."""
        svc = ReconstructionService(engine33, config=ServeConfig(deadline_s=None))

        def bug(*args, **kwargs):
            raise TypeError("bug in the solve path")

        async def scenario():
            await svc.start()
            await svc.open_stream("a")
            await svc.open_stream("b")
            monkeypatch.setattr(engine33.solver, "start_fit", bug)
            await svc.submit("a", Frame(stream_id="a", index=0, measurements=slices3[0]))
            with pytest.raises(TypeError, match="bug in the solve path"):
                await svc.stop()
            return svc._running, svc._executor, dict(svc._streams), await svc.stop()

        assert _run(scenario()) == (False, None, {}, {})

    def test_cancelled_stop_still_leaves_the_service_stopped(self, engine33, slices3):
        svc = ReconstructionService(engine33, config=ServeConfig(deadline_s=None))

        async def scenario():
            await svc.start()
            for sid in ("a", "b"):
                await svc.open_stream(sid)
                await svc.submit(sid, Frame(stream_id=sid, index=0, measurements=slices3[0]))
            stopping = asyncio.create_task(svc.stop())
            await asyncio.sleep(0)
            stopping.cancel()
            with pytest.raises(asyncio.CancelledError):
                await stopping
            return svc._running, svc._executor, dict(svc._streams)

        assert _run(scenario()) == (False, None, {})
