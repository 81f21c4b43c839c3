"""ShotSession: warm-start chaining, bit-identity, deadline enforcement."""

import itertools

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import ServeMetrics, Frame, ShotSession


def _frames(slices, stream="s"):
    return [
        Frame(stream_id=stream, index=i, measurements=m)
        for i, m in enumerate(slices)
    ]


class TestWarmChaining:
    def test_later_slices_warm_and_faster(self, engine33, slices3):
        session = ShotSession(engine33.solver)
        reports = [session.reconstruct(f) for f in _frames(slices3)]
        assert all(r.converged for r in reports)
        assert not reports[0].warm_start
        for r in reports[1:]:
            assert r.warm_start
            assert r.iterations < reports[0].iterations

    def test_bit_identical_to_chained_serial_fit(self, engine33, slices3):
        """The acceptance criterion: a served slice that converged is
        bit-identical to the serial solver run with the same chaining."""
        session = ShotSession(engine33.solver)
        reports = [session.reconstruct(f) for f in _frames(slices3)]
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
        session = ShotSession(engine33.solver, warm_start=False)
        reports = [session.reconstruct(f) for f in _frames(slices3)]
        assert not any(r.warm_start for r in reports)

    def test_metrics_split_warm_and_cold(self, engine33, slices3):
        metrics = ServeMetrics()
        session = ShotSession(engine33.solver, metrics=metrics)
        for f in _frames(slices3):
            session.reconstruct(f)
        s = metrics.summary()
        assert s["cold_slices"] == 1 and s["warm_slices"] == 2
        assert s["warm_iteration_savings"] > 0
        assert s["slices"] == 3.0 and s["deadline_misses"] == 0.0


class TestDeadlines:
    def test_starved_clock_misses_deadline(self, engine33, slices3):
        """A fake clock that jumps one second per reading starves the
        budget: the solve stops early, reports a miss, still returns a
        sealed partial result with a boundary."""
        metrics = ServeMetrics()
        fake = itertools.count()
        session = ShotSession(
            engine33.solver,
            deadline_s=1.5,
            metrics=metrics,
            clock=lambda: float(next(fake)),
        )
        report = session.reconstruct(_frames(slices3)[0])
        assert report.deadline_missed
        assert not report.converged
        # t0=0, deadline checked after each iterate: iterate 1 sees t=1
        # (< 1.5, continue), iterate 2 sees t=2 (miss).
        assert report.iterations == 2
        assert report.result.boundary is not None
        assert metrics.summary()["deadline_misses"] == 1.0

    def test_missed_slice_is_not_chained(self, engine33, slices3):
        fake = itertools.count()
        session = ShotSession(
            engine33.solver,
            deadline_s=1.5,
            clock=lambda: float(next(fake)),
        )
        first = session.reconstruct(_frames(slices3)[0])
        assert first.deadline_missed
        assert session._prev_psi is None

    def test_frame_deadline_overrides_session(self, engine33, slices3):
        fake = itertools.count()
        session = ShotSession(
            engine33.solver,
            deadline_s=1.5,
            clock=lambda: float(next(fake)),
        )
        generous = Frame(
            stream_id="s", index=0, measurements=slices3[0], deadline_s=1e9
        )
        report = session.reconstruct(generous)
        assert report.converged and not report.deadline_missed

    def test_first_iterate_always_runs(self, engine33, slices3):
        """Even a zero-budget-equivalent clock yields one iterate, so a
        missed slice still carries a flux map."""
        fake = itertools.count(0, 1000)
        session = ShotSession(
            engine33.solver,
            deadline_s=0.5,
            clock=lambda: float(next(fake)),
        )
        report = session.reconstruct(_frames(slices3)[0])
        assert report.deadline_missed and report.iterations == 1

    def test_invalid_deadline_rejected(self, engine33):
        with pytest.raises(ServeError):
            ShotSession(engine33.solver, deadline_s=0.0)
