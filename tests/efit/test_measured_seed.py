"""The measured cold start: each cold slice seeds from its own magnetics.

``start_fit`` inverts the slice's measurements for a regularised
in-limiter node current, takes one flux step with it and probes the
result for a boundary.  A seed with one starts trusted — no warm-up, the
divergence guard watching — and still reports a cold slice; a seed the
guard revokes falls back to the warm-up; a seed without a boundary, or
no seed, takes the filament start.  Degenerate inputs end in typed
errors, never a ``LinAlgError`` or a NaN.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import N_WARMUP, EfitSolver
from repro.errors import BoundaryError, FittingError
from repro.obs import TraceHooks, TraceRecorder
from repro.parallel import ParallelFitEngine, SchedulerConfig
from repro.scenarios import get_scenario
from tests.serve.conftest import serve_reports


def _traced(scenario: str, n: int):
    sc = get_scenario(scenario)
    shot = sc.make_shot(n)
    recorder = TraceRecorder()
    solver = EfitSolver.for_scenario(sc, n, shot=shot, hooks=TraceHooks(recorder))
    return shot, solver, recorder


def _events(recorder, name):
    return [dict(e.attributes) for e in recorder.events() if e.name == name]


def test_a_cold_slice_starts_measured_and_trusted(shot33):
    solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
    state = solver.start_fit(shot33.measurements)
    assert state.seed == "measured" and state.trusted and not state.warm_start
    assert state.warmup_until == 0 and state.boundary is not None
    # The seed is one width-1 flux step: its own bits, whatever follows.
    again = solver.start_fit(shot33.measurements)
    assert again.psi.tobytes() == state.psi.tobytes()


def test_cold_slices_report_cold_through_every_entry_point(shot33):
    """``FitResult.warm_start`` means the caller's ``psi_initial`` was
    trusted: a cold slice reports ``False`` from a serial fit, a batch,
    a fleet worker and a served cold frame alike."""
    slices = synthetic_slice_sequence(shot33, 4, seed=2)
    args = (shot33.machine, shot33.diagnostics, shot33.grid)
    serial = EfitSolver(*args)
    assert not any(serial.fit(m).warm_start for m in slices)
    engine = BatchFitEngine(*args, batch_size=4)
    assert not any(r.warm_start for r in engine.fit_many(slices).results)
    config = SchedulerConfig(workers=2, transport="inline")
    with ParallelFitEngine(*args, batch_size=2, config=config) as fleet:
        assert not any(r.warm_start for r in fleet.fit_many(slices).results)
    # A served stream: the first frame is cold, the rest chain warm.
    reports = serve_reports(engine, slices)
    assert [r.warm_start for r in reports] == [False, True, True, True]
    assert not reports[0].result.warm_start


def test_a_revoked_measured_seed_falls_back_and_converges():
    """Double-null's 65^2 base shot: the guard revokes the measured seed,
    the slice reruns the warm-up and converges — and the fallback says
    which seed it revoked and why."""
    shot, solver, recorder = _traced("double-null", 65)
    result = solver.fit(shot.measurements)
    assert result.converged and not result.warm_start
    (start,) = _events(recorder, "start_fit")
    assert start["seed"] == "measured" and start["warm_start"] is False
    (fallback,) = _events(recorder, "warm_start_fallback")
    assert fallback["seed"] == "measured" and fallback["reason"] in ("residual", "grew")
    # The warm-up reran from the revoking iterate.
    n_pp = solver.pp_basis.n_terms
    warmup = [rec.iteration for rec in result.history if not rec.coefficients[:n_pp].any()]
    first = fallback["iteration"] + 1
    assert warmup == list(range(first, first + N_WARMUP))


def test_a_refused_measured_seed_takes_the_filament_start(filament_cold_start):
    """A measured seed whose trust probe finds no boundary: the filament
    seed and its warm-up — the paper's cold start, 10 iterates on
    g186610 at 65^2."""
    shot, solver, recorder = _traced("g186610", 65)
    state = solver.start_fit(shot.measurements)
    assert state.seed == "filament" and not state.trusted
    assert state.warmup_until == N_WARMUP and state.boundary is None
    result = solver.fit(shot.measurements)
    assert result.converged and result.iterations == 10 and not result.warm_start
    assert [e["seed"] for e in _events(recorder, "start_fit")] == ["filament"] * 2
    assert not _events(recorder, "warm_start_fallback")


def test_a_refused_caller_seed_starts_measured(shot33):
    """A ``psi_initial`` the probe refuses is replaced by the measured
    seed: the fit starts cold on it, as it would with none."""
    recorder = TraceRecorder()
    solver = EfitSolver(
        shot33.machine, shot33.diagnostics, shot33.grid, hooks=TraceHooks(recorder)
    )
    refused = solver.fit(shot33.measurements, psi_initial=np.zeros(shot33.grid.shape))
    cold = solver.fit(shot33.measurements)
    assert refused.psi.tobytes() == cold.psi.tobytes() and not refused.warm_start
    assert [e["seed"] for e in _events(recorder, "start_fit")] == ["measured"] * 2


class TestDegenerateInputs:
    """What a naive seed turns into a ``LinAlgError`` or a NaN."""

    def test_a_zero_plasma_response_ends_in_a_fitting_error(self, shot33, monkeypatch):
        full = DiagnosticSet.response_to_grid
        monkeypatch.setattr(
            DiagnosticSet,
            "response_to_grid",
            lambda self, grid, **kwargs: np.zeros_like(full(self, grid, **kwargs)),
        )
        solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        assert not solver._seed_gram.any()
        with pytest.raises(FittingError, match="see no current inside the limiter"):
            solver.fit(shot33.measurements)

    def test_zero_ip_ends_in_a_fitting_error(self, shot33):
        """A vacuum slice — every channel reads the coils alone, the
        Rogowski zero: no current to seed from, none to warm up with."""
        solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        m = shot33.measurements
        vacuum = dataclasses.replace(m, values=solver.coil_response @ m.coil_currents)
        assert vacuum.ip == 0.0
        assert solver.start_fit(vacuum).seed == "filament"
        with pytest.raises(FittingError, match="plasma current is zero"):
            solver.fit(vacuum, require_convergence=False)

    def test_a_limiter_enclosing_no_node_ends_in_a_boundary_error(self, shot33):
        grid = shot33.grid
        r0, z0 = grid.r[10] + 0.3 * grid.dr, grid.z[10] + 0.3 * grid.dz
        limiter = type(shot33.machine.limiter)(
            np.array([r0, r0 + 0.2 * grid.dr, r0]), np.array([z0, z0, z0 + 0.2 * grid.dz])
        )
        machine = dataclasses.replace(shot33.machine, limiter=limiter)
        solver = EfitSolver(machine, shot33.diagnostics, grid)
        assert solver.start_fit(shot33.measurements).seed == "filament"
        with pytest.raises(BoundaryError):
            solver.fit(shot33.measurements)
