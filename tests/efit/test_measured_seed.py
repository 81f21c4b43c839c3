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
from scipy.linalg import cho_factor, cho_solve

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.boundary import find_boundaries
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import N_WARMUP, SEED_RIDGE, EfitSolver
from repro.errors import BoundaryError, FittingError
from repro.obs import TraceHooks, TraceRecorder
from repro.parallel import ParallelFitEngine, SchedulerConfig
from repro.scenarios import get_scenario, scenario_names
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


# -- the start at the batch's width ------------------------------------------------
def _serial_start(solver, m, psi_initial=None):
    """The per-slice start the batch form replaced, kept as an oracle: the
    caller's seed probed alone, then one slice's seed solve (a one-column
    Cholesky solve, the full-grid GEMV of the grid response, one width-1
    flux step) probed alone, then the filament start.  Returns the state's
    seed fields as a dict."""
    statics = solver.statics
    psi_external = np.tensordot(m.coil_currents, statics.coil_flux, axes=1)
    weights = 1.0 / m.uncertainties
    weighted_data = (m.values - solver.coil_response @ m.coil_currents) * weights
    sign = 1 if m.ip >= 0 else -1

    def probe(psi):
        try:
            (found,) = find_boundaries(
                solver.grid, psi[None], solver.machine.limiter, signs=(sign,),
                inside=statics.inside_limiter, limiter_samples=statics.limiter_samples,
            )  # fmt: skip
        except BoundaryError:
            return None
        return found

    seed, psi, probed = "caller", psi_initial, None
    if psi is not None:
        probed = probe(psi)
    if probed is None:
        seed = "measured"
        gram = weights[:, None] * solver._seed_gram * weights
        gram[np.diag_indices_from(gram)] += SEED_RIDGE * float(np.trace(gram)) / len(gram)
        y = cho_solve(cho_factor(gram), weighted_data)
        current = (solver.grid_response.T @ (weights * y)).reshape(solver.grid.shape)
        current *= statics.inside_limiter
        psi = solver.pflux.compute(current, psi_external) if current.any() else None
        if psi is not None:
            probed = probe(psi)
    if probed is None:
        seed, psi = "filament", psi_external + m.ip * solver._seed_filament_flux
    return {
        "seed": seed, "psi": psi, "psi_external": psi_external, "sign": sign,
        "weighted_data": weighted_data, "weights": weights, "boundary": probed,
        "trusted": probed is not None, "warmup_until": 0 if probed is not None else N_WARMUP,
    }  # fmt: skip


def _same_boundary(got, want):
    if want is None:
        return got is None
    return got is not None and all(
        np.asarray(getattr(got, f.name)).tobytes() == np.asarray(getattr(want, f.name)).tobytes()
        for f in dataclasses.fields(want)
    )


def _assert_state_is(state, want, *, exact=True):
    """``state`` carries the oracle's start: every field byte for byte, or
    (``exact=False``) the same seed and trust decisions with fluxes
    within round-off of the span."""
    assert (state.seed, state.trusted, state.warmup_until, state.sign) == (
        want["seed"], want["trusted"], want["warmup_until"], want["sign"],
    )  # fmt: skip
    for name in ("psi_external", "weighted_data", "weights"):
        assert getattr(state, name).tobytes() == want[name].tobytes(), name
    assert (state.boundary is None) == (want["boundary"] is None)
    if exact:
        assert state.psi.tobytes() == want["psi"].tobytes()
        assert _same_boundary(state.boundary, want["boundary"])
    else:
        span = np.ptp(want["psi"])
        assert np.abs(state.psi - want["psi"]).max() <= 1e-12 * span
        if want["boundary"] is not None:
            assert state.boundary.boundary_type == want["boundary"].boundary_type


def _vacuum(solver, m):
    """``m`` with every channel reading the coils alone: no current to
    seed from, so its start is the filament's."""
    return dataclasses.replace(m, values=solver.coil_response @ m.coil_currents)


class TestBatchStart:
    @pytest.mark.parametrize("name", scenario_names())
    def test_width_one_is_the_per_slice_start(self, name):
        """One slice, alone or as a batch of one, starts exactly as the
        per-slice start did: cold, on a kept caller seed, on a refused
        one, and from the filament."""
        sc = get_scenario(name)
        shot = sc.make_shot(33)
        solver = EfitSolver.for_scenario(sc, shot=shot)
        m = synthetic_slice_sequence(shot, 1, seed=3)[0]
        converged = solver.fit(shot.measurements, require_convergence=False).psi
        refused = np.zeros(shot.grid.shape)
        cases = [(m, None), (m, converged), (m, refused), (_vacuum(solver, m), None)]
        for slice_, seed in cases:
            want = _serial_start(solver, slice_, seed)
            _assert_state_is(solver.start_fit(slice_, psi_initial=seed), want)
            (state,) = solver.start_fit([slice_], psi_initial=[seed])
            _assert_state_is(state, want)
        assert want["seed"] == "filament"

    def test_a_mixed_batch_decides_as_its_slices_alone(self, shot33):
        """A kept caller seed, a refused one (a flat map: the stacked probe
        raises and each map is searched alone), measured seeds under two
        sets of uncertainties (two factorisations) and a filament start in
        one batch: every slice takes the seed and trust its own start
        takes; the caller's and the filament's are exactly theirs, the
        measured seeds theirs to round-off."""
        solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        slices = synthetic_slice_sequence(shot33, 3, seed=8)
        converged = solver.fit(shot33.measurements).psi
        wider = dataclasses.replace(slices[2], uncertainties=1.5 * slices[2].uncertainties)
        batch = [slices[0], slices[1], slices[2], _vacuum(solver, slices[0]), wider]
        seeds = [converged, np.zeros(shot33.grid.shape), None, None, None]
        states = solver.start_fit(batch, psi_initial=seeds)
        wants = [_serial_start(solver, m, seed) for m, seed in zip(batch, seeds)]
        assert [w["seed"] for w in wants] == [
            "caller", "measured", "measured", "filament", "measured",
        ]  # fmt: skip
        for state, want in zip(states, wants):
            _assert_state_is(state, want, exact=want["seed"] != "measured")

    def test_a_refused_seed_leaves_its_companions_starts_alone(self, shot33, monkeypatch):
        """One measured seed of a batch is a flat map, so the stacked probe
        raises: that slice alone falls through to the filament start, and
        its companions keep the seeds, trust and boundaries a search of
        their own maps gives."""
        solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        slices = synthetic_slice_sequence(shot33, 3, seed=9)
        measured = EfitSolver._measured_psi
        seeds = []

        def flatten_second(self, *args):
            psi = measured(self, *args)
            psi[1] = np.zeros_like(psi[1])
            seeds.extend(psi)
            return psi

        monkeypatch.setattr(EfitSolver, "_measured_psi", flatten_second)
        states = solver.start_fit(slices)
        assert [s.seed for s in states] == ["measured", "filament", "measured"]
        assert [s.trusted for s in states] == [True, False, True]
        for b in (0, 2):
            assert states[b].psi is seeds[b]
            (alone,) = solver._probe([seeds[b]], [states[b].sign], solver.statics)
            assert _same_boundary(states[b].boundary, alone)
        monkeypatch.undo()
        for b in (0, 2):
            _assert_state_is(states[b], _serial_start(solver, slices[b]), exact=False)

    def test_per_slice_inputs_must_match_the_batch(self, shot33):
        solver = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)
        slices = synthetic_slice_sequence(shot33, 2, seed=9)
        with pytest.raises(FittingError, match="2 slices with 1 psi_initial"):
            solver.start_fit(slices, psi_initial=[None])
        with pytest.raises(FittingError, match="3 coeffs_initial"):
            solver.start_fit(slices, coeffs_initial=[None] * 3)
        assert solver.start_fit([]) == []
