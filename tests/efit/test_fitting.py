"""Tests of the fit_ Picard loop (the reconstruction itself)."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.batch import synthetic_slice_sequence
from repro.efit.fitting import N_WARMUP, EfitSolver
from repro.errors import ConvergenceError, FittingError
from repro.profiling.regions import RegionProfiler


@pytest.fixture(scope="module")
def solver33(shot33):
    return EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)


@pytest.fixture(scope="module")
def result33(solver33, shot33):
    return solver33.fit(shot33.measurements)


class TestConvergence:
    def test_converges_below_paper_tolerance(self, result33):
        assert result33.converged
        assert result33.residual < 1e-5

    def test_iteration_count_paper_range(self, result33):
        """'fit_ could take between ten or hundreds of iterations'."""
        assert 10 <= result33.iterations <= 300

    def test_residual_shrinks_over_tail(self, result33):
        """After warm-up the residual trends down (geometric convergence;
        individual iterates may wiggle)."""
        tail = [h.residual for h in result33.history[-6:]]
        assert tail[-1] <= tail[0]
        assert tail[-1] == min(tail)

    def test_nonconvergence_raises(self, shot33):
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, max_iters=3)
        with pytest.raises(ConvergenceError):
            s.fit(shot33.measurements)

    def test_nonconvergence_suppressable(self, shot33):
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, max_iters=3)
        res = s.fit(shot33.measurements, require_convergence=False)
        assert not res.converged and res.iterations == 3


class TestAccuracy:
    def test_flux_map_matches_truth(self, result33, shot33):
        err = np.abs(result33.psi - shot33.truth.psi).max() / np.ptp(shot33.truth.psi)
        assert err < 2e-3

    def test_ip_recovered(self, result33, shot33):
        assert result33.ip == pytest.approx(shot33.truth.ip, rel=5e-3)

    def test_chi2_statistically_reasonable(self, result33, shot33):
        """chi^2 ~ number of measurements for a correct noise model."""
        n = shot33.measurements.n_measurements
        assert result33.chi2 < 3 * n

    def test_ffprime_coefficients_recovered(self, result33, shot33):
        """FF' is well-constrained by external magnetics."""
        got = result33.profiles.beta
        want = shot33.truth.profiles.beta
        assert np.allclose(got, want, rtol=0.1)

    def test_axis_position_recovered(self, result33, shot33):
        b_fit, b_true = result33.boundary, shot33.truth.boundary
        assert b_fit.r_axis == pytest.approx(b_true.r_axis, abs=2 * shot33.grid.dr)
        assert b_fit.z_axis == pytest.approx(b_true.z_axis, abs=2 * shot33.grid.dz)


class TestStability:
    """The fitdelz vertical feedback keeps the undamped Picard loop
    stable — the failure mode it fixes is a vertical drift that grows
    ~2.5x per iteration."""

    def test_converges_undamped(self, shot33):
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, max_iters=300)
        res = s.fit(shot33.measurements)
        assert res.converged
        assert abs(res.boundary.z_axis) < 0.05

    def test_without_fitdelz_diverges_or_drifts(self, shot33, monkeypatch):
        """Disabling the feedback (every fitted shift zero) reproduces the
        vertical instability — documenting that the feedback is
        load-bearing, not decorative."""
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, max_iters=60)
        monkeypatch.setattr(s, "_fit_delz", lambda u, r: np.zeros(len(u)))
        try:
            res = s.fit(shot33.measurements, require_convergence=False)
        except Exception:
            return  # boundary search blew up: instability confirmed
        drifted = abs(res.boundary.z_axis) > 0.1
        assert (not res.converged) or drifted or res.chi2 > 10 * shot33.measurements.n_measurements

    def test_delz_estimator_sign_and_magnitude(self, solver33, shot33):
        from repro.efit.current import basis_current_matrix
        from repro.efit.response import assemble_response

        tr = shot33.truth
        g = shot33.grid
        shifted = g.shift_z(tr.pcurr, 2 * g.dz)
        jm = basis_current_matrix(
            g, tr.boundary.psin, tr.boundary.mask, tr.profiles.pp_basis, tr.profiles.ffp_basis
        )
        asm = assemble_response(
            solver33.grid_response,
            jm,
            solver33.coil_response,
            shot33.measurements.coil_currents,
            shot33.measurements.values,
            shot33.measurements.uncertainties,
        )
        residual = asm.data - solver33.grid_response @ g.flatten(shifted)
        u = solver33.grid_response @ g.flatten(np.gradient(shifted, g.dz, axis=1))
        w = asm.weights
        (est,) = solver33._fit_delz((w * u)[None], (w * residual)[None])
        assert est == pytest.approx(-2 * g.dz, rel=0.05)

    def test_shift_z_roundtrip(self, solver33, rng):
        g = solver33.grid
        f = rng.normal(size=g.shape)
        back = g.shift_z(g.shift_z(f, 3 * g.dz), -3 * g.dz)
        # interior (unaffected by zero-fill) must be restored exactly
        assert np.allclose(back[:, 4:-4], f[:, 4:-4])

    def test_shift_z_conserves_interior_current(self, solver33, shot33):
        pc = shot33.truth.pcurr
        shifted = shot33.grid.shift_z(pc, 1.5 * shot33.grid.dz)
        assert shifted.sum() == pytest.approx(pc.sum(), rel=1e-6)


class TestContraction:
    """``FitResult.contraction``: the geometric-mean residual ratio of the
    least-squares iterates, derived from the history alone."""

    def test_cold_fit_counts_from_the_last_warmup_iterate(self, result33):
        tail = [rec.residual for rec in result33.history[N_WARMUP:]]
        assert result33.contraction == pytest.approx(
            (tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1))
        )
        assert 0.0 < result33.contraction < 0.5

    def test_warm_fit_counts_every_iterate_and_one_iterate_is_nan(self, solver33, shot33, result33):
        resolve = solver33.fit(shot33.measurements, psi_initial=result33.psi)
        assert resolve.iterations == 1 and np.isnan(resolve.contraction)
        (renoised,) = synthetic_slice_sequence(shot33, 1, seed=4)
        warm = solver33.fit(renoised, psi_initial=result33.psi)
        assert warm.warm_start and warm.iterations >= 2
        r = [rec.residual for rec in warm.history]
        assert warm.contraction == pytest.approx((r[-1] / r[0]) ** (1.0 / (len(r) - 1)))

    def test_revoked_seed_counts_from_its_second_warmup(self, solver33, shot33, result33):
        revoked = solver33.fit(shot33.measurements, psi_initial=1.5 * result33.psi)
        assert not revoked.warm_start
        # Trusted iterates, then the guard's warm-up, then the clean tail:
        # only the tail is the map's contraction.
        assert 0.0 < revoked.contraction < 0.5


class TestConfiguration:
    def test_invalid_parameters(self, shot33):
        kw = dict(machine=shot33.machine, diagnostics=shot33.diagnostics, grid=shot33.grid)
        with pytest.raises(FittingError):
            EfitSolver(max_iters=0, **kw)
        with pytest.raises(FittingError):
            EfitSolver(pflux_impl="cuda", **kw)
        # A flux step is not an operator: the solver builds its own.
        step = EfitSolver(**kw).pflux
        with pytest.raises(FittingError, match="EdgeOperator"):
            EfitSolver(pflux_impl=step, **kw)

    @pytest.mark.parametrize("bad", [{"ridge": -1.0}, {"max_iters": 0}, {"max_iters": -3}])
    def test_loop_parameters_rejected_at_construction(self, shot33, bad):
        """A negative ridge or an empty iterate budget fails where the
        solver is built, not at the first least-squares iterate mid-batch
        or as a result without a boundary."""
        with pytest.raises(FittingError):
            EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, **bad)

    def test_picard_of_no_states_ends_at_once(self, solver33):
        assert list(solver33.picard([])) == []

    @pytest.mark.parametrize(
        "knob",
        [{"relax_current": 0.5}, {"n_warmup": 8}, {"solver_name": "dst"}, {"relax": 0.7}],
    )
    def test_removed_step_knobs_fail_loudly(self, shot33, knob):
        """The Picard step is one fixed scheme (full least-squares step,
        ``N_WARMUP`` warm-up iterates, the DST interior solver, no flux
        blend): its former arguments are not silently accepted."""
        with pytest.raises(TypeError):
            EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, **knob)

    @pytest.mark.parametrize(
        "engine, knob, error",
        [
            ("EfitSolver", {"boundary_method": "dense"}, TypeError),
            ("BatchFitEngine", {"boundary_method": "dense"}, TypeError),
            ("ParallelFitEngine", {"boundary_method": "dense"}, TypeError),
            ("ParallelFitEngine", {"workers": 2}, TypeError),
            ("ParallelFitEngine", {"pflux_impl": None}, TypeError),
            ("ParallelFitEngine", {"profiler": RegionProfiler()}, TypeError),
            ("BatchFitEngine", {"n_workers": 2}, FittingError),
            ("start_fit", {"profiler": None}, TypeError),
            ("start_fit", {"hooks": None}, TypeError),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, dict) else getattr(v, "__name__", v),
    )
    def test_removed_engine_knobs_fail_loudly(self, shot33, engine, knob, error):
        """Each engine decision is settable in one place: the operator is
        an instance (``pflux_impl=`` / ``edge_operator=``), the fleet's
        size is ``SchedulerConfig.workers``, several cores are the
        fleet's, not the batch engine's threads, and a fit records into
        its solver's ``profiler`` / ``hooks``, not per ``start_fit`` (a
        fleet's workers record into their merged trace, not a
        ``profiler``).  The second places are not silently accepted — the
        fleet checks its solver keywords before it stages an arena or
        starts a worker."""
        from repro.batch import BatchFitEngine
        from repro.parallel import ParallelFitEngine, SchedulerConfig

        factory = {
            "EfitSolver": EfitSolver,
            "BatchFitEngine": BatchFitEngine,
            "ParallelFitEngine": partial(
                ParallelFitEngine, config=SchedulerConfig(transport="inline")
            ),
            "start_fit": lambda *problem, **kw: EfitSolver(*problem).start_fit(
                shot33.measurements, **kw
            ),
        }[engine]
        with pytest.raises(error, match="ParallelFitEngine" if error is FittingError else None):
            factory(shot33.machine, shot33.diagnostics, shot33.grid, **knob)

    def test_reference_pflux_impl_agrees(self, shot33):
        """The paper's loop baseline, its BLAS form and the default edge
        operator produce the same reconstruction (the loops are slow:
        only run on the small grid)."""
        import repro.efit.measurements as m
        from repro.efit.pflux import TableSumEdgeOperator
        from repro.efit.tables import cached_boundary_tables

        small = m.synthetic_shot_186610(17, noise=0.0, seed=2)
        tables = cached_boundary_tables(small.grid)

        def fit(**kw):
            return EfitSolver(
                small.machine, small.diagnostics, small.grid, max_iters=300, **kw
            ).fit(small.measurements)

        ref = fit(pflux_impl=TableSumEdgeOperator(tables, "reference"))
        vec = fit(pflux_impl=TableSumEdgeOperator(tables))
        default = fit()
        for other in (vec, default):
            assert np.allclose(ref.psi, other.psi, rtol=1e-10, atol=1e-12)
            assert ref.iterations == other.iterations

    def test_profiler_regions_recorded(self, shot33):
        prof = RegionProfiler()
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, profiler=prof)
        s.fit(shot33.measurements)
        rep = prof.report()
        for region in ("fit_", "pflux_", "green_", "current_", "steps_"):
            assert rep.calls.get(region, 0) > 0
        # pflux_ called exactly once per fit_ invocation (Table 2 semantics)
        assert rep.calls["pflux_"] == rep.calls["fit_"]

    def test_measurement_mismatch_rejected(self, solver33, shot33):
        from repro.efit.measurements import MeasurementSet

        bad = MeasurementSet(
            np.zeros(3), np.ones(3), shot33.measurements.coil_currents, ("a", "b", "c")
        )
        with pytest.raises(FittingError):
            solver33.fit(bad)


class TestForeignStatics:
    """``start_fit(statics=)`` and ``iterate_pre(statics=)`` take only the
    solver's own in-limiter mask: its grid response is built on that
    mask's support, so a fit on another would meet zeros."""

    @staticmethod
    def _with_mask(solver, mask):
        return dataclasses.replace(solver.statics, inside_limiter=mask)

    def test_own_mask_by_identity_or_by_value_fits_as_without(self, solver33, shot33, result33):
        copy = self._with_mask(solver33, solver33.statics.inside_limiter.copy())
        for statics in (solver33.statics, copy):
            state = solver33.start_fit(shot33.measurements, statics=statics)
            for _ in range(result33.iterations):
                pcurr, psi_external = solver33.iterate_pre(state, statics=statics)
                solver33.iterate_post(state, solver33.pflux.compute(pcurr, psi_external))
            assert solver33.finish(state).psi.tobytes() == result33.psi.tobytes()

    def test_another_mask_is_refused_by_both_halves(self, solver33, shot33):
        mask = solver33.statics.inside_limiter.copy()
        rows, cols = solver33.statics.response_support
        mask[rows.start - 1, cols.start + 1] = True  # a node off the response's support
        foreign = self._with_mask(solver33, mask)
        with pytest.raises(FittingError, match="in-limiter mask"):
            solver33.start_fit(shot33.measurements, statics=foreign)
        state = solver33.start_fit(shot33.measurements)
        with pytest.raises(FittingError, match="in-limiter mask"):
            solver33.iterate_pre(state, statics=foreign)
        assert state.iteration == 0
        wrong_grid = self._with_mask(solver33, np.ones((5, 5), dtype=bool))
        with pytest.raises(FittingError, match="in-limiter mask"):
            solver33.iterate_pre([state], statics=wrong_grid)
