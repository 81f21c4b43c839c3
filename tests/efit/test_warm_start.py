"""The trusted warm-start path: seeding a fit from a prior equilibrium.

Pins the tentpole fix: ``psi_initial`` used to be clobbered by the fixed
parabolic warm-up shape for the first warm-up iterations, and the
convergence check refused to fire before they were over — a
warm start could never be faster than a cold one.  Now a seed whose
boundary search succeeds skips the warm-up entirely and may converge
from the first iterate, with a guarded fallback if it misleads.
"""

import numpy as np
import pytest

from repro.batch import synthetic_slice_sequence
from repro.efit.fitting import N_WARMUP, EfitSolver
from repro.errors import ConvergenceError, FittingError
from repro.obs import TraceHooks, TraceRecorder


@pytest.fixture(scope="module")
def solver33(shot33):
    return EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid)


@pytest.fixture(scope="module")
def cold(solver33, shot33):
    return solver33.fit(shot33.measurements)


@pytest.fixture(scope="module")
def next_slice(shot33):
    """The same equilibrium under fresh noise: what a warm chain solves."""
    return synthetic_slice_sequence(shot33, 1, seed=4)[0]


class TestWarmStart:
    def test_warm_resolve_strictly_fewer_iterations(self, solver33, shot33, cold):
        """The tentpole pin: re-solving a converged slice from its own
        flux map must finish in strictly fewer iterations than cold."""
        warm = solver33.fit(shot33.measurements, psi_initial=cold.psi)
        assert warm.converged
        assert warm.warm_start
        assert warm.iterations < cold.iterations

    def test_warm_with_coefficients_chains(self, solver33, shot33, cold):
        warm = solver33.fit(
            shot33.measurements,
            psi_initial=cold.psi,
            coeffs_initial=cold.history[-1].coefficients,
        )
        assert warm.converged and warm.warm_start
        assert warm.iterations < cold.iterations

    def test_warm_result_matches_cold_physics(self, solver33, shot33, cold):
        warm = solver33.fit(shot33.measurements, psi_initial=cold.psi)
        span = float(np.ptp(cold.psi))
        assert np.max(np.abs(warm.psi - cold.psi)) / span < 1e-3
        assert warm.ip == pytest.approx(cold.ip, rel=1e-2)

    def test_cold_result_not_flagged_warm(self, cold):
        assert not cold.warm_start

    def test_warm_state_skips_warmup(self, solver33, shot33, cold):
        state = solver33.start_fit(shot33.measurements, psi_initial=cold.psi)
        assert state.warm_start and state.warmup_until == 0

    def test_cold_state_keeps_warmup(self, solver33, shot33):
        state = solver33.start_fit(shot33.measurements)
        assert not state.warm_start
        assert state.warmup_until == N_WARMUP

    def test_unusable_seed_degrades_to_cold(self, solver33, shot33, cold):
        """A seed with no findable boundary fails the trust probe and the
        fit proceeds exactly as a cold start (no exception, no flag)."""
        garbage = np.zeros_like(cold.psi)
        res = solver33.fit(shot33.measurements, psi_initial=garbage)
        assert res.converged
        assert not res.warm_start
        assert res.iterations == cold.iterations

    def test_divergence_guard_revokes_trust(self, shot33, cold):
        """A plausible-looking but wrong seed trips the guard: the warm
        flag is revoked, a fallback event fires, and the fit still
        converges through the re-armed warm-up."""
        recorder = TraceRecorder()
        s = EfitSolver(
            shot33.machine,
            shot33.diagnostics,
            shot33.grid,
            hooks=TraceHooks(recorder),
        )
        res = s.fit(shot33.measurements, psi_initial=1.5 * cold.psi)
        assert res.converged
        assert not res.warm_start
        events = [e.name for e in recorder.events()]
        assert "warm_start_fallback" in events

    def test_warm_start_visible_in_start_event(self, shot33, cold):
        recorder = TraceRecorder()
        s = EfitSolver(
            shot33.machine,
            shot33.diagnostics,
            shot33.grid,
            hooks=TraceHooks(recorder),
        )
        s.fit(shot33.measurements, psi_initial=cold.psi)
        starts = [e for e in recorder.events() if e.name == "start_fit"]
        assert starts and starts[0].attributes["warm_start"] is True


class TestTrustProbeIsIterateOnesSearch:
    """``start_fit``'s trust probe and iterate 1's ``steps_`` search the
    same psi with the same function: the probe's result is kept, so a
    trusted warm fit of k iterates costs k boundary searches, not k + 1."""

    @pytest.fixture()
    def searches(self, monkeypatch):
        import repro.efit.fitting as fitting

        calls = []
        find_boundaries = fitting.find_boundaries

        def spy(grid, psi, *args, **kwargs):
            calls.extend(psi)  # one entry per flux map searched
            return find_boundaries(grid, psi, *args, **kwargs)

        monkeypatch.setattr(fitting, "find_boundaries", spy)
        return calls

    def test_warm_fit_searches_once_per_iterate(self, solver33, next_slice, cold, searches):
        warm = solver33.fit(next_slice, psi_initial=cold.psi)
        assert warm.warm_start and warm.iterations > 1
        assert len(searches) == warm.iterations

    def test_kept_probe_is_bit_identical_to_searching_again(
        self, solver33, next_slice, cold, searches
    ):
        warm = solver33.fit(next_slice, psi_initial=cold.psi)
        # The path that searches twice: drop what the probe found.
        state = solver33.start_fit(next_slice, psi_initial=cold.psi)
        state.boundary = None
        del searches[:]
        for _ in solver33.picard([state]):
            pass
        again = solver33.finish(state)
        assert len(searches) == again.iterations == warm.iterations
        assert np.array_equal(again.psi, warm.psi)
        assert again.chi2 == warm.chi2 and again.warm_start

    def test_cold_and_revoked_seeds_search_every_iterate(
        self, solver33, shot33, cold, searches
    ):
        res = solver33.fit(shot33.measurements)
        assert len(searches) == res.iterations
        del searches[:]
        # A seed that fails the probe: one failed search, then a cold fit.
        res = solver33.fit(shot33.measurements, psi_initial=np.zeros_like(cold.psi))
        assert not res.warm_start and len(searches) == res.iterations + 1
        del searches[:]
        # A seed the divergence guard revokes keeps the probe's search for
        # iterate 1 like any trusted seed.
        res = solver33.fit(shot33.measurements, psi_initial=1.5 * cold.psi)
        assert not res.warm_start and len(searches) == res.iterations


class TestValidation:
    def test_coeffs_initial_wrong_shape(self, solver33, shot33, cold):
        with pytest.raises(FittingError):
            solver33.fit(
                shot33.measurements,
                psi_initial=cold.psi,
                coeffs_initial=np.ones(3),
            )

    def test_coeffs_initial_non_finite(self, solver33, shot33, cold):
        bad = cold.history[-1].coefficients.copy()
        bad[0] = np.nan
        with pytest.raises(FittingError):
            solver33.fit(
                shot33.measurements, psi_initial=cold.psi, coeffs_initial=bad
            )

    def test_convergence_error_reports_actual_iterations(self, shot33):
        """The message must name the iterations actually run, not assume
        the loop exhausted max_iters (a finish() caller may stop early)."""
        s = EfitSolver(shot33.machine, shot33.diagnostics, shot33.grid, max_iters=3)
        with pytest.raises(ConvergenceError, match=r"after 3 iterations"):
            s.fit(shot33.measurements)

    def test_early_finish_reports_its_own_count(self, solver33, shot33):
        state = solver33.start_fit(shot33.measurements)
        pcurr, psi_ext = solver33.iterate_pre(state)
        solver33.iterate_post(state, solver33.pflux.compute(pcurr, psi_ext))
        with pytest.raises(ConvergenceError, match=r"after 1 iterations"):
            solver33.finish(state)
