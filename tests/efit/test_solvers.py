"""Tests of the interior Grad-Shafranov solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.efit.grid import RZGrid
from repro.efit.operators import GradShafranovOperator
from repro.efit.solvers import (
    SOLVER_NAMES,
    ConjugateGradientSolver,
    DirectLUSolver,
    DSTSolver,
    make_solver,
)
from repro.efit.solvers import dst as dst_module
from repro.errors import SolverError


def thomas_multi_rhs(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Thomas algorithm for many tridiagonal systems sharing off-diagonals
    (``lower[0]`` and ``upper[n-1]`` unused; ``diag`` and ``rhs`` are
    ``(n, m)``, a column per system).

    The DST solver's sweep until PR 23, kept as the oracle for the LAPACK
    factorisation that replaced it.
    """
    n, m = rhs.shape
    if diag.shape != (n, m) or lower.shape != (n,) or upper.shape != (n,):
        raise SolverError("thomas_multi_rhs shape mismatch")
    cp = np.empty((n, m))
    dp = np.empty((n, m))
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.empty((n, m))
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


@pytest.fixture(scope="module", params=SOLVER_NAMES)
def any_solver(request):
    return make_solver(request.param, RZGrid(19, 33))


class TestFactory:
    def test_known_names(self):
        g = RZGrid(9, 9)
        assert isinstance(make_solver("direct", g), DirectLUSolver)
        assert isinstance(make_solver("dst", g), DSTSolver)
        assert isinstance(make_solver("cg", g), ConjugateGradientSolver)

    def test_unknown_name(self):
        with pytest.raises(SolverError):
            make_solver("multigrid", RZGrid(9, 9))


class TestSolovevExactness:
    """All solvers reproduce the Solov'ev equilibrium to round-off: the
    conservative stencil is exact on its polynomial family."""

    def test_exact(self, any_solver, solovev):
        g = any_solver.grid
        psi_exact = solovev.psi(g.rr, g.zz)
        rhs = solovev.delta_star(g.rr, g.zz)
        psi = any_solver.solve(rhs, psi_exact)
        assert np.abs(psi - psi_exact).max() < 1e-9 * np.abs(psi_exact).max() + 1e-12


class TestCrossAgreement:
    def test_all_solvers_agree_on_random_data(self, rng):
        g = RZGrid(14, 17)  # nh = 2^4 + 1: cyclic-reduction compatible
        rhs = rng.normal(size=g.shape)
        bdry = rng.normal(size=g.shape)
        sols = [make_solver(name, g).solve(rhs, bdry) for name in SOLVER_NAMES]
        for other in sols[1:]:
            assert np.allclose(sols[0], other, rtol=1e-8, atol=1e-10)

    def test_solution_satisfies_operator(self, any_solver, rng):
        g = any_solver.grid
        rhs = rng.normal(size=g.shape)
        bdry = rng.normal(size=g.shape)
        psi = any_solver.solve(rhs, bdry)
        op = GradShafranovOperator(g)
        res = op.residual(psi, rhs)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(res[1:-1, 1:-1]).max() < 1e-7 * scale

    def test_boundary_values_preserved(self, any_solver, rng):
        g = any_solver.grid
        bdry = rng.normal(size=g.shape)
        psi = any_solver.solve(np.zeros(g.shape), bdry)
        assert np.array_equal(psi[0, :], bdry[0, :])
        assert np.array_equal(psi[-1, :], bdry[-1, :])
        assert np.array_equal(psi[:, 0], bdry[:, 0])
        assert np.array_equal(psi[:, -1], bdry[:, -1])


class TestLinearity:
    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_superposition(self, a, b):
        g = RZGrid(11, 13)
        solver = make_solver("dst", g)
        rng = np.random.default_rng(7)
        rhs1, rhs2 = rng.normal(size=(2, *g.shape))
        zero = np.zeros(g.shape)
        combo = solver.solve(a * rhs1 + b * rhs2, zero)
        parts = a * solver.solve(rhs1, zero) + b * solver.solve(rhs2, zero)
        assert np.allclose(combo, parts, rtol=1e-9, atol=1e-9)


class TestMaximumPrinciple:
    def test_zero_rhs_bounded_by_boundary(self, any_solver, rng):
        """With no source, the solution obeys a discrete maximum principle."""
        g = any_solver.grid
        bdry = rng.normal(size=g.shape)
        psi = any_solver.solve(np.zeros(g.shape), bdry)
        edge = np.concatenate([bdry[0, :], bdry[-1, :], bdry[:, 0], bdry[:, -1]])
        assert psi.max() <= edge.max() + 1e-9
        assert psi.min() >= edge.min() - 1e-9


class TestThomas:
    def test_against_dense_solve(self, rng):
        n, m = 12, 5
        lower = rng.normal(size=n)
        upper = rng.normal(size=n)
        diag = rng.normal(size=(n, m)) + 6.0  # diagonally dominant
        rhs = rng.normal(size=(n, m))
        x = thomas_multi_rhs(lower, diag, upper, rhs)
        for k in range(m):
            mat = np.diag(diag[:, k]) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
            assert np.allclose(mat @ x[:, k], rhs[:, k], atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            thomas_multi_rhs(np.zeros(3), np.ones((3, 2)), np.zeros(4), np.ones((3, 2)))


class TestTridiagonalKernel:
    """The mode systems as one factor-once LAPACK solve, against the sweep
    it replaced — properties of the arithmetic, not of a stopwatch."""

    @staticmethod
    def _mode_systems(solver):
        """``(lower, diag, upper)`` of the per-mode systems, rebuilt from
        the operator the way the sweep's solver held them."""
        g, op = solver.grid, solver.operator
        am, ap = op.a_minus / g.dr**2, op.a_plus / g.dr**2
        diag = -(op.a_plus + op.a_minus)[:, None] / g.dr**2 + solver.lam[None, :]
        return np.concatenate(([0.0], am[1:])), diag, np.concatenate((ap[:-1], [0.0]))

    @pytest.mark.parametrize(
        "shape, ulps", [((33, 33), 68), ((65, 65), 72), ((129, 129), 250), ((19, 33), 28)]
    )
    def test_matches_the_thomas_sweep(self, shape, ulps, rng):
        solver = DSTSolver(RZGrid(*shape))
        lower, diag, upper = self._mode_systems(solver)
        b_hat = rng.normal(size=diag.shape)
        got = solver._solve_modes(b_hat.T[None])[0].T  # mode-major in and out
        want = thomas_multi_rhs(lower, diag, upper, b_hat)
        # Both are backward stable to an ulp, componentwise and at every
        # size: |T x - b| <= 4 eps (|T||x| + |b|) ...
        eps = np.finfo(float).eps
        for x in (got, want):
            tx = diag * x
            tx[1:] += lower[1:, None] * x[:-1]
            tx[:-1] += upper[:-1, None] * x[1:]
            scale = np.abs(diag * x) + np.abs(b_hat)
            scale[1:] += np.abs(lower[1:, None] * x[:-1])
            scale[:-1] += np.abs(upper[:-1, None] * x[1:])
            assert np.all(np.abs(tx - b_hat) <= 4 * eps * scale)
        # ... so they differ by that times the conditioning of the
        # smoothest modes, which grows with the row count.  The bound on
        # the distance, in ulp of each mode's largest entry, is pinned per
        # grid at twice the worst of 40 random right-hand sides for the
        # symmetrised L D L^T solve (34 / 36 / 125 ulp at 33^2 / 65^2 /
        # 129^2, 14 at 19 x 33): an elimination twice as lossy as today's
        # fails here.
        ulp = np.spacing(np.abs(want).max(axis=0))
        assert np.all(np.abs(got - want).max(axis=0) <= ulps * ulp)

    def test_solve_matches_the_sweep_through_the_transforms(self, rng):
        g = RZGrid(65, 65)
        solver = DSTSolver(g)
        lower, diag, upper = self._mode_systems(solver)

        class SweepSolver(DSTSolver):
            def _solve_modes(self, b_hat):
                return np.stack([thomas_multi_rhs(lower, diag, upper, b.T).T for b in b_hat])

        rhs, bdry = rng.normal(size=g.shape), rng.normal(size=g.shape)
        got, want = solver.solve(rhs, bdry), SweepSolver(g).solve(rhs, bdry)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_factorisation_failure_is_a_solver_error(self, monkeypatch):
        real = dst_module.dpttrf

        def singular(*args):
            *factors, _ = real(*args)
            return (*factors, 3)

        monkeypatch.setattr(dst_module, "dpttrf", singular)
        with pytest.raises(SolverError, match="info=3"):
            DSTSolver(RZGrid(9, 9))

    def test_a_non_positive_pivot_is_a_solver_error(self, monkeypatch):
        """The symmetrised mode blocks are negative definite, so every
        pivot of the L D L^T factors of their negation is positive; one
        that is not (a non-positive-definite factor) means the blocks are
        not the systems the scaling assumes."""
        real = dst_module.dpttrf

        def indefinite(*args):
            d, e, info = real(*args)
            d = d.copy()
            d[2] = -d[2]
            return d, e, info

        monkeypatch.setattr(dst_module, "dpttrf", indefinite)
        with pytest.raises(SolverError, match="min pivot"):
            DSTSolver(RZGrid(9, 9))

    def test_the_scaling_symmetrises_the_mode_systems(self):
        """The scaling that makes the mode blocks symmetric: ``D T D^-1``
        has equal off-diagonals, and the factored system is its negation."""
        g = RZGrid(33, 33)
        solver = DSTSolver(g)
        lower, diag, upper = self._mode_systems(solver)
        s = -solver._rhs_scale
        sub = lower[1:] * s[1:] / s[:-1]  # (D T D^-1)[i+1, i]
        sup = upper[:-1] * s[:-1] / s[1:]  # (D T D^-1)[i, i+1]
        np.testing.assert_allclose(sub, sup, rtol=1e-14)
        np.testing.assert_allclose(solver._solution_scale * s, 1.0, rtol=1e-15)
        assert 0.5 < s.min() < s.max() == 1.0


class TestNonSquare:
    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_rectangular_grids(self, name, solovev):
        g = RZGrid(13, 33)
        solver = make_solver(name, g)
        psi_exact = solovev.psi(g.rr, g.zz)
        psi = solver.solve(solovev.delta_star(g.rr, g.zz), psi_exact)
        assert np.abs(psi - psi_exact).max() < 1e-8

    def test_shape_mismatch_rejected(self, any_solver):
        with pytest.raises(Exception):
            any_solver.solve(np.zeros((3, 3)), np.zeros((3, 3)))
