"""Tests of the discrete Delta* operator."""

import numpy as np
import pytest

from repro.efit.grid import RZGrid
from repro.efit.operators import GradShafranovOperator
from repro.errors import GridError


@pytest.fixture(scope="module")
def op():
    return GradShafranovOperator(RZGrid(25, 31))


class TestNullSpace:
    """Delta* annihilates 1, Z, R^2, R^4-4R^2Z^2 and ZR^2 exactly; the
    conservative stencil preserves this discretely."""

    @pytest.mark.parametrize(
        "name",
        ["one", "z", "r2", "quartic", "zr2"],
    )
    def test_annihilated(self, op, name):
        g = op.grid
        fields = {
            "one": np.ones(g.shape),
            "z": g.zz,
            "r2": g.rr**2,
            "quartic": g.rr**4 - 4.0 * g.rr**2 * g.zz**2,
            "zr2": g.zz * g.rr**2,
        }
        res = op.apply(fields[name])
        scale = max(np.abs(fields[name]).max(), 1.0)
        assert np.abs(res[1:-1, 1:-1]).max() < 1e-10 * scale


class TestExactness:
    def test_r4_term(self, op):
        """Delta*(R^4/8) = R^2 — exact for the conservative stencil."""
        g = op.grid
        res = op.apply(g.rr**4 / 8.0)
        assert np.allclose(res[1:-1, 1:-1], g.rr[1:-1, 1:-1] ** 2, rtol=1e-10)

    def test_z2_term(self, op):
        """Delta*(Z^2/2) = 1 — exact."""
        res = op.apply(op.grid.zz**2 / 2.0)
        assert np.allclose(res[1:-1, 1:-1], 1.0)

    def test_solovev_rhs(self, op, solovev):
        g = op.grid
        res = op.apply(solovev.psi(g.rr, g.zz))
        expected = solovev.delta_star(g.rr, g.zz)
        assert np.allclose(res[1:-1, 1:-1], expected[1:-1, 1:-1], rtol=1e-8)


class TestConvergenceOrder:
    def test_second_order_on_smooth_field(self):
        """Truncation error drops ~4x per mesh doubling on sin/cos data."""
        errors = []
        for n in (17, 33, 65):
            g = RZGrid(n, n)
            op = GradShafranovOperator(g)
            psi = np.sin(2.0 * g.rr) * np.cos(1.5 * g.zz)
            # Analytic Delta* of the test function.
            ds = (
                -4.0 * np.sin(2.0 * g.rr)
                - 2.0 * np.cos(2.0 * g.rr) / g.rr
                - 2.25 * np.sin(2.0 * g.rr)
            ) * np.cos(1.5 * g.zz)
            err = np.abs(op.apply(psi) - ds)[1:-1, 1:-1].max()
            errors.append(err)
        assert errors[0] / errors[1] > 3.4
        assert errors[1] / errors[2] > 3.4


class TestMatrixForm:
    def test_matrix_matches_matrix_free(self, rng):
        g = RZGrid(9, 12)
        op = GradShafranovOperator(g)
        psi = rng.normal(size=g.shape)
        psi_zero_edge = psi.copy()
        psi_zero_edge[0, :] = psi_zero_edge[-1, :] = 0.0
        psi_zero_edge[:, 0] = psi_zero_edge[:, -1] = 0.0
        interior = psi_zero_edge[1:-1, 1:-1].reshape(-1)
        via_matrix = op.interior_matrix @ interior
        via_apply = op.apply(psi_zero_edge)[1:-1, 1:-1].reshape(-1)
        assert np.allclose(via_matrix, via_apply, rtol=1e-12, atol=1e-12)

    def test_dirichlet_correction_consistency(self, rng):
        """A @ x_int + correction == apply(x) on the interior for any x."""
        g = RZGrid(8, 10)
        op = GradShafranovOperator(g)
        psi = rng.normal(size=g.shape)
        interior = psi[1:-1, 1:-1].reshape(-1)
        corr = op.dirichlet_rhs_correction(psi)
        full = op.apply(psi)[1:-1, 1:-1].reshape(-1)
        assert np.allclose(op.interior_matrix @ interior + corr, full, atol=1e-10)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 6), (6, 3), (4, 4), (8, 10), (33, 33)])
    def test_edge_strip_subtraction_is_the_whole_correction(self, rng, shape):
        """``solve_batch`` subtracts the correction on its four edge strips
        only, from the edges' strip pairs and on the Z-major interior: bit
        for bit the whole-interior subtraction, corners included."""
        g = RZGrid(*shape)
        op = GradShafranovOperator(g)
        rhs = rng.normal(size=(3, g.nw - 2, g.nh - 2))
        psi = rng.normal(size=(3,) + g.shape)
        want = rhs - op.dirichlet_rhs_correction_batch(psi)
        vertical = psi[:, :: g.nw - 1, :].transpose(1, 2, 0)
        horizontal = psi[:, 1:-1, :: g.nh - 1].transpose(2, 1, 0)
        rhs_t = rhs.transpose(0, 2, 1).copy()
        got = op.subtract_dirichlet_edges(rhs_t, vertical, horizontal)
        assert got is rhs_t
        assert np.array_equal(got.transpose(0, 2, 1), want)

    def test_matrix_diagonal_negative(self, op):
        assert (op.interior_matrix.diagonal() < 0).all()

    def test_weighted_symmetry(self):
        """diag(1/R) A is symmetric — the property CG relies on."""
        g = RZGrid(7, 8)
        op = GradShafranovOperator(g)
        import scipy.sparse as sp

        r_int = np.repeat(g.r[1:-1], g.nh - 2)
        w = sp.diags(1.0 / r_int)
        m = (w @ op.interior_matrix).toarray()
        assert np.allclose(m, m.T, atol=1e-14)


class TestValidation:
    def test_shape_mismatch(self, op):
        with pytest.raises(GridError):
            op.apply(np.zeros((3, 3)))
        with pytest.raises(GridError):
            op.residual(np.zeros(op.grid.shape), np.zeros((3, 3)))

    def test_residual_zero_for_consistent_pair(self, op, solovev):
        g = op.grid
        psi = solovev.psi(g.rr, g.zz)
        rhs = solovev.delta_star(g.rr, g.zz)
        res = op.residual(psi, rhs)
        assert np.abs(res[1:-1, 1:-1]).max() < 1e-8
