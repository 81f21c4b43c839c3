"""Deeper numerical verification of the substrate pieces."""

import numpy as np
import pytest

from repro.efit.boundary import _node_search
from repro.efit.grid import RZGrid
from repro.efit.operators import GradShafranovOperator
from repro.efit.solvers.dst import DSTSolver
from repro.efit.tables import cached_boundary_tables


def _quadratic_refine(grid, field, i, j):
    """The boundary search's refinement of node ``(i, j)`` of ``field``."""
    (vertex,), _ = _node_search(grid, field[None], [i * grid.nh + j], None)
    return vertex


class TestQuadraticRefine:
    def test_exact_on_quadratic_field(self):
        """The 3x3 quadratic model recovers the vertex of an exact
        paraboloid to machine precision."""
        g = RZGrid(21, 21, rmin=1.0, rmax=2.0, zmin=-0.5, zmax=0.5)
        r0 = g.r[10] + 0.3 * g.dr
        z0 = g.z[10] - 0.2 * g.dz
        f = -((g.rr - r0) ** 2) - 2.0 * (g.zz - z0) ** 2
        r, z, val = _quadratic_refine(g, f, 10, 10)
        assert r == pytest.approx(r0, abs=1e-12)
        assert z == pytest.approx(z0, abs=1e-12)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_stencil_falls_back(self):
        g = RZGrid(9, 9)
        flat = np.zeros(g.shape)
        r, z, val = _quadratic_refine(g, flat, 4, 4)
        assert (r, z, val) == (g.r[4], g.z[4], 0.0)

    def test_large_correction_clamped_to_node(self):
        """A saddle-free monotone field would push the vertex far outside
        the cell; the refiner must return the node instead."""
        g = RZGrid(9, 9)
        f = g.rr * 1e3 + 1e-9 * (g.rr - g.r[4]) ** 2
        r, z, _ = _quadratic_refine(g, f, 4, 4)
        assert r == g.r[4] and z == g.z[4]


class TestDSTInternals:
    def test_mode_eigenvalues_match_stencil(self):
        """lam_m must be the exact eigenvalue of the discrete d2/dZ2 on
        the corresponding sine mode."""
        g = RZGrid(9, 17)
        solver = DSTSolver(g)
        nj = g.nh - 2
        dz2 = g.dz**2
        for m in (1, 3, nj):
            j = np.arange(1, nj + 1)
            mode = np.sin(np.pi * m * j / (g.nh - 1))
            padded = np.concatenate([[0.0], mode, [0.0]])
            second = (padded[2:] - 2 * padded[1:-1] + padded[:-2]) / dz2
            lam = solver.lam[m - 1]
            assert np.allclose(second, lam * mode, atol=1e-10)


class TestGreenTableStructure:
    def test_z_translation_invariance_is_real(self, grid_rect, tables_rect):
        """The table entry must equal the Green function of *any* pair of
        points with that column pair and Z offset — the invariance the
        gridpc layout assumes."""
        from repro.efit.greens import greens_psi

        g = grid_rect
        i_b, ii, dj = 3, 7, 4
        for j0 in (0, 5, g.nh - 1 - dj):
            val = greens_psi(g.r[i_b], g.z[j0], g.r[ii], g.z[j0 + dj])
            assert tables_rect.gpc[i_b, dj, ii] == pytest.approx(val, rel=1e-12)

    def test_table_reciprocity(self, grid_rect, tables_rect):
        """G(i_b -> ii) == G(ii -> i_b) at equal offsets (filament
        reciprocity carried into the table)."""
        gpc = tables_rect.gpc
        for a, b, d in [(2, 9, 3), (0, grid_rect.nw - 1, 7)]:
            assert gpc[a, d, b] == pytest.approx(gpc[b, d, a], rel=1e-12)


class TestOperatorManufactured:
    def test_second_manufactured_solution(self):
        """Convergence on exp/log data (exercises both R terms)."""
        errs = []
        for n in (17, 33, 65):
            g = RZGrid(n, n, rmin=1.0, rmax=2.0, zmin=-0.5, zmax=0.5)
            op = GradShafranovOperator(g)
            psi = np.exp(g.zz) * np.log(g.rr)
            # R d/dR[(1/R) d(log R)/dR] = R d/dR[R^-2] = -2/R^2.
            exact = np.exp(g.zz) * (-2.0 / g.rr**2 + np.log(g.rr))
            err = np.abs(op.apply(psi) - exact)[1:-1, 1:-1].max()
            errs.append(err)
        # Asymptotically 4x per refinement; the coarse pair is pre-asymptotic.
        assert errs[0] / errs[1] > 3.2
        assert errs[1] / errs[2] > 3.5
