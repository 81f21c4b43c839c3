"""Tests of pflux_: boundary Green sums and the full flux solve."""

import numpy as np
import pytest

from repro.efit.greens import greens_psi
from repro.efit.grid import RZGrid
from repro.efit.pflux import (
    PfluxStructured,
    PfluxVectorized,
    TableSumEdgeOperator,
    boundary_flux_reference,
    boundary_flux_vectorized,
)
from repro.efit.solvers import make_solver
from repro.efit.tables import cached_boundary_tables
from repro.errors import GridError


@pytest.fixture(scope="module")
def small():
    g = RZGrid(11, 13)
    return g, cached_boundary_tables(g)


class TestBoundaryKernels:
    def test_reference_vs_vectorized_identical(self, small, rng):
        g, tables = small
        pcurr = rng.normal(size=g.shape)
        ref = boundary_flux_reference(
            tables.fortran_view(), g.flatten(pcurr), g.nw, g.nh
        )
        vec = boundary_flux_vectorized(tables, pcurr)
        assert np.allclose(g.unflatten(ref), vec, rtol=1e-12, atol=1e-15)

    def test_only_edges_filled(self, small, rng):
        g, tables = small
        vec = boundary_flux_vectorized(tables, rng.normal(size=g.shape))
        assert np.allclose(vec[1:-1, 1:-1], 0.0)
        assert not np.allclose(vec[0, :], 0.0)
        assert not np.allclose(vec[:, 0], 0.0)

    def test_single_filament_matches_green_function(self, small):
        """One unit of (negated) current at an interior node: the kernel's
        edge values equal the filament Green function at the edge."""
        g, tables = small
        i_s, j_s = 5, 6
        pcurr = np.zeros(g.shape)
        pcurr[i_s, j_s] = -1.0  # paper kernels carry a minus sign
        vec = boundary_flux_vectorized(tables, pcurr)
        for i_b, j_b in [(0, 3), (g.nw - 1, 8), (4, 0), (7, g.nh - 1)]:
            expected = greens_psi(
                g.r[i_b], g.z[j_b], g.r[i_s], g.z[j_s]
            )
            assert vec[i_b, j_b] == pytest.approx(expected, rel=1e-10)

    def test_corners_consistent(self, small, rng):
        """Corner nodes are computed by two edges; values must agree — the
        vectorized corner comes from the horizontal-edge tensordot, the
        reference kernel writes them twice."""
        g, tables = small
        pcurr = rng.normal(size=g.shape)
        ref = g.unflatten(
            boundary_flux_reference(tables.fortran_view(), g.flatten(pcurr), g.nw, g.nh)
        )
        vec = boundary_flux_vectorized(tables, pcurr)
        for i, j in [(0, 0), (0, g.nh - 1), (g.nw - 1, 0), (g.nw - 1, g.nh - 1)]:
            assert ref[i, j] == pytest.approx(vec[i, j], rel=1e-12)

    def test_linearity(self, small, rng):
        g, tables = small
        a = rng.normal(size=g.shape)
        b = rng.normal(size=g.shape)
        combo = boundary_flux_vectorized(tables, 2.0 * a - 3.0 * b)
        parts = 2.0 * boundary_flux_vectorized(tables, a) - 3.0 * boundary_flux_vectorized(tables, b)
        assert np.allclose(combo, parts, rtol=1e-10, atol=1e-18)

    def test_shape_validation(self, small):
        g, tables = small
        with pytest.raises(GridError):
            boundary_flux_vectorized(tables, np.zeros((3, 3)))
        with pytest.raises(GridError):
            boundary_flux_reference(tables.fortran_view(), np.zeros(5), g.nw, g.nh)
        with pytest.raises(GridError):
            boundary_flux_reference(np.zeros((4, 4)), np.zeros(g.size), g.nw, g.nh)


class TestFullPflux:
    def test_reference_and_vectorized_agree(self, small, rng):
        g, tables = small
        pcurr = rng.normal(size=g.shape) * 1e3
        solver = make_solver("direct", g)
        ref = PfluxStructured(
            g, tables, solver, TableSumEdgeOperator(tables, "reference")
        ).compute(pcurr)
        vec = PfluxVectorized(g, tables, solver).compute(pcurr)
        assert np.allclose(ref, vec, rtol=1e-12)

    def test_superposition_with_direct_green_sum(self):
        """The discrete pflux_ solution approximates the continuum
        superposition of filament fields: check the flux at points far
        from a compact current blob against the direct Green sum."""
        g = RZGrid(41, 41)
        tables = cached_boundary_tables(g)
        solver = make_solver("dst", g)
        pcurr = np.zeros(g.shape)
        ic, jc = 20, 20
        pcurr[ic - 1 : ic + 2, jc - 1 : jc + 2] = 1e4  # 9-cell blob
        psi = PfluxVectorized(g, tables, solver).compute(pcurr)
        src_i, src_j = np.nonzero(pcurr)
        for i, j in [(5, 33), (35, 6), (8, 8)]:
            direct = sum(
                pcurr[a, b] * greens_psi(g.r[i], g.z[j], g.r[a], g.z[b])
                for a, b in zip(src_i, src_j)
            )
            assert psi[i, j] == pytest.approx(direct, rel=2e-3)

    def test_positive_current_positive_flux(self, small):
        g, tables = small
        pcurr = np.zeros(g.shape)
        pcurr[5, 6] = 1e4
        psi = PfluxVectorized(g, tables, make_solver("direct", g)).compute(pcurr)
        assert (psi > 0).all()

    def test_external_flux_superposes(self, small, rng):
        g, tables = small
        solver = make_solver("direct", g)
        op = PfluxVectorized(g, tables, solver)
        pcurr = rng.normal(size=g.shape)
        ext = rng.normal(size=g.shape)
        assert np.allclose(op.compute(pcurr, ext), op.compute(pcurr) + ext)

    def test_grid_mismatch_rejected(self, small):
        g, tables = small
        other = RZGrid(9, 9)
        with pytest.raises(GridError):
            PfluxVectorized(other, tables, make_solver("direct", other))
        op = PfluxVectorized(g, tables, make_solver("direct", g))
        with pytest.raises(GridError):
            op.compute(np.zeros((3, 3)))
