"""Tests of the precomputed edge operator and the batched pflux_ path.

The edge operator factors the boundary Green sums into one dense
``(n_edge, nw*nh)`` matrix so a single GEMM serves a whole batch of
slices; the batched interior solve hands every slice's RHS to one
multi-RHS tridiagonal solve.  These tests pin both against the per-slice
kernels for batch sizes 1, 3 and 8 — the vectorised kernel at the paper's
65x65 production grid, the pure-Python ``boundary_flux_reference`` loops
at 33x33 (an eighth of the loop work; they index the table the same way
at any size) — and hold every one-slice form (``compute``, ``solve``,
the Dirichlet correction) to its batch form on one slice, bit for bit.
"""

import numpy as np
import pytest

from repro.efit.grid import RZGrid
from repro.efit.operators import DenseEdgeOperator, build_edge_operator
from repro.efit.pflux import (
    PfluxStructured,
    PfluxVectorized,
    boundary_flux_reference,
    boundary_flux_vectorized,
    edge_flux_operator,
    edge_node_indices,
)
from repro.efit.solvers import SOLVER_NAMES, make_solver
from repro.efit.tables import cached_boundary_tables
from repro.errors import GridError


@pytest.fixture(scope="module")
def grid65():
    return RZGrid(65, 65)


@pytest.fixture(scope="module")
def tables65(grid65):
    return cached_boundary_tables(grid65)


@pytest.fixture(scope="module")
def operator65(grid65, tables65):
    return DenseEdgeOperator(grid65, edge_flux_operator(tables65))


@pytest.fixture(scope="module")
def batch8(grid65):
    """Eight random 65x65 slices; the B in {1, 3, 8} comparisons use its
    leading columns."""
    rng = np.random.default_rng(20230565)
    return rng.normal(size=(8,) + grid65.shape) * 1e3


@pytest.fixture(scope="module")
def grid33():
    return RZGrid(33, 33)


@pytest.fixture(scope="module")
def reference8(grid33):
    """Eight random 33x33 slices plus their reference-kernel boundary
    fluxes and the dense operator.

    The pure-Python reference loop costs ~1 s per 65x65 slice and an
    eighth of that at 33x33, so the B in {1, 3, 8} comparisons all draw
    from this one batch: B=1 and B=3 are leading subsets of the B=8
    columns.
    """
    rng = np.random.default_rng(20230533)
    g = grid33
    tables = cached_boundary_tables(g)
    pcurr = rng.normal(size=(8,) + g.shape) * 1e3
    ref = np.stack(
        [
            g.unflatten(boundary_flux_reference(tables.fortran_view(), g.flatten(p), g.nw, g.nh))
            for p in pcurr
        ]
    )
    return pcurr, ref, DenseEdgeOperator(g, edge_flux_operator(tables))


def scatter_edges(grid, edge_values):
    """Expand (n_edge, B) operator output back onto (B, nw, nh) grids."""
    ei, ej = edge_node_indices(grid.nw, grid.nh)
    out = np.zeros((edge_values.shape[1],) + grid.shape)
    out[:, ei, ej] = edge_values.T
    return out


class TestEdgeOperator:
    def test_operator_shape(self, grid65, operator65):
        n_edge = 2 * grid65.nw + 2 * grid65.nh - 4
        assert operator65.matrix.shape == (n_edge, grid65.size)

    def test_edge_indices_cover_rim_once(self, grid65):
        ei, ej = edge_node_indices(grid65.nw, grid65.nh)
        assert ei.size == 2 * grid65.nw + 2 * grid65.nh - 4
        mask = np.zeros(grid65.shape, dtype=int)
        mask[ei, ej] += 1
        rim = np.zeros(grid65.shape, dtype=bool)
        rim[0, :] = rim[-1, :] = rim[:, 0] = rim[:, -1] = True
        assert (mask[rim] == 1).all()
        assert (mask[~rim] == 0).all()

    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_matches_vectorized_kernel(self, grid65, operator65, batch8, nb):
        pcurr = batch8
        flat = pcurr[:nb].reshape(nb, grid65.size).T
        psi = scatter_edges(grid65, operator65.apply(flat))
        for k in range(nb):
            vec = boundary_flux_vectorized(cached_boundary_tables(grid65), pcurr[k])
            assert np.allclose(psi[k], vec, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_matches_reference_kernel(self, grid33, reference8, nb):
        pcurr, ref, operator33 = reference8
        flat = pcurr[:nb].reshape(nb, grid33.size).T
        psi = scatter_edges(grid33, operator33.apply(flat))
        assert np.allclose(psi, ref[:nb], rtol=1e-12, atol=1e-18)

    def test_single_column_matches_matvec(self, grid65, operator65, rng):
        pcurr = rng.normal(size=grid65.size)
        single = operator65.apply(pcurr)
        batched = operator65.apply(pcurr[:, None])
        assert np.array_equal(single, batched[:, 0])

    def test_shape_validation(self, grid65, operator65):
        with pytest.raises(GridError):
            operator65.apply(np.zeros(7))


class TestPfluxOperatorPipeline:
    def test_full_compute_matches_vectorized(self, rng):
        g = RZGrid(17, 23)
        tables = cached_boundary_tables(g)
        pcurr = rng.normal(size=g.shape) * 1e3
        ext = rng.normal(size=g.shape)
        vec = PfluxVectorized(g, tables, make_solver("dst", g)).compute(pcurr, ext)
        op = PfluxStructured(
            g, tables, make_solver("dst", g), build_edge_operator(tables, "dense")
        ).compute(pcurr, ext)
        assert np.allclose(op, vec, rtol=1e-12)


class TestComputeBatch:
    """The flux step's batch form against its one-slice form, with the
    batch's width falling as its slices converge."""

    @pytest.fixture(scope="class")
    def step(self):
        from repro.edge_methods import DEFAULT_EDGE_METHOD
        from repro.efit.operators import cached_edge_operator

        g = RZGrid(33, 33)
        tables = cached_boundary_tables(g)
        op = cached_edge_operator(tables, DEFAULT_EDGE_METHOD)
        return PfluxStructured(g, tables, make_solver("dst", g), op)

    @staticmethod
    def _currents(grid, n):
        """The ``(n, nw, nh)`` stacks of ``n`` plasma-shaped currents on
        different row bands and of their external fluxes."""
        rng = np.random.default_rng(33)
        pcurr = np.zeros((n,) + grid.shape)
        external = np.empty_like(pcurr)
        for k in range(n):
            pcurr[k, 8 + k : 22 + 2 * k, 6:27] = rng.normal(size=(14 + k, 21)) * 1e3
            external[k] = rng.normal(size=grid.shape)
        return pcurr, external

    def test_shrinking_active_set(self, step):
        """Width 1 is ``compute`` bit for bit, whatever width the buffers
        were sized for; wider batches are DESIGN.md section 6 row 2
        (round-off of the span); buffers sized for the widest batch serve
        every narrower one without a new one."""
        pcurr, external = self._currents(step.grid, 4)
        serial = [step.compute(*pair) for pair in zip(pcurr, external)]
        step.compute_batch(pcurr, external)
        allocations = step.workspace.counters.allocations
        for width in (4, 3, 2, 1):
            got = step.compute_batch(pcurr[:width], external[:width])
            assert got.shape == (width,) + step.grid.shape
            for psi, want in zip(got, serial):
                if width == 1:
                    np.testing.assert_array_equal(psi, want)
                else:
                    assert np.abs(psi - want).max() <= 1e-9 * np.ptp(want)
        assert step.workspace.counters.allocations == allocations

    def test_returns_arrays_the_caller_owns(self, step):
        pcurr, external = self._currents(step.grid, 3)
        first = step.compute_batch(pcurr, external)
        copies = [psi.copy() for psi in first]
        step.compute_batch(pcurr[::-1], external[::-1])
        for psi, copy in zip(first, copies):
            np.testing.assert_array_equal(psi, copy)
        assert not np.shares_memory(first[0], first[1])


    def test_shapes_are_checked(self, step):
        pcurr, external = self._currents(step.grid, 2)
        with pytest.raises(GridError):
            step.compute(np.zeros((3, 3)))
        with pytest.raises(GridError):
            step.compute(pcurr[0], external)
        with pytest.raises(GridError):
            step.compute_batch(pcurr, external[:1])


class TestSolveBatch:
    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_matches_per_slice_solve(self, nb, rng):
        """Every interior solver: a slice of a batched solve and of a
        batched Dirichlet correction is its one-slice form bit for bit."""
        g = RZGrid(33, 33)
        rhs = rng.normal(size=(nb,) + g.shape)
        psi_b = np.zeros((nb,) + g.shape)
        rim = rng.normal(size=g.shape)
        rim[1:-1, 1:-1] = 0.0
        psi_b[:] = rim
        for name in SOLVER_NAMES:
            solver = make_solver(name, g)
            batched = solver.solve_batch(rhs, psi_b)
            corrections = solver.operator.dirichlet_rhs_correction_batch(psi_b)
            for k in range(nb):
                assert np.array_equal(batched[k], solver.solve(rhs[k], psi_b[k])), name
                assert np.array_equal(
                    corrections[k].reshape(-1),
                    solver.operator.dirichlet_rhs_correction(psi_b[k]),
                ), name

    def test_shape_validation(self):
        g = RZGrid(9, 9)
        solver = make_solver("dst", g)
        with pytest.raises(GridError):
            solver.solve_batch(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))
        with pytest.raises(GridError):
            solver.solve_batch(np.zeros((2,) + g.shape), np.zeros((3,) + g.shape))
