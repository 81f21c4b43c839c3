"""Tests of current_ (current distribution) and green_ (response/LSQ)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.efit.basis import PolynomialBasis
from repro.efit.current import (
    basis_current_matrix,
    basis_current_slab,
    basis_current_slabs,
    distribute_current,
)
from repro.efit.grid import RZGrid
from repro.efit.response import (
    ResponseAssembly,
    assemble_response,
    basis_response,
    chi_squared,
    solve_lsq_stack,
    solve_weighted_lsq,
    weighted_residuals,
)
from repro.errors import FittingError
from repro.utils.constants import MU0


@pytest.fixture(scope="module")
def setup():
    g = RZGrid(21, 25)
    rng = np.random.default_rng(3)
    psin = np.clip(((g.rr - 1.7) ** 2 + g.zz**2) / 0.5, 0, 2)
    mask = psin < 1.0
    return g, psin, mask, rng


class TestCurrentMatrix:
    def test_shape_and_mask(self, setup):
        g, psin, mask, _ = setup
        pp, ffp = PolynomialBasis(2), PolynomialBasis(3)
        jm = basis_current_matrix(g, psin, mask, pp, ffp)
        assert jm.shape == (g.size, 5)
        outside = ~g.flatten(mask.astype(bool))
        assert np.allclose(jm[outside], 0.0)

    def test_pp_column_formula(self, setup):
        g, psin, mask, _ = setup
        pp, ffp = PolynomialBasis(2), PolynomialBasis(2)
        jm = basis_current_matrix(g, psin, mask, pp, ffp)
        i, j = 10, 12
        assert mask[i, j]
        k = g.flat_index(i, j)
        x = np.clip(psin[i, j], 0, 1)
        # column 1: R * x * dA
        assert jm[k, 1] == pytest.approx(g.r[i] * x * g.cell_area)
        # column 2 (first FF'): dA / (mu0 R)
        assert jm[k, 2] == pytest.approx(g.cell_area / (MU0 * g.r[i]))

    def test_matrix_is_the_slab_scattered(self, setup):
        """One basis kernel: the full-grid matrix is the slab on the rows
        the mask occupies and zero everywhere else."""
        g, psin, mask, _ = setup
        pp, ffp = PolynomialBasis(2, vanish_at_edge=True), PolynomialBasis(3)
        i0, i1, slab = basis_current_slab(g, psin, mask, pp, ffp)
        rows = np.flatnonzero(mask.any(axis=1))
        assert (i0, i1) == (rows[0], rows[-1] + 1) and 0 < i0 and i1 < g.nw
        assert slab.shape == ((i1 - i0) * g.nh, 5)
        jm = basis_current_matrix(g, psin, mask, pp, ffp)
        assert np.array_equal(jm[i0 * g.nh : i1 * g.nh], slab)
        assert not jm[: i0 * g.nh].any() and not jm[i1 * g.nh :].any()
        # The bases themselves, node by node, as the full-grid formula has them.
        x = np.clip(psin, 0.0, 1.0)
        want = np.concatenate(
            [
                pp.design_matrix(x) * (g.rr * g.cell_area)[..., None],
                ffp.design_matrix(x) * (g.cell_area / (MU0 * g.rr))[..., None],
            ],
            axis=-1,
        )
        want[~mask] = 0.0
        assert np.array_equal(jm, want.reshape(g.size, 5))

    @pytest.mark.parametrize("batch", ["mixed", "empty-first", "one"])
    @pytest.mark.parametrize(
        "pp", [PolynomialBasis(2), PolynomialBasis(3, vanish_at_edge=True)], ids=["pp", "pp-edge"]
    )
    @pytest.mark.parametrize("ffp", [PolynomialBasis(2), PolynomialBasis(3)], ids=["ffp2", "ffp3"])
    def test_batched_slabs_are_each_plasmas_slab_on_the_union_of_rows(self, setup, pp, ffp, batch):
        """B masks side by side, coefficient-major: plasma b's block is its
        own slab, bit for bit, on the union of the masks' rows and zero
        elsewhere — whether a plasma is empty, comes first or is alone —
        and the batched response is each plasma's own response."""
        g, psin, mask, rng = setup
        shifted = np.roll(psin, 3, axis=0), np.roll(psin, -2, axis=0)
        psins = [psin, *shifted, psin]
        masks = [mask, shifted[0] < 1.0, shifted[1] < 0.8, np.zeros_like(mask)]
        if batch == "empty-first":
            psins, masks = psins[::-1], masks[::-1]
        elif batch == "one":
            psins, masks = psins[1:2], masks[1:2]
        slabs = basis_current_slabs(g, psins, masks, pp, ffp)
        nodes = np.flatnonzero(np.any(masks, axis=0))
        assert (slabs.lo, slabs.hi) == (nodes[0], nodes[-1] + 1)
        rows = np.flatnonzero(np.any(masks, axis=(0, 2)))
        assert (slabs.i0, slabs.i1) == (rows[0], rows[-1] + 1)
        n_coeffs = pp.n_terms + ffp.n_terms
        assert slabs.matrix.shape == (len(masks), n_coeffs, (slabs.i1 - slabs.i0) * g.nh)
        for b, (p, m) in enumerate(zip(psins, masks)):
            full = basis_current_matrix(g, p, m, pp, ffp)
            assert np.array_equal(slabs.matrix[b].T, full[slabs.i0 * g.nh : slabs.i1 * g.nh])
            assert not full[: slabs.i0 * g.nh].any() and not full[slabs.i1 * g.nh :].any()
        response = rng.normal(size=(7, g.size))
        offset = slabs.i0 * g.nh
        batched = basis_response(
            response[:, slabs.lo : slabs.hi],
            slabs.matrix[:, :, slabs.lo - offset : slabs.hi - offset],
        )
        assert batched.shape == (len(masks), 7, n_coeffs)
        for b, (p, m) in enumerate(zip(psins, masks)):
            own = response @ basis_current_matrix(g, p, m, pp, ffp)
            assert np.allclose(batched[b], own, rtol=1e-13, atol=1e-13 * np.abs(own).max())

    def test_empty_mask_is_an_empty_slab(self, setup):
        g, psin, mask, _ = setup
        pp, ffp = PolynomialBasis(2), PolynomialBasis(2)
        i0, i1, slab = basis_current_slab(g, psin, np.zeros_like(mask), pp, ffp)
        assert (i0, i1) == (0, 0) and slab.shape == (0, 4)
        assert not basis_current_matrix(g, psin, np.zeros_like(mask), pp, ffp).any()

    def test_distribute_current_totals(self, setup):
        g, psin, mask, _ = setup
        pp, ffp = PolynomialBasis(2), PolynomialBasis(2)
        coeffs = np.array([1e5, -0.5e5, 0.8, -0.6])
        pcurr, jphi = distribute_current(g, psin, mask, pp, ffp, coeffs)
        assert pcurr.shape == g.shape
        assert np.allclose(pcurr / g.cell_area, jphi)
        assert pcurr[~mask].sum() == 0.0

    def test_coefficient_length_validated(self, setup):
        g, psin, mask, _ = setup
        with pytest.raises(FittingError):
            distribute_current(g, psin, mask, PolynomialBasis(2), PolynomialBasis(2), np.ones(3))

    def test_shape_validated(self, setup):
        g, psin, mask, _ = setup
        with pytest.raises(FittingError):
            basis_current_matrix(g, psin[:5], mask, PolynomialBasis(2), PolynomialBasis(2))


class TestAssembly:
    def _make(self, setup, noise=0.0):
        g, psin, mask, rng = setup
        pp, ffp = PolynomialBasis(2), PolynomialBasis(2)
        jm = basis_current_matrix(g, psin, mask, pp, ffp)
        n_meas, n_coils = 30, 4
        grid_resp = rng.normal(size=(n_meas, g.size))
        coil_resp = rng.normal(size=(n_meas, n_coils))
        coil_i = rng.normal(size=n_coils) * 1e3
        truth = np.array([2e5, -1e5, 1.0, -0.7])
        data = grid_resp @ (jm @ truth) + coil_resp @ coil_i
        sigma = np.full(n_meas, max(np.abs(data).max() * 1e-4, 1e-12))
        if noise:
            data = data + rng.normal(0.0, noise * np.abs(data).max(), n_meas)
        asm = assemble_response(grid_resp, jm, coil_resp, coil_i, data, sigma)
        return asm, truth

    def test_recovers_exact_coefficients(self, setup):
        asm, truth = self._make(setup)
        c = solve_weighted_lsq(asm)
        assert np.allclose(c, truth, rtol=1e-6)
        assert chi_squared(asm, c) < 1e-10 * chi_squared(asm, np.zeros_like(c))

    def test_ridge_does_not_crush_weak_columns(self, setup):
        """Regression test for the column-scaling bug: p' coefficients are
        ~1e5 while FF' are ~1; the equilibrated ridge must not bias them."""
        asm, truth = self._make(setup)
        c = solve_weighted_lsq(asm, ridge=1e-10)
        assert np.allclose(c, truth, rtol=1e-4)

    def test_lsq_never_beats_truth_by_construction(self, setup):
        asm, truth = self._make(setup, noise=1e-3)
        c = solve_weighted_lsq(asm)
        assert chi_squared(asm, c) <= chi_squared(asm, truth) * (1 + 1e-9)

    def test_weights_influence_solution(self, setup):
        asm, truth = self._make(setup, noise=5e-2)
        # Up-weight the first half of the measurements heavily.
        w = asm.weights.copy()
        w[: w.size // 2] *= 100.0
        asm2 = ResponseAssembly(asm.matrix, asm.data, w)
        c1 = solve_weighted_lsq(asm)
        c2 = solve_weighted_lsq(asm2)
        assert not np.allclose(c1, c2)

    def test_negative_ridge_rejected(self, setup):
        asm, _ = self._make(setup)
        with pytest.raises(FittingError):
            solve_weighted_lsq(asm, ridge=-1.0)

    def test_dimension_validation(self, setup):
        g, psin, mask, rng = setup
        jm = basis_current_matrix(g, psin, mask, PolynomialBasis(2), PolynomialBasis(2))
        grid_resp = rng.normal(size=(10, g.size))
        with pytest.raises(FittingError):
            assemble_response(grid_resp, jm[:-1], np.zeros((10, 2)), np.zeros(2), np.zeros(10), np.ones(10))
        with pytest.raises(FittingError):
            assemble_response(grid_resp, jm, np.zeros((10, 2)), np.zeros(2), np.zeros(9), np.ones(9))
        with pytest.raises(FittingError):
            assemble_response(grid_resp, jm, np.zeros((10, 2)), np.zeros(2), np.zeros(10), np.zeros(10))

    def test_contracts_over_the_plasma_rows_only(self, setup):
        """By construction, not by stopwatch: poison every column of the
        grid response outside the rows the basis currents occupy — a full
        contraction would return NaN (``nan * 0``) — and the system comes
        out finite and bit-identical to the one the slab gives, which is
        what the fit passes."""
        g, psin, mask, rng = setup
        pp, ffp = PolynomialBasis(2), PolynomialBasis(2)
        jm = basis_current_matrix(g, psin, mask, pp, ffp)
        i0, i1, slab = basis_current_slab(g, psin, mask, pp, ffp)
        flat = np.flatnonzero(g.flatten(mask))
        grid_resp = rng.normal(size=(12, g.size))
        poisoned = grid_resp.copy()
        poisoned[:, : flat[0]] = np.nan
        poisoned[:, flat[-1] + 1 :] = np.nan
        rest = (np.zeros((12, 2)), np.zeros(2), np.zeros(12), np.ones(12))
        want = grid_resp @ jm
        full = assemble_response(poisoned, jm, *rest).matrix
        assert np.isfinite(full).all()
        assert np.abs(full - want).max() <= 1e-13 * np.abs(want).max()
        view = grid_resp[:, i0 * g.nh : i1 * g.nh]
        assert np.array_equal(assemble_response(view, slab, *rest).matrix, full)

    def test_no_plasma_is_a_zero_system(self, setup):
        g, _, _, rng = setup
        asm = assemble_response(
            rng.normal(size=(7, g.size)), np.zeros((g.size, 3)),
            np.zeros((7, 2)), np.zeros(2), np.zeros(7), np.ones(7),
        )  # fmt: skip
        assert asm.matrix.shape == (7, 3) and not asm.matrix.any()

    def test_assembly_validation(self):
        with pytest.raises(FittingError):
            ResponseAssembly(np.zeros((4, 2)), np.zeros(3), np.ones(4))
        with pytest.raises(FittingError):
            ResponseAssembly(np.zeros((4, 2)), np.zeros(4), -np.ones(4))


class TestLsqStack:
    """The stacked least squares a lock-step batch solves in one call,
    against the one-system call each of its rows stands for."""

    @given(
        width=st.sampled_from([1, 3, 8]),
        n_meas=st.integers(min_value=12, max_value=40),
        n_coeffs=st.integers(min_value=1, max_value=6),
        n_vessel=st.sampled_from([0, 4]),
        zero_column=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_one_system_solves(
        self, width, n_meas, n_coeffs, n_vessel, zero_column, seed
    ):
        """Column scales from 1e-6 to 1, an all-zero column, vessel columns
        shared by every system: each row is its system's
        :func:`solve_weighted_lsq` to 1e-12, the batch of one bit for bit,
        and the zero column's coefficient is exactly zero."""
        rng = np.random.default_rng(seed)
        vessel = rng.normal(size=(n_meas, n_vessel)) * 10.0 ** rng.uniform(-6, 0, n_vessel)
        assemblies = []
        for _ in range(width):
            profile = rng.normal(size=(n_meas, n_coeffs)) * 10.0 ** rng.uniform(-6, 0, n_coeffs)
            matrix = np.hstack([profile, vessel])
            if zero_column:
                matrix[:, 0] = 0.0
            weights = 1.0 / rng.uniform(0.5, 2.0, n_meas)
            assemblies.append(ResponseAssembly(matrix, rng.normal(size=n_meas), weights))
        weighted = [asm.weighted() for asm in assemblies]
        matrices = np.stack([a for a, _ in weighted])
        data = np.stack([d for _, d in weighted])
        stacked = solve_lsq_stack(matrices, data, ridge=1e-10)
        assert stacked.shape == (width, n_coeffs + n_vessel)
        for row, asm in zip(stacked, assemblies):
            np.testing.assert_allclose(row, solve_weighted_lsq(asm, ridge=1e-10), rtol=1e-12, atol=0)
        if width == 1:
            assert np.array_equal(stacked[0], solve_weighted_lsq(assemblies[0], ridge=1e-10))
        if zero_column:
            assert not stacked[:, 0].any()
        # The least-squares solution itself: the SVD solve of the same
        # equilibrated, ridge-augmented system agrees on the scaled
        # coefficients.
        for row, a, d in zip(stacked, matrices, data):
            norms = np.linalg.norm(a, axis=0)
            norms[norms == 0.0] = 1.0
            n = a.shape[1]
            system = np.vstack([a / norms, np.sqrt(1e-10) * np.eye(n)])
            svd, *_ = np.linalg.lstsq(system, np.concatenate([d, np.zeros(n)]), rcond=None)
            assert np.abs(row * norms - svd).max() <= 1e-8 * np.abs(svd).max()

    def test_residuals_are_the_chi_squared(self, setup):
        asm, truth = TestAssembly()._make(setup, noise=1e-3)
        matrix, data = asm.weighted()
        (resid,) = weighted_residuals(matrix[None], data[None], truth[None])
        assert resid @ resid == chi_squared(asm, truth)

    def test_zero_ridge_solves_an_empty_column(self):
        """Without a ridge an all-zero column keeps a unit diagonal: its
        coefficient is zero and the rest is the solve without it."""
        rng = np.random.default_rng(4)
        a = rng.normal(size=(1, 10, 3))
        a[0, :, 1] = 0.0
        d = rng.normal(size=(1, 10))
        (c,) = solve_lsq_stack(a, d, ridge=0.0)
        keep = [0, 2]
        want, *_ = np.linalg.lstsq(a[0][:, keep], d[0], rcond=None)
        assert c[1] == 0.0 and np.allclose(c[keep], want, rtol=1e-12)

    def test_zero_ridge_rejects_an_underdetermined_system(self):
        """One measurement, two unknowns: without a ridge the triangle is
        singular, a typed error rather than a LinAlgError or a NaN."""
        a = np.array([[[2.0, -3.0]]])
        with pytest.raises(FittingError):
            solve_lsq_stack(a, np.array([[1.0]]), ridge=0.0)
        (c,) = solve_lsq_stack(a, np.array([[1.0]]), ridge=1e-10)
        assert np.isfinite(c).all() and abs(a[0, 0] @ c - 1.0) < 1e-8
