"""Structured edge-flux operators: accuracy bounds, structure pinning,
serialization, caching and solver integration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge_methods import DEFAULT_EDGE_METHOD
from repro.efit.fitting import EfitSolver
from repro.efit.grid import RZGrid, row_support
from repro.efit.operators import (
    EDGE_METHODS,
    DenseEdgeOperator,
    EdgeOperator,
    LowRankEdgeOperator,
    ToeplitzFFTEdgeOperator,
    build_edge_operator,
    cached_edge_operator,
    drop_edge_operator,
    edge_operator_from_arrays,
    seed_edge_operator,
    validate_edge_structure,
)
from repro.efit.pflux import edge_flux_operator
from repro.efit.tables import BoundaryGreensTables, cached_boundary_tables
from repro.errors import FittingError, OperatorError, OperatorStructureError
from repro.scenarios import get_scenario, scenario_names

STRUCTURED = EDGE_METHODS
#: Every form ``build_edge_operator`` builds: the staged methods and their
#: dense ground truth.
FORMS = ("dense",) + EDGE_METHODS


@pytest.fixture(scope="module")
def tables33():
    return cached_boundary_tables(RZGrid(33, 33))


@pytest.fixture(scope="module")
def dense33(tables33):
    return build_edge_operator(tables33, "dense")


def _probe(grid: RZGrid, n: int = 3, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(grid.size, n))


# -- accuracy vs the dense ground truth --------------------------------------------
class TestAccuracy:
    @pytest.mark.parametrize("method", STRUCTURED)
    def test_matches_dense_33(self, tables33, dense33, method):
        op = build_edge_operator(tables33, method)
        x = _probe(tables33.grid)
        ref = dense33.apply(x)
        rel = np.max(np.abs(op.apply(x) - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-10, f"{method}: rel error {rel:.3e} > 1e-10"

    @settings(max_examples=10, deadline=None)
    @given(
        nw=st.integers(min_value=9, max_value=21),
        nh=st.integers(min_value=9, max_value=21),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_error_bounds(self, nw, nh, seed):
        """The property-tested bound: on arbitrary (incl. non-square)
        grids, structured applies stay within 1e-10 of dense, relative to
        the result scale."""
        grid = RZGrid(nw, nh)
        tables = cached_boundary_tables(grid)
        dense = build_edge_operator(tables, "dense")
        x = np.random.default_rng(seed).normal(size=grid.size)
        ref = dense.apply(x)
        scale = np.max(np.abs(ref))
        for method in STRUCTURED:
            op = build_edge_operator(tables, method)
            rel = np.max(np.abs(op.apply(x) - ref)) / scale
            assert rel <= 1e-10, f"{method}@{nw}x{nh}: {rel:.3e} > 1e-10"

    def test_error_bound_hook(self, tables33):
        op = build_edge_operator(tables33, "lowrank")
        assert op.error_bound(1.0) >= 0.0

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_invalid_tol_is_refused_before_any_svd(self, tables33, monkeypatch, tol):
        """A NaN or infinite ``tol`` used to build a rank-1-per-offset
        operator 17 % off dense with a NaN/inf ``error_bound``, and a
        negative one a negative bound."""

        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with pytest.raises(OperatorError, match="tol"):
            LowRankEdgeOperator.from_tables(tables33, tol=tol)

    def test_zero_tol_keeps_every_singular_value(self, tables33, dense33):
        op = LowRankEdgeOperator.from_tables(tables33, tol=0.0)
        x = _probe(tables33.grid)
        ref = dense33.apply(x)
        assert np.max(np.abs(op.apply(x) - ref)) <= op.error_bound(
            float(np.linalg.norm(x, axis=0).max())
        )
        assert 0.0 < op.error_bound(1.0) < np.inf

    @pytest.mark.parametrize("method", STRUCTURED)
    def test_batched_apply_and_out(self, tables33, dense33, method):
        op = build_edge_operator(tables33, method)
        x = _probe(tables33.grid, n=5, seed=2)
        batched = op.apply(x)
        assert batched.shape == (op.n_edge, 5)
        # Not bitwise: GEMM/FFT reduction order depends on operand shapes.
        cols = np.stack([op.apply(x[:, k]) for k in range(5)], axis=1)
        rel = np.max(np.abs(batched - cols)) / np.max(np.abs(batched))
        assert rel < 1e-12


# -- the apply on the plasma's support ---------------------------------------------
#: Grid rows ``[i0, i1)`` holding a column's currents, per case; ``nw`` is
#: the last row's index plus one.  ``mixed`` cycles its supports over the
#: batch's columns.
SUPPORTS = {
    "empty": lambda nw: [(0, 0)],
    "one-row": lambda nw: [(nw // 2, nw // 2 + 1)],
    "row-0": lambda nw: [(0, 4)],
    "row-nw-1": lambda nw: [(nw - 4, nw)],
    "full-grid": lambda nw: [(0, nw)],
    "mixed": lambda nw: [(2, 9), (nw // 2, nw // 2 + 1), (0, 0), (nw - 6, nw), (5, nw - 5)],
}


def _on_rows(grid: RZGrid, supports, nb: int, seed: int = 0) -> np.ndarray:
    """``(size, nb)`` random currents, column ``b`` on the rows
    ``supports[b % len(supports)]`` and zero elsewhere."""
    rng = np.random.default_rng(seed)
    x = np.zeros((grid.nw, grid.nh, nb))
    for b in range(nb):
        i0, i1 = supports[b % len(supports)]
        x[i0:i1, :, b] = rng.normal(size=(i1 - i0, grid.nh))
    return x.reshape(grid.size, nb)


def _poisoned(op: EdgeOperator, tables: BoundaryGreensTables, i0: int, i1: int) -> EdgeOperator:
    """``op`` rebuilt with NaN in every stored value that multiplies a
    current outside the grid rows ``[i0, i1)``."""
    grid = tables.grid
    outside = np.ones(grid.nw, dtype=bool)
    outside[i0:i1] = False
    if op.method == "dense":
        matrix = op.matrix.copy()
        matrix.reshape(op.n_edge, grid.nw, grid.nh)[:, outside] = np.nan
        return DenseEdgeOperator(grid, matrix)
    arrays = {k: v.copy() for k, v in op.to_arrays().items()}
    gpc = tables.gpc.copy()
    gpc[outside] = np.nan
    arrays["vert_spectra"][:, :, outside] = np.nan
    if op.method == "lowrank":
        n_dense = arrays["dense_idx"].size
        arrays["dense_block"].reshape(grid.nw - 2, n_dense, grid.nw)[:, :, outside] = np.nan
        for name in arrays:
            if name.endswith("_w"):
                arrays[name][:, :, outside] = np.nan
    return edge_operator_from_arrays(grid, op.method, arrays, gpc=gpc)


class TestSupportRestrictedApply:
    """Every method reads only the grid rows its input's currents occupy
    and still equals the dense full-grid product ``E @ x`` within its
    ``error_bound``."""

    @pytest.mark.parametrize("nb", [1, 2, 8])
    @pytest.mark.parametrize("case", SUPPORTS)
    @pytest.mark.parametrize("method", FORMS)
    def test_matches_the_dense_full_grid_product(self, method, case, nb):
        for shape in [(33, 33), (21, 29)]:
            grid = RZGrid(*shape)
            tables = cached_boundary_tables(grid)
            full = edge_flux_operator(tables)
            op = build_edge_operator(tables, method)
            x = _on_rows(grid, SUPPORTS[case](grid.nw), nb)
            got = op.apply(x[:, 0]) if nb == 1 else op.apply(x)
            want = full @ x[:, 0] if nb == 1 else full @ x
            bound = op.error_bound(float(np.linalg.norm(x, axis=0).max()))
            assert np.abs(got - want).max() <= bound, (shape, method, case, nb)

    @pytest.mark.parametrize("method", FORMS)
    def test_reads_nothing_outside_the_support(self, tables33, method):
        """Poison every stored value under the rows outside the support:
        the apply must not see it, bit for bit."""
        op = build_edge_operator(tables33, method)
        i0, i1 = 9, 20
        x = _on_rows(tables33.grid, [(i0, i1), (i0 + 3, i1), (i0, i0 + 1)], 3, seed=5)
        poisoned = _poisoned(op, tables33, i0, i1)
        np.testing.assert_array_equal(poisoned.apply(x), op.apply(x))
        np.testing.assert_array_equal(poisoned.apply(x[:, 2]), op.apply(x[:, 2]))
        wider = _on_rows(tables33.grid, [(i0 - 1, i1)], 1)
        assert np.isnan(poisoned.apply(wider)).any()

    def test_an_all_zero_input_is_zero_flux(self, tables33):
        for method in FORMS:
            op = build_edge_operator(tables33, method)
            assert not op.apply(np.zeros((op.n_grid, 2))).any()

    @pytest.mark.parametrize("scenario", scenario_names())
    def test_fitted_currents(self, scenario):
        """Every current a cold 33^2 fit of the scenario's base shot hands
        its flux step, alone and stacked, on every method."""
        shot = get_scenario(scenario).make_shot(33)
        solver = EfitSolver.for_scenario(scenario, 33, shot=shot)
        state = solver.start_fit(shot.measurements)
        currents = []
        for _ in solver.picard([state]):
            currents.append(-state.pcurr.reshape(shot.grid.size))
        x = np.stack(currents, axis=1)
        assert row_support(x) != (0, shot.grid.size)  # the plasma's rows, not the grid's
        tables = cached_boundary_tables(shot.grid)
        full = edge_flux_operator(tables)
        want = full @ x
        for method in FORMS:
            op = build_edge_operator(tables, method)
            bound = op.error_bound(float(np.linalg.norm(x, axis=0).max()))
            assert np.abs(op.apply(x) - want).max() <= bound, method
            assert np.abs(op.apply(x[:, -1]) - want[:, -1]).max() <= bound, method


# -- the dense default stays the ground truth --------------------------------------
class TestDenseDefault:
    def test_bit_identical_to_legacy_operator(self, tables33, dense33):
        x = _probe(tables33.grid, n=1)[:, 0]
        legacy = edge_flux_operator(tables33) @ x
        np.testing.assert_array_equal(dense33.apply(x), legacy)

    def test_from_tables_matrix_identical(self, tables33, dense33):
        np.testing.assert_array_equal(dense33.matrix, edge_flux_operator(tables33))

    def test_rejects_wrong_shapes(self, tables33, dense33):
        from repro.errors import GridError

        with pytest.raises(GridError):
            dense33.apply(np.zeros(7))
        with pytest.raises(GridError):
            dense33.apply(np.zeros((dense33.n_grid, 2, 2)))


# -- structure pinning -------------------------------------------------------------
def _names_a_dense_fallback_that_exists(message: str) -> None:
    """The fallback a structure error names is one a caller can take: a
    ``DenseEdgeOperator`` instance handed to a solver or a batch engine —
    not a removed kwarg, and not the CLI's ``--boundary-method dense`` or
    the fleet, which run on the staged methods only."""
    from repro.cli import build_parser

    assert "DenseEdgeOperator" in message and "pflux_impl=" in message
    assert "edge_operator=" in message and "BatchFitEngine" in message
    assert "ParallelFitEngine" not in message and "--boundary-method" not in message
    assert "boundary_method" not in message
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fit", "--boundary-method", "dense"])


class TestStructurePin:
    def test_translation_invariance_holds(self, tables33):
        assert validate_edge_structure(tables33) < 1e-9

    def test_tampered_table_fails_loudly_naming_dense(self, tables33):
        """The pin test the ISSUE requires: break gridpc's z-translation
        invariance and the structured build must refuse, telling the user
        the dense path is the fallback."""
        gpc = tables33.gpc.copy()
        gpc[5] *= 1.01  # boundary column 5 no longer matches greens_psi
        bad = BoundaryGreensTables(grid=tables33.grid, gpc=gpc)
        with pytest.raises(OperatorStructureError, match="dense") as err:
            validate_edge_structure(bad)
        _names_a_dense_fallback_that_exists(str(err.value))

    @pytest.mark.parametrize("shape", [(13, 33), (19, 33), (33, 33), (33, 21)])
    def test_the_table_is_reciprocal_bit_for_bit(self, shape):
        """The horizontal edges read the table by source rows on the
        strength of this identity, exactly."""
        tables = cached_boundary_tables(RZGrid(*shape))
        assert np.array_equal(tables.gpc, tables.gpc.transpose(2, 1, 0))
        validate_edge_structure(tables)

    def test_one_asymmetric_entry_fails_loudly_naming_dense(self, tables33):
        """One off-diagonal entry moved by an ulp: invisible to the
        sampled translation check, fatal to the reciprocity check."""
        gpc = tables33.gpc.copy()
        gpc[3, 5, 20] = np.nextafter(gpc[3, 5, 20], np.inf)
        bad = BoundaryGreensTables(grid=tables33.grid, gpc=gpc)
        with pytest.raises(OperatorStructureError, match="reciprocal.*dense") as err:
            validate_edge_structure(bad)
        assert "at 2 entries" in str(err.value)
        _names_a_dense_fallback_that_exists(str(err.value))
        with pytest.raises(OperatorStructureError):
            build_edge_operator(bad, "toeplitz")

    def test_structured_build_runs_validation(self, tables33):
        gpc = tables33.gpc.copy()
        gpc[0] += 1e-3
        bad = BoundaryGreensTables(grid=tables33.grid, gpc=gpc)
        with pytest.raises(OperatorStructureError):
            build_edge_operator(bad, "toeplitz")
        # The operator itself does not check: the trusted fleet-worker
        # path rebuilds from validated arrays.
        assert isinstance(ToeplitzFFTEdgeOperator.from_tables(bad), ToeplitzFFTEdgeOperator)

    def test_unknown_method_lists_choices(self, tables33):
        with pytest.raises(OperatorError, match="dense"):
            build_edge_operator(tables33, "fourier")

    @pytest.mark.parametrize("removed", ["toeplitz-fp32", "lowrank-fp32"])
    def test_removed_names_fail_naming_the_survivors(self, tables33, removed):
        """The mixed-precision names are gone, not aliases: neither the
        build nor the rebuild-from-arrays may fall back to the method
        whose name they start with."""
        survivors = "dense.*toeplitz.*lowrank"
        with pytest.raises(OperatorError, match=survivors):
            build_edge_operator(tables33, removed)
        arrays = build_edge_operator(tables33, removed.split("-")[0]).to_arrays()
        with pytest.raises(OperatorError, match="toeplitz.*lowrank"):
            edge_operator_from_arrays(
                tables33.grid, removed, arrays, gpc=tables33.gpc
            )


# -- serialization -----------------------------------------------------------------
class TestSerialization:
    @pytest.mark.parametrize("method", STRUCTURED)
    def test_roundtrip_bitwise(self, tables33, method):
        op = build_edge_operator(tables33, method)
        arrays = op.to_arrays()
        clone = edge_operator_from_arrays(
            tables33.grid, method, arrays, gpc=tables33.gpc
        )
        x = _probe(tables33.grid)
        np.testing.assert_array_equal(op.apply(x), clone.apply(x))
        assert clone.variant_tag == op.variant_tag

    def test_fp64_toeplitz_requires_gpc(self, tables33):
        op = build_edge_operator(tables33, "toeplitz")
        with pytest.raises(TypeError, match="gpc"):
            edge_operator_from_arrays(tables33.grid, "toeplitz", op.to_arrays())

    def test_fp64_toeplitz_aliases_green_table(self, tables33):
        op = build_edge_operator(tables33, "toeplitz")
        assert isinstance(op, ToeplitzFFTEdgeOperator)
        # The horizontal block is a view of gpc, not a copy: compression
        # here means *no new* O(N^3) storage.
        assert np.shares_memory(op._horizontal, tables33.gpc)

    def test_compression_pays(self, tables33, dense33):
        lowrank = build_edge_operator(tables33, "lowrank")
        assert 0 < lowrank.nbytes < dense33.nbytes
        assert isinstance(lowrank, LowRankEdgeOperator)
        assert lowrank.total_rank > 0


# -- content identity + process cache ----------------------------------------------
class TestContentIdentity:
    def test_variant_tags_distinct_across_methods(self, tables33):
        tags = {build_edge_operator(tables33, m).variant_tag for m in FORMS}
        assert len(tags) == len(FORMS)
        op = build_edge_operator(tables33, "lowrank")
        assert "lowrank" in op.variant_tag and f"r{op.total_rank}" in op.variant_tag

    def test_geometry_hash_stable_and_distinct(self):
        a, b = RZGrid(33, 33), RZGrid(33, 33)
        assert a.geometry_hash() == b.geometry_hash()
        assert RZGrid(33, 35).geometry_hash() != a.geometry_hash()

    def test_cached_seed_drop(self, tables33):
        grid = tables33.grid
        drop_edge_operator(grid, "toeplitz")
        op = cached_edge_operator(tables33, "toeplitz")
        assert cached_edge_operator(tables33, "toeplitz") is op
        drop_edge_operator(grid, "toeplitz")
        rebuilt = cached_edge_operator(tables33, "toeplitz")
        assert rebuilt is not op
        seed_edge_operator(op)
        assert cached_edge_operator(tables33, "toeplitz") is op
        drop_edge_operator(grid, "toeplitz")


class TestOperatorsDieWithTheirTable:
    """A ``toeplitz`` operator aliases the Green table it was built from,
    so forgetting a grid's table must forget that grid's operators: the
    next solver would otherwise apply an operator over the old ``gpc``
    beside a rebuilt one (two tables alive)."""

    @pytest.fixture()
    def shot(self):
        from repro.efit.measurements import synthetic_shot_186610

        return synthetic_shot_186610(17)

    @pytest.mark.parametrize("forget", ["clear", "evict", "seed"])
    def test_new_solver_applies_its_own_table(self, shot, forget):
        from repro.efit.tables import boundary_table_cache, build_boundary_tables

        cache = boundary_table_cache()
        old = EfitSolver(shot.machine, shot.diagnostics, shot.grid)
        budget = cache.max_bytes
        try:
            if forget == "clear":
                cache.clear()
            elif forget == "evict":
                cache.max_bytes = 1
                cache.get(RZGrid(19, 19))  # newest entry: the one that stays
            else:
                cache.seed(build_boundary_tables(shot.grid))
        finally:
            cache.max_bytes = budget
        new = EfitSolver(shot.machine, shot.diagnostics, shot.grid)
        assert new.tables is not old.tables
        assert new.pflux.operator is not old.pflux.operator
        assert np.shares_memory(new.pflux.operator._horizontal, new.tables.gpc)
        # the old solver keeps working on the pair it holds
        assert np.shares_memory(old.pflux.operator._horizontal, old.tables.gpc)

    def test_a_private_cache_owns_its_own_operators(self):
        """The operators sit on the cache instance, beside their table: a
        test's private cache and the process-wide one do not see each
        other's."""
        from repro.efit.tables import BoundaryTableCache, boundary_table_cache

        cache, grid = BoundaryTableCache(), RZGrid(9, 9)
        cache.operators(grid)["toeplitz"] = object()
        assert "toeplitz" not in boundary_table_cache().operators(grid)
        cache.clear()
        assert cache.operators(grid) == {}


# -- solver integration ------------------------------------------------------------
class TestSolverIntegration:
    @pytest.fixture(scope="class")
    def shot(self):
        from repro.efit.measurements import synthetic_shot_186610

        return synthetic_shot_186610(33)

    @staticmethod
    def _solver(shot, method):
        tables = cached_boundary_tables(shot.grid)
        build = build_edge_operator if method == "dense" else cached_edge_operator
        op = build(tables, method)
        return EfitSolver(shot.machine, shot.diagnostics, shot.grid, pflux_impl=op)

    @pytest.fixture(scope="class")
    def dense_fit(self, shot):
        return self._solver(shot, "dense").fit(shot.measurements)

    def test_default_is_the_named_constant(self, shot):
        from repro.batch import BatchFitEngine

        solver = EfitSolver(shot.machine, shot.diagnostics, shot.grid)
        assert solver.pflux.operator.method == DEFAULT_EDGE_METHOD
        engine = BatchFitEngine(shot.machine, shot.diagnostics, shot.grid)
        assert solver.pflux.operator is engine.edge_op

    @pytest.mark.parametrize("method", ["toeplitz", "lowrank"])
    def test_fp64_structured_fit_matches(self, shot, dense_fit, method):
        solver = self._solver(shot, method)
        assert solver.pflux.operator.method == method
        result = solver.fit(shot.measurements)
        assert result.converged and result.iterations == dense_fit.iterations
        rel = np.max(np.abs(result.psi - dense_fit.psi)) / np.max(
            np.abs(dense_fit.psi)
        )
        assert rel < 1e-10

    @pytest.mark.parametrize("removed", ["vectorized", "reference"])
    def test_removed_pflux_impl_strings_rejected(self, shot, removed):
        with pytest.raises(FittingError, match="instance"):
            EfitSolver(shot.machine, shot.diagnostics, shot.grid, pflux_impl=removed)

    def test_unknown_method_rejected(self, shot):
        with pytest.raises(OperatorError):
            self._solver(shot, "fourier")


# -- disk cache --------------------------------------------------------------------
class TestDiskCache:
    def test_roundtrip_and_failsoft(self, tmp_path, monkeypatch, tables33):
        from repro.efit import diskcache

        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        grid = tables33.grid
        assert diskcache.load_tables(grid) is None
        assert diskcache.store_tables(tables33)
        loaded = diskcache.load_tables(grid)
        np.testing.assert_array_equal(loaded.gpc, tables33.gpc)

        op = build_edge_operator(tables33, "lowrank")
        assert diskcache.load_edge_operator(tables33, "lowrank") is None
        assert diskcache.store_edge_operator(op)
        clone = diskcache.load_edge_operator(tables33, "lowrank")
        x = _probe(grid)
        np.testing.assert_array_equal(clone.apply(x), op.apply(x))

        # dense never reaches the disk: the cache refuses it before any
        # build; damaged entries fall back to None
        with pytest.raises(OperatorError, match="toeplitz and lowrank"):
            cached_edge_operator(tables33, "dense")
        assert not list(tmp_path.glob("edgeop-*-dense"))
        (spectra,) = tmp_path.glob("edgeop-*-lowrank/vert_spectra.npy")
        spectra.write_bytes(b"not an array")
        assert diskcache.load_edge_operator(tables33, "lowrank") is None

    def test_disabled_without_env(self, monkeypatch, tables33):
        from repro.efit import diskcache

        monkeypatch.delenv(diskcache.CACHE_DIR_ENV, raising=False)
        assert diskcache.cache_dir() is None
        assert diskcache.table_path(tables33.grid) is None
        assert not diskcache.store_tables(tables33)
        assert diskcache.load_tables(tables33.grid) is None


# -- the protocol itself -----------------------------------------------------------
class TestProtocol:
    def test_methods_registry(self):
        assert EDGE_METHODS == ("toeplitz", "lowrank")

    @pytest.mark.parametrize("method", FORMS)
    def test_common_surface(self, tables33, method):
        op = build_edge_operator(tables33, method)
        assert isinstance(op, EdgeOperator)
        assert op.method == method
        grid = tables33.grid
        assert op.n_edge == 2 * grid.nw + 2 * grid.nh - 4
        assert op.n_grid == grid.size
        assert op.nbytes >= 0
        # Only the staged methods have a flat named-array form.
        assert hasattr(op, "to_arrays") == (method in EDGE_METHODS)
        if method in EDGE_METHODS:
            assert isinstance(op.to_arrays(), dict)

    def test_dense_wrapper_type(self, dense33):
        assert isinstance(dense33, DenseEdgeOperator)

    def test_dense_wrong_shape_rejected(self, tables33):
        with pytest.raises(OperatorError, match="shape"):
            DenseEdgeOperator(tables33.grid, np.zeros((3, 3)))
