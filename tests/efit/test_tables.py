"""Tests of the boundary Green tables (the gridpc layout)."""

import numpy as np
import pytest

from repro.efit.greens import greens_psi, self_flux_per_radian
from repro.efit.grid import RZGrid
from repro.efit.tables import (
    BoundaryGreensTables,
    _cache_budget_from_env,
    build_boundary_tables,
    cached_boundary_tables,
    effective_filament_radius,
)
from repro.errors import GreensError


class TestCacheBudgetFromEnv:
    @pytest.mark.parametrize("raw", ["abc", "1e9", "-1", "nan"])
    def test_malformed_budget_is_an_error_naming_the_variable(self, monkeypatch, raw):
        """Not the 1.6 GB default in disguise."""
        monkeypatch.setenv("REPRO_TABLE_CACHE_BYTES", raw)
        with pytest.raises(GreensError, match="REPRO_TABLE_CACHE_BYTES"):
            _cache_budget_from_env()

    @pytest.mark.parametrize("raw, budget", [("", 1_600_000_000), ("0", 0), ("4096", 4096)])
    def test_budget(self, monkeypatch, raw, budget):
        monkeypatch.setenv("REPRO_TABLE_CACHE_BYTES", raw)
        assert _cache_budget_from_env() == budget


class TestConstruction:
    def test_shape(self, grid_rect, tables_rect):
        assert tables_rect.gpc.shape == (grid_rect.nw, grid_rect.nh, grid_rect.nw)

    def test_wrong_shape_rejected(self, grid_rect):
        with pytest.raises(GreensError):
            BoundaryGreensTables(grid_rect, np.zeros((3, 3, 3)))

    def test_nbytes(self, grid_rect, tables_rect):
        assert tables_rect.nbytes == grid_rect.nw**2 * grid_rect.nh * 8

    def test_all_entries_positive(self, tables_rect):
        """Flux of a positive filament is positive everywhere, including
        the regularised self terms."""
        assert (tables_rect.gpc > 0).all()

    def test_cached_builder_returns_same_object(self, grid_rect):
        a = cached_boundary_tables(grid_rect)
        b = cached_boundary_tables(RZGrid(grid_rect.nw, grid_rect.nh))
        assert a is b


class TestEntries:
    def test_entry_matches_green_function(self, grid_rect, tables_rect):
        g = grid_rect
        for i_b, dj, ii in [(0, 3, 5), (g.nw - 1, 1, 0), (4, 7, 4), (2, 0, 9)]:
            expected = greens_psi(g.r[i_b], 0.0, g.r[ii], dj * g.dz)
            assert tables_rect.gpc[i_b, dj, ii] == pytest.approx(expected, rel=1e-12)

    def test_self_term_regularised(self, grid_rect, tables_rect):
        g = grid_rect
        a_eff = effective_filament_radius(g)
        for i_b in (0, 3, g.nw - 1):
            expected = self_flux_per_radian(g.r[i_b], a_eff)
            assert tables_rect.gpc[i_b, 0, i_b] == pytest.approx(expected, rel=1e-12)

    def test_decay_in_dz(self, tables_rect):
        """Entries decay monotonically with vertical separation."""
        col = tables_rect.gpc[0, 1:, 5]  # skip dj=0 (off-diagonal anyway)
        assert (np.diff(col) < 0).all()


class TestFortranView:
    def test_is_a_view(self, tables_rect):
        view = tables_rect.fortran_view()
        assert view.base is tables_rect.gpc or view.base is tables_rect.gpc.base

    def test_paper_indexing(self, grid_rect, tables_rect):
        """Row i_b*nh + mj, column ii — exactly the Figure 2/3 layout."""
        g = grid_rect
        view = tables_rect.fortran_view()
        assert view.shape == (g.nw * g.nh, g.nw)
        for i_b, mj, ii in [(0, 2, 3), (g.nw - 1, 5, 1)]:
            assert view[i_b * g.nh + mj, ii] == tables_rect.gpc[i_b, mj, ii]


class TestBuild:
    def test_build_rejects_bad_chunk(self, grid_rect):
        """The build has no ``chunk`` knob: its blocks follow the pair
        budget of the Green kernel."""
        with pytest.raises(TypeError):
            build_boundary_tables(grid_rect, chunk=3)

    def test_effective_radius_smaller_than_cell(self):
        g = RZGrid(9, 9)
        a = effective_filament_radius(g)
        assert 0.0 < a < max(g.dr, g.dz)
