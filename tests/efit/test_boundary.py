"""Tests of the magnetic-axis and plasma-boundary search (steps_)."""

import numpy as np
import pytest

from repro.efit.boundary import (
    _bounding_window,
    find_axis,
    find_boundaries,
    find_boundary,
    find_xpoints,
)
from repro.efit.grid import RZGrid
from repro.efit.machine import Limiter
from repro.errors import BoundaryError


@pytest.fixture(scope="module")
def grid():
    return RZGrid(41, 49, rmin=0.9, rmax=2.5, zmin=-1.5, zmax=1.5)


@pytest.fixture(scope="module")
def wide_limiter():
    theta = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    return Limiter(1.7 + 0.65 * np.cos(theta), 1.1 * np.sin(theta))


def gaussian_psi(grid, r0=1.7, z0=0.0, amp=1.0, width=0.35):
    return amp * np.exp(-((grid.rr - r0) ** 2 + (grid.zz - z0) ** 2) / (2 * width**2))


class TestAxis:
    def test_finds_gaussian_peak(self, grid, wide_limiter):
        psi = gaussian_psi(grid, r0=1.72, z0=0.13)
        r, z, val = find_axis(grid, psi, wide_limiter)
        assert r == pytest.approx(1.72, abs=grid.dr / 2)
        assert z == pytest.approx(0.13, abs=grid.dz / 2)
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_subgrid_refinement_beats_node_resolution(self, grid, wide_limiter):
        """The quadratic refinement localises the peak to << one cell."""
        r0 = grid.r[20] + 0.37 * grid.dr
        psi = gaussian_psi(grid, r0=r0, z0=0.0, width=0.5)
        r, _, _ = find_axis(grid, psi, wide_limiter)
        assert abs(r - r0) < 0.15 * grid.dr

    def test_negative_current_convention(self, grid, wide_limiter):
        psi = -gaussian_psi(grid)
        r, z, val = find_axis(grid, psi, wide_limiter, sign=-1)
        assert val == pytest.approx(-1.0, abs=1e-2)

    def test_extremum_outside_limiter_ignored(self, grid):
        theta = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        small = Limiter(1.3 + 0.15 * np.cos(theta), 0.15 * np.sin(theta))
        psi = gaussian_psi(grid, r0=2.2, z0=1.0) + 0.3 * gaussian_psi(grid, r0=1.3, z0=0.0)
        r, z, _ = find_axis(grid, psi, small)
        assert abs(r - 1.3) < 0.1 and abs(z) < 0.1

    def test_invalid_sign(self, grid, wide_limiter):
        with pytest.raises(BoundaryError):
            find_axis(grid, gaussian_psi(grid), wide_limiter, sign=2)

    def test_disjoint_limiter(self, grid):
        far = Limiter(np.array([10.0, 11.0, 10.5]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(BoundaryError):
            find_axis(grid, gaussian_psi(grid), far)


class TestXpoints:
    def test_finds_saddle_of_two_blobs(self, grid):
        """Two stacked Gaussians create a saddle between them."""
        psi = gaussian_psi(grid, z0=0.6) + gaussian_psi(grid, z0=-0.6)
        xs = find_xpoints(grid, psi, max_points=4)
        assert any(abs(r - 1.7) < 0.1 and abs(z) < 0.1 for r, z, _ in xs)

    def test_pure_peak_has_no_interior_saddle(self, grid):
        xs = find_xpoints(grid, gaussian_psi(grid, width=0.6), max_points=2)
        # No candidate should sit near the peak itself.
        assert all((r - 1.7) ** 2 + z**2 > 0.3**2 for r, z, _ in xs)


class TestBoundary:
    def test_limited_plasma(self, grid, wide_limiter):
        psi = gaussian_psi(grid, width=0.6)
        res = find_boundary(grid, psi, wide_limiter)
        assert res.boundary_type == "limiter"
        assert res.psi_axis > res.psi_boundary
        # psiN is 0 at the axis, grows outward.
        assert res.psin.min() == pytest.approx(0.0, abs=0.01)

    def test_mask_inside_limiter(self, grid, wide_limiter):
        psi = gaussian_psi(grid, width=0.6)
        res = find_boundary(grid, psi, wide_limiter)
        inside = wide_limiter.contains(grid.rr, grid.zz)
        assert not (res.mask & ~inside).any()
        assert res.plasma_volume_cells > 50

    def test_mask_connected_to_axis(self, grid, wide_limiter):
        """A second flux blob outside the limiter must not enter the mask."""
        psi = gaussian_psi(grid, width=0.5) + 0.9 * gaussian_psi(grid, r0=2.4, z0=1.3, width=0.2)
        res = find_boundary(grid, psi, wide_limiter)
        # cells near the corner blob excluded
        corner = (grid.rr > 2.3) & (grid.zz > 1.2)
        assert not (res.mask & corner).any()

    def test_diverted_plasma_detects_xpoint(self, grid, wide_limiter):
        """Main blob plus a mirror blob below creates a lower X-point; the
        boundary should switch to xpoint type when the saddle flux exceeds
        the limiter flux."""
        psi = gaussian_psi(grid, z0=0.25, width=0.5) + 0.85 * gaussian_psi(
            grid, z0=-1.05, width=0.4
        )
        res = find_boundary(grid, psi, wide_limiter)
        if res.boundary_type == "xpoint":
            assert res.r_xpoint is not None
            assert res.psi_boundary < res.psi_axis
        else:  # geometry-dependent; at minimum the search must succeed
            assert res.boundary_type == "limiter"

    def test_psin_normalisation(self, grid, wide_limiter):
        psi = gaussian_psi(grid, width=0.6)
        res = find_boundary(grid, psi, wide_limiter)
        # At the boundary flux value, psin == 1 by construction.
        psin_at_b = (res.psi_boundary - res.psi_axis) / (res.psi_boundary - res.psi_axis)
        assert psin_at_b == 1.0
        assert (res.psin[res.mask] < 1.0).all()

    def test_shape_mismatch(self, grid, wide_limiter):
        with pytest.raises(BoundaryError):
            find_boundary(grid, np.zeros((3, 3)), wide_limiter)

    def test_flat_field_rejected(self, grid, wide_limiter):
        with pytest.raises(BoundaryError):
            find_boundary(grid, np.zeros(grid.shape), wide_limiter)

    def test_empty_stack_is_the_batch_of_none(self, grid, wide_limiter):
        """A stack of no maps searches nothing and returns no results, as
        a Picard loop over no states ends at once; its shape is still
        checked."""
        assert find_boundaries(grid, np.zeros((0, *grid.shape)), wide_limiter, signs=[]) == []
        with pytest.raises(BoundaryError):
            find_boundaries(grid, np.zeros((0, 3, 3)), wide_limiter, signs=[])
        with pytest.raises(BoundaryError):
            find_boundaries(grid, np.zeros((0, *grid.shape)), wide_limiter, signs=[1])

    def test_truth_boundary_on_shot(self, shot33):
        """The converged synthetic shot has a well-formed boundary."""
        b = shot33.truth.boundary
        assert b.boundary_type in ("limiter", "xpoint")
        assert abs(b.z_axis) < 0.05
        assert 1.4 < b.r_axis < 2.0
        assert b.plasma_volume_cells > 100


class TestSearchWindow:
    """The block of rows and columns the search runs on comes from the
    in-limiter mask it is handed, whoever built that mask."""

    def test_holds_the_mask_with_two_cells_to_spare(self, grid, wide_limiter):
        inside = wide_limiter.grid_mask(grid)
        rows, cols = _bounding_window(grid, inside)
        i, j = np.nonzero(inside)
        assert (rows.start, rows.stop) == (i.min() - 2, i.max() + 3)
        assert (cols.start, cols.stop) == (j.min() - 2, j.max() + 3)
        assert (rows.stop - rows.start) * (cols.stop - cols.start) < grid.size

    def test_clipped_to_the_grid_and_empty_for_an_empty_mask(self, grid):
        everywhere = np.ones(grid.shape, dtype=bool)
        assert _bounding_window(grid, everywhere) == (slice(0, grid.nw), slice(0, grid.nh))
        rows, cols = _bounding_window(grid, np.zeros(grid.shape, dtype=bool))
        assert rows.start == rows.stop and cols.start == cols.stop

    def test_an_equal_mask_of_any_provenance_gives_the_same_search(self, grid, wide_limiter):
        """A copy of the limiter's mask — what unpickling a ``GridStatics``
        or a caller's own array is — takes the same path as the memo's."""
        psi = gaussian_psi(grid, z0=0.25, width=0.5) + 0.85 * gaussian_psi(
            grid, z0=-1.05, width=0.4
        )
        own = find_boundary(grid, psi, wide_limiter)
        copied = find_boundary(grid, psi, wide_limiter, inside=wide_limiter.grid_mask(grid).copy())
        assert copied.boundary_type == own.boundary_type
        assert (copied.psi_axis, copied.psi_boundary) == (own.psi_axis, own.psi_boundary)
        assert np.array_equal(copied.mask, own.mask) and np.array_equal(copied.psin, own.psin)

    def test_a_callers_mask_bounds_the_axis_search(self, grid, wide_limiter):
        """``inside=`` is honoured node for node: an extremum outside the
        caller's mask is not the axis, wherever the wall is."""
        psi = gaussian_psi(grid) + 2.0 * gaussian_psi(grid, r0=2.1, z0=0.6, width=0.1)
        left = wide_limiter.grid_mask(grid) & (grid.rr < 1.9)
        r_axis, _, _ = find_axis(grid, psi, wide_limiter, inside=left)
        assert r_axis < 1.9
        assert find_axis(grid, psi, wide_limiter)[0] > 1.9
