"""Tests for the (R, Z) grid: geometry, flattening, interpolation."""

import warnings

import numpy as np
import pytest

from repro.efit.grid import PAPER_GRID_SIZES, RZGrid
from repro.errors import GridError


class TestConstruction:
    def test_paper_sizes_listed(self):
        assert PAPER_GRID_SIZES == (65, 129, 257, 513)

    def test_default_box_is_diiid_scale(self):
        g = RZGrid(65, 65)
        assert g.rmin > 0.5 and g.rmax < 3.0

    @pytest.mark.parametrize("nw,nh", [(2, 5), (5, 2), (0, 0), (1, 1)])
    def test_too_small_rejected(self, nw, nh):
        with pytest.raises(GridError):
            RZGrid(nw, nh)

    def test_nonpositive_rmin_rejected(self):
        with pytest.raises(GridError):
            RZGrid(9, 9, rmin=0.0, rmax=1.0)
        with pytest.raises(GridError):
            RZGrid(9, 9, rmin=-1.0, rmax=1.0)

    def test_inverted_extents_rejected(self):
        with pytest.raises(GridError):
            RZGrid(9, 9, rmin=2.0, rmax=1.0)
        with pytest.raises(GridError):
            RZGrid(9, 9, zmin=1.0, zmax=-1.0)


class TestCoordinates:
    def test_axes_span_box(self):
        g = RZGrid(9, 11, rmin=1.0, rmax=2.0, zmin=-0.5, zmax=0.5)
        assert g.r[0] == 1.0 and g.r[-1] == 2.0
        assert g.z[0] == -0.5 and g.z[-1] == 0.5

    def test_spacing(self):
        g = RZGrid(11, 21, rmin=1.0, rmax=2.0, zmin=-1.0, zmax=1.0)
        assert g.dr == pytest.approx(0.1)
        assert g.dz == pytest.approx(0.1)
        assert g.cell_area == pytest.approx(0.01)

    def test_meshgrids_shape_and_content(self):
        g = RZGrid(5, 7)
        assert g.rr.shape == (5, 7) == g.zz.shape
        assert np.allclose(g.rr[:, 0], g.r)
        assert np.allclose(g.zz[0, :], g.z)

    def test_axes_uniform(self):
        g = RZGrid(33, 65)
        assert np.allclose(np.diff(g.r), g.dr)
        assert np.allclose(np.diff(g.z), g.dz)


class TestFlattening:
    def test_roundtrip(self, rng):
        g = RZGrid(7, 9)
        f = rng.normal(size=g.shape)
        assert np.array_equal(g.unflatten(g.flatten(f)), f)

    def test_fortran_convention(self):
        """kk = i*nh + j, as in the paper's kernel (0-based)."""
        g = RZGrid(4, 5)
        f = np.arange(20.0).reshape(4, 5)
        flat = g.flatten(f)
        for i in range(4):
            for j in range(5):
                assert flat[i * 5 + j] == f[i, j]

    def test_shape_mismatch_rejected(self):
        g = RZGrid(4, 5)
        with pytest.raises(GridError):
            g.flatten(np.zeros((5, 4)))
        with pytest.raises(GridError):
            g.unflatten(np.zeros(19))


class TestBoundary:
    def test_boundary_mask_count(self):
        g = RZGrid(6, 9)
        edge = np.ones(g.shape, dtype=bool)
        edge[1:-1, 1:-1] = False
        assert edge.sum() == g.n_boundary == 2 * 6 + 2 * 9 - 4


class TestInterpolation:
    def test_bilinear_exact_on_nodes(self, rng):
        g = RZGrid(9, 11)
        f = rng.normal(size=g.shape)
        vals = g.bilinear(f, g.rr.ravel(), g.zz.ravel())
        assert np.allclose(vals, f.ravel())

    def test_bilinear_exact_for_bilinear_function(self):
        g = RZGrid(9, 11)
        f = 2.0 + 3.0 * g.rr - 1.5 * g.zz + 0.7 * g.rr * g.zz
        r = np.linspace(g.rmin, g.rmax, 40)
        z = np.linspace(g.zmin, g.zmax, 40)
        expected = 2.0 + 3.0 * r - 1.5 * z + 0.7 * r * z
        assert np.allclose(g.bilinear(f, r, z), expected)

    def test_bilinear_clamps_outside(self):
        g = RZGrid(5, 5)
        f = np.ones(g.shape)
        assert g.bilinear(f, g.rmax + 10.0, g.zmax + 10.0) == pytest.approx(1.0)

    def test_contains(self):
        g = RZGrid(5, 5, rmin=1.0, rmax=2.0, zmin=-1.0, zmax=1.0)
        assert bool(g.contains(1.5, 0.0))
        assert not bool(g.contains(0.5, 0.0))
        assert not bool(g.contains(1.5, 2.0))


class TestShiftZ:
    def test_rows_shift_independently(self, rng):
        """A block of grid rows shifts exactly as it does inside the grid."""
        g = RZGrid(11, 17)
        f = rng.normal(size=g.shape)
        whole = g.shift_z(f, 1.3 * g.dz)
        assert np.array_equal(g.shift_z(f[3:8], 1.3 * g.dz), whole[3:8])

    def test_wrong_width_rejected(self):
        g = RZGrid(11, 17)
        with pytest.raises(GridError):
            g.shift_z(np.zeros((11, 16)), 0.1)
        with pytest.raises(GridError):
            g.shift_z(np.zeros(17), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected_on_a_field(self, bad):
        """A NaN or infinite shift is refused by name before anything is
        allocated (a NaN once asked for a padded row of ~2**63 columns)."""
        g = RZGrid(11, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="non-finite vertical shift"):
                g.shift_z(np.ones(g.shape), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected_on_a_stack(self, bad):
        """One non-finite entry of a stack's shifts refuses the stack."""
        g = RZGrid(11, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="non-finite vertical shift"):
                g.shift_z(np.ones((3, 4, g.nh)), np.array([0.0, bad, 0.1]))

    def test_per_field_shifts_on_one_field_rejected(self, monkeypatch):
        """Two shifts for one field name both shapes, before any array of
        the field's size is made (was numpy's "cannot reshape array")."""
        g = RZGrid(11, 17)
        monkeypatch.setattr(np, "empty", None)  # nothing may be allocated
        with pytest.raises(GridError, match=r"\(2,\).*\(11, 17\)"):
            g.shift_z(np.ones(g.shape), np.array([0.1, 0.2]))

    def test_shifts_not_one_per_field_of_a_stack_rejected(self, monkeypatch):
        """Three shifts for a stack of two fields name both shapes (was
        numpy's "operands could not be broadcast")."""
        g = RZGrid(11, 17)
        monkeypatch.setattr(np, "empty", None)
        with pytest.raises(GridError, match=r"\(3,\).*\(2, 3, 17\)"):
            g.shift_z(np.ones((2, 3, g.nh)), np.array([0.0, 0.1, 0.2]))

    def test_one_shift_or_one_per_field_accepted(self, rng):
        g = RZGrid(11, 17)
        stack = rng.normal(size=(2, 3, g.nh))
        each = g.shift_z(stack, np.array([0.1, -0.2]))
        assert np.array_equal(each[1], g.shift_z(stack[1], -0.2))
        assert np.array_equal(g.shift_z(stack, 0.1), g.shift_z(stack, np.array([0.1, 0.1])))
