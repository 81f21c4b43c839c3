"""Tests of the filament Green functions against physics ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.efit.greens import (
    greens_br,
    greens_bz,
    greens_psi,
    self_flux_per_radian,
)
from repro.errors import GreensError
from repro.utils.constants import MU0, TWO_PI

coords = st.floats(min_value=0.6, max_value=2.5)
zcoords = st.floats(min_value=-1.5, max_value=1.5)


class TestPsi:
    def test_positive_for_positive_current(self):
        assert greens_psi(1.5, 0.2, 1.2, -0.1) > 0.0

    def test_symmetry_source_observation(self):
        """Mutual inductance is symmetric under filament exchange."""
        a = greens_psi(1.8, 0.4, 1.1, -0.3)
        b = greens_psi(1.1, -0.3, 1.8, 0.4)
        assert a == pytest.approx(b, rel=1e-12)

    def test_updown_symmetry(self):
        a = greens_psi(1.5, 0.7, 1.2, 0.0)
        b = greens_psi(1.5, -0.7, 1.2, 0.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_decay_with_distance(self):
        vals = [greens_psi(1.5, z, 1.5, 0.0) for z in (0.3, 0.6, 1.2, 2.4)]
        assert all(v1 > v2 > 0 for v1, v2 in zip(vals, vals[1:]))

    def test_far_field_dipole_limit(self):
        """At large distance the loop looks like a dipole: on-axis-ish flux
        ~ mu0 * m / (4 pi d) * (r/d)^2-type scaling; check the flux through
        a small far loop matches the dipole Bz integral to a few %."""
        rs, a_obs, d = 1.0, 0.05, 60.0
        bz_dipole = MU0 * (np.pi * rs**2) / (2.0 * np.pi * d**3)
        psi_expected = bz_dipole * np.pi * a_obs**2 / TWO_PI
        psi = greens_psi(a_obs, d, rs, 0.0)
        assert psi == pytest.approx(psi_expected, rel=0.05)

    def test_coincident_raises(self):
        with pytest.raises(GreensError):
            greens_psi(1.5, 0.0, 1.5, 0.0)

    def test_nonpositive_radius_raises(self):
        with pytest.raises(GreensError):
            greens_psi(-1.0, 0.0, 1.5, 0.0)
        with pytest.raises(GreensError):
            greens_psi(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", range(4))
    @pytest.mark.parametrize("green", [greens_psi, greens_br, greens_bz])
    def test_nonfinite_coordinate_raises(self, green, where, bad):
        args = [1.5, 0.2, 1.2, -0.1]
        args[where] = bad
        with pytest.raises(GreensError):
            green(*args)

    def test_one_nonfinite_entry_of_an_array_raises(self):
        r = np.linspace(1.0, 2.0, 7)
        r[3] = np.nan
        with pytest.raises(GreensError):
            greens_psi(r, 0.0, 1.5, 0.9)

    def test_broadcasting(self):
        r = np.linspace(1.0, 2.0, 7)
        z = np.zeros(7)
        out = greens_psi(r, z, 1.5, 0.9)
        assert out.shape == (7,)

    @given(coords, zcoords, coords, zcoords)
    @settings(max_examples=100, deadline=None)
    def test_reciprocity_property(self, r, z, rs, zs):
        if abs(r - rs) < 1e-3 and abs(z - zs) < 1e-3:
            return
        a = greens_psi(r, z, rs, zs)
        b = greens_psi(rs, zs, r, z)
        assert a == pytest.approx(b, rel=1e-9)


class TestFields:
    @pytest.mark.parametrize(
        "r,z,rs,zs",
        [(1.8, 0.3, 1.2, -0.4), (0.9, -0.8, 2.1, 0.5), (1.5, 1.2, 1.45, 1.1)],
    )
    def test_br_matches_flux_derivative(self, r, z, rs, zs):
        h = 1e-6
        fd = -(greens_psi(r, z + h, rs, zs) - greens_psi(r, z - h, rs, zs)) / (2 * h * r)
        assert greens_br(r, z, rs, zs) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "r,z,rs,zs",
        [(1.8, 0.3, 1.2, -0.4), (0.9, -0.8, 2.1, 0.5), (1.5, 1.2, 1.45, 1.1)],
    )
    def test_bz_matches_flux_derivative(self, r, z, rs, zs):
        h = 1e-6
        fd = (greens_psi(r + h, z, rs, zs) - greens_psi(r - h, z, rs, zs)) / (2 * h * r)
        assert greens_bz(r, z, rs, zs) == pytest.approx(fd, rel=1e-6)

    def test_br_vanishes_on_source_midplane(self):
        assert greens_br(1.9, 0.0, 1.2, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_bz_center_of_loop_limit(self):
        """Near the axis, Bz approaches the textbook loop-center field
        mu0 I / (2 a)."""
        a = 1.3
        expected = MU0 / (2.0 * a)
        assert greens_bz(1e-4, 0.0, a, 0.0) == pytest.approx(expected, rel=1e-4)

    def test_bz_on_axis_height_formula(self):
        """Off-plane on-axis field: mu0 a^2 / (2 (a^2+z^2)^{3/2})."""
        a, z = 1.0, 0.8
        expected = MU0 * a**2 / (2.0 * (a**2 + z**2) ** 1.5)
        assert greens_bz(1e-4, z, a, 0.0) == pytest.approx(expected, rel=1e-4)

    @given(coords, zcoords, coords)
    @settings(max_examples=60, deadline=None)
    def test_br_antisymmetric_in_dz(self, r, dz, rs):
        if abs(dz) < 1e-3 or (abs(r - rs) < 1e-3):
            return
        up = greens_br(r, dz, rs, 0.0)
        dn = greens_br(r, -dz, rs, 0.0)
        assert up == pytest.approx(-dn, rel=1e-9, abs=1e-18)


class TestInductance:
    def test_self_flux_positive_and_increasing_with_radius(self):
        vals = [self_flux_per_radian(r, 0.01) for r in (0.8, 1.2, 1.8)]
        assert all(v > 0 for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_self_flux_grows_as_wire_thins(self):
        thick = self_flux_per_radian(1.5, 0.05)
        thin = self_flux_per_radian(1.5, 0.001)
        assert thin > thick

    def test_self_flux_invalid_inputs(self):
        with pytest.raises(GreensError):
            self_flux_per_radian(1.0, 0.0)
        with pytest.raises(GreensError):
            self_flux_per_radian(1.0, 1.5)
        with pytest.raises(GreensError):
            self_flux_per_radian(-1.0, 0.01)

    def test_self_flux_exceeds_close_mutual(self):
        """Self inductance bounds the mutual inductance of nearby loops."""
        self_val = self_flux_per_radian(1.5, 0.01)
        near = greens_psi(1.5, 0.05, 1.5, 0.0)
        assert self_val > near
