"""Tests of the tokamak machine description."""

import numpy as np
import pytest

from repro.efit.greens import greens_psi
from repro.efit.grid import RZGrid
from repro.efit.machine import Limiter, PoloidalFieldCoil, Tokamak, diiid_like_machine
from repro.errors import MeasurementError


class TestCoil:
    def test_filament_subdivision(self):
        coil = PoloidalFieldCoil("C", 1.5, 0.5, width=0.2, height=0.4, turns=10, nr=2, nz=3)
        rf, zf, wf = coil.filaments
        assert rf.size == 6
        assert wf.sum() == pytest.approx(10.0)
        assert rf.min() > 1.4 and rf.max() < 1.6
        assert zf.min() > 0.3 and zf.max() < 0.7

    def test_single_filament_matches_green(self):
        coil = PoloidalFieldCoil("C", 1.5, 0.5, nr=1, nz=1, turns=1)
        assert coil.psi_at(np.asarray(2.0), np.asarray(0.0)) == pytest.approx(
            greens_psi(2.0, 0.0, 1.5, 0.5)
        )

    def test_turns_scale_linearly(self):
        c1 = PoloidalFieldCoil("A", 1.5, 0.5, turns=1)
        c2 = PoloidalFieldCoil("B", 1.5, 0.5, turns=58)
        p = np.asarray(2.1), np.asarray(0.2)
        assert c2.psi_at(*p) == pytest.approx(58.0 * c1.psi_at(*p))
        assert c2.bz_at(*p) == pytest.approx(58.0 * c1.bz_at(*p))

    def test_crossing_axis_rejected(self):
        with pytest.raises(MeasurementError):
            PoloidalFieldCoil("bad", 0.02, 0.0, width=0.1)

    @pytest.mark.parametrize("field", ["r", "z", "width", "height"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_coordinate_rejected(self, field, bad):
        kwargs = {"r": 1.5, "z": 0.5, "width": 0.2, "height": 0.4, field: bad}
        with pytest.raises(MeasurementError, match="non-finite"):
            PoloidalFieldCoil("bad", **kwargs)

    def test_field_consistency_with_flux(self):
        coil = PoloidalFieldCoil("C", 1.2, 0.8, nr=2, nz=2)
        r, z, h = 1.9, -0.1, 1e-6
        br_fd = -(coil.psi_at(np.asarray(r), np.asarray(z + h)) - coil.psi_at(np.asarray(r), np.asarray(z - h))) / (2 * h * r)
        assert coil.br_at(np.asarray(r), np.asarray(z)) == pytest.approx(br_fd, rel=1e-5)


class TestLimiter:
    @pytest.fixture()
    def square(self):
        return Limiter(np.array([1.0, 2.0, 2.0, 1.0]), np.array([-1.0, -1.0, 1.0, 1.0]))

    def test_contains_inside_outside(self, square):
        assert bool(square.contains(1.5, 0.0))
        assert not bool(square.contains(2.5, 0.0))
        assert not bool(square.contains(1.5, 1.5))

    def test_contains_vectorised(self, square):
        r = np.array([1.5, 0.5, 1.9])
        z = np.array([0.0, 0.0, 0.9])
        assert square.contains(r, z).tolist() == [True, False, True]

    def test_sample_points_on_perimeter(self, square):
        rs, zs = square.sample_points(5)
        assert rs.size == 20
        on_edge = (
            np.isclose(rs, 1.0) | np.isclose(rs, 2.0) | np.isclose(zs, -1.0) | np.isclose(zs, 1.0)
        )
        assert on_edge.all()

    def test_too_few_points_rejected(self):
        with pytest.raises(MeasurementError):
            Limiter(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_bad_sampling(self, square):
        with pytest.raises(MeasurementError):
            square.sample_points(0)


class TestTokamak:
    def test_diiid_like_shape(self, machine):
        assert machine.n_coils == 18
        assert machine.limiter.n_points >= 32
        assert machine.f_vacuum == pytest.approx(1.69 * 2.0)

    def test_updown_symmetric_coils(self, machine):
        zs = sorted(c.z for c in machine.coils)
        assert np.allclose(zs, -np.array(zs[::-1]))

    def test_coil_index(self, machine):
        assert machine.coils[machine.coil_index("F5B")].name == "F5B"
        with pytest.raises(MeasurementError):
            machine.coil_index("F99")

    def test_duplicate_names_rejected(self, machine):
        with pytest.raises(MeasurementError):
            Tokamak("x", (machine.coils[0], machine.coils[0]), machine.limiter, 1.0)

    def test_limiter_inside_default_box(self, machine):
        rmin, rmax, zmin, zmax = machine.default_box
        assert machine.limiter.r.min() > rmin and machine.limiter.r.max() < rmax
        assert machine.limiter.z.min() > zmin and machine.limiter.z.max() < zmax

    def test_make_grid(self, machine):
        g = machine.make_grid(65)
        assert g.shape == (65, 65)
        assert (g.rmin, g.rmax) == machine.default_box[:2]

    def test_coil_flux_linearity(self, machine):
        g = machine.make_grid(17)
        tables = machine.coil_flux_tables(g)
        assert tables.shape == (18, 17, 17)
        currents = np.zeros(18)
        currents[3] = 2.5e3
        psi = machine.psi_from_coils(g, currents)
        assert np.allclose(psi, 2.5e3 * tables[3])

    def test_psi_from_coils_validates_length(self, machine):
        g = machine.make_grid(17)
        with pytest.raises(MeasurementError):
            machine.psi_from_coils(g, np.zeros(5))

    def test_symmetric_currents_symmetric_flux(self, machine):
        """Equal currents in A/B coil pairs give up-down symmetric flux on
        a symmetric grid."""
        g = RZGrid(17, 17, *machine.default_box)
        psi = machine.psi_from_coils(g, np.ones(machine.n_coils) * 1e3)
        assert np.allclose(psi, psi[:, ::-1], rtol=1e-10)
