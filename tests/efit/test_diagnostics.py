"""Tests of magnetic diagnostics and response matrices."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.efit import greens
from repro.efit.diagnostics import (
    DiagnosticSet,
    FluxLoop,
    MagneticProbe,
    MSEChannel,
    RogowskiCoil,
)
from repro.efit.fitting import EfitSolver
from repro.efit.greens import greens_br, greens_bz, greens_psi
from repro.efit.machine import Limiter, PoloidalFieldCoil, Tokamak
from repro.efit.measurements import measure_equilibrium
from repro.errors import GreensError, MeasurementError
from repro.scenarios import all_scenarios, get_scenario, scenario_names


@pytest.fixture()
def geometry_calls(monkeypatch):
    """One entry per call of the Green functions' geometry."""
    calls = []
    geometry = greens._geometry

    def counted(*args):
        calls.append(1)
        return geometry(*args)

    monkeypatch.setattr(greens, "_geometry", counted)
    return calls


class TestFluxLoop:
    def test_grid_response_matches_green(self, grid33):
        loop = FluxLoop("L", 2.3, 0.5)
        resp = loop.response_to_grid(grid33)
        assert resp.shape == grid33.shape
        assert resp[4, 7] == pytest.approx(
            greens_psi(2.3, 0.5, grid33.r[4], grid33.z[7])
        )

    def test_invalid_position(self):
        with pytest.raises(MeasurementError):
            FluxLoop("L", -1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_position(self, bad):
        with pytest.raises(MeasurementError, match="non-finite"):
            FluxLoop("a", bad, 0.0)
        with pytest.raises(MeasurementError, match="non-finite"):
            FluxLoop("a", 2.3, bad)

    def test_coil_response_length(self, machine):
        loop = FluxLoop("L", 2.3, 0.5)
        assert loop.response_to_coils(machine).shape == (machine.n_coils,)


class TestProbe:
    def test_angle_decomposition(self, grid33):
        r, z = 2.3, 0.4
        radial = MagneticProbe("PR", r, z, 0.0).response_to_grid(grid33)
        vertical = MagneticProbe("PZ", r, z, np.pi / 2).response_to_grid(grid33)
        assert radial[5, 5] == pytest.approx(greens_br(r, z, grid33.r[5], grid33.z[5]))
        assert vertical[5, 5] == pytest.approx(greens_bz(r, z, grid33.r[5], grid33.z[5]))

    def test_oblique_probe_combination(self, grid33):
        r, z, a = 2.3, 0.4, 0.7
        probe = MagneticProbe("P", r, z, a).response_to_grid(grid33)
        br = MagneticProbe("PR", r, z, 0.0).response_to_grid(grid33)
        bz = MagneticProbe("PZ", r, z, np.pi / 2).response_to_grid(grid33)
        assert np.allclose(probe, np.cos(a) * br + np.sin(a) * bz)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_position_or_angle(self, bad):
        for args in [(bad, 0.4, 0.7), (2.3, bad, 0.7), (2.3, 0.4, bad)]:
            with pytest.raises(MeasurementError, match="non-finite"):
                MagneticProbe("P", *args)


class TestMSEChannelPosition:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_position(self, bad):
        for r, z in [(bad, 0.0), (2.0, bad)]:
            with pytest.raises(MeasurementError, match="non-finite"):
                MSEChannel("M", r, z, 3.4)


class TestNonFiniteSensorsInTheKernel:
    """Sensors built around the dataclass checks still meet the kernel's."""

    def test_nonfinite_sensor_raises(self, grid33):
        nodes = greens.FilamentSet.points(grid33.rr, grid33.zz)
        with pytest.raises(GreensError):
            greens.sensor_response([2.3, np.nan], [0.4, 0.0], greens.PSI, nodes)

    def test_nonfinite_filament_raises(self):
        sources = greens.FilamentSet.subdivided(
            [(np.array([1.5, np.nan]), np.array([0.1, 0.2]), np.array([0.5, 0.5]))]
        )
        with pytest.raises(GreensError):
            greens.sensor_response([2.3], [0.4], greens.BZ, sources)

    def test_a_sensor_that_reads_nothing_is_never_evaluated(self, grid33):
        nodes = greens.FilamentSet.points(grid33.rr, grid33.zz)
        functional = [greens.PSI, 0.0 * greens.PSI]
        rows = greens.sensor_response([2.3, np.nan], [0.4, np.nan], functional, nodes)
        assert np.isfinite(rows).all() and not rows[1].any()


class TestArraysAreCheckedAtTheDoor:
    """Mismatched sources or sensors are a GreensError that names the sizes,
    raised before any Green function is evaluated."""

    def test_points_need_one_z_per_r(self):
        with pytest.raises(GreensError, match="2 r, 1 z"):
            greens.FilamentSet.points([1.0, 1.5], [0.3])

    @pytest.mark.parametrize(
        ("part", "named"),
        [(([1.0, 1.5], [0.3], [0.5, 0.5]), "2 r, 1 z, 2 weights"), (([], [], []), "0 r, 0 z")],
        ids=["one-z-for-two-r", "no-filament"],
    )
    def test_a_subdivided_part_needs_one_z_per_r(self, part, named):
        with pytest.raises(GreensError, match=f"owner 1 .* {named}"):
            greens.FilamentSet.subdivided([([1.2], [0.1], [1.0]), part])

    @pytest.mark.parametrize(
        ("r", "z", "functional", "named"),
        [
            ([2.3], [0.4, 0.5], greens.PSI, "r (1,), z (2,)"),
            ([2.3, 2.4], [0.4], greens.PSI, "r (2,), z (1,)"),
            ([[2.3, 2.4]], [[0.4, 0.5]], greens.PSI, "r (1, 2), z (1, 2)"),
            ([2.3, 2.4], [0.4, 0.5], [greens.PSI] * 3, "functional (3, 3)"),
            ([2.3, 2.4], [0.4, 0.5], np.ones((2, 2)), "functional (2, 2)"),
        ],
        ids=["z-longer", "z-shorter", "2-d-r", "functional-rows", "functional-width"],
    )
    def test_sensor_shapes(self, r, z, functional, named, geometry_calls, grid33):
        coils = greens.FilamentSet.subdivided([([1.5, 1.6], [0.1, 0.2], [0.5, 0.5])])
        with pytest.raises(GreensError, match=re.escape(named)):
            greens.sensor_response(r, z, functional, coils)
        with pytest.raises(GreensError, match=re.escape(named)):
            greens.sensor_grid_response(r, z, functional, grid33.r, grid33.z)
        assert not geometry_calls

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_functional(self, bad, geometry_calls, grid33):
        functional = [greens.PSI, [0.0, 1.0, bad]]
        with pytest.raises(GreensError, match="finite"):
            greens.sensor_grid_response([2.3, 2.4], [0.4, 0.5], functional, grid33.r, grid33.z)
        assert not geometry_calls


class TestRogowski:
    def test_measures_total_current(self, grid33, rng):
        rog = RogowskiCoil()
        resp = rog.response_to_grid(grid33)
        pcurr = rng.normal(size=grid33.shape)
        assert np.sum(resp * pcurr) == pytest.approx(pcurr.sum())

    def test_excludes_coils(self, machine):
        assert np.array_equal(RogowskiCoil().response_to_coils(machine), np.zeros(18))

    def test_nan_position_stays_legal(self, grid33):
        """Its position is NaN, but its all-zero functional is never
        evaluated: its grid row is all ones and finite."""
        rog = RogowskiCoil()
        assert np.isnan(rog.r) and np.isnan(rog.z)
        assert np.array_equal(rog.response_to_grid(grid33), np.ones(grid33.shape))


class TestDiagnosticSet:
    @pytest.fixture(scope="class")
    def diags(self, machine):
        return DiagnosticSet.for_machine(machine, n_flux_loops=12, n_probes=16)

    def test_counts(self, diags):
        assert diags.n_measurements == 12 + 16 + 1
        assert len(diags.names) == diags.n_measurements
        assert diags.names[-1] == "IP"

    def test_positions_outside_limiter(self, machine, diags):
        for loop in diags.flux_loops:
            assert not bool(machine.limiter.contains(loop.r, loop.z))

    def test_positions_inside_box(self, machine, diags):
        rmin, rmax, zmin, zmax = machine.default_box
        for d in list(diags.flux_loops) + list(diags.probes):
            assert rmin < d.r < rmax and zmin < d.z < zmax

    def test_response_matrix_rows(self, machine, diags, grid33):
        g = machine.make_grid(17)
        resp = diags.response_to_grid(g)
        assert resp.shape == (diags.n_measurements, g.size)
        # Last row is the Rogowski: all ones.
        assert np.allclose(resp[-1], 1.0)
        # First row matches the first flux loop's field.
        assert np.allclose(resp[0], g.flatten(diags.flux_loops[0].response_to_grid(g)))

    def test_coil_response_shape(self, machine, diags):
        resp = diags.response_to_coils(machine)
        assert resp.shape == (diags.n_measurements, machine.n_coils)
        assert np.allclose(resp[-1], 0.0)

    def test_measurement_linearity(self, machine, diags, rng):
        """Diagnostics are linear: response to a sum is the sum of
        responses (superposition of sources)."""
        g = machine.make_grid(17)
        resp = diags.response_to_grid(g)
        a = rng.normal(size=g.size)
        b = rng.normal(size=g.size)
        assert np.allclose(resp @ (a + b), resp @ a + resp @ b)

    def test_too_few_diagnostics_rejected(self, machine):
        with pytest.raises(MeasurementError):
            DiagnosticSet.for_machine(machine, n_flux_loops=2, n_probes=16)

    def test_duplicate_names_rejected(self):
        loop = FluxLoop("X", 2.0, 0.0)
        probe = MagneticProbe("X", 2.0, 0.1, 0.0)
        with pytest.raises(MeasurementError):
            DiagnosticSet((loop,), (probe,), RogowskiCoil())


# -- the oracle: one (sensor, filament, component) at a time ----------------------
def _summed(green, r, z, filaments):
    """``sum_f w_f G(r, z; r_f, z_f)``, filaments accumulated in order.

    The pair goes in as one-element arrays, not floats: NumPy squares an
    array exactly but raises a float64 *scalar* to the power 2 through
    libm's ``pow``, which lands a last place away in a few pairs per
    matrix — and ``1 - k^2`` amplifies that.
    """
    out = 0.0
    for rf, zf, wf in zip(*filaments):
        out = out + wf * green(np.array([r]), np.array([z]), np.array([rf]), np.array([zf]))[0]
    return out


def _reference_reading(diag, filaments, *, enclosed):
    """What ``diag`` reads per ampere in one owner, by the formula of its
    class — the per-class response bodies the kernel replaced."""
    if isinstance(diag, FluxLoop):
        return _summed(greens_psi, diag.r, diag.z, filaments)
    if isinstance(diag, MagneticProbe):
        br = _summed(greens_br, diag.r, diag.z, filaments)
        bz = _summed(greens_bz, diag.r, diag.z, filaments)
        return np.cos(diag.angle) * br + np.sin(diag.angle) * bz
    if isinstance(diag, MSEChannel):
        return _summed(greens_bz, diag.r, diag.z, filaments) * diag.r / diag.f_vacuum
    return float(enclosed)  # Rogowski: the plasma current, no external one


def _reference_response(diagnostics, owners, *, enclosed):
    return np.array(
        [[_reference_reading(d, f, enclosed=enclosed) for f in owners] for d in diagnostics]
    )


def _assert_matches_reference(got, ref, diagnostics):
    """Within 4 ulp of each row's largest entry; bit-identical wherever
    the arithmetic is the reference's (every row but MSE, whose
    ``r / F_vac`` is now applied as one coefficient)."""
    assert got.shape == ref.shape
    bound = 4.0 * np.spacing(np.abs(ref).max(axis=1, keepdims=True))
    assert np.all(np.abs(got - ref) <= bound)
    same = [i for i, d in enumerate(diagnostics) if not isinstance(d, MSEChannel)]
    assert np.array_equal(got[same], ref[same])


def _point(r, z):
    return ([r], [z], [1.0])


class TestKernelMatchesScalarFormulas:
    @pytest.fixture(scope="class", params=scenario_names())
    def case(self, request):
        """Every scenario's machine (all have a vessel) with its own
        diagnostics (``mse`` brings the MSE set) on a coarse grid — the
        reference is a Python loop over pairs."""
        shot = get_scenario(request.param).make_shot(33)
        return shot.machine, shot.diagnostics, shot.machine.make_grid(9)

    def test_response_to_grid(self, case):
        _, diags, grid = case
        nodes = [_point(r, z) for r, z in zip(grid.rr.ravel(), grid.zz.ravel())]
        ref = _reference_response(diags._ordered(), nodes, enclosed=True)
        _assert_matches_reference(diags.response_to_grid(grid), ref, diags._ordered())

    def test_response_to_coils(self, case):
        machine, diags, _ = case
        ref = _reference_response(
            diags._ordered(), [c.filaments for c in machine.coils], enclosed=False
        )
        _assert_matches_reference(diags.response_to_coils(machine), ref, diags._ordered())

    def test_response_to_vessel(self, case):
        machine, diags, _ = case
        assert machine.n_vessel
        segments = [_point(seg.r, seg.z) for seg in machine.vessel]
        ref = _reference_response(diags._ordered(), segments, enclosed=False)
        _assert_matches_reference(diags.response_to_vessel(machine), ref, diags._ordered())

    def test_flux_tables(self, case):
        """Every grid node is a flux loop to the coils and the vessel."""
        machine, _, grid = case
        nodes = [FluxLoop("n", r, z) for r, z in zip(grid.rr.ravel(), grid.zz.ravel())]
        for tables, owners in (
            (machine.coil_flux_tables(grid), [c.filaments for c in machine.coils]),
            (machine.vessel_flux_tables(grid), [_point(s.r, s.z) for s in machine.vessel]),
        ):
            ref = _reference_response(nodes, owners, enclosed=False)
            assert np.array_equal(tables.reshape(len(owners), -1).T, ref)
            assert not tables.flags.writeable and tables.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(1.2, 2.2),
        z=st.floats(-1.0, 1.0),
        angle=st.floats(-np.pi, np.pi),
        subdivisions=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=4
        ),
    )
    def test_any_sensor_any_subdivision(self, r, z, angle, subdivisions):
        """Coils with unequal filament counts sum per coil, in order."""
        coils = tuple(
            PoloidalFieldCoil(f"C{k}", 0.6 + 0.7 * k, 1.8, 0.2, 0.3, 7.0 + k, nr, nz)
            for k, (nr, nz) in enumerate(subdivisions)
        )
        square = Limiter(np.array([1.0, 2.4, 2.4, 1.0]), np.array([-1.2, -1.2, 1.2, 1.2]))
        machine = Tokamak("t", coils, square, 3.0)
        diags = DiagnosticSet(
            (FluxLoop("L", r, z),),
            (MagneticProbe("P", r, z, angle),),
            RogowskiCoil(),
            (MSEChannel("M", r, z, 3.0),),
        )
        ref = _reference_response(diags._ordered(), [c.filaments for c in coils], enclosed=False)
        _assert_matches_reference(diags.response_to_coils(machine), ref, diags._ordered())


class TestConstructionBudget:
    """A count, not a time: the response set-up enters the Green-function
    geometry a few dozen times (one per broadcast block), not once per
    (sensor, filament, component)."""

    @pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda sc: sc.name)
    def test_solver_construction(self, scenario, geometry_calls):
        scenario.make_shot(33)  # table-cache warm-up is not the budget
        EfitSolver.for_scenario(scenario, 33)
        del geometry_calls[:]
        EfitSolver.for_scenario(scenario, 33)
        assert 0 < len(geometry_calls) <= 40

    @pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda sc: sc.name)
    def test_measurement_synthesis(self, scenario, geometry_calls):
        shot = scenario.make_shot(33)
        del geometry_calls[:]
        measure_equilibrium(
            shot.machine, shot.diagnostics, shot.grid, shot.truth, noise=1e-3, seed=0
        )
        assert 0 < len(geometry_calls) <= 40
