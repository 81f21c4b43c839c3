"""The ``green_`` set-up against what it replaced.

The set-up evaluates each elliptic integral once: one kernel forms psi, Br
and Bz from one geometry and one ``K(k)``, ``E(k)`` evaluation per
sensor-filament pair, and the boundary table is evaluated on the triangle
of source column >= boundary column and mirrored by reciprocity.  The code
it replaced is kept here as the oracle: one Green function per component
(each with its own ``K``/``E``), one broadcast per component in
:func:`sensor_response`, and the table built one boundary column at a time
over every pair.  Every response matrix, flux table and Green table must
equal the oracle's bit for bit.

The responses are built once per distinct sensor position: the sensors at
one point share one ``K``/``E`` evaluation, and each position meets the
grid as its R axis against its Z axis.  The build this replaced is kept as
a second oracle: sensors grouped by the components they read, each block
of them against the flattened mesh of grid nodes.  Every response must
equal it ``tobytes()`` for ``tobytes()`` (``array_equal`` cannot tell -0.0
from +0.0).

The solver builds its grid response only on the plasma's support — the
in-limiter rows by the in-limiter columns widened by one column each side
— and keeps +0.0 elsewhere.  The whole grid's response is the oracle
there: the solver's must equal it on the support, and every fit result a
solver makes must equal, byte for byte, that of a solver handed the
whole response.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe, ellipkm1

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.diagnostics import FluxLoop, MagneticProbe, MSEChannel, RogowskiCoil
from repro.efit import fitting, greens
from repro.efit.fitting import EfitSolver
from repro.efit.greens import (
    FilamentSet,
    self_flux_per_radian,
    sensor_grid_response,
    sensor_response,
)
from repro.efit.grid import RZGrid
from repro.efit.machine import Limiter, PoloidalFieldCoil
from repro.efit.tables import build_boundary_tables, effective_filament_radius
from repro.scenarios import get_scenario, scenario_names
from repro.errors import BoundaryError
from repro.utils.constants import MU0, TWO_PI
from tests.serve.conftest import serve_reports


# -- the oracle: the set-up's kernels before one K/E per pair ------------------------
def _ref_geometry(r, z, rs, zs):
    r, z, rs, zs = (np.asarray(a, dtype=float) for a in (r, z, rs, zs))
    denom2 = (r + rs) ** 2 + (z - zs) ** 2
    m = 4.0 * r * rs / denom2
    return r, z, rs, zs, np.minimum(m, 1.0), denom2


def _ref_greens_psi(r, z, rs, zs):
    r, z, rs, zs, mk, _ = _ref_geometry(r, z, rs, zs)
    kprime2 = 1.0 - mk
    k = np.sqrt(mk)
    bigk = ellipkm1(kprime2)
    bige = ellipe(mk)
    return MU0 / TWO_PI * np.sqrt(r * rs) * ((2.0 - mk) * bigk - 2.0 * bige) / k


def _ref_greens_br(r, z, rs, zs):
    r, z, rs, zs, mk, denom2 = _ref_geometry(r, z, rs, zs)
    kprime2 = 1.0 - mk
    beta = np.sqrt(denom2)
    alpha2 = (rs - r) ** 2 + (z - zs) ** 2
    bigk = ellipkm1(kprime2)
    bige = ellipe(mk)
    num = (rs**2 + r**2 + (z - zs) ** 2) * bige / alpha2 - bigk
    return MU0 / TWO_PI * (z - zs) / (r * beta) * num


def _ref_greens_bz(r, z, rs, zs):
    r, z, rs, zs, mk, denom2 = _ref_geometry(r, z, rs, zs)
    kprime2 = 1.0 - mk
    beta = np.sqrt(denom2)
    alpha2 = (rs - r) ** 2 + (z - zs) ** 2
    bigk = ellipkm1(kprime2)
    bige = ellipe(mk)
    num = bigk + (rs**2 - r**2 - (z - zs) ** 2) * bige / alpha2
    return MU0 / TWO_PI / beta * num


def _ref_sensor_response(r, z, functional, sources):
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    functional = np.broadcast_to(np.asarray(functional, dtype=float).reshape(-1, 3), (r.size, 3))
    first = sources.first
    counts = np.diff(first, append=sources.r.size)
    out = np.zeros((r.size, first.size))
    step = max(1, (1 << 13) // max(1, sources.r.size))
    greens = (_ref_greens_psi, _ref_greens_br, _ref_greens_bz)
    for coeff, green in zip(functional.T, greens):
        sensors = np.flatnonzero(coeff)
        for block in (sensors[k : k + step] for k in range(0, sensors.size, step)):
            pairs = sources.weight * green(r[block, None], z[block, None], sources.r, sources.z)
            summed = pairs[:, first]
            for k in range(1, counts.max(initial=0)):
                owners = np.flatnonzero(counts > k)
                summed[:, owners] += pairs[:, first[owners] + k]
            summed *= coeff[block, None]
            out[block] += summed
    return out


def _ref_build_boundary_tables(grid):
    nh, nw = grid.nh, grid.nw
    a_eff = effective_filament_radius(grid)
    dz_off = np.arange(nh) * grid.dz
    gpc = np.empty((nw, nh, nw))
    for i_b in range(nw):
        r_b = grid.r[i_b]
        block = np.empty((nh, nw))
        rr_b = np.full((nh, nw), r_b)
        zz = np.broadcast_to(dz_off[:, None], (nh, nw))
        rs2 = np.broadcast_to(grid.r[None, :], (nh, nw))
        mask = np.ones((nh, nw), dtype=bool)
        mask[0, i_b] = False
        block[mask] = _ref_greens_psi(rr_b[mask], 0.0, rs2[mask], zz[mask])
        block[0, i_b] = self_flux_per_radian(r_b, a_eff)
        gpc[i_b] = block
    return gpc


def _ref_response(diagnostics, sources, *, enclosed, oracle=_ref_sensor_response):
    rows = oracle(
        [d.r for d in diagnostics],
        [d.z for d in diagnostics],
        [d.functional for d in diagnostics],
        sources,
    )
    rows[[isinstance(d, RogowskiCoil) for d in diagnostics]] = float(enclosed)
    return rows


def _ref_flux_tables(sources, grid):
    per_node = _ref_sensor_response(grid.rr.ravel(), grid.zz.ravel(), [1.0, 0.0, 0.0], sources)
    return np.ascontiguousarray(per_node.T).reshape(sources.first.size, *grid.shape)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.asarray(a).tobytes() == np.asarray(b).tobytes()


# -- the second oracle: one kernel call per block of sensors of one kind -------------
def _per_kind_sensor_response(r, z, functional, sources):
    """Sensors grouped by the components they read, each block of them
    against every filament of ``sources`` (the grid: every node of its
    flattened mesh), one ``K``/``E`` evaluation per sensor and filament."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    functional = np.broadcast_to(np.asarray(functional, dtype=float).reshape(-1, 3), (r.size, 3))
    first = sources.first
    counts = np.diff(first, append=sources.r.size)
    out = np.zeros((r.size, first.size))
    step = max(1, (1 << 13) // max(1, sources.r.size))
    reads = functional != 0.0
    kind_of = reads @ np.array([1, 2, 4])
    for kind in np.unique(kind_of[kind_of > 0]):
        sensors = np.flatnonzero(kind_of == kind)
        components = tuple(np.flatnonzero(reads[sensors[0]]))
        for block in (sensors[k : k + step] for k in range(0, sensors.size, step)):
            fields = greens._filament_fields(
                r[block, None], z[block, None], sources.r, sources.z, components
            )
            for component, field in zip(components, fields):
                pairs = sources.weight * field
                summed = pairs[:, first]
                for k in range(1, counts.max(initial=0)):
                    owners = np.flatnonzero(counts > k)
                    summed[:, owners] += pairs[:, first[owners] + k]
                summed *= functional[block, component, None]
                out[block] += summed
    return out


def _per_kind_response(diagnostics, sources, *, enclosed):
    return _ref_response(diagnostics, sources, enclosed=enclosed, oracle=_per_kind_sensor_response)


def _responses_against_the_per_kind_oracle(machine, diagnostics, grid) -> list[str]:
    """The names of the responses that differ from the per-kind oracle's."""
    ordered = diagnostics._ordered()
    nodes = FilamentSet.points(grid.rr, grid.zz)
    grid_rows = _per_kind_response(ordered, nodes, enclosed=True)
    pairs = {
        "set grid response": (diagnostics.response_to_grid(grid), grid_rows),
        "one diagnostic's grid response": (
            np.stack([grid.flatten(d.response_to_grid(grid)) for d in ordered]),
            np.stack([_per_kind_response([d], nodes, enclosed=True)[0] for d in ordered]),
        ),
        "coil response": (
            diagnostics.response_to_coils(machine),
            _per_kind_response(ordered, machine.coil_sources, enclosed=False),
        ),
        "vessel response": (
            diagnostics.response_to_vessel(machine),
            _per_kind_response(ordered, machine.vessel_sources, enclosed=False),
        ),
    }
    return [name for name, (got, ref) in pairs.items() if not _same_bits(got, ref)]


# -- every scenario's set-up ---------------------------------------------------------
SCENARIOS = [get_scenario(name) for name in scenario_names()]
CASES = [
    pytest.param(sc, n, id=f"{sc.name}-{n}") for sc in SCENARIOS for n in (33, 65)
]


@pytest.mark.parametrize(("scenario", "n"), CASES)
def test_setup_arrays_match_the_oracle(scenario, n):
    """Grid, coil and vessel responses, coil and vessel flux tables and
    the boundary table: bit for bit."""
    shot = scenario.make_shot(n)
    machine, diagnostics, grid = shot.machine, shot.diagnostics, shot.grid
    ordered = diagnostics._ordered()
    nodes = FilamentSet.points(grid.rr, grid.zz)
    pairs = {
        "grid response": (
            diagnostics.response_to_grid(grid),
            _ref_response(ordered, nodes, enclosed=True),
        ),
        "coil response": (
            diagnostics.response_to_coils(machine),
            _ref_response(ordered, machine.coil_sources, enclosed=False),
        ),
        "vessel response": (
            diagnostics.response_to_vessel(machine),
            _ref_response(ordered, machine.vessel_sources, enclosed=False),
        ),
        "coil flux tables": (
            machine.coil_flux_tables(grid),
            _ref_flux_tables(machine.coil_sources, grid),
        ),
        "vessel flux tables": (
            machine.vessel_flux_tables(grid),
            _ref_flux_tables(machine.vessel_sources, grid),
        ),
        "boundary table": (build_boundary_tables(grid).gpc, _ref_build_boundary_tables(grid)),
    }
    differ = [name for name, (got, ref) in pairs.items() if not _same_bits(got, ref)]
    assert not differ, differ


PER_POSITION_CASES = CASES + [pytest.param(get_scenario("mse"), 129, id="mse-129")]


@pytest.mark.parametrize(("scenario", "n"), PER_POSITION_CASES)
def test_responses_match_the_per_kind_oracle(scenario, n):
    """The set's and each diagnostic's grid response, the coil and the
    vessel response: byte for byte the per-kind, flattened-mesh build."""
    shot = scenario.make_shot(n)
    assert not _responses_against_the_per_kind_oracle(shot.machine, shot.diagnostics, shot.grid)


@pytest.mark.parametrize(
    "scenario", [pytest.param(sc, id=f"{sc.name}-17x23") for sc in SCENARIOS]
)
def test_non_square_responses_match_the_per_kind_oracle(scenario, grid_rect):
    shot = scenario.make_shot(33)
    assert not _responses_against_the_per_kind_oracle(shot.machine, shot.diagnostics, grid_rect)


def test_non_square_table_matches_the_oracle(grid_rect):
    assert _same_bits(build_boundary_tables(grid_rect).gpc, _ref_build_boundary_tables(grid_rect))


@pytest.mark.parametrize(
    "grid", [RZGrid(17, 23), RZGrid(33, 33), RZGrid(40, 9)], ids=lambda g: f"{g.nw}x{g.nh}"
)
def test_table_is_reciprocal_bit_for_bit(grid):
    """``gpc[i, :, j] == gpc[j, :, i]`` for every pair of columns."""
    gpc = build_boundary_tables(grid).gpc
    assert _same_bits(gpc, np.ascontiguousarray(gpc.transpose(2, 1, 0)))


# -- random sensors against subdivided coils ----------------------------------------
_sensor_r = st.floats(min_value=0.6, max_value=1.4)
_sensor_z = st.floats(min_value=-1.5, max_value=1.5)
_f_vacuum = st.floats(min_value=-8.0, max_value=8.0).filter(lambda f: abs(f) > 0.1)
_angle = st.one_of(
    st.sampled_from([0.0, np.pi / 2, np.pi]), st.floats(min_value=-np.pi, max_value=np.pi)
)
_sensors = st.lists(
    st.one_of(
        st.builds(FluxLoop, st.just("F"), _sensor_r, _sensor_z),
        st.builds(MagneticProbe, st.just("P"), _sensor_r, _sensor_z, _angle),
        st.builds(
            MSEChannel,
            st.just("M"),
            _sensor_r,
            _sensor_z,
            _f_vacuum,
        ),
        st.just(RogowskiCoil()),
    ),
    min_size=1,
    max_size=12,
)
# Coils right of every sensor, so no filament meets a sensor.
_coils = st.lists(
    st.builds(
        PoloidalFieldCoil,
        st.just("C"),
        st.floats(min_value=1.7, max_value=2.6),
        st.floats(min_value=-1.5, max_value=1.5),
        width=st.floats(min_value=0.01, max_value=0.2),
        height=st.floats(min_value=0.01, max_value=0.3),
        turns=st.floats(min_value=0.5, max_value=60.0),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(sensors=_sensors, coils=_coils)
def test_random_sensors_match_the_oracle(sensors, coils):
    sources = FilamentSet.subdivided([coil.filaments for coil in coils])
    args = (
        [s.r for s in sensors],
        [s.z for s in sensors],
        [s.functional for s in sensors],
    )
    got = sensor_response(*args, sources)
    assert _same_bits(got, _ref_sensor_response(*args, sources))
    # A sensor's row does not depend on the sensors beside it.
    for row, sensor in list(zip(got, sensors))[:3]:
        alone = sensor_response([sensor.r], [sensor.z], [sensor.functional], sources)
        assert _same_bits(alone[0], row)


# -- sensors stacked on shared points ------------------------------------------------
@st.composite
def _stacked_sensors(draw):
    """``(r, z, functional)`` lists of a few points, each carrying any of a
    flux loop, a probe, an MSE channel, a sensor that reads all three
    components (so the order of a row's terms shows) and one that reads
    nothing, shuffled.  A point may have its mirror image in Z beside it
    (on the midplane: the same point but for the sign of a zero), and the
    Rogowski (no position) may ride along."""
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        points.append((draw(_sensor_r), draw(st.one_of(st.sampled_from([0.0, -0.0]), _sensor_z))))
        if draw(st.booleans()):
            points.append((points[-1][0], -points[-1][1]))
    r, z, functional = [], [], []
    for pr, pz in points:
        kinds = ("loop", "probe", "mse", "mixed", "zero")
        for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
            r.append(pr)
            z.append(pz)
            functional.append(
                {
                    "loop": lambda: FluxLoop("F", pr, pz).functional,
                    "probe": lambda: MagneticProbe("P", pr, pz, draw(_angle)).functional,
                    "mse": lambda: MSEChannel("M", pr, pz, draw(_f_vacuum)).functional,
                    "mixed": lambda: np.array([draw(_f_vacuum) for _ in range(3)]),
                    "zero": lambda: np.zeros(3),
                }[kind]()
            )
    if draw(st.booleans()):
        rogowski = RogowskiCoil()
        r.append(rogowski.r)
        z.append(rogowski.z)
        functional.append(rogowski.functional)
    order = draw(st.permutations(range(len(r))))
    return tuple([column[i] for i in order] for column in (r, z, functional))


#: Nodes right of every sensor, so no node meets a sensor: blocks of
#: several positions (9 x 11), and one position a block (65 x 65).
_STACK_GRIDS = [RZGrid(n, m, rmin=1.7, rmax=2.6, zmin=-1.5, zmax=1.5) for n, m in [(9, 11), (65, 65)]]


@settings(max_examples=60, deadline=None)
@given(sensors=_stacked_sensors(), coils=_coils)
def test_stacked_sensors_match_the_oracles(sensors, coils):
    """Sensors that share a point share one evaluation: against the grid
    and against subdivided coils, each row is the per-kind and the
    per-component oracle's, byte for byte."""
    for grid in _STACK_GRIDS:
        nodes = FilamentSet.points(grid.rr, grid.zz)
        got = sensor_grid_response(*sensors, grid.r, grid.z)
        assert _same_bits(got, _per_kind_sensor_response(*sensors, nodes))
        assert _same_bits(got, _ref_sensor_response(*sensors, nodes))
    sources = FilamentSet.subdivided([coil.filaments for coil in coils])
    got = sensor_response(*sensors, sources)
    assert _same_bits(got, _per_kind_sensor_response(*sensors, sources))
    assert _same_bits(got, _ref_sensor_response(*sensors, sources))


# -- the solver's grid response on the plasma's support ------------------------------
def _support_nodes(inside):
    """The nodes of the in-limiter rows x the in-limiter columns widened by
    one column on each side, as a ``(nw, nh)`` mask — worked out here on
    its own, not read from :attr:`GridStatics.response_support`."""

    def span(hit):  # from the first hit to the last
        return np.logical_or.accumulate(hit) & np.logical_or.accumulate(hit[::-1])[::-1]

    rows, cols = span(inside.any(axis=1)), span(inside.any(axis=0))
    widened = cols.copy()
    widened[1:] |= cols[:-1]
    widened[:-1] |= cols[1:]
    return rows[:, None] & widened[None, :]


SUPPORT_CASES = CASES + [
    pytest.param(sc, RZGrid(17, 23), id=f"{sc.name}-17x23") for sc in SCENARIOS
]


@pytest.mark.parametrize(("scenario", "n"), SUPPORT_CASES)
def test_solver_response_is_the_set_response_on_its_support(scenario, n):
    """``EfitSolver.grid_response`` holds the bytes of
    ``DiagnosticSet.response_to_grid`` on the support and +0.0 off it."""
    shot = scenario.make_shot(n if isinstance(n, int) else 33)
    grid = shot.grid if isinstance(n, int) else n
    solver = EfitSolver(shot.machine, shot.diagnostics, grid)
    on = _support_nodes(solver.statics.inside_limiter).reshape(grid.size)
    got, full = solver.grid_response, shot.diagnostics.response_to_grid(grid)
    assert got.shape == full.shape and on.any()
    assert _same_bits(got[:, on], full[:, on])
    assert _same_bits(got[:, ~on], np.zeros((got.shape[0], int(np.count_nonzero(~on)))))


def _fields(value):
    """Every field of a result, recursively, with arrays and floats as bytes."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [(f.name, _fields(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [_fields(v) for v in value]
    if isinstance(value, (np.ndarray, float)):
        value = np.asarray(value)
        return value.dtype.str, value.shape, value.tobytes()
    return value


_FITS: dict[tuple[str, int], tuple[list, list, list]] = {}


def _fits(name: str, n: int) -> tuple[list, list, list]:
    """The results of a serial cold fit, a warm chain of four frames, a
    batch of eight, four served frames and a vessel fit of scenario
    ``name`` at ``n``^2 — on solvers as built and on solvers handed the
    full grid response — and the slab rows and masks of every iterate of
    the former."""
    if (name, n) in _FITS:
        return _FITS[name, n]
    sc = get_scenario(name)
    shot = sc.make_shot(n)
    frames = synthetic_slice_sequence(shot, 8, seed=37)
    slabs = []
    real = fitting.basis_current_slabs

    def spy(grid, psin, masks, pp_basis, ffp_basis):
        got = real(grid, psin, masks, pp_basis, ffp_basis)
        slabs.append((got.i0, got.i1, [m.copy() for m in masks]))
        return got

    def run(full: bool) -> list:
        def hand(solver):
            if full:
                solver.grid_response = shot.diagnostics.response_to_grid(shot.grid)
            return solver

        solver = hand(EfitSolver.for_scenario(sc, n, shot=shot))
        results = [solver.fit(shot.measurements, require_convergence=False)]
        for frame in frames[:4]:
            results.append(solver.fit(frame, psi_initial=results[-1].psi, require_convergence=False))
        engine = BatchFitEngine.for_scenario(sc, n, shot=shot, batch_size=8)
        hand(engine.solver)
        results += engine.fit_many(frames, require_convergence=False).results
        results += [report.result for report in serve_reports(engine, frames[:4])]
        vessel = hand(EfitSolver.for_scenario(sc, n, shot=shot, fit_vessel=True))
        results.append(vessel.fit(shot.measurements, require_convergence=False))
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "basis_current_slabs", spy)
        on_support = run(full=False)
    _FITS[name, n] = on_support, run(full=True), slabs
    return _FITS[name, n]


@pytest.mark.parametrize(("scenario", "n"), CASES)
def test_fits_match_a_solver_handed_the_full_response(scenario, n):
    """Serial cold, warm-chained, batch-of-eight, served and vessel fits:
    every ``FitResult`` field byte for byte."""
    on_support, full, _ = _fits(scenario.name, n)
    assert len(on_support) == len(full) == 18
    for k, (got, want) in enumerate(zip(on_support, full)):
        assert _fields(got) == _fields(want), k


@pytest.mark.parametrize(("scenario", "n"), CASES)
def test_every_iterate_stays_on_the_support(scenario, n):
    """The slab's rows, and each mask dilated by one node in Z (the
    ``fitdelz`` derivative's reach), lie inside the support."""
    _, _, slabs = _fits(scenario.name, n)
    shot = scenario.make_shot(n)
    on = _support_nodes(shot.machine.limiter.grid_mask(shot.grid))
    rows = np.flatnonzero(on.any(axis=1))
    assert len(slabs) > 18
    for i0, i1, masks in slabs:
        assert rows[0] <= i0 < i1 <= rows[-1] + 1
        for mask in masks:
            reach = mask.copy()
            reach[:, 1:] |= mask[:, :-1]
            reach[:, :-1] |= mask[:, 1:]
            assert not (reach & ~on).any()


@pytest.mark.parametrize(("scenario", "n"), CASES)
def test_the_widest_plasma_meets_the_full_response(scenario, n):
    """A plasma filling every in-limiter node — the widest mask a search
    can return — gets the same bits from ``green_``'s basis product and
    from the ``fitdelz`` and warm-up products (its currents, their
    z-derivative one node past the in-limiter columns, its prediction)
    on the support's response as on the full one."""
    shot = scenario.make_shot(n)
    grid = shot.grid
    solvers = [EfitSolver.for_scenario(scenario, n, shot=shot) for _ in range(2)]
    solvers[1].grid_response = shot.diagnostics.response_to_grid(grid)
    inside = solvers[0].statics.inside_limiter
    slabs = fitting.basis_current_slabs(
        grid, [np.full(grid.shape, 0.5)], [inside], solvers[0].pp_basis, solvers[0].ffp_basis
    )
    m = shot.measurements
    weights = 1.0 / m.uncertainties[None]
    data = m.values[None] * weights
    coeffs = np.linspace(-1.0, 2.0, slabs.matrix.shape[1])[None] * m.ip
    offset = slabs.i0 * grid.nh
    basis = slabs.matrix[:, :, slabs.lo - offset : slabs.hi - offset]
    got = []
    for solver in solvers:
        product = fitting.basis_response(solver.grid_response[:, slabs.lo : slabs.hi], basis)
        for warm in (False, True):
            residual = data - weights * (product[0] @ coeffs[0])
            pcurr = solver._plasma_currents(
                slabs, coeffs, weights, data, residual, np.array([warm]), None
            )
            got.append((product.tobytes(), pcurr.tobytes(), residual.tobytes()))
    assert got[:2] == got[2:]
    assert np.flatnonzero(solvers[0].grid_response.any(axis=0)).size < grid.size


def _machine_with_limiter(machine, r, z):
    return dataclasses.replace(machine, limiter=Limiter(np.asarray(r), np.asarray(z)))


def test_a_limiter_enclosing_no_node_builds_and_its_fit_fails_as_before():
    shot = get_scenario("g186610").make_shot(33)
    grid = shot.grid
    r0, z0 = grid.r[10] + 0.3 * grid.dr, grid.z[10] + 0.3 * grid.dz
    machine = _machine_with_limiter(
        shot.machine, [r0, r0 + 0.2 * grid.dr, r0], [z0, z0, z0 + 0.2 * grid.dz]
    )
    solver = EfitSolver(machine, shot.diagnostics, grid)
    assert not solver.statics.inside_limiter.any()
    assert _same_bits(solver.grid_response, np.zeros((shot.measurements.n_measurements, grid.size)))
    with pytest.raises(BoundaryError, match="^no interior grid node inside the limiter$"):
        solver.fit(shot.measurements)


def test_a_limiter_covering_the_grid_keeps_the_full_response():
    shot = get_scenario("g186610").make_shot(33)
    machine = _machine_with_limiter(shot.machine, [0.1, 5.0, 5.0, 0.1], [-5.0, -5.0, 5.0, 5.0])
    solver = EfitSolver(machine, shot.diagnostics, shot.grid)
    assert solver.statics.inside_limiter.all()
    assert solver.statics.response_support == (slice(0, 33), slice(0, 33))
    assert _same_bits(solver.grid_response, shot.diagnostics.response_to_grid(shot.grid))
