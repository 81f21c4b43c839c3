"""Property tests over the scenario zoo: GS residuals and engine relations.

Two invariants hold for *every* scenario, whatever the noise draw or the
worker count:

* The ground-truth equilibrium satisfies the discrete Grad-Shafranov
  equation to discretisation accuracy inside the plasma (the coil flux
  is harmonic there, so the plasma current is the only source).
* The entry points relate as DESIGN.md's relation table declares: same
  operator and same apply width — a bare solver, ``engine.solver.fit``,
  a served stream and a batch of one (width 1); two engines, or an
  engine and the fleet, at equal ``batch_size`` — is bit-identical;
  anything else agrees to round-off with equal iterate counts.
  ``test_batch_engine_matches_single_solver`` is the one place the
  relations between engine *kinds* are asserted.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import repro.efit.fitting as fitting
from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.fitting import EfitSolver
from repro.efit.operators import GradShafranovOperator
from repro.obs import TraceHooks, TraceRecorder
from repro.parallel import CRASH_RATE_ENV, ParallelFitEngine, SchedulerConfig
from repro.scenarios import get_scenario, scenario_names
from repro.utils.constants import MU0
from tests.conftest import refuse_measured_seeds
from tests.serve.conftest import serve_reports

N = 33
N_SLICES = 4
BATCH_SIZE = 2

#: Scenarios exercised here; g186610/solovev engine identity is already
#: pinned in tests/parallel, so this sweep focuses on the new machines.
SCENARIOS = ("spherical-torus", "double-null", "single-null")

#: Grid of the relation test where 33^2 will not do: Solov'ev's residual
#: plateaus above tol there, and the relations are claimed for converged
#: slices.
RELATION_GRID = {"solovev": 65}
#: Declared round-off bound between the bit-identical groups: max |dpsi|
#: over the flux span.
ROUND_OFF = 1e-9
#: Batch sizes of the grouping test: six slices as 2+2+2, 3+3 and 6.
GROUPINGS = (2, 3, 6)


@pytest.fixture(autouse=True)
def no_crash_env(monkeypatch):
    monkeypatch.delenv(CRASH_RATE_ENV, raising=False)


# ---------------------------------------------------------------- GS residual


def _plasma_interior(mask: np.ndarray) -> np.ndarray:
    """Plasma cells whose full 5-point stencil stays inside the plasma."""
    m = ndimage.binary_erosion(mask, iterations=2)
    m[0, :] = m[-1, :] = False
    m[:, 0] = m[:, -1] = False
    return m


@pytest.mark.parametrize(
    "name", ["g186610", "solovev", "spherical-torus", "double-null", "single-null"]
)
def test_truth_satisfies_gs_in_plasma(name):
    """Delta* psi = -mu0 R j_phi holds to O(h^2) inside every scenario's
    ground-truth plasma (the coil field is harmonic there)."""
    shot = get_scenario(name).make_shot(N)
    grid = shot.grid
    truth = shot.truth
    rhs = -(MU0 / grid.cell_area) * grid.rr * truth.pcurr
    residual = GradShafranovOperator(grid).residual(truth.psi, rhs)
    scale = np.abs(rhs).max()
    interior = _plasma_interior(truth.boundary.mask)
    assert interior.sum() > 50
    assert np.abs(residual[interior]).max() <= 5e-3 * scale


@given(
    noise=st.floats(min_value=1e-4, max_value=2e-3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=8, deadline=None)
def test_fitted_flux_satisfies_gs_for_any_noise(noise, seed):
    """Whatever the measurement noise, the reconstructed flux map still
    satisfies the discrete GS equation with its own fitted current."""
    sc = get_scenario("spherical-torus")
    shot = sc.shot_factory(N, noise=noise, seed=seed)
    result = EfitSolver.for_scenario(sc, shot=shot).fit(shot.measurements)
    assert result.converged
    grid = shot.grid
    rhs = -(MU0 / grid.cell_area) * grid.rr * result.pcurr
    residual = GradShafranovOperator(grid).residual(result.psi, rhs)
    scale = np.abs(rhs).max()
    interior = _plasma_interior(result.boundary.mask)
    assert np.abs(residual[interior]).max() <= 5e-3 * scale


# ------------------------------------------------------------ engine identity

_SERIAL_CACHE: dict[str, tuple] = {}


def _serial_reference(name: str):
    if name not in _SERIAL_CACHE:
        sc = get_scenario(name)
        shot = sc.make_shot(N)
        slices = synthetic_slice_sequence(shot, N_SLICES, seed=3)
        engine = BatchFitEngine.for_scenario(sc, shot=shot, batch_size=BATCH_SIZE)
        _SERIAL_CACHE[name] = (sc, shot, slices, engine.fit_many(slices))
    return _SERIAL_CACHE[name]


def _assert_identical(ours, refs):
    for a, b in zip(ours, refs, strict=True):
        assert a.converged and b.converged
        assert np.array_equal(a.psi, b.psi)  # bit-for-bit, not approx
        assert a.chi2 == b.chi2
        assert a.iterations == b.iterations


def _assert_round_off(ours, refs):
    for a, b in zip(ours, refs, strict=True):
        assert a.converged and b.converged
        assert np.max(np.abs(a.psi - b.psi)) <= ROUND_OFF * np.ptp(b.psi)
        assert a.chi2 == pytest.approx(b.chi2, rel=1e-9)
        assert a.iterations == b.iterations


@functools.cache
def _grouping_setup(name: str):
    """Six noisy slices reconstructed at every batch size of GROUPINGS."""
    sc = get_scenario(name)
    shot = sc.make_shot(RELATION_GRID.get(name, N))
    slices = synthetic_slice_sequence(shot, 6, seed=3)
    fits = {
        b: BatchFitEngine.for_scenario(sc, shot=shot, batch_size=b).fit_many(slices).results
        for b in GROUPINGS
    }
    return sc, shot, slices, fits


@pytest.mark.parametrize("name", scenario_names())
def test_batch_grouping_is_invisible(name):
    """How slices are grouped into batches cannot change the answer: any
    two batch sizes >= 2 agree to round-off with equal iterate counts.
    Not bit for bit — a GEMM's summation order depends on its column
    count, so B = 2 against B = 6 differs fifteen digits down on every
    operator (EXPERIMENTS.md "One flux step (PR 21)")."""
    _, _, _, fits = _grouping_setup(name)
    for b in GROUPINGS[1:]:
        _assert_round_off(fits[b], fits[GROUPINGS[0]])


@pytest.mark.parametrize("name", scenario_names())
def test_equal_batch_size_is_bit_identical(name):
    """The half of the grouping claim that holds by construction: a second
    engine at the same ``batch_size`` applies the same operator at the
    same width, so it returns the same bits (the fleet tests assert the
    same across processes)."""
    sc, shot, slices, fits = _grouping_setup(name)
    again = BatchFitEngine.for_scenario(sc, shot=shot, batch_size=3).fit_many(slices)
    _assert_identical(again.results, fits[3])


@functools.cache
def _relation_setup(name: str):
    """Three slices, a B = 2 engine (batches of two and of one), a B = 1
    engine and a bare solver."""
    sc = get_scenario(name)
    shot = sc.make_shot(RELATION_GRID.get(name, N))
    slices = synthetic_slice_sequence(shot, 3, seed=3)
    return (
        slices,
        BatchFitEngine.for_scenario(sc, shot=shot, batch_size=BATCH_SIZE),
        BatchFitEngine.for_scenario(sc, shot=shot, batch_size=1),
        EfitSolver.for_scenario(sc, shot=shot),
    )


@pytest.mark.parametrize(
    "name,warm",
    [
        pytest.param(name, warm, id=f"{name}-warm" if warm else name)
        for name in scenario_names()
        for warm in (False, True)
    ],
)
def test_batch_engine_matches_single_solver(name, warm):
    """The declared relations between the entry points (DESIGN.md), for
    every scenario, cold and warm-chained.

    Bit-identical: a bare ``EfitSolver``, ``engine.solver.fit``, a
    a served stream and ``fit_many(batch_size=1)`` — one Picard loop
    applying one cached operator object one column at a time.  To
    round-off, with equal iterate counts: ``fit_many`` at B >= 2 (the
    same operator applied to a wider column stack)."""
    slices, engine, of_one, bare = _relation_setup(name)
    solver = engine.solver
    assert bare.pflux.operator is solver.pflux.operator is engine.edge_op

    serial = []
    for m in slices:
        prev = serial[-1] if warm and serial else None
        serial.append(
            solver.fit(
                m,
                psi_initial=prev.psi if prev else None,
                coeffs_initial=prev.history[-1].coefficients if prev else None,
            )
        )
    served = [r.result for r in serve_reports(engine, slices, warm_start=warm)]
    _assert_identical(served, serial)
    assert [r.warm_start for r in serial] == [warm and i > 0 for i in range(len(slices))]

    # fit_many seeds psi only, so its serial twin does too.
    seeds = [None] + [r.psi if warm else None for r in serial[:-1]]
    on_engine = (
        [solver.fit(m, psi_initial=seed) for m, seed in zip(slices, seeds)]
        if warm
        else serial
    )
    _assert_identical(of_one.fit_many(slices, psi_initial=seeds).results, on_engine)

    many = engine.fit_many(slices, psi_initial=seeds).results
    _assert_round_off(many[:BATCH_SIZE], on_engine[:BATCH_SIZE])
    _assert_identical(many[BATCH_SIZE:], on_engine[BATCH_SIZE:])  # the ragged tail of one
    _assert_identical(
        [bare.fit(m, psi_initial=seed) for m, seed in zip(slices, seeds)], on_engine
    )


# ------------------------------------------------- widths that change mid-run
#
# The pre-flux half of an iterate runs over the slices of a batch still
# iterating, so its products change width whenever one converges, and
# iterate 1 searches only the slices whose seed did not already bring a
# boundary.  DESIGN.md's two rows still hold: the same batches again are
# bit-identical, the serial solver agrees to round-off with equal iterate
# counts, and a batch of one is the serial solver.


def _assert_relations(name, seeds, slices, **solver_kwargs):
    """Both rows of the relation table for one batch of ``slices`` seeded
    with ``seeds``; returns the batch's results."""
    sc = get_scenario(name)
    shot = sc.make_shot(RELATION_GRID.get(name, N))
    width = len(slices)

    def engine(batch_size):
        return BatchFitEngine.for_scenario(sc, shot=shot, batch_size=batch_size, **solver_kwargs)

    batch = engine(width).fit_many(slices, psi_initial=seeds).results
    _assert_identical(engine(width).fit_many(slices, psi_initial=seeds).results, batch)
    serial = engine(1)
    one_by_one = serial.fit_many(slices, psi_initial=seeds).results
    _assert_identical(
        [serial.solver.fit(m, psi_initial=seed) for m, seed in zip(slices, seeds)], one_by_one
    )
    _assert_round_off(batch, one_by_one)
    return batch


@functools.cache
def _converged(name: str, n_slices: int):
    """Noisy slices of ``name`` and their converged serial fits."""
    sc = get_scenario(name)
    shot = sc.make_shot(RELATION_GRID.get(name, N))
    slices = synthetic_slice_sequence(shot, n_slices, seed=5)
    solver = EfitSolver.for_scenario(sc, shot=shot)
    return slices, [solver.fit(m) for m in slices]


@pytest.mark.parametrize("name", scenario_names())
def test_batch_width_shrinks_as_slices_converge(name):
    """Slices that leave a batch at three different iterates: two cold,
    one seeded with its own converged flux (done after an iterate or
    two) and one with its neighbour's (a few iterates)."""
    slices, fits = _converged(name, 4)
    seeds = [None, fits[1].psi, None, fits[2].psi]
    batch = _assert_relations(name, seeds, slices)
    assert len({r.iterations for r in batch}) >= 3


@pytest.mark.parametrize("name", scenario_names())
def test_batch_mixes_trusted_untrusted_and_cold_seeds(monkeypatch, name):
    """A trusted seed, one whose boundary search fails (a flat map: it is
    replaced by the measured cold start) and none: the batch starts with
    one trust probe on the stack of the callers' seeds, which the flat map
    makes raise, so each is searched alone, then one probe on the stack of
    the two measured seeds; iterate 1 reuses the probes' searches, so its
    first search is iterate 2's."""
    slices, fits = _converged(name, 3)
    seeds = [fits[0].psi, np.zeros_like(fits[0].psi), None]
    batch = _assert_relations(name, seeds, slices)
    assert [r.warm_start for r in batch] == [True, False, False]

    widths = []
    search = fitting.find_boundaries

    def spy(grid, psi, *args, **kwargs):
        widths.append(len(psi))
        return search(grid, psi, *args, **kwargs)

    monkeypatch.setattr(fitting, "find_boundaries", spy)
    sc = get_scenario(name)
    shot = sc.make_shot(RELATION_GRID.get(name, N))
    engine = BatchFitEngine.for_scenario(sc, shot=shot, batch_size=3)
    results = engine.fit_many(slices, psi_initial=seeds).results
    # The callers' stacked probe and its redo map by map, the measured
    # seeds' stacked probe, then one stacked search per iterate from
    # iterate 2 on.
    assert widths[:4] == [2, 1, 1, 2]
    assert len(widths) == 4 + max(r.iterations for r in results) - 1


@pytest.mark.parametrize("name", scenario_names())
def test_batch_fits_the_vessel(name):
    """Vessel-current fitting inside a batch: every slice's augmented
    least squares runs on its own block of the batch's product."""
    if name == "solovev":
        pytest.skip("the vessel fit does not converge on Solov'ev's analytic shot")
    slices, _ = _converged(name, 3)
    batch = _assert_relations(name, [None] * 3, slices, fit_vessel=True)
    assert all(r.vessel_currents is not None and r.vessel_currents.any() for r in batch)


@pytest.mark.parametrize("name", scenario_names())
def test_batch_mixes_phases_when_a_seed_is_revoked(monkeypatch, name):
    """Slices of one batch in different phases of the same iterate: the
    first slice's trusted seed (its converged flux scaled by 1.5, the
    seed that trips the divergence guard in a serial fit) takes
    least-squares steps while its cold companions, on the filament start,
    hold the warm-up shape, then falls back to the warm-up while they take
    least-squares steps.  Both rows of the relation table hold, and the
    fallback fires once."""
    slices, fits = _converged(name, 3)
    refuse_measured_seeds(monkeypatch)
    seeds = [1.5 * fits[0].psi, None, None]
    phases = []
    plasma_currents = fitting.EfitSolver._plasma_currents

    def spy(self, slabs, coeffs, weights, weighted_data, weighted_residual, warm, vessel):
        phases.append(warm.copy())
        return plasma_currents(
            self, slabs, coeffs, weights, weighted_data, weighted_residual, warm, vessel
        )

    monkeypatch.setattr(fitting.EfitSolver, "_plasma_currents", spy)
    batch = _assert_relations(name, seeds, slices)
    assert not batch[0].warm_start
    assert any(warm[0] and not warm[1:].any() for warm in phases if len(warm) == 3)
    assert any(not warm[0] and warm[1:].all() for warm in phases if len(warm) == 3)

    sc = get_scenario(name)
    recorder = TraceRecorder()
    engine = BatchFitEngine.for_scenario(
        sc, shot=sc.make_shot(RELATION_GRID.get(name, N)), batch_size=3,
        hooks=TraceHooks(recorder),
    )  # fmt: skip
    again = engine.fit_many(slices, psi_initial=seeds).results
    _assert_identical(again, batch)
    fallbacks = [e for e in recorder.events() if e.name == "warm_start_fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0].attributes["iteration"] < again[0].iterations


@pytest.mark.parametrize("name", scenario_names())
def test_search_memo_is_read_only_and_never_pickled(name):
    """What the boundary search keeps on a limiter — its window, the wall
    samples' stencil, the polygon's edges — is read-only (every solver on
    the machine shares it) and stays out of the machine's pickle (the
    fleet pickles the machine into every worker's arguments)."""
    sc = get_scenario(name)
    shot = sc.make_shot(N)
    machine = dataclasses.replace(shot.machine, limiter=dataclasses.replace(shot.machine.limiter))
    blob = pickle.dumps(machine)
    EfitSolver(machine, shot.diagnostics, shot.grid).fit(shot.measurements, require_convergence=False)
    memo = vars(machine.limiter)["_memo"]
    assert {"edges", "boundary_search"} <= {key[0] for key in memo}
    for value in memo.values():
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable
    assert pickle.dumps(machine) == blob
    assert "_memo" not in vars(pickle.loads(blob).limiter)


@given(
    name=st.sampled_from(SCENARIOS),
    workers=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=9, deadline=None)
def test_parallel_is_bit_identical_to_serial(name, workers):
    """For any scenario, worker count and completion order, the parallel
    merge returns the serial engine's exact numbers."""
    sc, shot, slices, serial = _serial_reference(name)
    config = SchedulerConfig(workers=workers, transport="inline")
    with ParallelFitEngine.for_scenario(
        sc, shot=shot, batch_size=BATCH_SIZE, config=config
    ) as engine:
        parallel = engine.fit_many(slices)
    assert len(parallel.results) == len(serial.results) == N_SLICES
    for ours, ref in zip(parallel.results, serial.results):
        assert np.array_equal(ours.psi, ref.psi)  # bit-for-bit, not approx
        assert ours.chi2 == ref.chi2
        assert ours.iterations == ref.iterations
        assert ours.converged and ref.converged
    assert parallel.stats.total_iterations == serial.stats.total_iterations
