"""The width-one kernels against the bodies they replaced.

The flux step used to lay its current stack out as ``(nw*nh, B)``
columns, negate it for the paper's ``psi = -sum(G * pcurr)`` kernels,
negate the edge sums back, scatter them onto a full-grid boundary field
and solve the interior on a ``(B, ni, nj)`` block transposed into mode
order and back; ``RZGrid.shift_z`` gathered from a stride-trick window
over a zero-padded copy; and the stacked least squares went through
numpy's ``norm``, ``qr`` and ``solve``.  The paper's table sums had a
flux step of their own, a per-slice template (the kernel's full-grid
boundary field, a full-grid right-hand side, the solver's one-slice
``solve``), which made every synthetic shot's truth.  Those bodies are
kept here as oracles, and the kernels that replaced them must reproduce
them bit for bit — on the currents, shifts and systems real fits hand
them (serial, batch-of-eight and warm-chained, every scenario), at
widths 1, 3 and 8, on the corner cases Hypothesis draws, and on the
truth shots themselves.

The least-squares oracle runs in another library: numpy's ``qr`` and
``solve`` against scipy's ``dgeqrf`` and ``dtrtrs``, each from the
OpenBLAS its wheel bundles.  Their bits agree for the builds pinned in
``.github/constraints.txt``, which the scenario-matrix lanes install; a
least-squares failure under other builds, with the code unchanged, is a
difference between those libraries, not a regression of the fit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst, idst
from scipy.linalg.lapack import dpttrs

import repro.efit.fitting as fitting
from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.fitting import EfitSolver
from repro.efit.grid import RZGrid
from repro.efit.operators import build_edge_operator, cached_edge_operator
from repro.efit.pflux import (
    PfluxStructured,
    PfluxVectorized,
    TableSumEdgeOperator,
    boundary_flux_reference,
    boundary_flux_vectorized,
)
from repro.efit.response import solve_lsq_stack
from repro.efit.solvers import DSTSolver
from repro.efit.tables import cached_boundary_tables
from repro.errors import FittingError
from repro.scenarios import get_scenario, scenario_names
from repro.utils.constants import MU0

METHODS = ("toeplitz", "lowrank")
WIDTHS = (1, 3, 8)


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# -- the oracle: the column-layout flux step --------------------------------------------
def _ref_row_support(a):
    nonzero = (a != 0.0).reshape(a.size)
    if not nonzero.any():
        return 0, 0
    width = a.size // a.shape[0]
    first = int(nonzero.argmax())
    last = a.size - 1 - int(nonzero[::-1].argmax())
    return first // width, last // width + 1


def _ref_vertical(vertical, p3, i0):
    k = p3.shape[0]
    x_hat = sfft.rfft(p3, n=vertical.m, axis=1)
    y = np.matmul(
        vertical.spectra.transpose(1, 0, 2)[:, :, i0 : i0 + k],
        x_hat.view(np.float64).transpose(1, 0, 2),
    )
    return sfft.irfft(y.view(np.complex128), n=vertical.m, axis=0)[: vertical.nh]


def _ref_horizontal_rhs(p3):
    k, nh, nb = p3.shape
    q = np.empty((k, nh, 2 * nb))
    q[:, :, :nb] = p3
    q[:, :, nb:] = p3[:, ::-1]
    return q


def _ref_horizontal(op, q, i0):
    nw = op.grid.nw
    k, nh, width = q.shape
    if op.method == "toeplitz":
        rows = op._horizontal[i0 : i0 + k].reshape(k * nh, nw)
        return (rows.T @ q.reshape(k * nh, width))[1:-1]
    cols = slice(i0, i0 + k)
    by_offset = q.transpose(1, 0, 2)
    near = op._dense_block.reshape(nw - 2, op._dense_idx.size, nw)
    acc = np.matmul(near.transpose(1, 0, 2)[:, :, cols], by_offset[op._dense_idx]).sum(axis=0)
    for idx, u_pack, w_pack in op._buckets:
        mid = np.matmul(w_pack[:, :, cols], by_offset[idx])
        acc += np.matmul(u_pack, mid).sum(axis=0)
    return acc


def _ref_apply(op, x):
    """``EdgeOperator.apply`` on a ``(nw*nh, B)`` column stack."""
    nw, nh = op.grid.nw, op.grid.nh
    nb = x.shape[1]
    out = np.empty((op.n_edge, nb))
    lo, hi = _ref_row_support(x)
    i0, i1 = lo // nh, -(-hi // nh)
    if i0 == i1:
        out[...] = 0.0
        return out
    if op.method == "dense":
        cols = slice(i0 * nh, i1 * nh)
        np.matmul(op.matrix[:, cols], x[cols], out=out)
        return out
    p3 = x.reshape(nw, nh, nb)[i0:i1]
    vert = _ref_vertical(op._vertical, p3, i0)
    bt = _ref_horizontal(op, _ref_horizontal_rhs(p3), i0)
    np.negative(vert[:, 0], out=out[:nh])
    np.negative(vert[:, 1], out=out[nh : 2 * nh])
    np.negative(bt[:, :nb], out=out[2 * nh : 2 * nh + nw - 2])
    np.negative(bt[:, nb:], out=out[2 * nh + nw - 2 :])
    return out


def _ref_subtract_dirichlet(gs, rhs, psi_boundary):
    grid = gs.grid
    ni, nj = grid.nw - 2, grid.nh - 2
    coefficients = np.array([[gs.a_minus[0]], [gs.a_plus[-1]]]) / grid.dr**2
    rows = psi_boundary[:, :: ni + 1, 1:-1] * coefficients
    cols = psi_boundary[:, 1:-1, :: nj + 1] / grid.dz**2
    cols[:, :: ni - 1] += rows[:, :, :: nj - 1]
    rhs[:, :: ni - 1, 1:-1] -= rows[:, :, 1:-1]
    rhs[:, :, :: nj - 1] -= cols
    return rhs


def _ref_dst_interior(solver, b):
    b_hat = dst(b, type=1, axis=2, norm="ortho")
    nb = b_hat.shape[0]
    ni, nj = solver._ni, solver._nj
    modes = np.empty((nb, nj, ni))
    np.multiply(b_hat.transpose(0, 2, 1), solver._rhs_scale, out=modes)
    y, info = dpttrs(*solver._factors, modes.reshape(nb, nj * ni).T, overwrite_b=1)
    assert info == 0
    x = y.T.reshape(nb, nj, ni)
    x *= solver._solution_scale
    return idst(x.transpose(0, 2, 1), type=1, axis=2, norm="ortho")


def _ref_compute_batch(step, pcurr, psi_external):
    grid = step.grid
    nw, nh = grid.nw, grid.nh
    nb = len(pcurr)
    edge_i = np.concatenate(
        [np.zeros(nh, int), np.full(nh, nw - 1), np.arange(1, nw - 1), np.arange(1, nw - 1)]
    )
    edge_j = np.concatenate(
        [np.arange(nh), np.arange(nh), np.zeros(nw - 2, int), np.full(nw - 2, nh - 1)]
    )
    pcurr_neg = np.empty((grid.size, nb))  # C-ordered, as its buffer was
    np.multiply(pcurr.reshape(nb, grid.size).T, -1.0, out=pcurr_neg)
    rhs = np.multiply(-(MU0 / grid.cell_area) * grid.rr, pcurr)
    edge = _ref_apply(step.operator, pcurr_neg)
    psi_bound = np.zeros((nb, nw, nh))
    psi_bound.reshape(nb, grid.size)[:, edge_i * nh + edge_j] = edge.T
    b = _ref_subtract_dirichlet(step.solver.operator, np.array(rhs[:, 1:-1, 1:-1]), psi_bound)
    x = _ref_dst_interior(step.solver, b)
    psi = np.empty((nb, nw, nh))
    psi[:, 0, :] = psi_bound[:, 0, :]
    psi[:, -1, :] = psi_bound[:, -1, :]
    psi[:, :, 0] = psi_bound[:, :, 0]
    psi[:, :, -1] = psi_bound[:, :, -1]
    psi[:, 1:-1, 1:-1] = x
    if psi_external is None:
        return psi
    return np.add(psi, psi_external)


# -- the oracle: the per-slice flux step on the paper's table sums ------------------------
def _ref_reference_field(tables, pcurr):
    grid = tables.grid
    flat = boundary_flux_reference(tables.fortran_view(), grid.flatten(pcurr), grid.nw, grid.nh)
    return grid.unflatten(flat)


_REF_KERNELS = {"vectorized": boundary_flux_vectorized, "reference": _ref_reference_field}


def _ref_pflux_compute(grid, tables, solver, kernel, pcurr, psi_external=None):
    """The flux step's per-slice template before the table sums became an
    edge operator: the kernel's full-grid boundary field of ``-pcurr``
    (the kernels keep the paper's ``-sum(G * pcurr)`` sign), the
    full-grid right-hand side and the solver's one-slice ``solve``, plus
    the external flux."""
    pcurr = np.asarray(pcurr, dtype=float)
    psi_edge = _REF_KERNELS[kernel](tables, -pcurr)
    rhs = -(MU0 / grid.cell_area) * grid.rr * pcurr
    psi_plasma = solver.solve(rhs, psi_edge)
    if psi_external is None:
        return psi_plasma
    return psi_plasma + np.asarray(psi_external, dtype=float)


class _RefPfluxVectorized:
    """``PfluxVectorized`` as the truth generators built it: the template
    on the BLAS table sums."""

    #: Steps computed, so a generator that stops building it is noticed.
    calls = 0

    def __init__(self, grid, tables, solver):
        self.grid, self.tables, self.solver = grid, tables, solver

    def compute(self, pcurr, psi_external=None):
        _RefPfluxVectorized.calls += 1
        return _ref_pflux_compute(
            self.grid, self.tables, self.solver, "vectorized", pcurr, psi_external
        )


def _truth_and_coil_flux(shot):
    truth = shot.truth
    return truth.pcurr, shot.machine.psi_from_coils(shot.grid, truth.coil_currents)


# -- the oracle: the stride-trick vertical shift -------------------------------------------
def _ref_shift_z(grid, field, delz):
    field = np.asarray(field)
    lead = field.shape[:-2]
    delz = np.asarray(delz, dtype=float)
    s = (np.zeros(lead) + delz / grid.dz).reshape(-1)
    n, width = s.size, field.shape[-2] * grid.nh
    offset = np.clip(np.ceil(s), -grid.nh, grid.nh)
    frac = (offset - s)[:, None]
    shift = offset.astype(int)
    pad = int(np.abs(shift).max()) + 1
    padded = np.zeros((n, width + 2 * pad))
    padded[:, pad:-pad] = field.reshape(n, width)
    step = padded.itemsize
    windows = np.ndarray(
        (n, 2 * pad + 1, width), buffer=padded, strides=(padded.strides[0], step, step)
    )
    fields, start = np.arange(n), pad - shift
    out = windows[fields, start]
    out *= 1.0 - frac
    upper = windows[fields, start + 1]
    upper *= frac
    out += upper
    out = out.reshape(field.shape)
    j_src = np.arange(grid.nh) - s.reshape(lead + (1, 1))
    np.copyto(out, 0.0, where=(j_src < 0.0) | (j_src > grid.nh - 1))
    return out


# -- the oracle: numpy's stacked QR ------------------------------------------------------------
def _ref_solve_lsq_stack(matrices, data, *, ridge):
    n_sys, m, n = matrices.shape
    norms = np.linalg.norm(matrices, axis=1)
    empty = norms == 0.0
    norms[empty] = 1.0
    stack = np.zeros((n_sys, m + n, n + 1))
    np.divide(matrices, norms[:, None, :], out=stack[:, :m, :n])
    stack[:, :m, n] = data
    diagonal = np.arange(n)
    stack[:, m + diagonal, diagonal] = np.where(empty, 1.0, math.sqrt(ridge))
    triangle = np.linalg.qr(stack, mode="r")
    try:
        scaled = np.linalg.solve(triangle[:, :n, :n], triangle[:, :n, n:])
    except np.linalg.LinAlgError as exc:
        raise FittingError("rank-deficient least-squares system: use ridge > 0") from exc
    return scaled[..., 0] / norms


# -- what real fits hand the kernels ------------------------------------------------------------
_CORPORA: dict[tuple[str, int], dict[str, list]] = {}


def _record(name: str, n: int = 65) -> dict[str, list]:
    """Every flux step, vertical shift and least-squares stack of a cold
    serial fit, a warm chain of four frames and a batch of eight cold
    slices of scenario ``name`` at ``n``^2, plus a cold fit with vessel
    currents in the least squares."""
    if (name, n) in _CORPORA:
        return _CORPORA[name, n]
    corpus = {"flux": [], "shift": [], "lsq": []}
    compute_batch, shift_z = PfluxStructured.compute_batch, RZGrid.shift_z

    def spy_flux(self, pcurr, psi_external=None):
        corpus["flux"].append((pcurr.copy(), None if psi_external is None else psi_external.copy()))
        return compute_batch(self, pcurr, psi_external)

    def spy_shift(self, field, delz):
        corpus["shift"].append((self, np.array(field), np.array(delz)))
        return shift_z(self, field, delz)

    def spy_lsq(matrices, data, *, ridge):
        corpus["lsq"].append((matrices.copy(), data.copy(), ridge))
        return solve_lsq_stack(matrices, data, ridge=ridge)

    sc = get_scenario(name)
    shot = sc.make_shot(n)
    frames = synthetic_slice_sequence(shot, 8, seed=37)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PfluxStructured, "compute_batch", spy_flux)
        mp.setattr(RZGrid, "shift_z", spy_shift)
        mp.setattr(fitting, "solve_lsq_stack", spy_lsq)
        solver = EfitSolver.for_scenario(sc, n, shot=shot)
        prev = solver.fit(shot.measurements, require_convergence=False)
        for frame in frames[:4]:
            prev = solver.fit(frame, psi_initial=prev.psi, require_convergence=False)
        engine = BatchFitEngine(
            shot.machine, shot.diagnostics, shot.grid, batch_size=8, **sc.solver_kwargs
        )
        engine.fit_many(frames, require_convergence=False)
        vessel = EfitSolver.for_scenario(sc, n, shot=shot, fit_vessel=True)
        vessel.fit(shot.measurements, require_convergence=False)
    corpus["grid"] = shot.grid
    _CORPORA[name, n] = corpus
    return corpus


_STEPS: dict = {}


def _step(grid: RZGrid, method: str) -> PfluxStructured:
    """A flux step on ``grid`` applying the cached ``method`` operator (the
    dense ground truth, which is never cached, built here once)."""
    key = (grid, method)
    if key not in _STEPS:
        tables = cached_boundary_tables(grid)
        build = build_edge_operator if method == "dense" else cached_edge_operator
        _STEPS[key] = PfluxStructured(grid, tables, DSTSolver(grid), build(tables, method))
    return _STEPS[key]


def _stacks(currents, width):
    """Consecutive groups of ``width`` recorded one-slice currents (and
    external fluxes), wrapping round at the end."""
    n = len(currents)
    for start in range(0, n, width):
        picks = [currents[(start + k) % n] for k in range(width)]
        yield np.stack([p for p, _ in picks]), np.stack([e for _, e in picks])


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", scenario_names())
def test_flux_step_matches_the_column_oracle(name, method, width):
    corpus = _record(name)
    step = _step(corpus["grid"], method)
    single = [(p[0], e[0]) for p, e in corpus["flux"] if len(p) == 1]
    assert len(single) >= 10
    for pcurr, external in _stacks(single, width):
        _assert_same_bits(
            step.compute_batch(pcurr, external), _ref_compute_batch(step, pcurr, external)
        )
    if width == 8:
        # The batch engine's own stacks, at every width its run passed through.
        batched = [(p, e) for p, e in corpus["flux"] if len(p) > 1]
        assert {len(p) for p, _ in batched} >= {8}
        for pcurr, external in batched:
            _assert_same_bits(
                step.compute_batch(pcurr, external), _ref_compute_batch(step, pcurr, external)
            )


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("method", ("dense",) + METHODS)
@pytest.mark.parametrize("n", [33, 65])
def test_every_operator_matches_the_column_oracle(n, method, width):
    """The dense operator too, and a second grid: a GEMM's bits follow its
    operands' layout — at 33^2 a batch of eight F-ordered columns rounds
    differently from the C-ordered column batch the flux step used to
    hand the operator.  So the dense operator hands its GEMM C-ordered
    columns whatever the input's layout, and ``apply`` on an F-ordered
    column batch gives the bits of its C-ordered copy."""
    corpus = _record("g186610", n)
    step = _step(corpus["grid"], method)
    single = [(p[0], e[0]) for p, e in corpus["flux"] if len(p) == 1]
    for pcurr, external in _stacks(single, width):
        _assert_same_bits(
            step.compute_batch(pcurr, external), _ref_compute_batch(step, pcurr, external)
        )
        # ``apply`` on a C-ordered column batch, the layout the flux step
        # used to hand it.
        columns = np.ascontiguousarray(pcurr.reshape(width, -1).T)
        want = _ref_apply(step.operator, columns)
        _assert_same_bits(step.operator.apply(columns), want)
        _assert_same_bits(step.operator.apply(np.asfortranarray(columns)), want)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("width", WIDTHS)
def test_flux_step_of_a_zero_stack_matches_the_oracle(method, width):
    step = _step(RZGrid(65, 65), method)
    grid = step.grid
    pcurr = np.zeros((width,) + grid.shape)
    external = np.random.default_rng(width).normal(size=pcurr.shape)
    for ext in (external, None):
        _assert_same_bits(step.compute_batch(pcurr, ext), _ref_compute_batch(step, pcurr, ext))
    columns = np.zeros((grid.size, width))
    _assert_same_bits(step.operator.apply(columns), _ref_apply(step.operator, columns))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("row", ["first", "last"])
def test_flux_step_with_currents_on_an_edge_interior_row(method, width, row):
    """Currents on the first or last interior row only: the operator's
    row window touches the box's edge and every Dirichlet strip's corner
    carries both of its terms."""
    step = _step(RZGrid(65, 65), method)
    grid = step.grid
    i = 1 if row == "first" else grid.nw - 2
    rng = np.random.default_rng(i + width)
    pcurr = np.zeros((width,) + grid.shape)
    pcurr[:, i, 1:-1] = rng.normal(size=(width, grid.nh - 2)) * 1e3
    external = rng.normal(size=pcurr.shape)
    for ext in (external, None):
        _assert_same_bits(step.compute_batch(pcurr, ext), _ref_compute_batch(step, pcurr, ext))
    _assert_same_bits(
        step.compute(pcurr[0], external[0]), _ref_compute_batch(step, pcurr[:1], external[:1])[0]
    )


# -- the table sums behind the one flux step -------------------------------------------
@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("name", scenario_names())
def test_table_sum_step_matches_the_per_slice_template(name, n):
    """The one step on the BLAS table sums (``PfluxVectorized``) is the
    template's bytes on the scenario's truth currents, with and without
    the coil flux."""
    shot = get_scenario(name).make_shot(n)
    grid = shot.grid
    tables = cached_boundary_tables(grid)
    pcurr, external = _truth_and_coil_flux(shot)
    step = PfluxVectorized(grid, tables, DSTSolver(grid))
    for ext in (external, None):
        want = _ref_pflux_compute(grid, tables, step.solver, "vectorized", pcurr, ext)
        _assert_same_bits(step.compute(pcurr, ext), want)


@pytest.mark.parametrize("n", [17, 33])
def test_reference_step_matches_the_per_slice_template(n):
    """The loop-for-loop kernel behind the one step, on g186610's truth
    currents and on random currents over the whole grid."""
    shot = get_scenario("g186610").make_shot(n)
    grid = shot.grid
    tables = cached_boundary_tables(grid)
    solver = DSTSolver(grid)
    step = PfluxStructured(grid, tables, solver, TableSumEdgeOperator(tables, "reference"))
    pcurr, external = _truth_and_coil_flux(shot)
    noise = np.random.default_rng(n).normal(size=grid.shape) * 1e3
    for currents in (pcurr, noise):
        for ext in (external, None):
            want = _ref_pflux_compute(grid, tables, solver, "reference", currents, ext)
            _assert_same_bits(step.compute(currents, ext), want)


def _uncached_shot(sc, n, monkeypatch):
    """``sc.make_shot(n)`` built afresh, past every shot cache, with
    ``monkeypatch``'s replacements in force."""
    import repro.efit.measurements as measurements
    import repro.scenarios.shots as shots

    for module in (measurements, shots):
        for attr, value in list(vars(module).items()):
            if hasattr(value, "cache_clear"):
                monkeypatch.setattr(module, attr, value.__wrapped__)
    return sc.make_shot(n)


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("name", scenario_names())
def test_truth_shots_match_the_template_generators(name, n):
    """Each synthetic shot's truth flux, truth currents and measurement
    values are the bytes the generators made on the per-slice template."""
    import repro.efit.forward as forward
    import repro.efit.pflux as pflux

    sc = get_scenario(name)
    shot = sc.make_shot(n)
    calls = _RefPfluxVectorized.calls
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "PfluxVectorized", _RefPfluxVectorized)
        mp.setattr(pflux, "PfluxVectorized", _RefPfluxVectorized)
        want = _uncached_shot(sc, n, mp)
    assert want is not shot and _RefPfluxVectorized.calls > calls
    _assert_same_bits(shot.truth.psi, want.truth.psi)
    _assert_same_bits(shot.truth.pcurr, want.truth.pcurr)
    _assert_same_bits(shot.measurements.values, want.measurements.values)


@pytest.mark.parametrize("name", scenario_names())
def test_shift_z_matches_the_window_oracle(name):
    shifts = _record(name)["shift"]
    assert shifts
    for grid, field, delz in shifts:
        _assert_same_bits(grid.shift_z(field, delz), _ref_shift_z(grid, field, delz))


@pytest.mark.parametrize("name", scenario_names())
def test_least_squares_matches_numpy_qr(name):
    """Byte equality with numpy's QR holds for the numpy and scipy builds
    of ``.github/constraints.txt`` (see the module docstring)."""
    systems = _record(name)["lsq"]
    assert any(m.shape[2] > 6 for m, _, _ in systems)  # the vessel fit's columns
    for matrices, data, ridge in systems:
        _assert_same_bits(
            solve_lsq_stack(matrices, data, ridge=ridge),
            _ref_solve_lsq_stack(matrices, data, ridge=ridge),
        )
        # ... and each system of a stack alone.
        for b in range(len(matrices)):
            _assert_same_bits(
                solve_lsq_stack(matrices[b : b + 1], data[b : b + 1], ridge=ridge),
                _ref_solve_lsq_stack(matrices[b : b + 1], data[b : b + 1], ridge=ridge),
            )


_GRID = RZGrid(9, 13)


@st.composite
def _shifts(draw):
    """A field or a stack of fields on ``_GRID`` and a shift for it: 0,
    one cell either way, the whole height either way or beyond, a
    fraction, or one of those per field."""
    stacked = draw(st.booleans())
    n_fields = draw(st.integers(1, 4)) if stacked else 1
    n_rows = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**31))
    nh, dz = _GRID.nh, _GRID.dz
    kinds = st.sampled_from(["zero", "cell", "height", "beyond", "fraction"])

    def one(kind, sign, frac):
        return sign * {
            "zero": 0.0,
            "cell": dz,
            "height": nh * dz,
            "beyond": (nh + 1.5) * dz,
            "fraction": frac * dz,
        }[kind]

    fracs = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)
    signs = st.sampled_from([-1.0, 1.0])
    if stacked and draw(st.booleans()):
        delz = np.array(
            [one(draw(kinds), draw(signs), draw(fracs)) for _ in range(n_fields)]
        )
    else:
        delz = one(draw(kinds), draw(signs), draw(fracs))
    field = np.random.default_rng(seed).normal(size=(n_rows, nh))
    if stacked:
        field = np.random.default_rng(seed).normal(size=(n_fields, n_rows, nh))
    return field, delz


@settings(max_examples=200, deadline=None)
@given(_shifts())
def test_shift_z_matches_the_window_oracle_on_drawn_shifts(case):
    field, delz = case
    _assert_same_bits(_GRID.shift_z(field, delz), _ref_shift_z(_GRID, field, delz))


@st.composite
def _systems(draw):
    n_sys = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    m = draw(st.integers(n + 1, 3 * n + 6))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-6, 6, size=n)
    matrices = rng.normal(size=(n_sys, m, n)) * scales
    zero_column = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if zero_column is not None:
        matrices[:, :, zero_column] = 0.0
    data = rng.normal(size=(n_sys, m))
    ridge = draw(st.sampled_from([0.0, 1e-10, 1e-3]))
    return matrices, data, ridge


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_least_squares_matches_numpy_qr_on_drawn_stacks(case):
    matrices, data, ridge = case
    _assert_same_bits(
        solve_lsq_stack(matrices, data, ridge=ridge),
        _ref_solve_lsq_stack(matrices, data, ridge=ridge),
    )
