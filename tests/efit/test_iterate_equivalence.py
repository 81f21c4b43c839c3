"""The iterate's body against what it replaced.

PR 23 rewrote ``steps_`` array-at-a-time on the block of rows and columns
around the in-limiter nodes and moved ``current_`` / ``green_`` onto the
grid rows the plasma occupies.  The search it replaced is kept here, body
for body, as the oracle: on every psi a reconstruction visits, the new
:func:`find_boundary` must return the same :class:`BoundaryResult` field
for field — floats bit-identical — and the slab arithmetic must agree
with the full-grid formulas to round-off.

The one intended difference is *which* saddles are looked at: the old
search kept the six flattest saddles of the whole grid and only then
asked whether they were inside the vessel; the new one asks first.  On
every psi recorded here the six flattest already held every admissible
saddle, so the two agree exactly; ``TestTruncation`` builds a psi on
which they do not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import repro.efit.fitting as fitting
from repro.batch import synthetic_slice_sequence
from repro.efit.boundary import (
    BoundaryResult,
    _find_axes,
    _geometry_for,
    _xpoint_candidates,
    find_boundaries,
    find_boundary,
    find_xpoints,
)
from repro.efit.current import basis_current_matrix
from repro.efit.fitting import EfitSolver
from repro.efit.greens import greens_psi
from repro.efit.grid import RZGrid
from repro.efit.machine import Limiter
from repro.errors import BoundaryError
from repro.scenarios import get_scenario, scenario_names


# -- the oracle: steps_ as of PR 22 ------------------------------------------------
def _ref_quadratic_refine(grid, field, i, j):
    f = field
    fx = (f[i + 1, j] - f[i - 1, j]) / 2.0
    fy = (f[i, j + 1] - f[i, j - 1]) / 2.0
    fxx = f[i + 1, j] - 2.0 * f[i, j] + f[i - 1, j]
    fyy = f[i, j + 1] - 2.0 * f[i, j] + f[i, j - 1]
    fxy = (f[i + 1, j + 1] - f[i + 1, j - 1] - f[i - 1, j + 1] + f[i - 1, j - 1]) / 4.0
    det = fxx * fyy - fxy * fxy
    if abs(det) < 1e-300:
        return float(grid.r[i]), float(grid.z[j]), float(f[i, j])
    dx = -(fyy * fx - fxy * fy) / det
    dy = -(fxx * fy - fxy * fx) / det
    if abs(dx) > 1.0 or abs(dy) > 1.0:
        return float(grid.r[i]), float(grid.z[j]), float(f[i, j])
    value = f[i, j] + 0.5 * (fx * dx + fy * dy)
    return (
        float(grid.r[i] + dx * grid.dr),
        float(grid.z[j] + dy * grid.dz),
        float(value),
    )


def _ref_find_axis(grid, psi, limiter, sign, inside):
    if not inside.any():
        raise BoundaryError("limiter does not intersect the computational grid")
    work = np.where(inside, sign * psi, -np.inf)
    work[0, :] = work[-1, :] = -np.inf
    work[:, 0] = work[:, -1] = -np.inf
    i, j = np.unravel_index(int(np.argmax(work)), work.shape)
    if not np.isfinite(work[i, j]):
        raise BoundaryError("no interior extremum found inside the limiter")
    r_axis, z_axis, value = _ref_quadratic_refine(grid, sign * psi, i, j)
    return r_axis, z_axis, sign * value


def _ref_find_xpoints(grid, psi, *, max_points=2):
    dpsi_dr = np.gradient(psi, grid.dr, axis=0)
    dpsi_dz = np.gradient(psi, grid.dz, axis=1)
    grad2 = dpsi_dr**2 + dpsi_dz**2
    candidates = []
    interior = grad2[1:-1, 1:-1]
    neigh_min = ndimage.minimum_filter(grad2, size=3)[1:-1, 1:-1]
    is_min = interior <= neigh_min
    idx_i, idx_j = np.nonzero(is_min)
    for ii, jj in zip(idx_i + 1, idx_j + 1):
        f = psi
        fxx = f[ii + 1, jj] - 2 * f[ii, jj] + f[ii - 1, jj]
        fyy = f[ii, jj + 1] - 2 * f[ii, jj] + f[ii, jj - 1]
        fxy = (
            f[ii + 1, jj + 1] - f[ii + 1, jj - 1] - f[ii - 1, jj + 1] + f[ii - 1, jj - 1]
        ) / 4.0
        if fxx * fyy - fxy * fxy >= 0.0:
            continue  # not a saddle
        r_x, z_x, psi_x = _ref_quadratic_refine(grid, psi, ii, jj)
        candidates.append((grad2[ii, jj], r_x, z_x, psi_x))
    candidates.sort(key=lambda c: c[0])
    return [(r, z, p) for _, r, z, p in candidates[:max_points]]


def _ref_core_clears_wall(grid, psi, sign, spx, inside_lim, i_ax, j_ax, lr, lz, psi_wall_signed):
    level = spx + 0.02 * (sign * psi[i_ax, j_ax] - spx)
    core = (sign * psi > level) & inside_lim
    labels, _ = ndimage.label(core)
    axis_label = labels[i_ax, j_ax]
    if axis_label == 0:
        return False
    hot = psi_wall_signed >= spx
    if not hot.any():
        return True
    i0 = np.clip(((lr[hot] - grid.rmin) / grid.dr).astype(int), 0, grid.nw - 2)
    j0 = np.clip(((lz[hot] - grid.zmin) / grid.dz).astype(int), 0, grid.nh - 2)
    for di in (0, 1):
        for dj in (0, 1):
            if (labels[i0 + di, j0 + dj] == axis_label).any():
                return False
    return True


def _ref_bilinear(grid, field, r, z):
    fr = np.clip((r - grid.rmin) / grid.dr, 0.0, grid.nw - 1 - 1e-12)
    fz = np.clip((z - grid.zmin) / grid.dz, 0.0, grid.nh - 1 - 1e-12)
    i0 = fr.astype(int)
    j0 = fz.astype(int)
    tr = fr - i0
    tz = fz - j0
    return (
        field[i0, j0] * (1 - tr) * (1 - tz)
        + field[i0 + 1, j0] * tr * (1 - tz)
        + field[i0, j0 + 1] * (1 - tr) * tz
        + field[i0 + 1, j0 + 1] * tr * tz
    )


def _ref_admissible(grid, limiter, cands, r_axis, z_axis):
    """The old admissibility test, applied to an already truncated list."""
    rxs = np.array([c[0] for c in cands])
    zxs = np.array([c[1] for c in cands])
    return (
        grid.contains(rxs, zxs)
        & limiter.contains(rxs, zxs)
        & (np.hypot(rxs - r_axis, zxs - z_axis) >= 4.0 * max(grid.dr, grid.dz))
    )


def _ref_find_boundary(grid, psi, limiter, *, sign=1, inside=None, limiter_samples=None):
    psi = np.asarray(psi, dtype=float)
    inside_lim = inside if inside is not None else limiter.grid_mask(grid)
    r_axis, z_axis, psi_axis = _ref_find_axis(grid, psi, limiter, sign, inside_lim)
    lr, lz = limiter_samples if limiter_samples is not None else limiter.sample_points(4)
    keep = grid.contains(lr, lz)
    psi_wall = _ref_bilinear(grid, psi, lr[keep], lz[keep])
    psi_lim = float(np.max(sign * psi_wall))
    i_ax = min(max(int(round((r_axis - grid.rmin) / grid.dr)), 0), grid.nw - 1)
    j_ax = min(max(int(round((z_axis - grid.zmin) / grid.dz)), 0), grid.nh - 1)
    psi_b = psi_lim
    boundary_type = "limiter"
    r_x = z_x = None
    psi_wall_signed = sign * psi_wall
    cands = _ref_find_xpoints(grid, psi, max_points=6)
    if cands:
        admissible = _ref_admissible(grid, limiter, cands, r_axis, z_axis)
        for cand_ok, (rx, zx, px) in zip(admissible, cands):
            if not cand_ok:
                continue
            spx = sign * px
            if not spx < sign * psi_axis:
                continue
            if boundary_type == "xpoint" and spx <= psi_b:
                continue
            if psi_lim < spx or _ref_core_clears_wall(
                grid, psi, sign, spx, inside_lim, i_ax, j_ax, lr[keep], lz[keep], psi_wall_signed
            ):
                psi_b = spx
                boundary_type = "xpoint"
                r_x, z_x = rx, zx
    psi_boundary = sign * psi_b
    denom = psi_boundary - psi_axis
    if denom == 0.0:
        raise BoundaryError("degenerate flux range: psi_axis == psi_boundary")
    psin = (psi - psi_axis) / denom
    candidate = (psin < 1.0) & inside_lim
    if boundary_type == "xpoint":
        core = (psin < 0.98) & inside_lim
        labels, _ = ndimage.label(core)
        axis_label = labels[i_ax, j_ax]
        if axis_label == 0:
            raise BoundaryError("magnetic axis not inside its own plasma mask")
        mask = ndimage.binary_dilation(labels == axis_label, iterations=2) & candidate
    else:
        labels, _ = ndimage.label(candidate)
        axis_label = labels[i_ax, j_ax]
        if axis_label == 0:
            raise BoundaryError("magnetic axis not inside its own plasma mask")
        mask = labels == axis_label
    return BoundaryResult(
        psi_axis=psi_axis, r_axis=r_axis, z_axis=z_axis, psi_boundary=psi_boundary,
        boundary_type=boundary_type, psin=psin, mask=mask, r_xpoint=r_x, z_xpoint=z_x,
    )  # fmt: skip


# -- recording what a reconstruction visits -----------------------------------------
def _assert_same_boundary(new: BoundaryResult, ref: BoundaryResult) -> None:
    for name in ("psi_axis", "r_axis", "z_axis", "psi_boundary", "boundary_type",
                 "r_xpoint", "z_xpoint"):  # fmt: skip
        assert getattr(new, name) == getattr(ref, name), name
        assert type(getattr(new, name)) is type(getattr(ref, name)), name
    assert np.array_equal(new.psin, ref.psin)
    assert new.mask.dtype == ref.mask.dtype and np.array_equal(new.mask, ref.mask)


def _record_searches(monkeypatch, solver, frames, *, chain=False):
    """Fit ``frames`` and return ``(psi, sign)`` of every boundary search
    the solver made, trust probes included: every map of every stack the
    fit hands the search."""
    seen = []

    def spy(grid, psi, limiter, *, signs, **kwargs):
        seen.extend((p.copy(), s) for p, s in zip(psi, signs))
        return find_boundaries(grid, psi, limiter, signs=signs, **kwargs)

    monkeypatch.setattr(fitting, "find_boundaries", spy)
    prev = None
    for frame in frames:
        prev = solver.fit(frame, psi_initial=prev.psi if chain and prev is not None else None)
    return seen


def _check_searches(solver, seen) -> None:
    grid, limiter, statics = solver.grid, solver.machine.limiter, solver.statics
    assert len(seen) >= 3
    for psi, sign in seen:
        kwargs = dict(
            sign=sign, inside=statics.inside_limiter, limiter_samples=statics.limiter_samples
        )
        new = find_boundary(grid, psi, limiter, **kwargs)
        _assert_same_boundary(new, _ref_find_boundary(grid, psi, limiter, **kwargs))
        geometry = _geometry_for(grid, limiter, statics.inside_limiter, None, 4)
        # Deciding admissibility before the cut changed no candidate list
        # here: nothing admissible sat below the sixth-flattest saddle.
        signed = sign * psi[None]
        axes = _find_axes(grid, signed, geometry)
        cands = _ref_find_xpoints(grid, psi, max_points=6)
        old = [
            (r, z, sign * p)
            for (r, z, p), ok in zip(cands, _ref_admissible(grid, limiter, cands, axes[0][0], axes[1][0]))
            if ok and sign * p < axes[2][0]
        ]
        assert _xpoint_candidates(grid, signed, limiter, axes, geometry.interior) == [old]
        # ... and the public search is the old one, value for value.
        assert find_xpoints(grid, psi, max_points=6) == cands


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("name", scenario_names())
def test_cold_fit_searches_match_the_oracle(monkeypatch, name, n):
    sc = get_scenario(name)
    shot = sc.make_shot(n)
    solver = EfitSolver.for_scenario(sc, n, shot=shot)
    _check_searches(solver, _record_searches(monkeypatch, solver, [shot.measurements]))


def test_cold_fit_searches_match_the_oracle_g186610_129(monkeypatch):
    sc = get_scenario("g186610")
    shot = sc.make_shot(129)
    solver = EfitSolver.for_scenario(sc, 129, shot=shot)
    _check_searches(solver, _record_searches(monkeypatch, solver, [shot.measurements]))


def test_warm_chain_searches_match_the_oracle_single_null(monkeypatch):
    sc = get_scenario("single-null")
    shot = sc.make_shot(65)
    solver = EfitSolver.for_scenario(sc, 65, shot=shot)
    frames = [shot.measurements] + synthetic_slice_sequence(shot, 6, seed=0)
    _check_searches(solver, _record_searches(monkeypatch, solver, frames, chain=True))


# -- the search on a stack of maps ---------------------------------------------------
def _shaping_fields(grid):
    """Two vacuum-like external fields that move a recorded equilibrium
    across the limited/diverted line: a quadrupole (elongating) field,
    which opens X-points, and a vertical field, which pushes the plasma
    onto the wall."""
    r = (grid.rr - grid.rr.mean()) / np.ptp(grid.rr)
    z = (grid.zz - grid.zz.mean()) / np.ptp(grid.zz)
    vertical = (grid.rr**2 - grid.rr.mean() ** 2) / np.ptp(grid.rr**2)
    return {0.8: z**2 - r**2, 0.5: vertical}


def _stack_corpus(monkeypatch, name):
    """The maps a cold 65^2 fit of ``name``'s base shot searches, each also
    under the two shaping fields, every other map with the opposite
    plasma-current sign, as ``(psi, sign, oracle result)`` — ordered so
    that neighbours alternate limited / diverted while both last."""
    sc = get_scenario(name)
    shot = sc.make_shot(65)
    solver = EfitSolver.for_scenario(sc, 65, shot=shot)
    grid, limiter = solver.grid, solver.machine.limiter
    maps = []
    for psi, sign in _record_searches(monkeypatch, solver, [shot.measurements]):
        span = np.ptp(psi)
        for scale, field in _shaping_fields(grid).items():
            maps.append(psi + sign * scale * span * field)
        maps.append(psi)
    kinds: dict[str, list] = {"limiter": [], "xpoint": []}
    for k, psi in enumerate(maps):
        sign = 1 if k % 2 else -1
        try:
            ref = _ref_find_boundary(grid, sign * psi, limiter, sign=sign)
        except BoundaryError:
            continue  # a shaping field can push the axis onto the wall
        kinds[ref.boundary_type].append((sign * psi, sign, ref))
    corpus = [entry for pair in zip(*kinds.values()) for entry in pair]
    n = len(corpus) // 2
    corpus += kinds["limiter"][n:] + kinds["xpoint"][n:]
    return solver, corpus


@pytest.mark.parametrize("name", scenario_names())
def test_stacked_searches_match_the_oracle(monkeypatch, name):
    """The search on a stack of maps returns, for every map, the oracle's
    result on that map alone — at every stack width, with limited and
    diverted maps and both current signs side by side in one stack."""
    solver, corpus = _stack_corpus(monkeypatch, name)
    grid, limiter = solver.grid, solver.machine.limiter
    kinds = {ref.boundary_type for _, _, ref in corpus}
    assert kinds == {"limiter", "xpoint"} and len(corpus) >= 24
    for width in (1, 2, 3, 8):
        mixed = 0
        for start in range(0, len(corpus), width):
            stack = corpus[start : start + width]
            found = find_boundaries(
                grid,
                np.stack([psi for psi, _, _ in stack]),
                limiter,
                signs=[sign for _, sign, _ in stack],
            )
            assert len(found) == len(stack)
            for new, (_, _, ref) in zip(found, stack):
                _assert_same_boundary(new, ref)
            mixed += len({ref.boundary_type for _, _, ref in stack}) == 2 and len(
                {sign for _, sign, _ in stack}
            ) == 2
        assert mixed >= (1 if width > 1 else 0)


# -- find_xpoints on fields no scenario makes ---------------------------------------
_GRID = RZGrid(33, 41, rmin=0.9, rmax=2.5, zmin=-1.5, zmax=1.5)

#: A filament strictly between grid nodes (the Green function is singular
#: on one): a cell index and an offset inside the cell, per axis.
_filament = st.tuples(
    st.integers(0, _GRID.nw - 2), st.integers(0, _GRID.nh - 2),
    st.floats(0.1, 0.9), st.floats(0.1, 0.9),
    st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05),
)  # fmt: skip


@settings(max_examples=40, deadline=None)
@given(st.lists(_filament, min_size=2, max_size=6), st.integers(0, 12))
def test_find_xpoints_matches_the_oracle_on_random_filaments(filaments, max_points):
    psi = sum(
        c * greens_psi(_GRID.rr, _GRID.zz, _GRID.r[i] + fr * _GRID.dr, _GRID.z[j] + fz * _GRID.dz)
        for i, j, fr, fz, c in filaments
    )
    assert find_xpoints(_GRID, psi, max_points=max_points) == _ref_find_xpoints(
        _GRID, psi, max_points=max_points
    )


# -- the truncation fix ---------------------------------------------------------------
class TestTruncation:
    """Vacuum saddles outside the vessel must not crowd out the X-point."""

    @staticmethod
    def _field(grid):
        """A diverted core plus a lattice of flat saddles beyond the wall.

        The core is two stacked like-signed blobs whose saddle between
        them, off its grid node, is the X-point.  The decoys are an
        egg-box ripple confined to a strip outboard of the limiter, where
        the core's tails have died away: its saddles sit *on* grid nodes,
        so their ``|grad psi|^2`` there is far below the X-point node's."""
        rr, zz = grid.rr, grid.zz

        def blob(r0, z0):
            return np.exp(-((rr - r0) ** 2 + (zz - z0) ** 2) / (2 * 0.22**2))

        core = blob(1.6, 0.2) + 0.8 * blob(1.6 + 0.4 * grid.dr, -0.62)
        r0 = grid.r[58]
        strip = np.exp(-((rr - r0) ** 2) / (2 * 0.05**2))
        eggbox = np.sin(np.pi * (rr - r0) / (3 * grid.dr)) * np.sin(
            np.pi * (zz - grid.z[0]) / (4 * grid.dz)
        )
        return core + 0.02 * strip * eggbox

    def test_in_vessel_xpoint_survives_seven_flatter_vacuum_saddles(self):
        grid = RZGrid(65, 65, rmin=0.9, rmax=2.5, zmin=-1.5, zmax=1.5)
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        limiter = Limiter(1.6 + 0.5 * np.cos(theta), -0.1 + 1.1 * np.sin(theta))
        psi = self._field(grid)
        saddles = find_xpoints(grid, psi, max_points=grid.size)
        inside = [limiter.contains(r, z) for r, z, _ in saddles]
        first_inside = inside.index(True)
        # The premise: at least seven saddles outside the vessel are
        # flatter than the first one inside it ...
        assert first_inside >= 7 and not any(inside[:first_inside])
        # ... so the old search, cut to six before the vessel test, saw none of them,
        assert _ref_find_boundary(grid, psi, limiter).boundary_type == "limiter"
        # and the new one finds the X-point.
        result = find_boundary(grid, psi, limiter)
        assert result.boundary_type == "xpoint"
        assert (result.r_xpoint, result.z_xpoint) == saddles[first_inside][:2]


# -- current_ / green_ on the plasma's rows ---------------------------------------------
def _plasma_rows(mask):
    rows = np.flatnonzero(mask.any(axis=1))
    return int(rows[0]), int(rows[-1]) + 1


def test_green_contracts_a_view_of_the_plasma_rows_only(monkeypatch):
    """Every least-squares iterate of a cold fit hands ``basis_response``
    one column range of ``grid_response`` — from the mask's first node to
    its last, fewer columns than the grid has nodes, and a view, never a
    copy — with the matching block of the coefficient-major basis
    currents.  A warm-up iterate needs only its prediction and forms no
    basis response."""
    sc = get_scenario("g186610")
    shot = sc.make_shot(65)
    solver = EfitSolver.for_scenario(sc, 65, shot=shot)
    calls = []
    real = fitting.basis_response

    def spy(grid_response, basis_currents):
        calls.append((grid_response, basis_currents.shape))
        return real(grid_response, basis_currents)

    monkeypatch.setattr(fitting, "basis_response", spy)
    state = solver.start_fit(shot.measurements)
    for _ in solver.picard([state]):
        if state.iteration <= fitting.N_WARMUP:
            assert not calls
            continue
        response, basis_shape = calls[-1]
        nodes = np.flatnonzero(state.boundary.mask)
        assert response.shape[1] == nodes[-1] + 1 - nodes[0] < solver.grid.size
        n_coeffs = solver.pp_basis.n_terms + solver.ffp_basis.n_terms
        assert basis_shape == (1, n_coeffs, response.shape[1])
        assert np.shares_memory(response, solver.grid_response)
        assert np.array_equal(response, solver.grid_response[:, nodes[0] : nodes[-1] + 1])
    assert state.converged and len(calls) == state.iteration - fitting.N_WARMUP >= 5


@pytest.mark.parametrize(
    "options", [{}, {"fitdelz": False}, {"fit_vessel": True}], ids=["fitdelz", "no-fitdelz", "vessel"]
)
@pytest.mark.parametrize("name", scenario_names())
def test_slab_current_matches_the_full_grid_formula(name, options):
    """On a lock-step batch of three slices, ``iterate_pre``'s ``pcurr``
    stack is zero outside each mask's rows and every slice's currents,
    for the coefficients it fitted, equal the full-grid arithmetic they
    replaced — ``basis_current_matrix @ coeffs``, ``np.gradient``, two
    full-width GEMVs, ``grid.shift_z`` — to round-off."""
    sc = get_scenario(name)
    shot = sc.make_shot(33)
    solver = EfitSolver.for_scenario(sc, 33, shot=shot, **options)
    grid = solver.grid
    slices = [shot.measurements] + synthetic_slice_sequence(shot, 2, seed=0)
    states = [solver.start_fit(m) for m in slices]
    shifted = 0
    for _ in range(6):  # three warm-up iterates, three least-squares steps
        pcurr, psi_external = solver.iterate_pre(states)
        for state, m, current in zip(states, slices, pcurr):
            i0, i1 = _plasma_rows(state.boundary.mask)
            assert not current[:i0].any() and not current[i1:].any()

            b = state.boundary
            jmat = basis_current_matrix(grid, b.psin, b.mask, solver.pp_basis, solver.ffp_basis)
            want = grid.unflatten(jmat @ state.coeffs)
            if solver.fitdelz:
                u = solver.grid_response @ grid.flatten(np.gradient(want, grid.dz, axis=1))
                r = (
                    m.values
                    - solver.coil_response @ m.coil_currents
                    - solver.grid_response @ grid.flatten(want)
                )
                if solver.fit_vessel:
                    r = r - solver.vessel_response @ state.vessel_currents
                w2 = 1.0 / m.uncertainties**2
                delz = float(np.clip(-(w2 @ (u * r)) / (w2 @ (u * u)), -4 * grid.dz, 4 * grid.dz))
                want = grid.shift_z(want, delz)
                shifted += delz != 0.0
            assert np.abs(current - want).max() <= 1e-13 * np.abs(want).max()
        solver.iterate_post(states, solver.pflux.compute_batch(pcurr, psi_external))
        assert not any(state.converged for state in states)
    assert shifted == (18 if solver.fitdelz else 0)
    if solver.fit_vessel:
        assert all(state.vessel_currents.any() for state in states)
