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
    MAX_XPOINT_CANDIDATES,
    BoundaryResult,
    _axes_and_xpoints,
    _geometry_for,
    _node_search,
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
    lr, lz = limiter_samples if limiter_samples is not None else limiter.sample_points()
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
        geometry = _geometry_for(grid, limiter, statics.inside_limiter, None)
        # Deciding admissibility before the cut changed no candidate list
        # here: nothing admissible sat below the sixth-flattest saddle.
        ((r_axis, z_axis, s_axis),), (found,) = _axes_and_xpoints(
            grid, sign * psi[None], limiter, geometry
        )
        cands = _ref_find_xpoints(grid, psi, max_points=6)
        old = [
            (r, z, sign * p)
            for (r, z, p), ok in zip(cands, _ref_admissible(grid, limiter, cands, r_axis, z_axis))
            if ok and sign * p < s_axis
        ]
        assert found == old
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


@pytest.mark.parametrize("name", scenario_names())
def test_warm_chain_searches_match_the_oracle(monkeypatch, name):
    """The serve path: a trust probe on the previous slice's psi, then
    warm iterates, slice after slice."""
    sc = get_scenario(name)
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


def _edge_ring_corpus():
    """Maps on ``_GRID`` inside a wall inset 0.3 cells from the box, so the
    search window is the whole grid and its saddle scan reads the
    one-sided gradient of the edge ring: a plasma of eight filaments plus
    a coil just outside each side of the box, every other map with the
    opposite current sign, as ``(psi, sign, oracle result)``."""
    grid, inset = _GRID, 0.3
    r_lo, r_hi = grid.rmin + inset * grid.dr, grid.rmax - inset * grid.dr
    z_lo, z_hi = grid.zmin + inset * grid.dz, grid.zmax - inset * grid.dz
    limiter = Limiter(np.array([r_lo, r_hi, r_hi, r_lo]), np.array([z_lo, z_lo, z_hi, z_hi]))
    rng = np.random.default_rng(7)
    corpus = []
    for k in range(24):
        r0, z0 = 1.7 + rng.uniform(-0.1, 0.1), rng.uniform(-0.2, 0.2)
        psi = sum(
            greens_psi(grid.rr, grid.zz, r0 + rng.normal(0, 0.12), z0 + rng.normal(0, 0.2))
            for _ in range(8)
        )
        r, z = rng.uniform(grid.rmin, grid.rmax), rng.uniform(grid.zmin, grid.zmax)
        for coil in [
            (grid.rmin - 0.37 * grid.dr, z), (grid.rmax + 0.41 * grid.dr, z),
            (r, grid.zmin - 0.43 * grid.dz), (r, grid.zmax + 0.39 * grid.dz),
        ]:  # fmt: skip
            psi = psi + rng.uniform(0.2, 2.0) * greens_psi(grid.rr, grid.zz, *coil)
        sign = 1 if k % 2 else -1
        corpus.append((sign * psi, sign, _ref_find_boundary(grid, sign * psi, limiter, sign=sign)))
    return limiter, corpus


@pytest.mark.parametrize("width", [1, 3])
def test_searches_reaching_the_edge_ring_match_the_oracle(width):
    """Where the search window reaches the grid's edge ring, the saddle
    scan's gradient takes its one-sided rows and columns there, as the
    full-grid gradient does: on every map of the stack the scan finds the
    oracle's saddles in its order, the admissible ones are the oracle's,
    and every field of the result equals the oracle's wherever the
    oracle's cut to the six flattest saddles kept every admissible one
    (``TestTruncation`` is the other case)."""
    limiter, corpus = _edge_ring_corpus()
    geometry = _geometry_for(_GRID, limiter, None, None)
    assert geometry.interior == (slice(1, _GRID.nw - 1), slice(1, _GRID.nh - 1))
    assert {ref.boundary_type for _, _, ref in corpus} == {"limiter", "xpoint"}
    compared = 0
    for start in range(0, len(corpus), width):
        stack = corpus[start : start + width]
        psi = np.stack([psi for psi, _, _ in stack])
        signs = [s for _, s, _ in stack]
        signed = np.array(signs)[:, None, None] * psi
        _, saddles = _node_search(_GRID, signed, [], geometry.interior)
        axes, candidates = _axes_and_xpoints(_GRID, signed, limiter, geometry)
        results = find_boundaries(_GRID, psi, limiter, signs=signs)
        for k, ((r_axis, z_axis, s_axis), found, new, (one, s, ref)) in enumerate(
            zip(axes, candidates, results, stack)
        ):
            cands = _ref_find_xpoints(_GRID, one, max_points=_GRID.size)
            assert [saddle[1:] for saddle in saddles if saddle[0] == k] == [
                (r, z, s * p) for r, z, p in cands
            ]
            kept = _ref_admissible(_GRID, limiter, cands, r_axis, z_axis)
            kept &= np.array([s * p < s_axis for _, _, p in cands], dtype=bool)
            assert found == [(r, z, s * p) for (r, z, p), ok in zip(cands, kept) if ok]
            if not kept[MAX_XPOINT_CANDIDATES:].any():
                _assert_same_boundary(new, ref)
                compared += 1
    assert compared >= 20

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


def test_find_xpoints_refuses_a_negative_max_points():
    """A negative count is an error, not a Python slice that drops the
    last saddles."""
    psi = greens_psi(_GRID.rr, _GRID.zz, 1.61, 0.43) + greens_psi(_GRID.rr, _GRID.zz, 1.63, -0.47)
    assert len(find_xpoints(_GRID, psi, max_points=_GRID.size)) >= 1
    for bad in (-1, -_GRID.size):
        with pytest.raises(BoundaryError, match="max_points"):
            find_xpoints(_GRID, psi, max_points=bad)


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
def test_slab_current_matches_the_full_grid_formula(name, options, monkeypatch):
    """On a lock-step batch of three slices, ``iterate_pre``'s ``pcurr``
    stack is zero outside each mask's rows and every slice's currents,
    for the coefficients it fitted, equal the full-grid arithmetic they
    replaced — ``basis_current_matrix @ coeffs``, ``np.gradient``, two
    full-width GEMVs, ``grid.shift_z`` — to round-off."""
    sc = get_scenario(name)
    shot = sc.make_shot(33)
    options = dict(options)
    fitdelz = options.pop("fitdelz", True)
    solver = EfitSolver.for_scenario(sc, 33, shot=shot, **options)
    if not fitdelz:  # the feedback off: every fitted shift zero
        monkeypatch.setattr(solver, "_fit_delz", lambda u, r: np.zeros(len(u)))
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
            if fitdelz:
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
    assert shifted == (18 if fitdelz else 0)
    if solver.fit_vessel:
        assert all(state.vessel_currents.any() for state in states)
