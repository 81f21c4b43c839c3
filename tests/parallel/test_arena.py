"""Table arenas: a fleet stages its tables as disk-cache entries, workers
map them, and only the builder removes the directory."""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.efit.measurements import synthetic_shot_186610
from repro.efit.operators import cached_edge_operator
from repro.efit.tables import (
    BoundaryTableCache,
    build_boundary_tables,
    cached_boundary_tables,
)
from repro.errors import ArenaError
from repro.parallel import ParallelFitEngine, SchedulerConfig
from repro.parallel.engine import _map_arena


@pytest.fixture(scope="module")
def shot():
    return synthetic_shot_186610(17)


@pytest.fixture(scope="module")
def grid(shot):
    return shot.grid


def _op(grid, *method):
    """The process's cached operator on ``grid`` (the default method
    unless one is named) — what a fleet stages when handed none."""
    return cached_edge_operator(cached_boundary_tables(grid), *method)


def _fleet(shot, *method):
    """An inline fleet staging ``method``'s layout (the pool starts
    lazily: nothing but the arena is made here)."""
    return ParallelFitEngine(
        shot.machine,
        shot.diagnostics,
        shot.grid,
        edge_operator=_op(shot.grid, *method),
        config=SchedulerConfig(workers=1, transport="inline"),
    )


@pytest.fixture(scope="module")
def fleet(shot):
    # The staged layout with the most arrays of its own.
    with _fleet(shot, "lowrank") as fleet:
        yield fleet


def _mapped(fleet, grid, method="lowrank"):
    """What a worker of ``fleet`` maps: (tables, operator)."""
    return _map_arena(fleet.arena, grid, method)


def _spectra(fleet, grid):
    """The vertical-edge spectra the arena's operator applies: a view."""
    return _mapped(fleet, grid)[1].to_arrays()["vert_spectra"]


class TestTableArena:
    def test_tables_match_direct_build(self, grid, fleet):
        direct = cached_boundary_tables(grid)
        np.testing.assert_array_equal(_mapped(fleet, grid)[0].gpc, direct.gpc)

    def test_edge_operator_matches(self, grid, fleet):
        expected = _op(grid, "lowrank").to_arrays()
        held = _mapped(fleet, grid)[1].to_arrays()
        assert held.keys() == expected.keys()
        for name, arr in expected.items():
            assert held[name].tobytes() == arr.tobytes()

    def test_views_are_read_only(self, grid, fleet):
        with pytest.raises(ValueError):
            _mapped(fleet, grid)[0].gpc[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            _spectra(fleet, grid)[0, 0, 0] = 1.0

    def test_views_are_plain_read_only_arrays(self, grid, fleet):
        """Not ``np.memmap``: nothing downstream sees a subclass."""
        for view in (_mapped(fleet, grid)[0].gpc, _spectra(fleet, grid)):
            assert type(view) is np.ndarray
            assert not view.flags.writeable
            assert view.ctypes.data % 64 == 0

    def test_nbytes_covers_both_segments(self, grid, fleet):
        tables = cached_boundary_tables(grid)
        op_arrays = _op(grid, "lowrank").to_arrays().values()
        assert fleet.arena_nbytes == tables.gpc.nbytes + sum(arr.nbytes for arr in op_arrays)

    def test_unlink_is_idempotent(self, shot):
        engine = _fleet(shot)
        path = engine.arena
        engine.close()
        assert not os.path.exists(path)
        engine.close()


class TestAttach:
    def test_attach_sees_identical_bytes(self, grid, fleet):
        first, second = _mapped(fleet, grid), _mapped(fleet, grid)
        assert first[0].gpc.tobytes() == cached_boundary_tables(grid).gpc.tobytes()
        assert _spectra(fleet, grid).tobytes() == second[1].to_arrays()["vert_spectra"].tobytes()

    def test_attach_after_unlink_raises(self, shot, grid):
        engine = _fleet(shot)
        path = engine.arena
        engine.close()
        assert not os.path.exists(path)
        with pytest.raises(ArenaError, match="holds no toeplitz entry"):
            _map_arena(path, grid, "toeplitz")


class TestCacheSeeding:
    def test_seed_makes_get_return_shared_view(self, shot, grid):
        with _fleet(shot) as engine:
            cache = BoundaryTableCache()
            cache.seed(_map_arena(engine.arena, grid, "toeplitz")[0])
            got = cache.get(grid)
            assert not got.gpc.flags.writeable  # the shared view, not a rebuild
            assert cache.counters.hits == 1
            np.testing.assert_array_equal(got.gpc, build_boundary_tables(grid).gpc)

    def test_seed_replaces_existing_entry(self, shot, grid):
        with _fleet(shot) as engine:
            cache = BoundaryTableCache()
            cache.get(grid)  # private build first
            cache.seed(_map_arena(engine.arena, grid, "toeplitz")[0])
            assert not cache.get(grid).gpc.flags.writeable


def _hold_attachment(path, grid, attached):
    """Worker that maps the arena, says so, and waits to be killed."""
    held = _map_arena(path, grid, "toeplitz")
    attached.set()
    signal.pause()
    return held


def _drop_inherited(holder):
    """Forked child: drop its copy of the parent's fleet."""
    holder.clear()
    gc.collect()


class TestFailurePaths:
    def test_unlink_with_crashed_worker_holding_attachment(self, shot, grid):
        """A worker SIGKILLed while it maps the arena holds nothing the
        parent needs back: the builder's close removes the directory, and
        the next fleet stages a new one."""
        engine = _fleet(shot)
        path = engine.arena
        ctx = multiprocessing.get_context("fork")
        attached = ctx.Event()
        proc = ctx.Process(target=_hold_attachment, args=(path, grid, attached))
        proc.start()
        try:
            assert attached.wait(timeout=60)
        finally:
            proc.kill()
            proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL
        engine.close()
        assert not os.path.exists(path)
        with pytest.raises(ArenaError):
            _map_arena(path, grid, "toeplitz")
        with _fleet(shot) as again:
            assert again.arena != path
            np.testing.assert_array_equal(
                _map_arena(again.arena, grid, "toeplitz")[0].gpc,
                cached_boundary_tables(grid).gpc,
            )


class TestOnlyTheBuilderRemoves:
    """A finalizer the fleet registers when it stages its arena removes
    the directory, in the building process only."""

    def test_dropping_the_built_arena_removes_its_directory(self, shot):
        engine = _fleet(shot)
        path = engine.arena
        del engine
        gc.collect()
        assert not os.path.exists(path)

    def test_dropping_an_attached_view_never_removes_the_directory(self, shot, grid):
        engine = _fleet(shot)
        try:
            attached = _map_arena(engine.arena, grid, "toeplitz")
            del attached
            gc.collect()
            assert os.path.isdir(engine.arena)
            _map_arena(engine.arena, grid, "toeplitz")
        finally:
            engine.close()
        assert not os.path.exists(engine.arena)

    def test_a_forked_child_dropping_its_copy_removes_nothing(self, shot, grid):
        """A fork inherits the fleet and its finalizer; the child
        collecting its copy must leave the parent's directory alone."""
        holder = [_fleet(shot)]
        path = holder[0].arena
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_drop_inherited, args=(holder,))
        child.start()
        child.join(timeout=60)
        try:
            assert child.exitcode == 0
            assert os.path.isdir(path)
            _map_arena(path, grid, "toeplitz")
        finally:
            holder[0].close()
