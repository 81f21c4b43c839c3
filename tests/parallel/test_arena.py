"""Table arenas: build, attach, removal."""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.efit.grid import RZGrid
from repro.efit.operators import cached_edge_operator
from repro.efit.tables import (
    BoundaryTableCache,
    build_boundary_tables,
    cached_boundary_tables,
)
from repro.errors import ArenaError
from repro.parallel import TableArena, attach_arena


def _op(grid, *method):
    """The process's cached operator on ``grid`` (the default method
    unless one is named) — what a fleet stages when handed none."""
    return cached_edge_operator(cached_boundary_tables(grid), *method)


@pytest.fixture(scope="module")
def grid():
    return RZGrid(17, 17)


@pytest.fixture(scope="module")
def arena(grid):
    # The staged layout with the most arrays of its own.
    arena = TableArena.build(_op(grid, "lowrank"))
    yield arena
    arena.unlink()


def _spectra(arena):
    """The vertical-edge spectra the arena's operator applies: a view."""
    return arena.edge_op().to_arrays()["vert_spectra"]


class TestTableArena:
    def test_tables_match_direct_build(self, grid, arena):
        direct = cached_boundary_tables(grid)
        np.testing.assert_array_equal(arena.tables().gpc, direct.gpc)

    def test_edge_operator_matches(self, grid, arena):
        expected = _op(grid, "lowrank").to_arrays()
        held = arena.edge_op().to_arrays()
        assert held.keys() == expected.keys()
        for name, arr in expected.items():
            np.testing.assert_array_equal(held[name], arr)

    def test_views_are_read_only(self, arena):
        with pytest.raises(ValueError):
            arena.tables().gpc[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            _spectra(arena)[0, 0, 0] = 1.0

    def test_views_are_plain_read_only_arrays(self, arena):
        """Not ``np.memmap``: nothing downstream sees a subclass."""
        for view in (
            arena.tables().gpc,
            _spectra(arena),
            attach_arena(arena.spec).tables().gpc,
        ):
            assert type(view) is np.ndarray
            assert not view.flags.writeable
            assert view.ctypes.data % 64 == 0

    def test_spec_reconstructs_grid(self, grid, arena):
        assert arena.spec.grid() == grid

    def test_spec_unknown_segment(self, grid, arena):
        op_names = tuple(f"op_{name}" for name in _op(grid, "lowrank").to_arrays())
        assert arena.spec.names == ("gpc",) + op_names
        with pytest.raises(ArenaError, match="no array 'nope'"):
            arena.array("nope")

    def test_nbytes_covers_both_segments(self, grid, arena):
        tables = cached_boundary_tables(grid)
        op_arrays = _op(grid, "lowrank").to_arrays().values()
        assert arena.nbytes == tables.gpc.nbytes + sum(arr.nbytes for arr in op_arrays)

    def test_unlink_is_idempotent(self, grid):
        arena = TableArena.build(_op(grid))
        arena.unlink()
        arena.unlink()


class TestAttach:
    def test_attach_sees_identical_bytes(self, grid, arena):
        attached = attach_arena(arena.spec)
        np.testing.assert_array_equal(
            attached.tables().gpc, cached_boundary_tables(grid).gpc
        )
        np.testing.assert_array_equal(_spectra(attached), _spectra(arena))

    def test_attach_after_unlink_raises(self, grid):
        arena = TableArena.build(_op(grid))
        spec = arena.spec
        arena.unlink()
        assert not os.path.exists(spec.path)
        with pytest.raises(ArenaError, match="does not exist"):
            attach_arena(spec)


class TestCacheSeeding:
    def test_seed_makes_get_return_shared_view(self, grid):
        arena = TableArena.build(_op(grid))
        try:
            cache = BoundaryTableCache()
            cache.seed(arena.tables())
            got = cache.get(grid)
            assert not got.gpc.flags.writeable  # the shared view, not a rebuild
            assert cache.counters.hits == 1
            np.testing.assert_array_equal(
                got.gpc, build_boundary_tables(grid).gpc
            )
        finally:
            arena.unlink()

    def test_seed_replaces_existing_entry(self, grid):
        arena = TableArena.build(_op(grid))
        try:
            cache = BoundaryTableCache()
            cache.get(grid)  # private build first
            cache.seed(arena.tables())
            assert not cache.get(grid).gpc.flags.writeable
        finally:
            arena.unlink()


def _hold_attachment(spec, attached):
    """Worker that maps the arena, says so, and waits to be killed."""
    held = attach_arena(spec).tables()
    attached.set()
    signal.pause()
    return held


def _drop_inherited(holder):
    """Forked child: drop its copy of the parent's built arena."""
    holder.clear()
    gc.collect()


class TestFailurePaths:
    def test_unlink_with_crashed_worker_holding_attachment(self, grid):
        """A worker SIGKILLed while it maps the arena holds nothing the
        parent needs back: the builder's unlink removes the directory, and
        the next build stages a new one."""
        arena = TableArena.build(_op(grid))
        spec = arena.spec
        ctx = multiprocessing.get_context("fork")
        attached = ctx.Event()
        proc = ctx.Process(target=_hold_attachment, args=(spec, attached))
        proc.start()
        try:
            assert attached.wait(timeout=60)
        finally:
            proc.kill()
            proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL
        arena.unlink()
        assert not os.path.exists(spec.path)
        with pytest.raises(ArenaError):
            attach_arena(spec)
        again = TableArena.build(_op(grid))
        try:
            assert again.spec.path != spec.path
            np.testing.assert_array_equal(
                attach_arena(again.spec).tables().gpc,
                cached_boundary_tables(grid).gpc,
            )
        finally:
            again.unlink()


class TestOnlyTheBuilderRemoves:
    """What replaced the manager's refcount and ``atexit`` sweep: a
    finalizer registered by :meth:`TableArena.build`, which removes the
    directory in the building process only."""

    def test_dropping_the_built_arena_removes_its_directory(self, grid):
        arena = TableArena.build(_op(grid))
        path = arena.spec.path
        del arena
        gc.collect()
        assert not os.path.exists(path)

    def test_dropping_an_attached_view_never_removes_the_directory(self, grid):
        arena = TableArena.build(_op(grid))
        try:
            attached = attach_arena(arena.spec)
            attached.unlink()
            del attached
            gc.collect()
            assert os.path.isdir(arena.spec.path)
            attach_arena(arena.spec)
        finally:
            arena.unlink()
        assert not os.path.exists(arena.spec.path)

    def test_a_forked_child_dropping_its_copy_removes_nothing(self, grid):
        """A fork inherits the built arena and its finalizer; the child
        collecting its copy must leave the parent's directory alone."""
        holder = [TableArena.build(_op(grid))]
        spec = holder[0].spec
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_drop_inherited, args=(holder,))
        child.start()
        child.join(timeout=60)
        try:
            assert child.exitcode == 0
            assert os.path.isdir(spec.path)
            attach_arena(spec)
        finally:
            holder[0].unlink()
