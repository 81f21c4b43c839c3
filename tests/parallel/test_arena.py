"""Table arenas: build, attach, refcount, removal."""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.edge_methods import DEFAULT_EDGE_METHOD
from repro.efit.grid import RZGrid
from repro.efit.pflux import edge_flux_operator
from repro.efit.tables import (
    BoundaryTableCache,
    build_boundary_tables,
    cached_boundary_tables,
)
from repro.errors import ArenaError
from repro.parallel import ArenaManager, TableArena, attach_arena


@pytest.fixture(scope="module")
def grid():
    return RZGrid(17, 17)


@pytest.fixture(scope="module")
def arena(grid):
    # The tests below read ``.matrix``: the oracle's layout, by name.
    arena = TableArena.build(grid, "dense")
    yield arena
    arena.unlink()


class TestTableArena:
    def test_tables_match_direct_build(self, grid, arena):
        direct = cached_boundary_tables(grid)
        np.testing.assert_array_equal(arena.tables().gpc, direct.gpc)

    def test_edge_operator_matches(self, grid, arena):
        expected = edge_flux_operator(cached_boundary_tables(grid))
        np.testing.assert_array_equal(arena.edge_op().matrix, expected)

    def test_views_are_read_only(self, arena):
        with pytest.raises(ValueError):
            arena.tables().gpc[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            arena.edge_op().matrix[0, 0] = 1.0

    def test_views_are_plain_read_only_arrays(self, arena):
        """Not ``np.memmap``: nothing downstream sees a subclass."""
        for view in (
            arena.tables().gpc,
            arena.edge_op().matrix,
            attach_arena(arena.spec).tables().gpc,
        ):
            assert type(view) is np.ndarray
            assert not view.flags.writeable
            assert view.ctypes.data % 64 == 0

    def test_spec_reconstructs_grid(self, grid, arena):
        assert arena.spec.grid() == grid

    def test_spec_unknown_segment(self, arena):
        assert arena.spec.names == ("gpc", "op_matrix")
        with pytest.raises(ArenaError, match="no array 'nope'"):
            arena.array("nope")

    def test_nbytes_covers_both_segments(self, grid, arena):
        tables = cached_boundary_tables(grid)
        edge_op = edge_flux_operator(tables)
        assert arena.nbytes == tables.gpc.nbytes + edge_op.nbytes

    def test_unlink_is_idempotent(self, grid):
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        arena.unlink()
        arena.unlink()


class TestAttach:
    def test_attach_sees_identical_bytes(self, grid, arena):
        attached = attach_arena(arena.spec)
        np.testing.assert_array_equal(
            attached.tables().gpc, cached_boundary_tables(grid).gpc
        )
        np.testing.assert_array_equal(
            attached.edge_op().matrix, arena.edge_op().matrix
        )

    def test_attach_after_unlink_raises(self, grid):
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        spec = arena.spec
        arena.unlink()
        assert not os.path.exists(spec.path)
        with pytest.raises(ArenaError, match="does not exist"):
            attach_arena(spec)


class TestArenaManager:
    def test_refcounted_sharing_and_unlink_at_zero(self, grid):
        manager = ArenaManager()
        a1 = manager.acquire(grid, DEFAULT_EDGE_METHOD)
        a2 = manager.acquire(grid, DEFAULT_EDGE_METHOD)
        assert a1 is a2
        assert manager.refcount(grid, DEFAULT_EDGE_METHOD) == 2
        assert len(manager) == 1
        manager.release(grid, DEFAULT_EDGE_METHOD)
        assert manager.refcount(grid, DEFAULT_EDGE_METHOD) == 1
        spec = a1.spec
        manager.release(grid, DEFAULT_EDGE_METHOD)
        assert manager.refcount(grid, DEFAULT_EDGE_METHOD) == 0
        assert len(manager) == 0
        with pytest.raises(ArenaError):
            attach_arena(spec)  # unlinked at refcount zero

    def test_release_without_acquire_raises(self, grid):
        with pytest.raises(ArenaError):
            ArenaManager().release(grid, DEFAULT_EDGE_METHOD)

    def test_distinct_grids_distinct_arenas(self, grid):
        manager = ArenaManager()
        other = RZGrid(9, 9)
        a1 = manager.acquire(grid, DEFAULT_EDGE_METHOD)
        a2 = manager.acquire(other, DEFAULT_EDGE_METHOD)
        assert a1 is not a2
        assert len(manager) == 2
        assert manager.resident_bytes == a1.nbytes + a2.nbytes
        manager.shutdown()
        assert len(manager) == 0

    def test_shutdown_is_reentrant(self, grid):
        manager = ArenaManager()
        manager.acquire(grid, DEFAULT_EDGE_METHOD)
        manager.shutdown()
        manager.shutdown()


class TestCacheSeeding:
    def test_seed_makes_get_return_shared_view(self, grid):
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
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
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        try:
            cache = BoundaryTableCache()
            cache.get(grid)  # private build first
            cache.seed(arena.tables())
            assert not cache.get(grid).gpc.flags.writeable
        finally:
            arena.unlink()

    def test_double_drop_is_a_no_op(self, grid):
        """Teardown paths may race close() against each other; dropping
        an entry that is already gone must stay silent."""
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        try:
            cache = BoundaryTableCache()
            cache.seed(arena.tables())
            cache.drop(grid)
            cache.drop(grid)
            # the next get rebuilds privately, off the dropped view
            assert cache.get(grid).gpc.flags.writeable
        finally:
            arena.unlink()


def _hold_attachment(spec, attached):
    """Worker that maps the arena, says so, and waits to be killed."""
    held = attach_arena(spec).tables()
    attached.set()
    signal.pause()
    return held


class TestFailurePaths:
    def test_manager_sweep_with_crashed_worker_holding_attachment(self, grid):
        """A worker SIGKILLed while it maps the arena holds nothing the
        parent needs back: the release removes the directory, and the
        next acquire builds a new one."""
        manager = ArenaManager()
        spec = manager.acquire(grid, DEFAULT_EDGE_METHOD).spec
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
        manager.release(grid, DEFAULT_EDGE_METHOD)
        assert len(manager) == 0
        assert not os.path.exists(spec.path)
        with pytest.raises(ArenaError):
            attach_arena(spec)
        again = manager.acquire(grid, DEFAULT_EDGE_METHOD)
        try:
            assert again.spec.path != spec.path
            np.testing.assert_array_equal(
                attach_arena(again.spec).tables().gpc,
                cached_boundary_tables(grid).gpc,
            )
        finally:
            manager.shutdown()
