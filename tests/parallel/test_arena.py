"""Shared-memory table arenas: build, attach, refcount, unlink."""

from __future__ import annotations

import multiprocessing
import os

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

    def test_spec_reconstructs_grid(self, grid, arena):
        assert arena.spec.grid() == grid

    def test_spec_unknown_segment(self, arena):
        with pytest.raises(ArenaError):
            arena.spec.segment("nope")

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
        try:
            np.testing.assert_array_equal(
                attached.tables().gpc, cached_boundary_tables(grid).gpc
            )
            np.testing.assert_array_equal(
                attached.edge_op().matrix, arena.edge_op().matrix
            )
        finally:
            attached.close()

    def test_attach_after_unlink_raises(self, grid):
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        spec = arena.spec
        arena.unlink()
        with pytest.raises(ArenaError):
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


def _crash_while_attached(spec):
    """Worker that dies hard while still holding a live attachment —
    no close(), no interpreter shutdown hooks."""
    attached = attach_arena(spec)
    attached.tables()
    os._exit(3)


class TestFailurePaths:
    """Runtime ground truth of the static lifecycle rules: the misuse
    each rule flags must fail as a clean ArenaError, not a segfault."""

    def test_parent_view_after_unlink_raises(self, grid):
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        arena.unlink()
        with pytest.raises(ArenaError, match="use-after-unlink"):
            arena.tables()
        with pytest.raises(ArenaError, match="use-after-unlink"):
            arena.edge_op()

    def test_views_taken_before_unlink_still_error_after(self, grid):
        """The static rule's exact shape: view production ordered after
        teardown is refused (views taken before stay the caller's
        responsibility — the mapping itself is gone)."""
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        arena.tables()  # fine while live
        arena.unlink()
        with pytest.raises(ArenaError):
            arena.tables()

    def test_worker_view_after_close_raises(self, grid):
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        try:
            attached = attach_arena(arena.spec)
            attached.close()
            with pytest.raises(ArenaError, match="use-after-close"):
                attached.tables()
            with pytest.raises(ArenaError, match="use-after-close"):
                attached.edge_op()
        finally:
            arena.unlink()

    def test_worker_close_is_idempotent(self, grid):
        arena = TableArena.build(grid, DEFAULT_EDGE_METHOD)
        try:
            attached = attach_arena(arena.spec)
            attached.close()
            attached.close()
        finally:
            arena.unlink()

    def test_manager_sweep_with_crashed_worker_holding_attachment(self, grid):
        """The atexit-sweep scenario: a worker dies hard (os._exit, no
        close) while attached; the parent's shutdown sweep must still
        unlink cleanly and leave nothing to attach to."""
        manager = ArenaManager()
        arena = manager.acquire(grid, DEFAULT_EDGE_METHOD)
        spec = arena.spec
        proc = multiprocessing.get_context("fork").Process(
            target=_crash_while_attached, args=(spec,)
        )
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 3  # crashed as injected, while attached
        manager.shutdown()  # refcount still 1: the safety net overrides
        assert len(manager) == 0
        with pytest.raises(ArenaError):
            attach_arena(spec)  # segment really is gone
