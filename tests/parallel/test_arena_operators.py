"""Edge operators through the table-arena layer."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.edge_methods import DEFAULT_EDGE_METHOD, EDGE_METHODS
from repro.efit.grid import RZGrid
from repro.efit.operators import build_edge_operator, cached_edge_operator
from repro.efit.tables import cached_boundary_tables
from repro.parallel import TableArena, attach_arena


@pytest.fixture(scope="module")
def grid():
    return RZGrid(17, 17)


@pytest.fixture(scope="module")
def tables(grid):
    return cached_boundary_tables(grid)


STRUCTURED = tuple(m for m in EDGE_METHODS if m != "dense")


class TestStructuredArena:
    @pytest.mark.parametrize("method", STRUCTURED)
    def test_build_attach_apply_bitwise(self, grid, tables, method):
        """An operator rebuilt from arena segments applies bit-identically
        to one built privately — fleet workers and the parent agree."""
        local = cached_edge_operator(tables, method)
        arena = TableArena.build(local)
        try:
            x = np.random.default_rng(0).normal(size=(grid.size, 3))
            np.testing.assert_array_equal(arena.edge_op().apply(x), local.apply(x))
            np.testing.assert_array_equal(
                attach_arena(arena.spec).edge_op().apply(x), local.apply(x)
            )
        finally:
            arena.unlink()

    def test_dense_arena_uses_op_segments(self, grid, tables):
        """Dense has no layout of its own: its ``to_arrays()`` lands in
        ``op_*`` arrays and ``edge_op()`` is the one way to read it."""
        arena = TableArena.build(cached_edge_operator(tables, "dense"))
        try:
            assert arena.spec.method == "dense"
            assert arena.spec.names == ("gpc", "op_matrix")
            dense = build_edge_operator(tables, "dense")
            np.testing.assert_array_equal(arena.edge_op().matrix, dense.matrix)
            assert not hasattr(arena, "edge_operator")
        finally:
            arena.unlink()


def _same_bytes_and_apply(held_tables, held_op, tables, method) -> bool:
    """Do views over an arena read and apply like a direct build?"""
    x = np.random.default_rng(1).normal(size=(tables.grid.size, 3))
    direct = build_edge_operator(tables, method)
    direct_arrays = direct.to_arrays()
    return (
        held_tables.gpc.tobytes() == tables.gpc.tobytes()
        and np.array_equal(held_op.apply(x), direct.apply(x))
        and all(
            arr.tobytes() == direct_arrays[name].tobytes()
            for name, arr in held_op.to_arrays().items()
        )
    )


def _child_holds_views(spec, tables, attached, released, verdict):
    arena = attach_arena(spec)
    held_tables, held_op = arena.tables(), arena.edge_op()
    attached.set()
    released.wait(timeout=60)
    verdict.put(
        not os.path.exists(spec.path)
        and _same_bytes_and_apply(held_tables, held_op, tables, spec.method)
    )


class TestViewsOutliveTheArena:
    """What replaced the close/unlink protocol: a view owns its mapping,
    so it reads the same bytes after the built arena is unlinked and
    dropped — in the parent and in a worker.  Under the shared-memory
    arena this was a segfault, then an ``ArenaError``."""

    @pytest.mark.parametrize("method", EDGE_METHODS)
    def test_views_read_and_apply_after_the_arena_is_gone(self, grid, tables, method):
        arena = TableArena.build(cached_edge_operator(tables, method))
        spec = arena.spec
        held_tables, held_op = arena.tables(), arena.edge_op()
        ctx = multiprocessing.get_context("fork")
        attached, released, verdict = ctx.Event(), ctx.Event(), ctx.Queue()
        child = ctx.Process(
            target=_child_holds_views,
            args=(spec, tables, attached, released, verdict),
        )
        child.start()
        try:
            assert attached.wait(timeout=60)
            arena.unlink()
            del arena
            assert not os.path.exists(spec.path)
            released.set()
            assert verdict.get(timeout=60) is True
        finally:
            released.set()
            child.join(timeout=60)
        assert child.exitcode == 0
        assert _same_bytes_and_apply(held_tables, held_op, tables, method)


class TestFleetBoundaryMethod:
    def test_inline_fleet_lowrank_tracks_dense_serial(self):
        """The fleet stages its operator in the arena for its workers; the
        low-rank fp64 path must track the dense serial engine to 1e-10."""
        from repro.batch import BatchFitEngine, synthetic_slice_sequence
        from repro.efit.measurements import synthetic_shot_186610
        from repro.parallel import ParallelFitEngine, SchedulerConfig

        shot = synthetic_shot_186610(33)
        slices = synthetic_slice_sequence(shot, 4, seed=5)
        tables = cached_boundary_tables(shot.grid)
        serial = BatchFitEngine(
            shot.machine, shot.diagnostics, shot.grid, batch_size=2,
            edge_operator=cached_edge_operator(tables, "dense"),
        ).fit_many(slices)
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            batch_size=2,
            config=SchedulerConfig(workers=2, transport="inline"),
            edge_operator=cached_edge_operator(tables, "lowrank"),
        ) as engine:
            assert engine.arena.spec.method == "lowrank"
            fleet = engine.fit_many(slices)
        for a, b in zip(serial.results, fleet.results):
            scale = np.max(np.abs(a.psi))
            assert np.max(np.abs(a.psi - b.psi)) <= 1e-10 * scale
            assert a.converged and b.converged


    def test_default_fleet_stages_no_dense_matrix(self):
        """A fleet handed no operator stages the default one: the
        Green table it aliases plus its spectra — no ``op_matrix``."""
        from repro.efit.measurements import synthetic_shot_186610
        from repro.parallel import ParallelFitEngine, SchedulerConfig

        shot = synthetic_shot_186610(33)
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            config=SchedulerConfig(workers=1, transport="inline"),
        ) as engine:
            spec = engine.arena.spec
            assert spec.method == DEFAULT_EDGE_METHOD == "toeplitz"
            assert spec.names == ("gpc", "op_vert_spectra", "op_meta_i8")
            gpc = cached_boundary_tables(shot.grid).gpc
            assert gpc.nbytes < engine.arena.nbytes < 1.1 * gpc.nbytes
