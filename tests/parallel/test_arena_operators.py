"""Edge operators through a fleet's table arena."""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.edge_methods import DEFAULT_EDGE_METHOD, EDGE_METHODS
from repro.efit.measurements import synthetic_shot_186610
from repro.efit.operators import DenseEdgeOperator, build_edge_operator, cached_edge_operator
from repro.efit.pflux import TableSumEdgeOperator
from repro.efit.tables import boundary_table_cache, cached_boundary_tables
from repro.errors import OperatorError
from repro.parallel import ParallelFitEngine, SchedulerConfig
from repro.parallel.engine import _map_arena


@pytest.fixture(scope="module")
def shot():
    return synthetic_shot_186610(17)


@pytest.fixture(scope="module")
def grid(shot):
    return shot.grid


def _fleet(shot, op):
    """An inline fleet staging ``op`` (the pool starts lazily)."""
    return ParallelFitEngine(
        shot.machine,
        shot.diagnostics,
        shot.grid,
        edge_operator=op,
        config=SchedulerConfig(workers=1, transport="inline"),
    )


@pytest.fixture(scope="module")
def tables(grid):
    return cached_boundary_tables(grid)


STRUCTURED = EDGE_METHODS


#: Edge operators a fleet cannot stage, built from a grid's tables.
UNSTAGED = {
    "dense": lambda tables: build_edge_operator(tables, "dense"),
    "table-sums": TableSumEdgeOperator,
    "reference": lambda tables: TableSumEdgeOperator(tables, "reference"),
}


class TestStructuredArena:
    @pytest.mark.parametrize("method", STRUCTURED)
    def test_build_attach_apply_bitwise(self, shot, grid, tables, method):
        """An operator rebuilt from the arena's entry applies
        bit-identically to one built privately — fleet workers and the
        parent agree."""
        local = cached_edge_operator(tables, method)
        with _fleet(shot, local) as engine:
            x = np.random.default_rng(0).normal(size=(grid.size, 3))
            for _ in range(2):
                mapped = _map_arena(engine.arena, grid, method)[1]
                assert mapped.apply(x).tobytes() == local.apply(x).tobytes()

    @pytest.mark.parametrize("form", list(UNSTAGED))
    def test_fleet_refuses_unstaged(self, tables, form, tmp_path, monkeypatch):
        """Only the two staged methods have an arena layout: the dense
        ground truth and the paper's table sums are an ``OperatorError``
        naming them, before any arena directory exists."""
        made, mkdtemp = [], tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(
            tempfile, "mkdtemp", lambda *a, **kw: made.append(kw) or mkdtemp(*a, **kw)
        )
        shot = synthetic_shot_186610(33)
        op = UNSTAGED[form](cached_boundary_tables(shot.grid))
        with pytest.raises(OperatorError, match="toeplitz and lowrank"):
            ParallelFitEngine(
                shot.machine,
                shot.diagnostics,
                shot.grid,
                edge_operator=op,
                config=SchedulerConfig(workers=1, transport="inline"),
            )
        assert made == [] and not list(tmp_path.glob("repro_arena_*"))

    def test_the_cache_refuses_dense(self, tables):
        """The dense ground truth is built, never cached (nor persisted)."""
        with pytest.raises(OperatorError, match="toeplitz and lowrank"):
            cached_edge_operator(tables, "dense")
        assert "dense" not in boundary_table_cache().operators(tables.grid)
        assert isinstance(build_edge_operator(tables, "dense"), DenseEdgeOperator)


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


def _child_holds_views(path, tables, method, attached, released, verdict):
    held_tables, held_op = _map_arena(path, tables.grid, method)
    attached.set()
    released.wait(timeout=60)
    verdict.put(
        not os.path.exists(path)
        and _same_bytes_and_apply(held_tables, held_op, tables, method)
    )


class TestViewsOutliveTheArena:
    """A view owns its mapping, so it reads the same bytes after the
    fleet has removed its arena and been dropped — in the parent and in a
    worker.  Under a shared-memory arena this was a segfault, then an
    ``ArenaError``."""

    @pytest.mark.parametrize("method", EDGE_METHODS)
    def test_views_read_and_apply_after_the_arena_is_gone(self, shot, grid, tables, method):
        engine = _fleet(shot, cached_edge_operator(tables, method))
        path = engine.arena
        held_tables, held_op = _map_arena(path, grid, method)
        ctx = multiprocessing.get_context("fork")
        attached, released, verdict = ctx.Event(), ctx.Event(), ctx.Queue()
        child = ctx.Process(
            target=_child_holds_views,
            args=(path, tables, method, attached, released, verdict),
        )
        child.start()
        try:
            assert attached.wait(timeout=60)
            engine.close()
            del engine
            assert not os.path.exists(path)
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

        shot = synthetic_shot_186610(33)
        slices = synthetic_slice_sequence(shot, 4, seed=5)
        tables = cached_boundary_tables(shot.grid)
        serial = BatchFitEngine(
            shot.machine, shot.diagnostics, shot.grid, batch_size=2,
            edge_operator=build_edge_operator(tables, "dense"),
        ).fit_many(slices)
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            batch_size=2,
            config=SchedulerConfig(workers=2, transport="inline"),
            edge_operator=cached_edge_operator(tables, "lowrank"),
        ) as engine:
            assert _map_arena(engine.arena, shot.grid, "lowrank")[1].method == "lowrank"
            fleet = engine.fit_many(slices)
        for a, b in zip(serial.results, fleet.results):
            scale = np.max(np.abs(a.psi))
            assert np.max(np.abs(a.psi - b.psi)) <= 1e-10 * scale
            assert a.converged and b.converged


    def test_default_fleet_stages_no_dense_matrix(self):
        """A fleet handed no operator stages the default one: the
        Green table it aliases plus its spectra — no dense matrix."""
        shot = synthetic_shot_186610(33)
        with ParallelFitEngine(
            shot.machine,
            shot.diagnostics,
            shot.grid,
            config=SchedulerConfig(workers=1, transport="inline"),
        ) as engine:
            assert DEFAULT_EDGE_METHOD == "toeplitz"
            staged = sorted(
                (entry.name.rsplit("-", 1)[-1] if entry.name.startswith("edgeop") else "greens", f)
                for entry in Path(engine.arena).iterdir()
                for f in sorted(os.listdir(entry))
            )
            assert staged == [
                ("greens", "gpc.npy"),
                ("toeplitz", "meta_i8.npy"),
                ("toeplitz", "vert_spectra.npy"),
            ]
            gpc = cached_boundary_tables(shot.grid).gpc
            assert gpc.nbytes < engine.arena_nbytes < 1.1 * gpc.nbytes
