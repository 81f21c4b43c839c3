"""Table arenas: one grid's Green table and edge operator, mapped from files.

The boundary Green table is the single largest per-grid object in the
code base — ``(nw, nh, nw)`` float64, 1.08 GB at 513x513 — and it is
*immutable* after construction: every worker of a multi-process
reconstruction fleet reads the identical bytes.  Materialising a private
copy per worker process would multiply resident memory by the worker
count and pay the O(N^3) table build once per process.

:class:`TableArena` instead writes one copy as ``.npy`` files — the
table and each array of the edge operator — into a fresh
``tempfile.mkdtemp`` directory, and every process (the parent, an inline
worker, a forked or spawned worker, a respawn after a crash) maps them
read-only with ``np.load(..., mmap_mode="r")``: same physical pages
through the page cache, attach O(1) in grid size.  ``TMPDIR`` decides the
medium; point it at ``/dev/shm`` for RAM-backed pages.

An array owns its mapping, and on POSIX a mapping outlives the removal of
its file.  So there is no teardown order: a view taken before the arena
was removed stays readable for as long as anything references it, in
any process, and there is nothing for a worker to close.

Lifecycle (see ``docs/PARALLEL.md``): each
:class:`~repro.parallel.engine.ParallelFitEngine` builds its own arena and
removes it in ``close()``.  :meth:`TableArena.build` also registers a
``weakref.finalize`` that removes the directory when the built arena is
collected or the interpreter exits, in the building process only: a
forked child that drops its inherited copy, and every
:func:`attach_arena` view, remove nothing.  A SIGKILLed parent leaves its
directory behind: nothing runs in it to remove anything.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from repro.efit.grid import RZGrid
from repro.efit.operators import EdgeOperator, edge_operator_from_arrays
from repro.efit.tables import BoundaryGreensTables, cached_boundary_tables
from repro.errors import ArenaError

__all__ = ["ArenaSpec", "TableArena", "attach_arena"]


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a worker needs to attach an arena: the directory, the
    grid geometry and the names of the arrays in it.  Picklable, so it
    travels in the worker-initialisation arguments under ``spawn``."""

    path: str
    grid_nw: int
    grid_nh: int
    grid_rmin: float
    grid_rmax: float
    grid_zmin: float
    grid_zmax: float
    #: The staged operator's :attr:`~repro.efit.operators.EdgeOperator.method`
    #: (one of :data:`repro.efit.operators.EDGE_METHODS`).
    method: str
    #: ``gpc`` plus one ``op_*`` per array of the operator's
    #: :meth:`~repro.efit.operators.EdgeOperator.to_arrays`; each is the
    #: file ``<path>/<name>.npy``.
    names: tuple[str, ...]

    def grid(self) -> RZGrid:
        return RZGrid(
            self.grid_nw,
            self.grid_nh,
            rmin=self.grid_rmin,
            rmax=self.grid_rmax,
            zmin=self.grid_zmin,
            zmax=self.grid_zmax,
        )


def _remove(path: str, builder_pid: int) -> None:
    """Remove an arena directory — from the process that built it only."""
    if os.getpid() == builder_pid:
        shutil.rmtree(path, ignore_errors=True)


class TableArena:
    """One grid's Green table (``gpc``) and edge-operator arrays, mapped
    read-only from the directory ``spec`` names.

    The parent creates one with :meth:`build` and hands :attr:`spec` to
    workers, which map the same files with :func:`attach_arena`.  The
    built arena's :meth:`unlink` removes the directory; arrays already
    handed out, here or in a worker, stay valid after that.
    """

    def __init__(self, spec: ArenaSpec) -> None:
        self.spec = spec
        #: The directory's removal; set on the built arena only.
        self._remover: weakref.finalize | None = None
        try:
            self._arrays = {
                name: np.asarray(
                    np.load(os.path.join(spec.path, f"{name}.npy"), mmap_mode="r")
                )
                for name in spec.names
            }
        except FileNotFoundError:
            raise ArenaError(
                f"arena {spec.path!r} does not exist (released, or its parent "
                f"is gone)"
            ) from None

    @classmethod
    def build(cls, op: EdgeOperator) -> "TableArena":
        """Write the (cached) boundary tables of ``op``'s grid and ``op``
        itself to a new directory and map them.

        Whatever the operator's representation, its
        :meth:`~repro.efit.operators.EdgeOperator.to_arrays` arrays are
        stored under ``op_*`` names and its method in the spec.  A
        ``toeplitz`` arena (the fleet's default) is the Green table plus
        ``op_vert_spectra`` and ``op_meta_i8`` — 71 kB beside the 2.2 MB
        table at 65x65; a ``dense`` one adds the 8.7 MB ``op_matrix``
        there and 541 MB at 257x257 (the pages are shared either way, but
        the build, the copy and the cache pressure all grow with it).
        """
        grid = op.grid
        arrays = {"gpc": cached_boundary_tables(grid).gpc}
        for name, arr in op.to_arrays().items():
            arrays[f"op_{name}"] = arr
        path = None
        try:
            path = tempfile.mkdtemp(prefix="repro_arena_")
            for name, arr in arrays.items():
                np.save(os.path.join(path, f"{name}.npy"), arr)
        except OSError as exc:  # pragma: no cover - environment dependent
            if path is not None:
                shutil.rmtree(path, ignore_errors=True)
            raise ArenaError(f"cannot create table arena: {exc}") from exc
        arena = cls(
            ArenaSpec(
                path=path,
                grid_nw=grid.nw,
                grid_nh=grid.nh,
                grid_rmin=grid.rmin,
                grid_rmax=grid.rmax,
                grid_zmin=grid.zmin,
                grid_zmax=grid.zmax,
                method=op.method,
                names=tuple(arrays),
            )
        )
        arena._remover = weakref.finalize(arena, _remove, path, os.getpid())
        return arena

    def array(self, name: str) -> np.ndarray:
        """The read-only mapped array stored under ``name``."""
        try:
            return self._arrays[name]
        except KeyError:
            raise ArenaError(
                f"arena {self.spec.path!r} has no array {name!r}"
            ) from None

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self._arrays.values())

    def tables(self) -> BoundaryGreensTables:
        """The Green table over the mapped pages."""
        return BoundaryGreensTables(grid=self.spec.grid(), gpc=self.array("gpc"))

    def edge_op(self) -> EdgeOperator:
        """The arena's edge operator, whatever its representation."""
        arrays = {
            name[3:]: arr
            for name, arr in self._arrays.items()
            if name.startswith("op_")
        }
        return edge_operator_from_arrays(
            self.spec.grid(), self.spec.method, arrays, gpc=self.array("gpc")
        )

    def unlink(self) -> None:
        """Remove the directory (idempotent; a no-op on an attached view)."""
        if self._remover is not None:
            self._remover()


def attach_arena(spec: ArenaSpec) -> TableArena:
    """Worker-side entry point: map the arena described by ``spec``."""
    return TableArena(spec)
