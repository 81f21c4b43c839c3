"""Shared-memory arenas for the per-grid Green-function tables.

The boundary Green table is the single largest per-grid object in the
code base — ``(nw, nh, nw)`` float64, 1.08 GB at 513x513 — and it is
*immutable* after construction: every worker of a multi-process
reconstruction fleet reads the identical bytes.  Materialising a private
copy per worker process would multiply resident memory by the worker
count and pay the O(N^3) table build once per process.

:class:`TableArena` instead places one read-only copy in a
``multiprocessing.shared_memory`` segment.  The parent builds it once
(from the process-wide :class:`~repro.efit.tables.BoundaryTableCache`,
so a previously cached table is copied, not rebuilt), workers attach by
name and map the same physical pages.  Worker startup cost is therefore
O(1) in grid size after the first job, under both ``fork`` and ``spawn``
start methods — a forked child *re-seeds* its inherited table cache with
the shared-memory view, so copy-on-write never duplicates the pages
either.

Lifecycle (see ``docs/PARALLEL.md``):

* the parent-side :class:`ArenaManager` keys arenas by grid geometry and
  reference-counts them — two engines on the same grid share one arena;
* :meth:`ArenaManager.release` unlinks the segment at refcount zero;
* an ``atexit`` hook unlinks anything leaked by a crashed parent, so
  ``/dev/shm`` is not littered across runs;
* workers attach read-only (the numpy views have ``writeable = False``)
  and only ever ``close()`` — the parent owns ``unlink()``.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.efit.grid import RZGrid
from repro.efit.operators import (
    EdgeOperator,
    cached_edge_operator,
    edge_operator_from_arrays,
)
from repro.efit.tables import BoundaryGreensTables, cached_boundary_tables
from repro.errors import ArenaError

__all__ = [
    "ArenaSegment",
    "ArenaSpec",
    "TableArena",
    "AttachedArena",
    "ArenaManager",
    "arena_manager",
    "attach_arena",
]

#: Segment alignment inside one shared block (cache-line friendly).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArenaSegment:
    """One named array inside a shared block (picklable descriptor)."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a worker needs to attach an arena: the shared-memory
    segment name, the grid geometry and the array layout.  Picklable, so
    it travels in the worker-initialisation arguments under ``spawn``."""

    shm_name: str
    grid_nw: int
    grid_nh: int
    grid_rmin: float
    grid_rmax: float
    grid_zmin: float
    grid_zmax: float
    segments: tuple[ArenaSegment, ...]
    #: Edge-operator representation stored in the arena (one of
    #: :data:`repro.efit.operators.EDGE_METHODS`).
    boundary_method: str
    #: Content identity — grid hash + method + rank tag — so
    #: two processes can tell at a glance whether their arenas are
    #: interchangeable (the distributed-fleet transport will key on it).
    content_key: str = ""

    def grid(self) -> RZGrid:
        return RZGrid(
            self.grid_nw,
            self.grid_nh,
            rmin=self.grid_rmin,
            rmax=self.grid_rmax,
            zmin=self.grid_zmin,
            zmax=self.grid_zmax,
        )

    def segment(self, name: str) -> ArenaSegment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise ArenaError(f"arena {self.shm_name!r} has no segment {name!r}")


def _view(shm: shared_memory.SharedMemory, seg: ArenaSegment) -> np.ndarray:
    """A read-only ndarray over one segment of ``shm``."""
    arr = np.ndarray(
        seg.shape, dtype=np.dtype(seg.dtype), buffer=shm.buf, offset=seg.offset
    )
    arr.flags.writeable = False
    return arr


def _shared_edge_operator(
    shm: shared_memory.SharedMemory, spec: ArenaSpec
) -> EdgeOperator:
    """Rebuild the arena's edge operator over its shared segments."""
    arrays = {
        seg.name[3:]: _view(shm, seg)
        for seg in spec.segments
        if seg.name.startswith("op_")
    }
    return edge_operator_from_arrays(
        spec.grid(), spec.boundary_method, arrays, gpc=_view(shm, spec.segment("gpc"))
    )


_NAME_SEQ = 0
_NAME_LOCK = threading.Lock()


def _fresh_name() -> str:
    global _NAME_SEQ
    with _NAME_LOCK:
        _NAME_SEQ += 1
        return f"repro_{os.getpid()}_{_NAME_SEQ}"


class TableArena:
    """Parent-side owner of one shared-memory table block.

    Holds the Green table (``gpc``) and the edge-flux operator's arrays
    for one grid.  Create with :meth:`build`; hand :attr:`spec` to workers;
    :meth:`unlink` exactly once when the last user is done (the
    :class:`ArenaManager` does the counting).
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, spec: ArenaSpec
    ) -> None:
        self._shm = shm
        self.spec = spec
        self._unlinked = False

    @classmethod
    def build(cls, grid: RZGrid, boundary_method: str) -> "TableArena":
        """Copy the (cached) boundary tables + edge operator into shm.

        ``boundary_method`` picks the operator representation shared with
        the workers; whichever it is, its
        :meth:`~repro.efit.operators.EdgeOperator.to_arrays` segments are
        stored under ``op_*`` names.  A ``toeplitz`` arena (the fleet's
        default) is the Green table plus ``op_vert_spectra`` and
        ``op_meta_i8`` — 71 kB beside the 2.2 MB table at 65x65; a
        ``dense`` one adds the 8.7 MB ``op_matrix`` there and 541 MB at
        257x257 (the pages are shared either way, but the build, the copy
        and the cache pressure all grow with it).
        """
        tables = cached_boundary_tables(grid)
        op = cached_edge_operator(tables, boundary_method)
        arrays = {"gpc": np.ascontiguousarray(tables.gpc)}
        for name, arr in op.to_arrays().items():
            arrays[f"op_{name}"] = np.ascontiguousarray(arr)
        segments: list[ArenaSegment] = []
        offset = 0
        for name, arr in arrays.items():
            offset = _aligned(offset)
            segments.append(
                ArenaSegment(
                    name=name,
                    shape=tuple(arr.shape),
                    dtype=arr.dtype.str,
                    offset=offset,
                )
            )
            offset += arr.nbytes
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=max(offset, 1), name=_fresh_name()
            )
        except OSError as exc:  # pragma: no cover - environment dependent
            raise ArenaError(f"cannot create shared-memory arena: {exc}") from exc
        spec = ArenaSpec(
            shm_name=shm.name,
            grid_nw=grid.nw,
            grid_nh=grid.nh,
            grid_rmin=grid.rmin,
            grid_rmax=grid.rmax,
            grid_zmin=grid.zmin,
            grid_zmax=grid.zmax,
            segments=tuple(segments),
            boundary_method=boundary_method,
            content_key=op.content_key,
        )
        arena = cls(shm, spec)
        for seg in segments:
            dst = np.ndarray(
                seg.shape, dtype=np.dtype(seg.dtype), buffer=shm.buf, offset=seg.offset
            )
            np.copyto(dst, arrays[seg.name])
        return arena

    @property
    def nbytes(self) -> int:
        return sum(seg.nbytes for seg in self.spec.segments)

    def _require_mapped(self) -> None:
        """Refuse to hand out views over an unlinked mapping.

        This is the runtime twin of the static
        ``lifecycle-use-after-unlink`` rule: without it a stale view
        reads unmapped pages and the failure is a segfault somewhere
        else entirely (the PR 4 bug); with it the misuse is a clean
        :class:`~repro.errors.ArenaError` at the offending call."""
        if self._unlinked:
            raise ArenaError(
                f"arena {self.spec.shm_name!r} is unlinked: views over its "
                f"pages are gone (use-after-unlink)"
            )

    def tables(self) -> BoundaryGreensTables:
        """The parent's own read-only view (same pages the workers map)."""
        self._require_mapped()
        return BoundaryGreensTables(
            grid=self.spec.grid(), gpc=_view(self._shm, self.spec.segment("gpc"))
        )

    def edge_op(self) -> EdgeOperator:
        """The arena's edge operator, whatever its representation."""
        self._require_mapped()
        return _shared_edge_operator(self._shm, self.spec)

    def unlink(self) -> None:
        """Close and remove the segment (idempotent; parent-side only)."""
        if self._unlinked:
            return
        self._unlinked = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class AttachedArena:
    """Worker-side view of an arena: attach by name, close on exit.

    Keeps the ``SharedMemory`` handle alive for as long as the numpy
    views are in use.  The attachment is *not* registered with the
    ``resource_tracker`` because the *parent* owns the segment's
    lifetime — without this, every worker exit would race to unlink the
    arena the other workers are still mapping (a long-standing CPython
    sharp edge with attached segments; CPython 3.13 adds ``track=False``
    for exactly this, here emulated by suppressing the registration
    call during attach).
    """

    def __init__(self, spec: ArenaSpec) -> None:
        self.spec = spec
        self._closed = False
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            self._shm = shared_memory.SharedMemory(name=spec.shm_name)
        except FileNotFoundError:
            raise ArenaError(
                f"arena {spec.shm_name!r} does not exist (parent gone or unlinked)"
            ) from None
        finally:
            resource_tracker.register = original_register

    def _require_open(self) -> None:
        """Runtime twin of ``lifecycle-use-after-unlink`` on the worker
        side: a view handed out after ``close()`` would dereference an
        unmapped buffer."""
        if self._closed:
            raise ArenaError(
                f"attached arena {self.spec.shm_name!r} is closed: views over "
                f"its pages are gone (use-after-close)"
            )

    def tables(self) -> BoundaryGreensTables:
        self._require_open()
        return BoundaryGreensTables(
            grid=self.spec.grid(), gpc=_view(self._shm, self.spec.segment("gpc"))
        )

    def edge_op(self) -> EdgeOperator:
        """The arena's edge operator, whatever its representation."""
        self._require_open()
        return _shared_edge_operator(self._shm, self.spec)

    def close(self) -> None:
        """Unmap the attachment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()


def attach_arena(spec: ArenaSpec) -> AttachedArena:
    """Worker-side entry point: map the arena described by ``spec``."""
    return AttachedArena(spec)


class ArenaManager:
    """Reference-counted registry of arenas, keyed by content identity.

    The key is grid geometry *plus* edge-operator method: a ``dense``
    and a ``lowrank`` fleet on the same grid hold different operator
    bytes, so they get distinct arenas; two fleets with the same grid
    and method share one.  ``acquire`` builds the arena on first use and
    bumps the refcount on every later call with the same identity;
    ``release`` unlinks at zero.  One manager per parent process (see
    :func:`arena_manager`).
    """

    def __init__(self) -> None:
        self._arenas: dict[tuple, TableArena] = {}
        self._refs: dict[tuple, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(grid: RZGrid, boundary_method: str) -> tuple:
        return (grid.geometry_hash(), boundary_method)

    def acquire(self, grid: RZGrid, boundary_method: str) -> TableArena:
        key = self._key(grid, boundary_method)
        with self._lock:
            arena = self._arenas.get(key)
            if arena is None:
                arena = TableArena.build(grid, boundary_method)
                self._arenas[key] = arena
                self._refs[key] = 0
            self._refs[key] += 1
            return arena

    def release(self, grid: RZGrid, boundary_method: str) -> None:
        key = self._key(grid, boundary_method)
        with self._lock:
            if key not in self._refs:
                raise ArenaError("release() of an arena that was never acquired")
            self._refs[key] -= 1
            if self._refs[key] <= 0:
                self._arenas.pop(key).unlink()
                del self._refs[key]

    def refcount(self, grid: RZGrid, boundary_method: str) -> int:
        with self._lock:
            return self._refs.get(self._key(grid, boundary_method), 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._arenas)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(a.nbytes for a in self._arenas.values())

    def shutdown(self) -> None:
        """Unlink everything regardless of refcounts (atexit safety net)."""
        with self._lock:
            for arena in self._arenas.values():
                arena.unlink()
            self._arenas.clear()
            self._refs.clear()


_MANAGER = ArenaManager()
atexit.register(_MANAGER.shutdown)


def arena_manager() -> ArenaManager:
    """The process-wide arena manager (parent side)."""
    return _MANAGER
