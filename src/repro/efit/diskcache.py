"""The on-disk form of a grid's Green table and edge operator.

Building the boundary Green tables is O(N^3) work (seconds at 257^2,
tens of seconds at 513^2) and the low-rank edge factorisation adds an
SVD per Z offset on top — both depend only on the grid geometry, never
on the shot.  This module is the one place that knows how they live on
disk: an *entry* is a directory of ``.npy`` files, one per array, named
after the grid's :meth:`~repro.efit.grid.RZGrid.geometry_hash` (plus the
method, for an operator).  A writer fills a fresh temporary directory
and renames it into place, so an entry appears whole or not at all; a
reader maps the files back with ``np.load(mmap_mode="r")`` as read-only
views, which outlive the removal of their files.

Two places hold entries:

* the optional cache under ``REPRO_TABLE_CACHE_DIR`` (:func:`load_tables`,
  :func:`store_tables` and their operator pair), which lets repeated runs
  — and CI jobs restoring an ``actions/cache`` entry — skip the rebuild.
  It is strictly fail-soft: an unset variable disables it, a missing or
  damaged entry is a miss that rebuilds, and a write failure is
  swallowed (the in-memory result is still returned);
* a fleet's table arena: :class:`~repro.parallel.engine.ParallelFitEngine`
  writes its table and operator into a directory of its own
  (:func:`write_tables`, :func:`write_edge_operator`) and every worker
  maps them (:func:`read_tables`, :func:`read_edge_operator`).

Entry names carry a format version, so a layout change can never
deserialise garbage into a fit.
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.efit.grid import RZGrid

__all__ = [
    "CACHE_DIR_ENV",
    "DISK_FORMAT_VERSION",
    "cache_dir",
    "table_path",
    "read_tables",
    "write_tables",
    "read_edge_operator",
    "write_edge_operator",
    "load_tables",
    "store_tables",
    "load_edge_operator",
    "store_edge_operator",
]

#: Environment variable naming the cache directory (unset = disabled).
CACHE_DIR_ENV = "REPRO_TABLE_CACHE_DIR"

#: Bumped whenever the stored layout changes; part of every entry name,
#: so old entries are simply never matched.  Version 2: the structured
#: operators' ``meta_i8`` lost its storage-width slots.  Version 3: an
#: entry is a directory of ``.npy`` files (it was one ``.npz``), and an
#: operator's is keyed on its grid and method alone, as the process
#: cache is (``lowrank`` builds at one tolerance).
DISK_FORMAT_VERSION = 3


def cache_dir() -> Path | None:
    """The configured cache directory, or ``None`` when disabled."""
    raw = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(raw) if raw else None


def _table_entry(root: Path, grid: RZGrid) -> Path:
    return Path(root) / f"greens-v{DISK_FORMAT_VERSION}-{grid.geometry_hash()}"


def _operator_entry(root: Path, grid: RZGrid, method: str) -> Path:
    return (
        Path(root) / f"edgeop-v{DISK_FORMAT_VERSION}-{grid.geometry_hash()}-{method}"
    )


def table_path(grid: RZGrid) -> Path | None:
    """The cached Green-table file for ``grid`` (None = disabled)."""
    root = cache_dir()
    return None if root is None else _table_entry(root, grid) / "gpc.npy"


def _write_entry(entry: Path, arrays: dict[str, np.ndarray]) -> int:
    """Publish ``arrays`` as the entry directory ``entry``, whole; returns
    the bytes of the arrays written.

    The files are written into a fresh sibling directory that is renamed
    into place.  An entry already there is moved aside and removed first,
    so a second write replaces it; a reader that mapped part of it sees
    the move (:func:`_read_entry`) and misses.  An ``OSError`` propagates;
    no temporary directory is left behind on any exit.
    """
    entry.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{entry.name}.tmp", dir=entry.parent))
    old = tmp.with_name(f"{tmp.name}.old")
    try:
        os.chmod(tmp, 0o755)  # mkdtemp's is private; the files in it follow the umask
        for name, arr in arrays.items():
            np.save(tmp / f"{name}.npy", arr)
        while True:
            try:
                os.rename(tmp, entry)
                break
            except OSError as exc:
                if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                    raise
            try:
                os.rename(entry, old)  # another writer may have just done so
            except FileNotFoundError:
                pass
            shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # gone already once renamed
    return sum(arr.nbytes for arr in arrays.values())


def _read_entry(entry: Path) -> dict[str, np.ndarray] | None:
    """Map every array of the entry directory ``entry`` read-only; None
    when it is missing, damaged, or replaced while it was being mapped."""
    try:
        before = os.stat(entry)
        arrays = {
            name[: -len(".npy")]: np.asarray(np.load(entry / name, mmap_mode="r"))
            for name in os.listdir(entry)
            if name.endswith(".npy")
        }
        after = os.stat(entry)
    except (OSError, ValueError, EOFError):
        return None
    if (before.st_dev, before.st_ino) != (after.st_dev, after.st_ino):
        return None  # arrays from two writes
    return arrays


def read_tables(root: Path, grid: RZGrid):
    """The :class:`~repro.efit.tables.BoundaryGreensTables` of ``grid``
    stored under ``root`` (read-only mapped), or None."""
    from repro.efit.tables import BoundaryGreensTables

    gpc = (_read_entry(_table_entry(root, grid)) or {}).get("gpc")
    if gpc is None or gpc.shape != (grid.nw, grid.nh, grid.nw) or gpc.dtype != np.float64:
        return None  # missing, or a geometry-hash collision
    return BoundaryGreensTables(grid=grid, gpc=gpc)


def write_tables(root: Path, tables) -> int:
    """Store ``tables`` under ``root``; returns the bytes written."""
    return _write_entry(_table_entry(root, tables.grid), {"gpc": tables.gpc})


def read_edge_operator(root: Path, tables, method: str):
    """The ``method`` :class:`~repro.efit.operators.EdgeOperator` of
    ``tables``' grid stored under ``root`` (over read-only mapped
    arrays), or None.

    ``tables`` (not just the grid) is required because the Toeplitz
    form aliases the Green table rather than storing its own copy.
    """
    from repro.efit.operators import edge_operator_from_arrays
    from repro.errors import OperatorError

    arrays = _read_entry(_operator_entry(root, tables.grid, method))
    if arrays is None:
        return None
    try:
        return edge_operator_from_arrays(tables.grid, method, arrays, gpc=tables.gpc)
    except (OperatorError, KeyError, ValueError, IndexError):
        return None  # stale layout


def write_edge_operator(root: Path, op) -> int:
    """Store one of the :data:`~repro.efit.operators.EDGE_METHODS`
    operators under ``root`` by its ``to_arrays()``; returns the bytes
    written."""
    return _write_entry(_operator_entry(root, op.grid, op.method), op.to_arrays())


def load_tables(grid: RZGrid):
    """The cached tables of ``grid``, or None (a miss, or disabled)."""
    root = cache_dir()
    return None if root is None else read_tables(root, grid)


def load_edge_operator(tables, method: str):
    """The cached ``method`` operator of ``tables``, or None."""
    root = cache_dir()
    return None if root is None else read_edge_operator(root, tables, method)


def _store(write, artefact) -> bool:
    root = cache_dir()
    if root is None:
        return False
    try:
        write(root, artefact)
    except OSError:
        return False
    return True


def store_tables(tables) -> bool:
    """Persist freshly built tables; returns whether an entry was written."""
    return _store(write_tables, tables)


def store_edge_operator(op) -> bool:
    """Persist a freshly built :data:`~repro.efit.operators.EDGE_METHODS`
    operator (the only ones
    :func:`~repro.efit.operators.cached_edge_operator` builds); returns
    whether an entry was written."""
    return _store(write_edge_operator, op)
