"""On-disk persistence of Green tables and edge operators.

Building the boundary Green tables is O(N^3) work (seconds at 257^2,
tens of seconds at 513^2) and the low-rank edge factorisation adds an
SVD per Z offset on top — both depend only on the grid geometry, never
on the shot.  When ``REPRO_TABLE_CACHE_DIR`` points at a directory,
this module persists each artefact there as a ``.npz`` keyed on the
grid's :meth:`~repro.efit.grid.RZGrid.geometry_hash` (plus method and
tolerance for operators), so repeated runs — and most importantly CI
jobs restoring an ``actions/cache`` entry — skip the rebuild entirely.

The layer is strictly fail-soft: an unset variable disables it, an
unreadable or stale file falls back to building, and a write failure is
swallowed (the in-memory result is still returned).  Files carry a
format version in their name so a layout change can never deserialise
garbage into a fit.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
from pathlib import Path

import numpy as np

from repro.efit.grid import RZGrid

__all__ = [
    "CACHE_DIR_ENV",
    "DISK_FORMAT_VERSION",
    "cache_dir",
    "table_path",
    "operator_path",
    "load_tables",
    "store_tables",
    "load_edge_operator",
    "store_edge_operator",
]

#: Environment variable naming the cache directory (unset = disabled).
CACHE_DIR_ENV = "REPRO_TABLE_CACHE_DIR"

#: Bumped whenever the serialised layout changes; part of every file
#: name, so old cache entries are simply never matched.  Version 2: the
#: structured operators' ``meta_i8`` lost its storage-width slots.
DISK_FORMAT_VERSION = 2


def cache_dir() -> Path | None:
    """The configured cache directory, or ``None`` when disabled."""
    raw = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(raw) if raw else None


def _slug(text: str) -> str:
    """File-name-safe form of a method/tolerance tag."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def table_path(grid: RZGrid) -> Path | None:
    """Where the Green tables for ``grid`` live on disk (None = disabled)."""
    root = cache_dir()
    if root is None:
        return None
    return root / f"greens-v{DISK_FORMAT_VERSION}-{grid.geometry_hash()}.npz"


def operator_path(grid: RZGrid, method: str, tol: float) -> Path | None:
    """Where the edge operator for ``(grid, method, tol)`` lives on disk.

    Keyed on the *inputs* of the build (not the resulting variant tag,
    which embeds the discovered rank and is unknowable before the SVD).
    """
    root = cache_dir()
    if root is None:
        return None
    tag = _slug(f"{method}-tol{tol:g}")
    return (
        root
        / f"edgeop-v{DISK_FORMAT_VERSION}-{grid.geometry_hash()}-{tag}.npz"
    )


def _load_npz(path: Path | None) -> dict[str, np.ndarray] | None:
    if path is None or not path.is_file():
        return None
    try:
        with np.load(path) as payload:
            return {name: payload[name] for name in payload.files}
    except (OSError, ValueError, KeyError, EOFError):
        return None  # damaged entry: rebuild


#: Process-local sequence making each temp file name unique: two threads
#: in one process (concurrent serve sessions, batch workers) share a pid,
#: so the pid alone is not a safe key.  ``itertools.count`` increments
#: atomically under the GIL.
_TMP_SEQUENCE = itertools.count()


def _store_npz(path: Path | None, arrays: dict[str, np.ndarray]) -> bool:
    if path is None:
        return False
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{next(_TMP_SEQUENCE)}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)  # atomic: a concurrent reader never sees a torn file
        return True
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        return False
    except BaseException:
        # Non-OSError failures (bad array payload, interrupt) are not
        # fail-soft cases — propagate them, but never leave the torn
        # temp file behind (and never let the cleanup mask them).
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def load_tables(grid: RZGrid):
    """Cached :class:`~repro.efit.tables.BoundaryGreensTables`, or None."""
    from repro.efit.tables import BoundaryGreensTables

    arrays = _load_npz(table_path(grid))
    if arrays is None or "gpc" not in arrays:
        return None
    gpc = arrays["gpc"]
    if gpc.shape != (grid.nw, grid.nh, grid.nw) or gpc.dtype != np.float64:
        return None  # geometry-hash collision or corrupt entry
    return BoundaryGreensTables(grid=grid, gpc=gpc)


def store_tables(tables) -> bool:
    """Persist freshly built tables; returns whether a file was written."""
    return _store_npz(table_path(tables.grid), {"gpc": tables.gpc})


def load_edge_operator(tables, method: str, tol: float):
    """Cached :class:`~repro.efit.operators.EdgeOperator`, or None.

    ``tables`` (not just the grid) is required because the Toeplitz
    form aliases the Green table rather than storing its own copy.
    """
    from repro.efit.operators import edge_operator_from_arrays
    from repro.errors import OperatorError

    arrays = _load_npz(operator_path(tables.grid, method, tol))
    if arrays is None:
        return None
    try:
        return edge_operator_from_arrays(
            tables.grid, method, arrays, gpc=tables.gpc
        )
    except (OperatorError, KeyError, ValueError, IndexError):
        return None  # stale layout: rebuild


def store_edge_operator(op, tol: float) -> bool:
    """Persist a structured operator; dense is never written.

    The dense matrix is a gather from tables :func:`store_tables` already
    covers, and its file would be four times the table's.  The gather is
    not cheap, though: first-touch page faults on the O(N^3) result make
    it 6-11 s at 129^2 and 45-60 s at 257^2 on the reference box
    (EXPERIMENTS.md, "Edge-operator methods") — every process that wants
    a dense operator pays that once.
    """
    if op.method == "dense":
        return False
    return _store_npz(operator_path(op.grid, op.method, tol), op.to_arrays())
