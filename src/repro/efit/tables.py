"""Precomputed Green-function tables for the ``pflux_`` boundary sums.

EFIT computes the plasma contribution to the poloidal flux on the edge of
the computational box by summing the filament Green function against the
grid current.  Because the Z mesh is uniform, ``G`` between a boundary node
at column ``i_b`` and a source node at column ``ii`` depends on Z only
through ``|j_b - jj|``; EFIT therefore precomputes the table visible in the
paper's Figure 2/3 kernel::

    gridpc((i_b)*nh + mj, ii)    with    mj = |j_b - jj| + 1   (1-based)

i.e. a ``(nw*nh, nw)`` array whose row block ``i_b`` holds the Green
function from boundary-column ``i_b`` to every source column at every Z
offset.  The left edge uses block ``i_b = 1``, the right edge block
``i_b = nw`` (the ``mk=(nw-1)*nh+mj`` offset in the paper), and the
top/bottom edges walk all blocks.

:class:`BoundaryGreensTables` stores the same data as a 3-D array
``gpc[i_b, dj, ii]`` plus a :meth:`fortran_view` that reproduces EFIT's 2-D
layout exactly, so the reference kernel in :mod:`repro.efit.pflux` can be
compared line-by-line with the paper listing.

Coincident self terms (``i_b == ii`` and ``dj == 0`` — a boundary node
acting on itself) are regularised with the finite-filament self flux using
an effective wire radius derived from the cell area, as EFIT does.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.efit.greens import _BLOCK_PAIRS, greens_psi, self_flux_per_radian
from repro.efit.grid import RZGrid
from repro.errors import GreensError
from repro.runtime.counters import CacheCounters

__all__ = [
    "BoundaryGreensTables",
    "BoundaryTableCache",
    "build_boundary_tables",
    "boundary_table_cache",
    "cached_boundary_tables",
    "effective_filament_radius",
]


def effective_filament_radius(grid: RZGrid) -> float:
    """Effective wire radius of a grid-cell filament: half the geometric
    mean of the cell sides (the standard finite-area regularisation)."""
    return 0.5 * float(np.sqrt(grid.dr * grid.dz))


@dataclass(frozen=True)
class BoundaryGreensTables:
    """Green tables from every boundary column to every grid node.

    Attributes
    ----------
    grid:
        The computational grid the tables were built for.
    gpc:
        ``(nw, nh, nw)`` array; ``gpc[i_b, dj, ii]`` is the flux per radian
        at radius ``r[i_b]`` from a unit filament at radius ``r[ii]``
        separated vertically by ``dj * dz``.
    """

    grid: RZGrid
    gpc: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.nw, self.grid.nh, self.grid.nw)
        if self.gpc.shape != expected:
            raise GreensError(f"gpc shape {self.gpc.shape}, expected {expected}")

    @property
    def nbytes(self) -> int:
        return int(self.gpc.nbytes)

    def fortran_view(self) -> np.ndarray:
        """The EFIT ``gridpc(nw*nh, nw)`` layout (0-based row ``i_b*nh+dj``).

        This is a reshaped view — no copy — so the reference kernel indexes
        the identical memory the vectorised kernels use.
        """
        nw, nh = self.grid.nw, self.grid.nh
        return self.gpc.reshape(nw * nh, nw)


def build_boundary_tables(grid: RZGrid) -> BoundaryGreensTables:
    """Build the full boundary Green tables for ``grid``.

    The table is ``O(N^3)`` in storage — 1.08 GB at 513x513, which is
    precisely why the paper's kernels are memory-bandwidth bound and why
    unified-memory behaviour dominates the small-grid timings.  ``G_psi``
    is symmetric in ``R <-> R_s`` bit for bit, so only the pairs with
    source column >= boundary column are evaluated — flat blocks of whole
    column pairs, at most ``_BLOCK_PAIRS`` entries each, to bound temporary
    memory — and each value is written to ``gpc[i, :, j]`` and
    ``gpc[j, :, i]`` alike.
    """
    nw, nh, r, dz_off = grid.nw, grid.nh, grid.r, np.arange(grid.nh) * grid.dz
    gpc, columns = np.empty((nw, nh, nw)), np.arange(nw)
    # A column against itself skips dj == 0, the coincident self term.
    for (rows, cols), dj0 in (((columns, columns), 1), (np.triu_indices(nw, k=1), 0)):
        step = max(1, _BLOCK_PAIRS // (nh - dj0))
        for k in range(0, rows.size, step):
            i, j = rows[k : k + step], cols[k : k + step]
            block = greens_psi(r[i, None], 0.0, r[j, None], dz_off[dj0:])
            gpc[i, dj0:, j] = gpc[j, dj0:, i] = block
    gpc[columns, 0, columns] = self_flux_per_radian(r, effective_filament_radius(grid))
    return BoundaryGreensTables(grid=grid, gpc=gpc)


#: Default table-cache budget: holds one 513x513 table (1.08 GB) plus the
#: full small-grid sweep, overridable via ``REPRO_TABLE_CACHE_BYTES``.
_DEFAULT_CACHE_BYTES = 1_600_000_000


class BoundaryTableCache:
    """Bytes-bounded LRU cache of :class:`BoundaryGreensTables` per grid.

    The old ``lru_cache(maxsize=4)`` counted *entries*, so a fifth distinct
    grid evicted by recency regardless of size — a 513x513 table (1.08 GB)
    and a 33x33 one (280 kB) cost the same slot.  This cache bounds the
    *total bytes* instead: small grids coexist essentially for free and a
    big table only evicts when the budget genuinely runs out.  The most
    recently built table is always retained, even when it alone exceeds
    the budget.  Hit/miss/eviction statistics are exposed through a
    :class:`~repro.runtime.counters.CacheCounters` (:meth:`cache_info`)
    so the throughput benchmarks can assert table reuse across slices.
    """

    def __init__(self, max_bytes: int = _DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise GreensError("cache budget must be non-negative")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, BoundaryGreensTables] = OrderedDict()
        self._operators: dict[tuple, dict] = {}
        self.counters = CacheCounters()

    @staticmethod
    def _key(grid: RZGrid) -> tuple:
        return (grid.nw, grid.nh, grid.rmin, grid.rmax, grid.zmin, grid.zmax)

    @property
    def current_bytes(self) -> int:
        return sum(t.nbytes for t in self._entries.values())

    def operators(self, grid: RZGrid) -> dict:
        """The edge operators built from ``grid``'s table, by method
        (:func:`repro.efit.operators.cached_edge_operator` fills it).

        An operator may alias the table, so it lives exactly as long as
        the entry: :meth:`clear`, an eviction and a :meth:`seed` over the
        entry forget it with the table.
        """
        return self._operators.setdefault(self._key(grid), {})

    def get(self, grid: RZGrid) -> BoundaryGreensTables:
        """Return the cached tables for ``grid``, building on first use.

        A miss consults the optional on-disk layer
        (:mod:`repro.efit.diskcache`, ``REPRO_TABLE_CACHE_DIR``) before
        paying the O(N^3) build, and publishes a fresh build back to it.
        """
        key = self._key(grid)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.counters.record_hit()
            return entry
        from repro.efit import diskcache

        tables = diskcache.load_tables(grid)
        if tables is None:
            tables = build_boundary_tables(grid)
            diskcache.store_tables(tables)
        self.counters.record_miss(tables.nbytes)
        self._entries[key] = tables
        self._shrink()
        return tables

    def _shrink(self) -> None:
        """Evict least-recently-used entries until within budget (the
        newest entry is never evicted)."""
        while len(self._entries) > 1 and self.current_bytes > self.max_bytes:
            key, evicted = self._entries.popitem(last=False)
            self._operators.pop(key, None)
            self.counters.record_eviction(evicted.nbytes)

    def seed(self, tables: BoundaryGreensTables) -> None:
        """Install externally-built tables for their grid.

        The multi-process fleet uses this on the worker side: the parent
        writes the tables to its arena directory and each worker seeds its
        own cache with its read-only mapping of them
        (:func:`repro.efit.diskcache.read_tables`), so every later
        ``cached_boundary_tables(grid)`` — including the engine-internal
        ones — resolves to the shared pages instead of an O(N^3) rebuild.
        Seeding the same grid twice replaces the entry (the bytes are
        identical by construction); statistics count it as a miss of
        zero *new* private bytes, since the pages are shared.
        """
        key = self._key(tables.grid)
        if key not in self._entries:
            self.counters.record_miss(0)
        self._entries[key] = tables
        self._entries.move_to_end(key)
        self._operators.pop(key, None)

    def cache_info(self) -> dict[str, int]:
        """``functools.lru_cache``-style statistics, plus byte accounting."""
        return {
            "hits": self.counters.hits,
            "misses": self.counters.misses,
            "evictions": self.counters.evictions,
            "currsize": len(self._entries),
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._operators.clear()
        self.counters.reset()


def _cache_budget_from_env() -> int:
    """The cache budget ``REPRO_TABLE_CACHE_BYTES`` sets (a whole number of
    bytes, at least 0), or the default when it is unset or empty."""
    raw = os.environ.get("REPRO_TABLE_CACHE_BYTES", "")
    if not raw:
        return _DEFAULT_CACHE_BYTES
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise GreensError(f"REPRO_TABLE_CACHE_BYTES={raw!r} is not a whole number of bytes >= 0")
    return budget


_TABLE_CACHE = BoundaryTableCache(_cache_budget_from_env())


def boundary_table_cache() -> BoundaryTableCache:
    """The process-wide table cache (shared by fitting, batch engine and
    benchmarks); use its :meth:`~BoundaryTableCache.cache_info` hook to
    observe reuse."""
    return _TABLE_CACHE


def cached_boundary_tables(grid: RZGrid) -> BoundaryGreensTables:
    """Memoised table builder keyed on the grid geometry.

    The tables depend only on the mesh, not on the shot, so the fitting
    driver and the benchmark harness share one copy per grid size.
    """
    return _TABLE_CACHE.get(grid)
