"""Preallocated workspace arenas for the reconstruction hot path.

NumPy's expression style allocates a fresh array per intermediate; at
thousands of Picard iterates per shot that is both allocator pressure and
cache churn.  :class:`FitWorkspace` holds named buffers that are
allocated once and reused across Picard iterates, slices and batches —
the flux step (:class:`~repro.efit.pflux.PfluxStructured`) keeps one, and
callers request ``ws.array(name, shape)`` and write into the result with
``out=``-style kernels.  Every request is counted through a
:class:`~repro.runtime.counters.WorkspaceCounters`, so the benchmark
suite can assert that steady-state iterates perform *zero* fresh
allocations: after warm-up, ``allocations`` stays flat while ``reuses``
keeps climbing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FittingError
from repro.runtime.counters import WorkspaceCounters

__all__ = ["FitWorkspace"]


class FitWorkspace:
    """A named-buffer arena of float64 arrays with allocation/reuse
    accounting in its own :attr:`counters`.

    Buffers are keyed by name; a request re-allocates only when the name
    is new or the requested shape changed (e.g. the flux step
    served a wider batch than before).  Buffers are returned
    *uninitialised* on first allocation — callers own the fill.

    Not thread-safe: each flux step keeps its own, and a solver is driven
    from one thread at a time.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self.counters = WorkspaceCounters()

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Return the buffer ``name``, (re)allocating only on shape change."""
        if not name:
            raise FittingError("workspace buffer needs a name")
        shape = tuple(int(s) for s in shape)
        arr = self._arrays.get(name)
        if arr is not None and arr.shape == shape:
            self.counters.record_reuse()
            return arr
        freed = arr.nbytes if arr is not None else 0
        arr = np.empty(shape)
        self._arrays[name] = arr
        self.counters.record_allocation(arr.nbytes, freed_bytes=freed)
        return arr
