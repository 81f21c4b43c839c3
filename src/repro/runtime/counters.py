"""Hardware-counter emulation and runtime accounting.

The paper's Figure 5 is built from profiler counters (Nsight Compute's
``dram__bytes.sum``, rocprof's ``TCC_EA_RDREQ/WRREQ`` requests, Advisor's
memory-workload analysis), all of which measure the DRAM bytes a kernel
moves.  :class:`CounterSet` accumulates those bytes, FLOPs, launches and
device seconds per kernel of a simulated execution;
:attr:`KernelCounters.dram_bytes` is the quantity the figure plots.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.errors import RuntimeModelError

__all__ = [
    "KernelCounters",
    "CounterSet",
    "WorkspaceCounters",
    "CacheCounters",
    "SchedulerCounters",
]


@dataclass
class WorkspaceCounters:
    """Allocation/reuse accounting of a preallocated-buffer arena.

    The batched reconstruction engine asserts *zero steady-state
    allocation* through these counters: after warm-up, ``allocations``
    must stop growing while ``reuses`` keeps climbing.
    """

    allocations: int = 0
    reuses: int = 0
    allocated_bytes: int = 0
    resident_bytes: int = 0

    def record_allocation(self, nbytes: int, *, freed_bytes: int = 0) -> None:
        """Account one fresh buffer allocation (optionally replacing one)."""
        if nbytes < 0 or freed_bytes < 0:
            raise RuntimeModelError("negative workspace byte count")
        self.allocations += 1
        self.allocated_bytes += nbytes
        self.resident_bytes += nbytes - freed_bytes

    def record_reuse(self) -> None:
        """Account one request served from an already-allocated buffer."""
        self.reuses += 1

    @property
    def requests(self) -> int:
        return self.allocations + self.reuses

    @property
    def reuse_fraction(self) -> float:
        """Share of buffer requests served without allocating (0 when idle)."""
        total = self.requests
        return self.reuses / total if total else 0.0


@dataclass
class CacheCounters:
    """Hit/miss/eviction accounting of a size-bounded object cache."""

    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    evictions: int = field(default=0, init=False)
    stored_bytes: int = field(default=0, init=False)

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self, nbytes: int) -> None:
        if nbytes < 0:
            raise RuntimeModelError("negative cache byte count")
        self.misses += 1
        self.stored_bytes += nbytes

    def record_eviction(self, nbytes: int) -> None:
        if nbytes < 0:
            raise RuntimeModelError("negative cache byte count")
        self.evictions += 1
        self.stored_bytes -= nbytes

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stored_bytes = 0


@dataclass
class SchedulerCounters:
    """Job accounting of the multi-process reconstruction scheduler.

    The retry/quarantine path is only trustworthy if it is observable:
    the parallel-stress CI job injects worker crashes, requires every
    submitted job to be completed or quarantined — never silently dropped
    — and fails unless the ``parent`` block of the drill's merged metrics
    shows ``scheduler.crashes`` and ``scheduler.retries`` of at least one.
    """

    submitted: int = field(default=0, init=False)
    completed: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)
    crashes: int = field(default=0, init=False)
    timeouts: int = field(default=0, init=False)
    errors: int = field(default=0, init=False)
    quarantined: int = field(default=0, init=False)
    worker_restarts: int = field(default=0, init=False)

    def snapshot(self) -> "SchedulerCounters":
        """A frozen-in-time copy, for before/after assertions."""
        return copy.copy(self)


@dataclass
class KernelCounters:
    """Per-kernel accumulators."""

    launches: int = field(default=0, init=False)
    flops: float = field(default=0.0, init=False)
    dram_read_bytes: float = field(default=0.0, init=False)
    dram_write_bytes: float = field(default=0.0, init=False)
    device_seconds: float = field(default=0.0, init=False)

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass
class CounterSet:
    """All counters of one simulated device context."""

    kernels: dict[str, KernelCounters] = field(default_factory=dict, init=False)
    h2d_bytes: float = field(default=0.0, init=False)
    d2h_bytes: float = field(default=0.0, init=False)
    page_faults: int = field(default=0, init=False)
    migrations: int = field(default=0, init=False)

    def kernel(self, name: str) -> KernelCounters:
        return self.kernels.setdefault(name, KernelCounters())

    def record_launch(
        self,
        name: str,
        *,
        flops: float,
        read_bytes: float,
        write_bytes: float,
        seconds: float,
    ) -> None:
        if min(flops, read_bytes, write_bytes, seconds) < 0:
            raise RuntimeModelError("negative counter update")
        k = self.kernel(name)
        k.launches += 1
        k.flops += flops
        k.dram_read_bytes += read_bytes
        k.dram_write_bytes += write_bytes
        k.device_seconds += seconds
