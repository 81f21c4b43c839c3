"""Hardware-counter emulation and runtime accounting.

The paper's Figure 5 is built from profiler counters (Nsight Compute's
``dram__bytes.sum``, rocprof's ``TCC_EA_RDREQ/WRREQ`` requests, Advisor's
memory-workload analysis), all of which measure the DRAM bytes a kernel
moves.  :class:`CounterSet` accumulates those bytes, FLOPs, launches and
device seconds per kernel of a simulated execution;
:attr:`KernelCounters.dram_bytes` is the quantity the figure plots.
"""

from __future__ import annotations

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

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stored_bytes: int = 0

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
    the parallel-stress CI job injects worker crashes and then asserts
    through these counters that every submitted job was either completed
    or quarantined — never silently dropped — and that ``crashes`` and
    ``retries`` actually moved.
    """

    submitted: int = 0
    completed: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0
    quarantined: int = 0
    worker_restarts: int = 0

    def snapshot(self) -> "SchedulerCounters":
        """A frozen-in-time copy, for before/after assertions."""
        return SchedulerCounters(
            submitted=self.submitted,
            completed=self.completed,
            retries=self.retries,
            crashes=self.crashes,
            timeouts=self.timeouts,
            errors=self.errors,
            quarantined=self.quarantined,
            worker_restarts=self.worker_restarts,
        )


@dataclass
class KernelCounters:
    """Per-kernel accumulators."""

    launches: int = 0
    flops: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    device_seconds: float = 0.0

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass
class CounterSet:
    """All counters of one simulated device context."""

    kernels: dict[str, KernelCounters] = field(default_factory=dict)
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    page_faults: int = 0
    migrations: int = 0

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
