"""Hardware-counter emulation.

The paper's Figure 5 is built from profiler counters: ``dram__bytes.sum``
(Nsight Compute), the ``TCC_EA_RDREQ/WRREQ`` request counters (rocprof)
and Advisor's memory-workload analysis.  :class:`CounterSet` accumulates
the same quantities per kernel and renders tool-flavoured reports so the
benchmark harness can "run the profiler" on a simulated execution.
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

    def snapshot(self) -> "WorkspaceCounters":
        """A frozen-in-time copy, for before/after steady-state checks."""
        return WorkspaceCounters(
            allocations=self.allocations,
            reuses=self.reuses,
            allocated_bytes=self.allocated_bytes,
            resident_bytes=self.resident_bytes,
        )

    def allocations_since(self, previous: "WorkspaceCounters") -> int:
        """Fresh allocations since ``previous`` (a :meth:`snapshot`).

        A warm :class:`~repro.batch.engine.BatchFitEngine` reports zero
        here: it asks for no workspace buffer it has not already made.
        The count covers workspace requests only, not every array a
        batch makes.
        """
        delta = self.allocations - previous.allocations
        if delta < 0:
            raise RuntimeModelError(
                "allocation counter moved backwards: snapshot is not from this counter's past"
            )
        return delta

    def reset(self) -> None:
        self.allocations = 0
        self.reuses = 0
        self.allocated_bytes = 0
        self.resident_bytes = 0


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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

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

    @property
    def accounted(self) -> int:
        """Jobs with a final disposition (completed or quarantined)."""
        return self.completed + self.quarantined

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

    def reset(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.retries = 0
        self.crashes = 0
        self.timeouts = 0
        self.errors = 0
        self.quarantined = 0
        self.worker_restarts = 0


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

    @property
    def total_dram_bytes(self) -> float:
        return sum(k.dram_bytes for k in self.kernels.values())

    @property
    def total_launches(self) -> int:
        return sum(k.launches for k in self.kernels.values())

    @property
    def total_device_seconds(self) -> float:
        return sum(k.device_seconds for k in self.kernels.values())

    def reset(self) -> None:
        self.kernels.clear()
        self.h2d_bytes = 0.0
        self.d2h_bytes = 0.0
        self.page_faults = 0
        self.migrations = 0

    # -- profiler-flavoured views (Appendix A) -----------------------------------
    def nsight_report(self, kernel: str) -> dict[str, float]:
        """NVIDIA Nsight Compute style: ``dram__bytes.sum``."""
        k = self.kernel(kernel)
        return {
            "dram__bytes.sum": k.dram_bytes,
            "dram__bytes_read.sum": k.dram_read_bytes,
            "dram__bytes_write.sum": k.dram_write_bytes,
            "launch__count": float(k.launches),
        }

    def rocprof_report(self, kernel: str) -> dict[str, float]:
        """AMD rocprof style: EA read/write request counts.

        Inverse of the Appendix A formula — reads modeled as 64 B
        requests, writes as 64 B requests, so
        ``GPU Bytes Moved = 64*(RD + WR)`` reproduces the byte counters.
        """
        k = self.kernel(kernel)
        return {
            "TCC_EA_RDREQ_sum": k.dram_read_bytes / 64.0,
            "TCC_EA_RDREQ_32B_sum": 0.0,
            "TCC_EA_WRREQ_sum": k.dram_write_bytes / 64.0,
            "TCC_EA_WRREQ_64B_sum": k.dram_write_bytes / 64.0,
        }

    def advisor_report(self, kernel: str) -> dict[str, float]:
        """Intel Advisor style: GTI (memory) traffic and FLOP counts."""
        k = self.kernel(kernel)
        return {
            "gpu_memory_bytes": k.dram_bytes,
            "gpu_compute_flop": k.flops,
            "kernel_invocations": float(k.launches),
        }

    @staticmethod
    def rocprof_bytes_moved(report: dict[str, float]) -> float:
        """Appendix A formula applied to a rocprof report."""
        wr64 = report["TCC_EA_WRREQ_64B_sum"]
        wr = report["TCC_EA_WRREQ_sum"]
        rd32 = report["TCC_EA_RDREQ_32B_sum"]
        rd = report["TCC_EA_RDREQ_sum"]
        return 64.0 * wr64 + 32.0 * (wr - wr64) + 32.0 * rd32 + 64.0 * (rd - rd32)
