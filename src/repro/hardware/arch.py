"""Architecture parameter records for the device cost models."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError

__all__ = ["GPUArchitecture", "CPUArchitecture"]


@dataclass(frozen=True)
class GPUArchitecture:
    """One programmable GPU device (a full A100, one MI250X GCD, one PVC stack).

    Parameters are peak values; the execution model applies per-kernel
    efficiencies on top.
    """

    name: str
    vendor: str
    #: Peak FP64 throughput [GFLOP/s] (vector units, no tensor/matrix cores
    #: — the paper notes EFIT cannot exploit the A100 DP tensor core).
    peak_fp64_gflops: float
    #: Peak HBM bandwidth [GB/s].
    hbm_bw_gbs: float
    #: Fraction of peak bandwidth a well-tuned streaming kernel attains.
    hbm_efficiency: float
    #: Last-level cache [MiB] — decides whether the Green-table working
    #: set can be reused on-chip.
    llc_mib: float
    #: Number of compute units (SMs / CUs / Xe-cores).
    compute_units: int
    #: SIMT execution width (warp 32 / wavefront 64 / EU-pair 16x2).
    simd_width: int
    #: Resident threads needed to saturate memory latency.
    threads_for_saturation: int
    #: Kernel launch + runtime overhead per offloaded region [us] — the
    #: "10us of latency will impede acceleration of the smaller loops"
    #: observation of Section 2.
    kernel_launch_us: float
    #: Effective host link bandwidth [GB/s] (PCIe 4.0 x16 / Infinity
    #: Fabric / PCIe 5.0), as achieved rather than nameplate.
    host_link_gbs: float
    #: Unified-memory page size [KiB] (CUDA/ROCm migrate 2 MiB chunks...
    #: modeled at migration granularity).
    page_kib: float
    #: Cost per page-fault-triggered migration batch [us], on top of the
    #: link transfer time.
    page_fault_us: float
    #: Maximum fault batches charged per array per touch — the driver
    #: coalesces faults on contiguous ranges, so large arrays do not pay
    #: per-page forever.
    fault_batch_pages: int
    #: Device memory capacity [GiB] — bounds the Green tables (1.08 GB at
    #: 513^2, 8.6 GB at 1025^2) and hence the largest grid per device.
    hbm_gib: float
    #: Whether the software stack offers unified (page-migrating) memory.
    unified_memory: bool

    def __post_init__(self) -> None:
        if self.peak_fp64_gflops <= 0 or self.hbm_bw_gbs <= 0:
            raise HardwareError(f"{self.name}: non-positive peak rates")
        if not (0.0 < self.hbm_efficiency <= 1.0):
            raise HardwareError(f"{self.name}: hbm_efficiency outside (0, 1]")
        if self.compute_units < 1 or self.simd_width < 1:
            raise HardwareError(f"{self.name}: invalid unit counts")

    @property
    def page_bytes(self) -> float:
        return self.page_kib * 1024.0


@dataclass(frozen=True)
class CPUArchitecture:
    """A single host core, as used for the paper's baseline (1 CPU core).

    Two sustained rates model the two code versions of Section 6: the
    original Fortran (array-section temporaries, array reductions) and the
    optimized code (scalar reductions), which the paper reports as a 3x
    CPU-side improvement.
    """

    name: str
    vendor: str
    #: Sustained FP64 rate of the *original* code [GFLOP/s per core].
    sustained_gflops_baseline: float
    #: Sustained FP64 rate of the scalar-reduction optimized code.
    sustained_gflops_optimized: float
    #: Per-core streaming bandwidth [GB/s].
    core_bw_gbs: float
    #: Per-core last-level cache share [MiB].
    llc_mib: float
    #: Rate multiplier when the kernel working set fits in ``llc_mib``
    #: (Sapphire Rapids shows a pronounced in-cache boost; EPYC does not).
    cache_boost: float
    #: Cores per socket/node for throughput comparisons.
    cores_per_node: int

    def __post_init__(self) -> None:
        if self.sustained_gflops_baseline <= 0 or self.sustained_gflops_optimized <= 0:
            raise HardwareError(f"{self.name}: non-positive sustained rates")
        if self.sustained_gflops_optimized < self.sustained_gflops_baseline:
            raise HardwareError(f"{self.name}: optimized rate below baseline rate")
        if self.cores_per_node < 1:
            raise HardwareError(f"{self.name}: needs >= 1 core")

    def sustained_gflops(self, optimized: bool) -> float:
        return self.sustained_gflops_optimized if optimized else self.sustained_gflops_baseline
