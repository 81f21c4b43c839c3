"""The offload executor: runs lowered kernels on a simulated device.

One :class:`OffloadExecutor` represents one device context (one GPU, one
compiler's runtime, one environment).  It owns the clock, the counters and
the data manager, and exposes the three phases of an offloaded subroutine
invocation:

1. :meth:`begin_invocation` — allocate per-call work arrays and make
   everything the kernels touch device-accessible (page migration under
   unified memory; explicit/implicit maps on Intel);
2. :meth:`launch` — charge launch overhead plus roofline time for each
   kernel and update the profiler counters;
3. :meth:`end_invocation` — return results to the host and free the work
   arrays (whose pages the allocator may or may not retain — Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.directives.ir import AccessMode, LoopNest
from repro.errors import LaunchError, RuntimeModelError
from repro.hardware.arch import GPUArchitecture
from repro.hardware.roofline import occupancy_factor, roofline_time
from repro.obs.hooks import NULL_HOOKS, ObservationHooks
from repro.profiling.timer import Clock, VirtualClock
from repro.runtime.allocator import AllocationPolicy, AllocatorModel
from repro.runtime.counters import CounterSet
from repro.runtime.kernel import ExecutionPlan
from repro.runtime.memory import (
    DeviceArray,
    Direction,
    ExplicitDataEnvironment,
    UnifiedMemory,
)

__all__ = ["OffloadExecutor"]


@dataclass
class OffloadExecutor:
    """One simulated device context."""

    arch: GPUArchitecture
    allocation_policy: AllocationPolicy = AllocationPolicy.ARENA_REUSE
    #: Intel-path switch: ``True`` wraps each invocation in a
    #: ``target data`` region; ``False`` lets every kernel map its operands
    #: (the unoptimised behaviour Section 6.2 warns about).
    use_target_data: bool = True
    clock: Clock = field(default_factory=VirtualClock, init=False)
    counters: CounterSet = field(default_factory=CounterSet, init=False)
    #: Kernel-level observation hooks; each :meth:`launch` emits a
    #: device-clock span with flops/bytes/launch attributes.
    hooks: ObservationHooks = NULL_HOOKS
    #: Directive flavor of the build driving this context (for span
    #: attribution in traces; free-form, e.g. ``"omp"``/``"acc"``).
    model: str = ""

    def __post_init__(self) -> None:
        self.allocator = AllocatorModel(self.allocation_policy)
        if self.arch.unified_memory:
            self._um: UnifiedMemory | None = UnifiedMemory(
                self.arch, self.allocator, self.clock, self.counters
            )
            self._env: ExplicitDataEnvironment | None = None
        else:
            self._um = None
            self._env = ExplicitDataEnvironment(self.arch, self.clock, self.counters)
        self._staged_persistent: set[str] = set()
        self._in_invocation = False
        self._invocation_arrays: dict[str, DeviceArray] = {}

    # -- invocation lifecycle ------------------------------------------------------
    def begin_invocation(self, arrays: list[DeviceArray]) -> None:
        """Start one offloaded subroutine call touching ``arrays``."""
        if self._in_invocation:
            raise RuntimeModelError("nested invocations are not modeled")
        self._in_invocation = True
        self._invocation_arrays = {a.name: a for a in arrays}
        # Host-side allocation of the per-call work arrays.
        for arr in arrays:
            if arr.persistent:
                if not self.allocator.is_live(arr.name):
                    self.allocator.allocate(arr.name, arr.nbytes)
            else:
                self.allocator.allocate(arr.name, arr.nbytes)
        if self._um is not None:
            touches = [
                (self.allocator.live(a.name), a.direction) for a in arrays
            ]
            self._um.device_touch(touches)
        else:
            assert self._env is not None
            if self.use_target_data:
                # RESIDENT data (the Green tables) is staged once and kept;
                # host-visible inputs/outputs are mapped around each call —
                # the "!$omp target data map(to:)(from:)" strategy of
                # Section 6.2.  SCRATCH arrays live on the device only.
                resident_new = [
                    a
                    for a in arrays
                    if a.direction is Direction.RESIDENT and not self._env.is_staged(a.name)
                ]
                region = [
                    a
                    for a in arrays
                    if a.direction in (Direction.IN, Direction.OUT, Direction.INOUT)
                ]
                self._env.enter(resident_new + region)
                self._region_arrays = region
            else:
                self._region_arrays = []

    def launch(self, nest: LoopNest, plan: ExecutionPlan) -> float:
        """Execute one lowered kernel; returns the modeled seconds."""
        if not self._in_invocation:
            raise LaunchError(f"kernel {nest.name}: launch outside an invocation")
        if self._env is not None and not self.use_target_data:
            # Unoptimised Intel: every kernel maps its own operands.
            operands = [
                self._invocation_arrays[a.name]
                for a in nest.arrays
                if a.name in self._invocation_arrays
            ]
            self._env.implicit_kernel_maps(operands)

        if plan.occupancy_sensitive:
            occupancy = occupancy_factor(self.arch, plan.exposed_threads)
        else:
            occupancy = 1.0
        bytes_moved = nest.streaming_bytes * plan.traffic_factor
        seconds = plan.launches * plan.launch_overhead * self.arch.kernel_launch_us * 1e-6 + roofline_time(
            self.arch,
            nest.total_flops,
            bytes_moved,
            compute_efficiency=plan.compute_efficiency * occupancy,
            bandwidth_efficiency=plan.bandwidth_efficiency * occupancy,
        )
        start = self.clock.now()
        self.clock.advance(seconds)
        if self.hooks.enabled:
            self.hooks.kernel(
                nest.name,
                start=start,
                seconds=seconds,
                flops=nest.total_flops,
                hbm_bytes=bytes_moved,
                launches=plan.launches,
                arch=self.arch.name,
                model=self.model,
            )
        write_fraction = self._write_fraction(nest)
        self.counters.record_launch(
            nest.name,
            flops=nest.total_flops,
            read_bytes=bytes_moved * (1.0 - write_fraction),
            write_bytes=bytes_moved * write_fraction,
            seconds=seconds,
        )
        return seconds

    def end_invocation(self) -> None:
        """Return results to the host; free the per-call work arrays."""
        if not self._in_invocation:
            raise RuntimeModelError("end_invocation without begin_invocation")
        arrays = list(self._invocation_arrays.values())
        if self._um is not None:
            touches = [(self.allocator.live(a.name), a.direction) for a in arrays]
            self._um.host_touch(touches)
        else:
            assert self._env is not None
            if self.use_target_data:
                self._env.exit(self._region_arrays)
        for arr in arrays:
            if not arr.persistent:
                self.allocator.free(arr.name)
        self._invocation_arrays = {}
        self._in_invocation = False

    # -- helpers --------------------------------------------------------------------
    @staticmethod
    def _write_fraction(nest: LoopNest) -> float:
        """Fraction of the nest's traffic that is stores, from the access
        declaration (used only to split the read/write counters)."""
        reads = writes = 0.0
        for a in nest.arrays:
            vol = a.accesses_per_iteration * a.bytes_per_element
            if a.mode is AccessMode.READ:
                reads += vol
            elif a.mode is AccessMode.WRITE:
                writes += vol
            else:
                reads += 0.5 * vol
                writes += 0.5 * vol
        total = reads + writes
        if total == 0.0:
            return 0.0
        return writes / total
