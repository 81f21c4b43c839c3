"""Execution plans: what a compiler lowering produces for one kernel."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LaunchError

__all__ = ["ExecutionPlan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """The device-side shape of one lowered loop nest.

    Produced by a compiler model from (loop nest, directives,
    architecture); consumed by the executor's cost model.
    """

    kernel_name: str
    #: Work groups (OpenACC gangs / OpenMP teams).
    teams: int
    #: Work-items per team (workers x vector lanes / thread block size).
    threads_per_team: int
    #: HBM traffic as a multiple of the nest's *streaming* bytes.  <1 means
    #: the lowering achieves on-chip reuse; >1 means redundant movement
    #: (uncoalesced access, spilled reductions) — the Figure 5 axis.
    traffic_factor: float
    #: Fraction of peak FP64 the generated code can issue at.
    compute_efficiency: float
    #: Additional bandwidth derate from lowering quality (on top of the
    #: occupancy factor the executor applies).
    bandwidth_efficiency: float
    #: Device kernels actually launched for this region (a fused
    #: ``kernels`` region may emit several).
    launches: int = 1
    #: Whether more exposed threads translate into more attained bandwidth.
    #: False models lowerings whose bottleneck is internal serialisation
    #: (CCE's OpenACC reduction path), where extra parallelism cannot help
    #: — the Table 6 saturation.
    occupancy_sensitive: bool = True
    #: Multiplier on the device launch latency for this region (runtime
    #: bookkeeping differences between offload runtimes).
    launch_overhead: float = 1.0

    def __post_init__(self) -> None:
        if self.teams < 1 or self.threads_per_team < 1:
            raise LaunchError(f"{self.kernel_name}: empty launch configuration")
        if self.traffic_factor <= 0:
            raise LaunchError(f"{self.kernel_name}: non-positive traffic factor")
        if not (0 < self.compute_efficiency <= 1) or not (0 < self.bandwidth_efficiency <= 1):
            raise LaunchError(f"{self.kernel_name}: efficiencies must be in (0, 1]")
        if self.launches < 1:
            raise LaunchError(f"{self.kernel_name}: needs >= 1 launch")

    @property
    def exposed_threads(self) -> int:
        return self.teams * self.threads_per_team
