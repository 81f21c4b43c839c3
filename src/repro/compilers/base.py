"""Compiler model base class and the build-configuration record."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.calibration import KernelClass, lowering_quality
from repro.compilers.flags import CompilerFlags
from repro.config import Environment
from repro.directives.registry import AnnotatedKernel
from repro.errors import CompilerError, UnsupportedTargetError
from repro.hardware.arch import GPUArchitecture
from repro.runtime.allocator import AllocationPolicy
from repro.runtime.kernel import ExecutionPlan

__all__ = ["OffloadBuild", "Compiler"]


@dataclass(frozen=True)
class OffloadBuild:
    """What a compile + environment pair means for the runtime."""

    compiler: "Compiler"
    model: str
    arch: GPUArchitecture
    allocation_policy: AllocationPolicy
    unified_memory: bool
    use_target_data: bool


class Compiler(abc.ABC):
    """A vendor compiler: flag semantics + directive lowering."""

    #: Short id used by the calibration table ("nvhpc", "cce", "oneapi").
    name: str
    version: str
    #: GPU vendors this compiler can target.
    vendors: tuple[str, ...]
    #: Programming models supported for GPU offload.
    models: tuple[str, ...]

    def supports(self, model: str, arch: GPUArchitecture) -> bool:
        return model in self.models and arch.vendor in self.vendors

    def check_target(self, model: str, arch: GPUArchitecture) -> None:
        if not self.supports(model, arch):
            raise UnsupportedTargetError(
                f"{self.name} cannot build {model} for {arch.vendor} GPUs "
                f"(supported: models={self.models}, vendors={self.vendors})"
            )

    # -- configuration ------------------------------------------------------------
    @abc.abstractmethod
    def configure(
        self, flags: CompilerFlags, env: Environment, arch: GPUArchitecture
    ) -> OffloadBuild:
        """Combine flags and environment into runtime behaviour."""

    # -- lowering -------------------------------------------------------------------
    def lower(
        self, kernel: AnnotatedKernel, model: str, arch: GPUArchitecture
    ) -> ExecutionPlan:
        """Produce the execution plan for one annotated kernel.

        The shared implementation reads the calibrated lowering quality;
        subclasses may override team shaping.
        """
        self.check_target(model, arch)
        kc = self._kernel_class(kernel)
        quality = lowering_quality(self.name, model, arch.vendor, kc)
        teams = max(1, kernel.nest.outer_iterations)
        threads = min(quality.threads_per_team, max(1, kernel.nest.inner_iterations))
        return ExecutionPlan(
            kernel_name=kernel.name,
            teams=teams,
            threads_per_team=threads,
            traffic_factor=quality.traffic_factor,
            compute_efficiency=quality.compute_efficiency,
            bandwidth_efficiency=quality.bandwidth_efficiency,
            launches=kernel.launches,
            occupancy_sensitive=quality.occupancy_sensitive,
            launch_overhead=quality.launch_overhead,
        )

    @staticmethod
    def _kernel_class(kernel: AnnotatedKernel) -> KernelClass:
        mapping = {
            "O(N^3)": KernelClass.BOUNDARY_N3,
            "solver": KernelClass.SOLVER,
            "O(N^2)": KernelClass.GRID_N2,
            "small": KernelClass.SMALL,
        }
        try:
            return mapping[kernel.complexity]
        except KeyError:
            raise CompilerError(
                f"kernel {kernel.name!r} has unknown complexity tag "
                f"{kernel.complexity!r}"
            ) from None
