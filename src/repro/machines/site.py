"""The three evaluation systems: Perlmutter, Frontier, Sunspot.

Each :class:`MachineSite` bundles the node architecture (host CPU, GPU
device, device count), the facility compiler, the default environment of
Table 3, and the node-throughput break-even threshold of Section 4: a GPU
port only beats CPU-filling MPI parallelism over time slices when each
device outruns ``cores_per_node / devices_per_node`` CPU cores — 16x on
Perlmutter (64 cores / 4 GPUs), 8x on Frontier (64 / 8 GCDs), ~8.7x on
Sunspot (104 / 12 stacks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compilers.base import Compiler
from repro.compilers.registry import compiler_for_vendor
from repro.config import Environment, frontier_env, perlmutter_env, sunspot_env
from repro.errors import HardwareError
from repro.hardware.amd import mi250x_gcd
from repro.hardware.arch import CPUArchitecture, GPUArchitecture
from repro.hardware.cpus import (
    epyc_7763_milan,
    epyc_7a53_optimized,
    xeon_sapphire_rapids,
)
from repro.hardware.intel import pvc_stack
from repro.hardware.nvidia import a100

__all__ = ["MachineSite", "perlmutter", "frontier", "sunspot", "ALL_SITES"]


@dataclass(frozen=True)
class MachineSite:
    """One facility's node, as evaluated in the paper."""

    name: str
    facility: str
    cpu: CPUArchitecture
    gpu: GPUArchitecture
    #: Programmable devices per node (GPUs, GCDs or stacks).
    devices_per_node: int
    env: Environment
    compiler: Compiler = field(repr=False, default=None)  # type: ignore[assignment]
    #: Compiler flag lines from Table 3, keyed by programming model.
    flag_lines: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.devices_per_node < 1:
            raise HardwareError(f"{self.name}: needs >= 1 device per node")
        if self.compiler is None:
            object.__setattr__(self, "compiler", compiler_for_vendor(self.gpu.vendor))

    @property
    def acceleration_threshold(self) -> float:
        """Per-device speedup (vs one core) needed to beat the full host."""
        return self.cpu.cores_per_node / self.devices_per_node

    @property
    def models(self) -> tuple[str, ...]:
        """Programming models buildable at this site."""
        return self.compiler.models

    def flags(self, model: str) -> str:
        try:
            return self.flag_lines[model]
        except KeyError:
            raise HardwareError(f"{self.name} has no {model} build line") from None


def perlmutter() -> MachineSite:
    """NERSC Perlmutter GPU node: 1x EPYC 7763 + 4x A100."""
    return MachineSite(
        name="perlmutter",
        facility="NERSC",
        cpu=epyc_7763_milan(),
        gpu=a100(),
        devices_per_node=4,
        env=perlmutter_env(),
        flag_lines={
            "openmp": "-mp=gpu -gpu=cc80,managed",
            "openacc": "-acc -gpu=cc80,managed",
        },
    )


def frontier(*, system_alloc: bool = True) -> MachineSite:
    """OLCF Frontier node: 1x EPYC 7A53 + 4x MI250X (8 GCDs).

    ``system_alloc=False`` builds the slow Figure 4 configuration (no
    ``-hsystem_alloc`` / ``CRAY_MALLOPT_OFF``).
    """
    alloc_flag = " -hsystem_alloc" if system_alloc else ""
    return MachineSite(
        name="frontier",
        facility="OLCF",
        cpu=epyc_7a53_optimized(),
        gpu=mi250x_gcd(),
        devices_per_node=8,
        env=frontier_env(system_alloc=system_alloc),
        flag_lines={
            "openmp": f"-h omp{alloc_flag}",
            "openacc": f"-h acc{alloc_flag}",
        },
    )


def sunspot() -> MachineSite:
    """ALCF Sunspot node: 2x Xeon SPR (104 cores) + 6x PVC (12 stacks)."""
    return MachineSite(
        name="sunspot",
        facility="ALCF",
        cpu=xeon_sapphire_rapids(),
        gpu=pvc_stack(),
        devices_per_node=12,
        env=sunspot_env(),
        flag_lines={
            "openmp": "-fopenmp -fopenmp-targets=spir64",
        },
    )


def ALL_SITES() -> tuple[MachineSite, ...]:
    """The paper's three systems, in its presentation order."""
    return (perlmutter(), frontier(), sunspot())
