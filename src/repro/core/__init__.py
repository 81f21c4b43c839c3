"""The paper's study: offloaded ``pflux_``, sweeps, and report generation."""

from repro.core.offload import (
    build_pflux_registry,
    pflux_device_arrays,
    PFLUX_SOURCE_LINES,
)
from repro.core.study import (
    PortabilityStudy,
    PfluxGpuResult,
    cpu_pflux_seconds,
    cpu_fit_seconds,
    cpu_nonpflux_seconds,
)
from repro.core.speedup import node_throughput_ratio
from repro.core.extension import project_full_offload, FullOffloadProjection
from repro.core.timeslices import schedule_slices, synthetic_slice_counts
from repro.core import paper

__all__ = [
    "build_pflux_registry",
    "pflux_device_arrays",
    "PFLUX_SOURCE_LINES",
    "PortabilityStudy",
    "PfluxGpuResult",
    "cpu_pflux_seconds",
    "cpu_fit_seconds",
    "cpu_nonpflux_seconds",
    "node_throughput_ratio",
    "project_full_offload",
    "FullOffloadProjection",
    "schedule_slices",
    "synthetic_slice_counts",
    "paper",
]
