"""Speedup accounting: node-throughput break-even.

EFIT parallelises time slices across cores (or devices), so a GPU port
pays off only when one device beats ``cores/devices`` CPU cores: 16x on
Perlmutter, 8x on Frontier, 8.7x on Sunspot (Section 4, Section 6.2).
"""

from __future__ import annotations

from repro.errors import CalibrationError
from repro.machines.site import MachineSite

__all__ = ["node_throughput_ratio", "meets_threshold"]


def node_throughput_ratio(site: MachineSite, per_device_speedup: float) -> float:
    """Node GPU throughput over node CPU throughput.

    One device processes time slices ``per_device_speedup`` times faster
    than one core; the node has ``devices_per_node`` devices vs
    ``cores_per_node`` cores.  Ratio > 1 means the GPU port wins.
    """
    if per_device_speedup <= 0.0:
        raise CalibrationError("per-device speedup must be positive")
    gpu_throughput = site.devices_per_node * per_device_speedup
    return gpu_throughput / site.cpu.cores_per_node


def meets_threshold(site: MachineSite, per_device_speedup: float) -> bool:
    """Whether the configuration clears the Section 4 break-even bar."""
    return per_device_speedup >= site.acceleration_threshold
