"""Emulation of the job environment variables from Table 3 of the paper.

The paper's runs depend on a handful of environment variables —
``CRAY_ACC_USE_UNIFIED_MEM``, ``HSA_XNACK``, ``CRAY_MALLOPT_OFF`` and
``ZE_AFFINITY_MASK`` — that change runtime behaviour without touching the
code.  :class:`Environment` models that: an immutable-by-convention mapping
with typed accessors, plus the preset environments used on each system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "Environment",
    "perlmutter_env",
    "frontier_env",
    "sunspot_env",
]

# Variables the runtime model understands.  Anything else is carried but
# ignored, mirroring a real shell environment.
KNOWN_VARIABLES = frozenset(
    {
        "CRAY_ACC_USE_UNIFIED_MEM",
        "HSA_XNACK",
        "CRAY_MALLOPT_OFF",
        "ZE_AFFINITY_MASK",
        "OMP_NUM_THREADS",
    }
)

_TRUTHY = {"1", "true", "yes", "on"}


@dataclass(frozen=True)
class Environment:
    """A snapshot of environment variables for one run."""

    variables: Mapping[str, str] = field(default_factory=dict)

    def flag(self, name: str) -> bool:
        """Interpret a variable as a boolean flag (unset -> False)."""
        value = self.variables.get(name)
        if value is None:
            return False
        return value.strip().lower() in _TRUTHY

    # -- semantic views used by the runtime model ---------------------------
    @property
    def unified_memory_requested(self) -> bool:
        """True when unified memory is enabled via environment.

        On Frontier this requires both ``CRAY_ACC_USE_UNIFIED_MEM`` and
        ``HSA_XNACK`` (the latter enables GPU page-fault retry on MI250X).
        """
        return self.flag("CRAY_ACC_USE_UNIFIED_MEM") and self.flag("HSA_XNACK")

    @property
    def cray_mallopt_off(self) -> bool:
        """True when the Cray default mallopt tuning is disabled."""
        return self.flag("CRAY_MALLOPT_OFF")


def perlmutter_env() -> Environment:
    """Perlmutter needs no special variables: ``-gpu=managed`` handles
    unified memory at compile time (Table 3)."""
    return Environment({})


def frontier_env(*, system_alloc: bool = True) -> Environment:
    """Frontier environment from Table 3.

    ``system_alloc=False`` models runs *without* ``CRAY_MALLOPT_OFF`` /
    ``-hsystem_alloc`` — the slow configuration of Figure 4.
    """
    variables = {
        "CRAY_ACC_USE_UNIFIED_MEM": "1",
        "HSA_XNACK": "1",
    }
    if system_alloc:
        variables["CRAY_MALLOPT_OFF"] = "1"
    return Environment(variables)


def sunspot_env() -> Environment:
    """Sunspot: one PVC stack selected via ``ZE_AFFINITY_MASK=0.0``;
    no unified memory is available (Section 4.2)."""
    return Environment({"ZE_AFFINITY_MASK": "0.0"})
