"""Host allocator model: Cray default mallopt vs ``-hsystem_alloc``.

The paper's Figure 4 shows up to 10x run-time differences on Frontier from
nothing but memory-allocator behaviour.  Mechanism: EFIT's ``pflux_``
allocates and frees work arrays every call.  With the Cray compiler's
default mallopt tuning, freed storage is trimmed back to the OS, so each
call receives *fresh* pages — and under unified memory (``HSA_XNACK=1``)
every fresh page must fault and migrate to the GPU again.  With
``-hsystem_alloc`` / ``CRAY_MALLOPT_OFF=1`` the glibc arenas retain the
pages, allocations are stable across calls, and migration happens once.

:class:`AllocatorModel` captures exactly that: allocations carry a
*generation*; under ``TRIM_ON_FREE`` the generation bumps on every
free/alloc cycle (residency keyed on generation is lost), under
``ARENA_REUSE`` it is stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import MemoryModelError

__all__ = ["AllocationPolicy", "Allocation", "AllocatorModel"]


class AllocationPolicy(enum.Enum):
    """How the host allocator treats freed storage (Figure 4's variable)."""

    #: Cray default mallopt: free() trims to the OS; reallocation yields
    #: fresh pages every call.
    TRIM_ON_FREE = "trim_on_free"
    #: System (glibc) behaviour: arenas retain pages, allocations are
    #: stable.  Selected by ``-hsystem_alloc`` (and the NVHPC/CUDA managed
    #: pool allocator behaves this way out of the box).
    ARENA_REUSE = "arena_reuse"


@dataclass(frozen=True)
class Allocation:
    """A live host allocation: identity is (name, generation)."""

    name: str
    generation: int
    nbytes: float

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.generation)


@dataclass
class AllocatorModel:
    """Tracks allocation generations under one policy."""

    policy: AllocationPolicy
    _generations: dict[str, int] = field(default_factory=dict, init=False)
    _live: dict[str, Allocation] = field(default_factory=dict, init=False)

    def allocate(self, name: str, nbytes: float) -> Allocation:
        if nbytes <= 0:
            raise MemoryModelError(f"allocation {name!r} with nbytes={nbytes}")
        if name in self._live:
            raise MemoryModelError(f"allocation {name!r} already live")
        gen = self._generations.get(name, 0)
        alloc = Allocation(name=name, generation=gen, nbytes=nbytes)
        self._live[name] = alloc
        return alloc

    def free(self, name: str) -> None:
        if name not in self._live:
            raise MemoryModelError(f"free of non-live allocation {name!r}")
        del self._live[name]
        if self.policy is AllocationPolicy.TRIM_ON_FREE:
            # Pages returned to the OS: the next allocation is new memory.
            self._generations[name] = self._generations.get(name, 0) + 1
        # ARENA_REUSE: generation unchanged; the same pages come back.

    def is_live(self, name: str) -> bool:
        return name in self._live

    def live(self, name: str) -> Allocation:
        try:
            return self._live[name]
        except KeyError:
            raise MemoryModelError(f"allocation {name!r} is not live") from None
