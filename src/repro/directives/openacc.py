"""OpenACC directive objects.

Renders the exact pragma forms the paper uses (Table 4 and Figure 2)::

    !$acc kernel
    !$acc end kernel
    !$acc parallel loop gang worker num_workers(4) vector_length(32)
    !$acc loop vector reduction(+:tempsum1,tempsum2)

plus the ``async(q)`` clause and the ``!$acc wait`` directive, which the
paper's kernels do not use but the portability linter checks for
(``async`` without a matching ``wait`` is a statically detectable
ordering bug).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DirectiveParseError

__all__ = [
    "AccDirective",
    "AccKernels",
    "AccEndKernels",
    "AccParallelLoop",
    "AccLoop",
    "AccWait",
]

_SENTINEL = "!$acc"


@dataclass(frozen=True)
class AccDirective:
    """Base class; concrete directives render with :meth:`to_pragma`."""

    def to_pragma(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class AccKernels(AccDirective):
    """``!$acc kernel [async(q)]`` — compiler-auto-parallelised region.

    (The paper spells it without the trailing "s"; we reproduce that.)
    ``async_queue`` detaches the region onto an async queue; the linter's
    ``async-no-wait`` rule requires a matching :class:`AccWait`.
    """

    async_queue: int | None = None

    def __post_init__(self) -> None:
        if self.async_queue is not None and self.async_queue < 0:
            raise DirectiveParseError("async queue must be >= 0")

    def to_pragma(self) -> str:
        text = f"{_SENTINEL} kernel"
        if self.async_queue is not None:
            text += f" async({self.async_queue})"
        return text


@dataclass(frozen=True)
class AccEndKernels(AccDirective):
    def to_pragma(self) -> str:
        return f"{_SENTINEL} end kernel"


@dataclass(frozen=True)
class AccParallelLoop(AccDirective):
    """``!$acc parallel loop [gang] [worker] [num_workers(n)] [vector_length(n)]``."""

    gang: bool = True
    worker: bool = False
    num_workers: int | None = None
    vector_length: int | None = None
    reduction: tuple[str, ...] = ()
    async_queue: int | None = None

    def __post_init__(self) -> None:
        if self.num_workers is not None and self.num_workers < 1:
            raise DirectiveParseError("num_workers must be >= 1")
        if self.vector_length is not None and self.vector_length < 1:
            raise DirectiveParseError("vector_length must be >= 1")
        if self.async_queue is not None and self.async_queue < 0:
            raise DirectiveParseError("async queue must be >= 0")

    def to_pragma(self) -> str:
        parts = [f"{_SENTINEL} parallel loop"]
        if self.gang:
            parts.append("gang")
        if self.worker:
            parts.append("worker")
        if self.num_workers is not None:
            parts.append(f"num_workers({self.num_workers})")
        if self.vector_length is not None:
            parts.append(f"vector_length({self.vector_length})")
        if self.reduction:
            parts.append(f"reduction(+:{','.join(self.reduction)})")
        if self.async_queue is not None:
            parts.append(f"async({self.async_queue})")
        return " ".join(parts)


@dataclass(frozen=True)
class AccLoop(AccDirective):
    """``!$acc loop [vector] [reduction(+:...)]`` — the inner-loop directive."""

    vector: bool = True
    reduction: tuple[str, ...] = ()

    def to_pragma(self) -> str:
        parts = [f"{_SENTINEL} loop"]
        if self.vector:
            parts.append("vector")
        if self.reduction:
            parts.append(f"reduction(+:{','.join(self.reduction)})")
        return " ".join(parts)


@dataclass(frozen=True)
class AccWait(AccDirective):
    """``!$acc wait [(q)]`` — synchronise async work (all queues or one)."""

    queue: int | None = None

    def __post_init__(self) -> None:
        if self.queue is not None and self.queue < 0:
            raise DirectiveParseError("wait queue must be >= 0")

    def to_pragma(self) -> str:
        if self.queue is not None:
            return f"{_SENTINEL} wait({self.queue})"
        return f"{_SENTINEL} wait"
