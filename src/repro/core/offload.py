"""The GPU-offloaded ``pflux_``: kernel decomposition and annotations.

This is the paper's Section 5 in executable form.  ``pflux_`` decomposes
into six offloadable regions:

====================  =========  ========================================
region                class      annotation (OpenACC / OpenMP)
====================  =========  ========================================
``boundary_lr``       O(N^3)     ``parallel loop gang worker`` + ``loop
                                 vector reduction``  /  ``target teams
                                 distribute reduction`` + ``parallel do
                                 reduction collapse(2)``  (Figures 2/3)
``boundary_tb``       O(N^3)     same pair
``rhs_build``         O(N^2)     ``kernel`` region / fused ``target teams
                                 distribute parallel do collapse(2)``
``solver_fast``       solver     same (6 device launches: DST passes +
                                 tridiagonal sweeps)
``small_loops``       small      same (the "dozens of smaller loops"
                                 where launch latency dominates)
``assemble``          O(N^2)     same
====================  =========  ========================================

Each kernel's OpenMP annotation is translated from its OpenACC one
(:func:`~repro.directives.translate.translate_kernel_acc_to_omp`), so the
Table 4 <-> Table 5 mapping has one source.  The directive census over
this registry reproduces Tables 4 and 5 *exactly* (4x ``kernel`` + 4x
``end kernel`` + 2+2 loop directives for OpenACC; 4+2+2 for OpenMP — the
"eight lines, ~2% of the routine").

:class:`PfluxOffloadModel` prices one offloaded ``pflux_`` call on a
simulated device (``repro trace offload``, the study); the numerics of
the paper's table sums are :class:`~repro.efit.pflux.TableSumEdgeOperator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.calibration import PFLUX_SMALL_LOOPS, TEMP_WORK_ARRAYS
from repro.compilers.base import OffloadBuild
from repro.directives.ir import AccessMode, ArrayRef, Loop, LoopNest
from repro.directives.openacc import AccEndKernels, AccKernels, AccLoop, AccParallelLoop
from repro.directives.registry import AnnotatedKernel, KernelRegistry
from repro.directives.translate import translate_kernel_acc_to_omp
from repro.obs.hooks import NULL_HOOKS, ObservationHooks
from repro.runtime.executor import OffloadExecutor
from repro.runtime.kernel import ExecutionPlan
from repro.runtime.memory import DeviceArray, Direction

__all__ = [
    "PFLUX_SOURCE_LINES",
    "build_pflux_registry",
    "pflux_device_arrays",
    "PfluxOffloadModel",
]

#: Source lines of the pflux_ routine being annotated.  Table 4 reports
#: each 4-line directive group as 1.0% of the routine -> ~400 lines.
PFLUX_SOURCE_LINES = 400

_REDUCTIONS = ("tempsum1", "tempsum2")


def _annotated(nest: LoopNest, acc_directives: tuple, **kwargs) -> AnnotatedKernel:
    """``nest`` with its OpenACC annotation and the OpenMP one translated
    from it."""
    return AnnotatedKernel(
        nest=nest,
        acc_directives=acc_directives,
        omp_directives=translate_kernel_acc_to_omp(acc_directives),
        **kwargs,
    )


def build_pflux_registry(
    nw: int,
    nh: int | None = None,
    *,
    vector_length: int = 32,
) -> KernelRegistry:
    """Assemble the annotated-kernel registry of the offloaded ``pflux_``.

    The outer loop runs four workers a gang; ``vector_length`` follows
    the paper: 32 (warp) on NVIDIA, 64 (wavefront) on AMD.  The boundary
    pair is the paper's O(N^3) Green-table sweep, the one kernel it
    prices.
    """
    nh = nh if nh is not None else nw
    n2 = nw * nh
    registry = KernelRegistry("pflux_", PFLUX_SOURCE_LINES)

    # The Figure 2 annotation pair of one O(N^3) nest; Figure 3 is its
    # translation.
    acc_b = (
        AccParallelLoop(
            gang=True, worker=True, num_workers=4, vector_length=vector_length
        ),
        AccLoop(vector=True, reduction=_REDUCTIONS),
    )
    boundary_nests = (
        LoopNest(
            name="boundary_lr",
            loops=(Loop("j", nh), Loop("ii", nw), Loop("jj", nh)),
            flops_per_iteration=4.0,
            arrays=(
                ArrayRef("gridpc", 2 * nh * nw, AccessMode.READ, 2.0),
                ArrayRef("pcurr", n2, AccessMode.READ, 1.0),
                ArrayRef("psi", 2 * nh, AccessMode.WRITE, 2.0 / n2),
            ),
            n_outer=1,
            reductions=_REDUCTIONS,
        ),
        LoopNest(
            name="boundary_tb",
            loops=(Loop("i", nw), Loop("ii", nw), Loop("jj", nh)),
            flops_per_iteration=4.0,
            arrays=(
                ArrayRef("gridpc", nw * nh * nw, AccessMode.READ, 2.0),
                ArrayRef("pcurr", n2, AccessMode.READ, 1.0),
                ArrayRef("psi", 2 * nw, AccessMode.WRITE, 2.0 / n2),
            ),
            n_outer=1,
            reductions=_REDUCTIONS,
        ),
    )
    for nest in boundary_nests:
        registry.register(_annotated(nest, acc_b, complexity="O(N^3)"))

    # One simple region: the ``!$acc kernel`` pair, whose translation is
    # the fused OpenMP form (the Table 4 <-> Table 5 row mapping).
    acc_k = (AccKernels(), AccEndKernels())
    registry.register(
        _annotated(
            LoopNest(
                name="rhs_build",
                loops=(Loop("i", nw), Loop("j", nh)),
                flops_per_iteration=3.0,
                arrays=(
                    ArrayRef("pcurr", n2, AccessMode.READ, 1.0),
                    ArrayRef("rgrid", nw, AccessMode.READ, 1.0),
                    ArrayRef("work", n2, AccessMode.WRITE, 1.0),
                ),
                n_outer=2,
            ),
            acc_k,
            complexity="O(N^2)",
        )
    )
    registry.register(
        _annotated(
            LoopNest(
                name="solver_fast",
                loops=(Loop("i", max(nw - 2, 1)), Loop("j", max(nh - 2, 1))),
                flops_per_iteration=5.0 * math.log2(max(nh, 2)) + 16.0,
                arrays=(
                    ArrayRef("work", n2, AccessMode.READWRITE, 6.0),
                    ArrayRef("psi", n2, AccessMode.WRITE, 1.0),
                ),
                n_outer=2,
            ),
            acc_k,
            complexity="solver",
            launches=6,
        )
    )
    registry.register(
        _annotated(
            LoopNest(
                name="small_loops",
                loops=(Loop("i", max(nw, nh)), Loop("k", PFLUX_SMALL_LOOPS)),
                flops_per_iteration=2.0,
                arrays=(
                    ArrayRef("work", PFLUX_SMALL_LOOPS * max(nw, nh), AccessMode.READWRITE, 2.0),
                ),
                n_outer=1,
            ),
            acc_k,
            complexity="small",
            launches=PFLUX_SMALL_LOOPS,
        )
    )
    registry.register(
        _annotated(
            LoopNest(
                name="assemble",
                loops=(Loop("i", nw), Loop("j", nh)),
                flops_per_iteration=1.0,
                arrays=(
                    ArrayRef("psi", n2, AccessMode.READWRITE, 2.0),
                    ArrayRef("psi_ext", n2, AccessMode.READ, 1.0),
                ),
                n_outer=2,
            ),
            acc_k,
            complexity="O(N^2)",
        )
    )
    return registry


def pflux_device_arrays(nw: int, nh: int | None = None) -> list[DeviceArray]:
    """The arrays one ``pflux_`` invocation touches, for data management.

    The Green table is staged once and stays device-resident; ``pcurr`` is
    host-rewritten every Picard iterate (H2D each call); ``psi`` is read
    back by ``steps_`` every iterate (D2H each call); the Fortran work
    arrays are allocated/freed per call — the population whose residency
    the Cray default mallopt destroys (Figure 4).
    """
    nh = nh if nh is not None else nw
    n2_bytes = float(nw * nh * 8)
    arrays = [
        DeviceArray("gridpc", float(nw * nh * nw * 8), Direction.RESIDENT, persistent=True),
        DeviceArray("psi_ext", n2_bytes, Direction.RESIDENT, persistent=True),
        DeviceArray("rgrid", float(nw * 8), Direction.RESIDENT, persistent=True),
        DeviceArray("pcurr", n2_bytes, Direction.IN, persistent=True),
        DeviceArray("psi", n2_bytes, Direction.OUT, persistent=True),
    ]
    for k in range(TEMP_WORK_ARRAYS):
        arrays.append(
            DeviceArray(f"work{k:02d}", n2_bytes, Direction.SCRATCH, persistent=False)
        )
    return arrays


@dataclass
class PfluxOffloadModel:
    """Cost-only model of one offloaded ``pflux_`` (no numerics needed).

    Usable at any grid size — including 513^2, where building the real
    Green tables costs a gigabyte — because it only manipulates counts.
    """

    nw: int
    nh: int
    build: OffloadBuild
    #: Observation hooks forwarded to the executor: each modeled kernel
    #: launch becomes a device-clock span tagged with the directive flavor.
    hooks: ObservationHooks = NULL_HOOKS

    def __post_init__(self) -> None:
        arch = self.build.arch
        working_set = sum(a.nbytes for a in pflux_device_arrays(self.nw, self.nh))
        capacity = arch.hbm_gib * 1024**3
        if working_set > capacity:
            from repro.errors import RuntimeModelError

            raise RuntimeModelError(
                f"pflux_ working set {working_set / 1e9:.1f} GB (Green tables "
                f"dominate, O(N^3)) exceeds {arch.name}'s {arch.hbm_gib:.0f} GiB "
                f"device memory at {self.nw}x{self.nh}"
            )
        vector_length = 64 if arch.vendor == "AMD" else 32
        self.registry = build_pflux_registry(
            self.nw, self.nh, vector_length=vector_length
        )
        self.plans: dict[str, ExecutionPlan] = {
            k.name: self.build.compiler.lower(k, self.build.model, self.build.arch)
            for k in self.registry
        }
        self.executor = OffloadExecutor(
            arch=self.build.arch,
            allocation_policy=self.build.allocation_policy,
            use_target_data=self.build.use_target_data,
            hooks=self.hooks,
            model=self.build.model,
        )
        self.arrays = pflux_device_arrays(self.nw, self.nh)

    def invoke(self) -> dict[str, float]:
        """Model one ``pflux_`` call; returns per-kernel seconds plus the
        ``__total__`` wall time including data management."""
        clock = self.executor.clock
        start = clock.now()
        self.executor.begin_invocation(self.arrays)
        per_kernel: dict[str, float] = {}
        for kernel in self.registry:
            per_kernel[kernel.name] = self.executor.launch(
                kernel.nest, self.plans[kernel.name]
            )
        self.executor.end_invocation()
        per_kernel["__total__"] = clock.now() - start
        return per_kernel

    def steady_state_seconds(self) -> float:
        """Per-call time after the Green tables are resident (one warm-up
        call stages them) — the paper's per-invocation numbers average over
        hundreds of Picard iterations, so the one-time staging cost is
        amortised away."""
        self.invoke()
        return self.invoke()["__total__"]
