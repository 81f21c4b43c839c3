"""Directive checkers: static rules over annotated kernel registries.

Each rule walks every :class:`~repro.directives.registry.AnnotatedKernel`
in a :class:`~repro.directives.registry.KernelRegistry` against its
:class:`~repro.directives.ir.LoopNest` IR and emits
:class:`~repro.analysis.findings.Finding` objects.  The rules encode the
paper's statically-detectable bug classes:

``directive-race``
    A nest that declares carried reductions must carry matching
    ``reduction`` clauses in each model's annotation; and a WRITE /
    READWRITE array with fewer unique elements than parallel iterations
    needs a reduction, privatisation or atomics (Figures 2/3).
``excess-traffic``
    The compiler lowering's modeled HBM movement must stay within a
    configurable ratio of the nest's streaming-byte bound — Figure 5's
    3.7x OpenACC-on-AMD excess is the motivating smell.
``implicit-transfer``
    Every array a nest touches must be covered by the enclosing data
    environment on explicit-memory sites, else each call implies
    host<->device transfers of the array's footprint (Section 6.2).
``missing-data-region``
    On sites without unified memory (Sunspot/oneAPI) a kernel needs an
    enclosing ``target data`` region at all.
``async-no-wait``
    An ``async`` clause with no matching ``!$acc wait`` in the kernel's
    directive set leaves the region's completion unordered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Finding, Location, Severity
from repro.directives.ir import AccessMode
from repro.directives.openacc import AccWait
from repro.directives.openmp import OmpTargetData
from repro.directives.registry import AnnotatedKernel, KernelRegistry
from repro.errors import AnalysisError
from repro.machines.site import MachineSite
from repro.utils.tables import format_bytes

__all__ = [
    "RULE_RACE",
    "RULE_TRAFFIC",
    "RULE_IMPLICIT",
    "RULE_REGION",
    "RULE_ASYNC",
    "DirectiveAnalysisContext",
    "check_races",
    "check_async_wait",
    "check_traffic",
    "check_data_environment",
    "run_directive_rules",
]

RULE_RACE = "directive-race"
RULE_TRAFFIC = "excess-traffic"
RULE_IMPLICIT = "implicit-transfer"
RULE_REGION = "missing-data-region"
RULE_ASYNC = "async-no-wait"


@dataclass(frozen=True)
class DirectiveAnalysisContext:
    """What the directive rules need beyond the registry itself.

    Parameters
    ----------
    sites:
        Machine models to lower against (traffic and data-environment
        rules are site-dependent; race/async rules are not).
    data_env:
        Names of the arrays covered by the enclosing data region /
        device-array environment of the offloaded subroutine, or ``None``
        when no enclosing region exists.  A nest array named ``work``
        is considered covered by env entries ``work00``..``work19`` (the
        Fortran work-array family convention).
    max_traffic_ratio:
        Modeled-bytes / streaming-bytes ratio above which a lowering is
        flagged (default 2.0 — between the healthy 1.0-1.6 range of
        Figure 5 and the pathological 3.7x).
    """

    sites: tuple[MachineSite, ...]
    data_env: frozenset[str] | None
    max_traffic_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.max_traffic_ratio <= 1.0:
            raise AnalysisError(
                f"max_traffic_ratio must exceed 1.0, got {self.max_traffic_ratio}"
            )


def _location(registry: KernelRegistry, kernel: AnnotatedKernel) -> Location:
    return Location(subroutine=registry.subroutine, kernel=kernel.name)


def _declared_reductions(kernel: AnnotatedKernel, model: str) -> set[str]:
    directives = kernel.acc_directives if model == "openacc" else kernel.omp_directives
    declared: set[str] = set()
    for d in directives:
        declared.update(getattr(d, "reduction", ()))
    return declared


def _env_covers(env: frozenset[str], name: str) -> bool:
    """Exact match, or the numbered work-array family (``work`` vs
    ``work00``..``work19``)."""
    if name in env:
        return True
    return any(e.startswith(name) and e[len(name) :].isdigit() for e in env)


# -- race rule ---------------------------------------------------------------------
def check_races(registry: KernelRegistry):
    """``directive-race``: shared writes under parallel mappings without
    ``reduction``/``private``/atomic protection, under either model."""
    findings: list[Finding] = []
    for kernel in registry:
        nest = kernel.nest
        for model in ("openacc", "openmp"):
            declared = _declared_reductions(kernel, model)
            missing = [r for r in nest.reductions if r not in declared]
            if missing:
                findings.append(
                    Finding(
                        rule_id=RULE_RACE,
                        severity=Severity.ERROR,
                        location=_location(registry, kernel),
                        message=(
                            f"nest carries reductions ({', '.join(nest.reductions)}) but the "
                            f"{model} annotation declares no reduction clause for "
                            f"{', '.join(missing)}: concurrent lanes race on the scalars"
                        ),
                        fix_hint=(
                            f"add reduction(+:{','.join(missing)}) to the inner "
                            + ("!$acc loop" if model == "openacc" else "!$omp parallel do")
                            + " directive"
                        ),
                        detail=f"{model}:reduction",
                        data={},
                    )
                )
                continue
            if nest.reductions or declared:
                continue  # reductions present and matched (or spurious clause)
            for arr in nest.arrays:
                if arr.mode is AccessMode.READ or arr.accesses_per_iteration <= 0:
                    continue
                if arr.elements < nest.total_iterations:
                    findings.append(
                        Finding(
                            rule_id=RULE_RACE,
                            severity=Severity.ERROR,
                            location=_location(registry, kernel),
                            message=(
                                f"array '{arr.name}' ({arr.mode.value}, {arr.elements} "
                                f"elements) is written from {nest.total_iterations} "
                                f"parallel-mapped iterations under the {model} annotation "
                                f"with no reduction/private/atomic protection"
                            ),
                            fix_hint=(
                                "reduce into scalars with a reduction clause, privatise "
                                f"'{arr.name}', or make the writes atomic"
                            ),
                            detail=f"{model}:{arr.name}",
                            data={},
                        )
                    )
    return findings


# -- async rule --------------------------------------------------------------------
def check_async_wait(registry: KernelRegistry):
    """``async-no-wait``: ``async(q)`` clauses with no ``!$acc wait``."""
    findings: list[Finding] = []
    for kernel in registry:
        queues = [
            d.async_queue
            for d in kernel.acc_directives
            if getattr(d, "async_queue", None) is not None
        ]
        if not queues:
            continue
        waits = [d for d in kernel.acc_directives if isinstance(d, AccWait)]
        waited = {w.queue for w in waits}
        for q in queues:
            if None in waited or q in waited:  # bare wait drains all queues
                continue
            findings.append(
                Finding(
                    rule_id=RULE_ASYNC,
                    severity=Severity.ERROR,
                    location=_location(registry, kernel),
                    message=(
                        f"directive uses async({q}) but the kernel's directive set has "
                        f"no matching '!$acc wait': host code may read results before "
                        f"the device writes them"
                    ),
                    fix_hint=f"append AccWait(queue={q}) (or a bare AccWait()) after the region",
                    detail=f"async:{q}",
                    data={},
                )
            )
    return findings


# -- traffic rule ------------------------------------------------------------------
def check_traffic(registry: KernelRegistry, ctx: DirectiveAnalysisContext):
    """``excess-traffic``: modeled HBM movement vs the streaming bound.

    For each (site, buildable model) pair the kernel is lowered through
    the site's compiler model and the plan's traffic factor — modeled
    bytes over the nest's zero-reuse streaming bytes — is compared
    against ``ctx.max_traffic_ratio``.  Reproduces the paper's Figure 5
    finding: the CCE OpenACC lowering of the O(N^3) boundary nests moves
    ~3.7x what the OpenMP build moves on MI250X.
    """
    findings: list[Finding] = []
    for site in ctx.sites:
        for model in site.models:
            for kernel in registry:
                plan = site.compiler.lower(kernel, model, site.gpu)
                if plan.traffic_factor <= ctx.max_traffic_ratio:
                    continue
                streaming = kernel.nest.streaming_bytes
                moved = streaming * plan.traffic_factor
                findings.append(
                    Finding(
                        rule_id=RULE_TRAFFIC,
                        severity=Severity.WARNING,
                        location=_location(registry, kernel),
                        message=(
                            f"{model} lowering by {site.compiler.name} on {site.gpu.vendor} "
                            f"moves {plan.traffic_factor:.2f}x the streaming-byte bound "
                            f"({format_bytes(moved)} vs {format_bytes(streaming)} per call; "
                            f"threshold {ctx.max_traffic_ratio:.1f}x) — the Figure 5 "
                            f"OpenACC-on-AMD excess-traffic smell"
                        ),
                        fix_hint=(
                            "restructure the mapping (e.g. '!$omp loop' descriptive "
                            "lowering, Section 6.2) or switch programming model on this site"
                        ),
                        detail=f"{model}@{site.name}",
                        data={
                            "traffic_factor": plan.traffic_factor,
                            "modeled_bytes": moved,
                            "streaming_bytes": streaming,
                        },
                    )
                )
    return findings


# -- data-environment rules --------------------------------------------------------
def check_data_environment(registry: KernelRegistry, ctx: DirectiveAnalysisContext):
    """``missing-data-region`` + ``implicit-transfer`` on explicit-memory
    sites (no unified memory: every uncovered operand transfers per call)."""
    findings: list[Finding] = []
    explicit_sites = [s for s in ctx.sites if not s.gpu.unified_memory]
    if not explicit_sites:
        return findings
    for site in explicit_sites:
        for kernel in registry:
            has_region = ctx.data_env is not None or any(
                isinstance(d, OmpTargetData) for d in kernel.omp_directives
            )
            nest = kernel.nest
            if not has_region:
                per_call = 2.0 * nest.footprint_bytes * kernel.launches
                findings.append(
                    Finding(
                        rule_id=RULE_REGION,
                        severity=Severity.ERROR,
                        location=_location(registry, kernel),
                        message=(
                            f"{site.name} ({site.gpu.name}) has no unified memory: without "
                            f"an enclosing 'target data' region every launch implicitly "
                            f"maps its operands (~{format_bytes(per_call)} per call)"
                        ),
                        fix_hint=(
                            "wrap the invocation in '!$omp target data "
                            "map(to:...) map(from:...)' or supply a device-array "
                            "environment (Section 6.2)"
                        ),
                        detail=f"region@{site.name}",
                        data={"implied_bytes_per_call": per_call},
                    )
                )
                continue
            # A region exists: check its coverage array by array.
            env = ctx.data_env if ctx.data_env is not None else frozenset(
                name
                for d in kernel.omp_directives
                if isinstance(d, OmpTargetData)
                for name in (*d.map_to, *d.map_from)
            )
            for arr in nest.arrays:
                if _env_covers(env, arr.name):
                    continue
                per_call = 2.0 * arr.footprint_bytes * kernel.launches
                findings.append(
                    Finding(
                        rule_id=RULE_IMPLICIT,
                        severity=Severity.ERROR,
                        location=_location(registry, kernel),
                        message=(
                            f"array '{arr.name}' ({format_bytes(arr.footprint_bytes)}) is "
                            f"touched by the nest but absent from the enclosing data "
                            f"environment: each call implies ~{format_bytes(per_call)} of "
                            f"H2D+D2H traffic on {site.name}"
                        ),
                        fix_hint=(
                            f"add '{arr.name}' to the target data map clauses (or the "
                            f"device-array list of the offloaded subroutine)"
                        ),
                        detail=f"{arr.name}@{site.name}",
                        data={"implied_bytes_per_call": per_call},
                    )
                )
    return findings


def run_directive_rules(registry: KernelRegistry, ctx: DirectiveAnalysisContext) -> list[Finding]:
    """All directive rules over one registry, in documented rule order."""
    findings: list[Finding] = []
    findings.extend(check_races(registry))
    findings.extend(check_async_wait(registry))
    findings.extend(check_traffic(registry, ctx))
    findings.extend(check_data_environment(registry, ctx))
    return findings
