"""Linter orchestration: assemble rules into one repo-wide analysis.

:func:`analyze_repo` is what ``repro analyze`` runs: it builds the
registered ``pflux_`` kernel registry, lowers it against the paper's
three machine sites, scans the marked Python hot paths under
``repro/efit`` and ``repro/batch``, and returns an
:class:`AnalysisReport` — findings plus the *certification set* (hot
functions the linter proves allocation-free, which the workspace
counters must confirm at runtime).

The two rule *families* — ``directives`` and ``hotpath`` — are
individually selectable
(:attr:`AnalysisConfig.families`, ``repro analyze --family``); a partial
run analyses less and therefore cannot judge baseline staleness (see
:attr:`AnalysisReport.complete`).

The report applies a :class:`~repro.analysis.baseline.Baseline` by
partitioning findings into kept and suppressed (recording suppressions
that matched nothing as *stale*); exit-code policy lives here too so the
CLI and CI share one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.directive_rules import (
    DirectiveAnalysisContext,
    run_directive_rules,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.hotpath import HotPathScan, scan_paths
from repro.directives.registry import KernelRegistry
from repro.errors import AnalysisError

__all__ = [
    "ALL_FAMILIES",
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisConfig",
    "AnalysisReport",
    "analyze_registry",
    "analyze_hot_paths",
    "analyze_repo",
]

#: Version stamp of the ``repro analyze --json`` payload (the same
#: convention as the Chrome-trace/JSONL exports).  Version 1 was the
#: unstamped pre-family payload; version 2 adds ``schema_version``,
#: ``families`` and stale-suppression reporting.
ANALYSIS_SCHEMA_VERSION = 2

#: Every selectable rule family, in documented run order.
ALL_FAMILIES: tuple[str, ...] = ("directives", "hotpath")


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable knobs of one analysis run."""

    #: Grid size the registry is instantiated at (byte predictions only;
    #: verdicts are grid-independent for the registered kernels).
    grid: int = 65
    #: Threshold of the ``excess-traffic`` rule.
    max_traffic_ratio: float = 2.0
    #: Source roots of the hot-path pass, relative to the ``repro``
    #: package directory.
    hot_path_roots: tuple[str, ...] = ("efit", "batch")
    #: Rule families this run executes (subset of :data:`ALL_FAMILIES`).
    families: tuple[str, ...] = ALL_FAMILIES

    def __post_init__(self) -> None:
        unknown = [f for f in self.families if f not in ALL_FAMILIES]
        if unknown:
            raise AnalysisError(
                f"unknown analysis families: {', '.join(unknown)} "
                f"(known: {', '.join(ALL_FAMILIES)})"
            )
        if not self.families:
            raise AnalysisError("at least one analysis family must be selected")


@dataclass
class AnalysisReport:
    """Everything one linter run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: ``module::qualname`` of every ``@hot_path`` function scanned.
    hot_functions: tuple[str, ...] = ()
    #: Hot functions with zero raw allocation findings (pre-baseline):
    #: the runtime counters must observe zero steady-state allocations
    #: for these (see ``bench_batch``).
    certified_allocation_free: tuple[str, ...] = ()
    #: Families this run executed (empty = legacy construction, treated
    #: as complete).
    families: tuple[str, ...] = ()
    #: Baseline suppressions that matched no finding of this run
    #: (fingerprint -> recorded reason).  Meaningful only when
    #: :attr:`complete` — a family-filtered run simply didn't look.
    stale_suppressions: dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether every rule family ran (staleness is judgeable)."""
        return not self.families or set(self.families) == set(ALL_FAMILIES)

    def apply_baseline(self, baseline: Baseline) -> None:
        """Move baselined findings from :attr:`findings` to
        :attr:`suppressed` (idempotent), recording suppressions that
        matched nothing as :attr:`stale_suppressions`."""
        kept: list[Finding] = []
        for f in self.findings:
            (self.suppressed if baseline.is_suppressed(f) else kept).append(f)
        self.findings = kept
        self.stale_suppressions = baseline.stale_entries(
            [*self.findings, *self.suppressed]
        )

    # -- verdicts ------------------------------------------------------------------
    def count(self, severity: Severity) -> int:
        """Unsuppressed findings at ``severity``."""
        return sum(1 for f in self.findings if f.severity is severity)

    def exit_code(self, *, strict: bool = False) -> int:
        """0 when clean: errors always fail; ``strict`` fails warnings
        too, plus stale baseline suppressions on a complete run."""
        if self.count(Severity.ERROR):
            return 1
        if strict and (self.count(Severity.WARNING) or self.count(Severity.INFO)):
            return 1
        if strict and self.complete and self.stale_suppressions:
            return 1
        return 0

    # -- rendering -----------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON payload of ``repro analyze --json``."""
        return {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "summary": {
                "errors": self.count(Severity.ERROR),
                "warnings": self.count(Severity.WARNING),
                "suppressed": len(self.suppressed),
                "stale_suppressions": dict(sorted(self.stale_suppressions.items())),
                "families": list(self.families or ALL_FAMILIES),
                "hot_functions": list(self.hot_functions),
                "certified_allocation_free": list(self.certified_allocation_free),
            },
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    def render(self) -> str:
        """Human-readable report."""
        lines: list[str] = []
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        for f in sorted(self.findings, key=lambda f: (order[f.severity], f.rule_id, f.location.ident)):
            lines.append(f.render())
        if self.complete:
            for fp in sorted(self.stale_suppressions):
                lines.append(f"stale   baseline suppression matches nothing: {fp}")
        lines.append(
            f"{self.count(Severity.ERROR)} error(s), {self.count(Severity.WARNING)} "
            f"warning(s), {len(self.suppressed)} baselined, "
            f"{len(self.certified_allocation_free)}/{len(self.hot_functions)} hot-path "
            f"function(s) certified allocation-free"
        )
        return "\n".join(lines)


def analyze_registry(
    registry: KernelRegistry,
    *,
    sites=None,
    data_env=None,
    config: AnalysisConfig | None = None,
) -> list[Finding]:
    """Directive rules over one registry against ``sites``.

    ``sites`` defaults to the paper's three machines; ``data_env`` is the
    set of array names the offloaded subroutine's data region covers
    (``None`` = no enclosing region, which the ``missing-data-region``
    rule flags on explicit-memory sites).
    """
    from repro.machines.site import ALL_SITES

    config = config if config is not None else AnalysisConfig()
    ctx = DirectiveAnalysisContext(
        sites=tuple(sites) if sites is not None else ALL_SITES(),
        data_env=frozenset(data_env) if data_env is not None else None,
        max_traffic_ratio=config.max_traffic_ratio,
    )
    return run_directive_rules(registry, ctx)


def analyze_hot_paths(config: AnalysisConfig | None = None) -> HotPathScan:
    """AST pass over the configured hot-path source roots."""
    import repro

    config = config if config is not None else AnalysisConfig()
    package_root = Path(repro.__file__).parent
    roots = [package_root / r for r in config.hot_path_roots]
    missing = [str(r) for r in roots if not r.exists()]
    if missing:
        raise AnalysisError(f"hot-path roots do not exist: {', '.join(missing)}")
    return scan_paths(roots, package_root=package_root)


def analyze_repo(config: AnalysisConfig | None = None) -> AnalysisReport:
    """The full ``repro analyze`` run over the configured families."""
    config = config if config is not None else AnalysisConfig()
    findings: list[Finding] = []
    hot_functions: tuple[str, ...] = ()
    certified: tuple[str, ...] = ()
    if "directives" in config.families:
        from repro.core.offload import build_pflux_registry, pflux_device_arrays

        registry = build_pflux_registry(config.grid)
        data_env = frozenset(a.name for a in pflux_device_arrays(config.grid))
        findings.extend(analyze_registry(registry, data_env=data_env, config=config))
    if "hotpath" in config.families:
        scan = analyze_hot_paths(config)
        findings.extend(scan.findings)
        hot_functions = tuple(scan.hot_functions)
        certified = scan.certified
    return AnalysisReport(
        findings=findings,
        hot_functions=hot_functions,
        certified_allocation_free=certified,
        families=tuple(config.families),
    )
