"""Linter orchestration: assemble rules into one repo-wide analysis.

:func:`analyze_repo` is what ``repro analyze`` runs: it builds the
registered ``pflux_`` kernel registry, lowers it against the paper's
three machine sites and returns an :class:`AnalysisReport` of the
directive rules' findings.

The report applies a :class:`~repro.analysis.baseline.Baseline` by
partitioning findings into kept and suppressed (recording suppressions
that matched nothing as *stale*); exit-code policy lives here too so the
CLI and CI share one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.baseline import Baseline
from repro.analysis.directive_rules import (
    DirectiveAnalysisContext,
    run_directive_rules,
)
from repro.analysis.findings import Finding, Severity
from repro.directives.registry import KernelRegistry

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisConfig",
    "AnalysisReport",
    "analyze_registry",
    "analyze_repo",
]

#: Version stamp of the ``repro analyze --json`` payload (the same
#: convention as the Chrome-trace/JSONL exports).  Version 1 was the
#: unstamped payload; version 2 added ``schema_version``, the rule
#: families and stale-suppression reporting; version 3 drops the
#: summary's three family and allocation-rule keys: one rule set is left.
ANALYSIS_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable knobs of one analysis run."""

    #: Grid size the registry is instantiated at (byte predictions only;
    #: verdicts are grid-independent for the registered kernels).
    grid: int = 65
    #: Threshold of the ``excess-traffic`` rule.
    max_traffic_ratio: float = 2.0


@dataclass
class AnalysisReport:
    """Everything one linter run produced."""

    findings: list[Finding]
    #: What :meth:`apply_baseline` moves out of :attr:`findings`.
    suppressed: list[Finding] = field(default_factory=list, init=False)
    #: Baseline suppressions that matched no finding of this run
    #: (fingerprint -> recorded reason).
    stale_suppressions: dict[str, str] = field(default_factory=dict, init=False)

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
        too, plus stale baseline suppressions."""
        if self.count(Severity.ERROR):
            return 1
        if strict and (self.count(Severity.WARNING) or self.count(Severity.INFO)):
            return 1
        if strict and self.stale_suppressions:
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
        for fp in sorted(self.stale_suppressions):
            lines.append(f"stale   baseline suppression matches nothing: {fp}")
        lines.append(
            f"{self.count(Severity.ERROR)} error(s), {self.count(Severity.WARNING)} "
            f"warning(s), {len(self.suppressed)} baselined"
        )
        return "\n".join(lines)


def analyze_registry(
    registry: KernelRegistry, *, data_env, config: AnalysisConfig
) -> list[Finding]:
    """Directive rules over one registry against the paper's three
    machines.

    ``data_env`` is the set of array names the offloaded subroutine's
    data region covers.
    """
    from repro.machines.site import ALL_SITES

    ctx = DirectiveAnalysisContext(
        sites=ALL_SITES(),
        data_env=frozenset(data_env),
        max_traffic_ratio=config.max_traffic_ratio,
    )
    return run_directive_rules(registry, ctx)


def analyze_repo(config: AnalysisConfig) -> AnalysisReport:
    """The full ``repro analyze`` run: the directive rules over the
    registered ``pflux_`` kernels inside their device data region."""
    from repro.core.offload import build_pflux_registry, pflux_device_arrays

    registry = build_pflux_registry(config.grid)
    data_env = frozenset(a.name for a in pflux_device_arrays(config.grid))
    return AnalysisReport(
        findings=analyze_registry(registry, data_env=data_env, config=config)
    )
