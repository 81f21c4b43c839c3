"""Findings model of the portability linter.

A :class:`Finding` is one statically-detected portability defect: a rule
id, a severity, a :class:`Location` (``subroutine::kernel`` inside a
directive registry), a human message and a machine-actionable fix hint.
Findings are identified across runs by a :attr:`~Finding.fingerprint`
that is stable under message rewording — the unit the baseline file
suppresses.

Rule ids are kebab-case and documented in ``docs/ANALYSIS.md``:

=====================  ======================================================
rule id                paper motivation
=====================  ======================================================
``directive-race``     shared arrays written under ``loop gang``/``teams``
                       mappings without ``reduction``/``private``/atomic
                       (the Figures 2/3 scalar-reduction requirement)
``implicit-transfer``  arrays touched by a nest but absent from the
                       enclosing data environment (Section 6.2, Intel PVC)
``excess-traffic``     modeled HBM movement exceeding the streaming-byte
                       bound by a configurable ratio (Figure 5's 3.7x
                       OpenACC-on-AMD excess)
``async-no-wait``      ``async`` clauses with no matching ``!$acc wait``
``missing-data-region``  kernels on explicit-memory sites (Sunspot) with
                       no enclosing ``target data`` region
=====================  ======================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Severity", "Location", "Finding"]


class Severity(enum.Enum):
    """How bad a finding is; drives the exit-code policy."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Location:
    """Where a finding points: a kernel of a directive registry."""

    subroutine: str
    kernel: str | None = None

    @property
    def ident(self) -> str:
        """Stable identity string, ``subroutine::kernel``."""
        return f"{self.subroutine}::{self.kernel or '?'}"

    def to_dict(self) -> dict:
        """JSON-ready mapping (``None`` fields omitted)."""
        out: dict = {}
        for key in ("subroutine", "kernel"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class Finding:
    """One statically-detected portability defect."""

    rule_id: str
    severity: Severity
    location: Location
    message: str
    fix_hint: str
    #: Short stable token disambiguating same-rule findings at one
    #: location (the offending array, call or ``model@site`` pair).
    detail: str
    #: Free-form numeric payload (predicted bytes, modeled ratios...).
    data: dict = field(compare=False)

    @property
    def fingerprint(self) -> str:
        """Baseline-matching identity: rule + location + detail."""
        return f"{self.rule_id}@{self.location.ident}#{self.detail}"

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        out = {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "location": self.location.to_dict(),
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.fix_hint:
            out["fix_hint"] = self.fix_hint
        if self.detail:
            out["detail"] = self.detail
        if self.data:
            out["data"] = self.data
        return out

    def render(self) -> str:
        """One- or two-line human rendering."""
        text = f"{self.severity.value:<7} {self.rule_id:<20} {self.location.ident}: {self.message}"
        if self.fix_hint:
            text += f"\n        fix: {self.fix_hint}"
        return text
