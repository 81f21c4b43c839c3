"""Baseline file: accepted findings the linter stops reporting.

A baseline is a committed JSON file listing finding
:attr:`~repro.analysis.findings.Finding.fingerprint` strings that are
*known and accepted* — the paper's own intentional smell, the OpenACC
excess-traffic encoding of Figure 5.  CI
runs ``repro analyze --strict`` against the committed baseline, so any
*new* finding fails the build while the accepted set stays quiet.

The format is deliberately dumb — a sorted list of fingerprints plus a
free-text reason per entry — so diffs review well::

    {
      "version": 1,
      "suppressions": {
        "excess-traffic@pflux_::boundary_lr#openacc@frontier": "Figure 5",
        ...
      }
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.findings import Finding
from repro.errors import AnalysisError

__all__ = ["Baseline", "BASELINE_VERSION"]

BASELINE_VERSION = 1


class Baseline:
    """An accepted-findings set keyed by fingerprint."""

    def __init__(self, suppressions: dict[str, str] | None = None) -> None:
        self.suppressions: dict[str, str] = dict(suppressions or {})

    def __len__(self) -> int:
        return len(self.suppressions)

    def __contains__(self, item: Finding | str) -> bool:
        fingerprint = item.fingerprint if isinstance(item, Finding) else item
        return fingerprint in self.suppressions

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether ``finding`` is baselined (accepted)."""
        return finding in self

    # -- staleness -----------------------------------------------------------------
    def stale_entries(self, findings) -> dict[str, str]:
        """Suppressions that matched no finding in ``findings``
        (fingerprint -> recorded reason).  A stale entry means the smell
        it accepted is gone — dead weight that would silently re-accept
        the finding if it ever came back for a different reason."""
        live = {f.fingerprint for f in findings}
        return {fp: r for fp, r in self.suppressions.items() if fp not in live}

    def pruned(self, findings) -> "Baseline":
        """A copy with stale entries removed (reasons preserved for the
        suppressions that still match)."""
        live = {f.fingerprint for f in findings}
        return Baseline({fp: r for fp, r in self.suppressions.items() if fp in live})

    # -- persistence ---------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; raises :class:`AnalysisError` on damage."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise AnalysisError(f"baseline file {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"baseline file {path} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or "suppressions" not in payload:
            raise AnalysisError(f"baseline file {path} lacks a 'suppressions' table")
        if payload.get("version") != BASELINE_VERSION:
            raise AnalysisError(
                f"baseline file {path} has version {payload.get('version')!r}; "
                f"this linter reads version {BASELINE_VERSION}"
            )
        sup = payload["suppressions"]
        if isinstance(sup, list):  # fingerprint list without reasons
            sup = {fp: "" for fp in sup}
        if not isinstance(sup, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in sup.items()
        ):
            raise AnalysisError(f"baseline file {path}: suppressions must map str -> str")
        return cls(sup)

    def save(self, path: str | Path) -> None:
        """Write the baseline, fingerprints sorted for stable diffs."""
        payload = {
            "version": BASELINE_VERSION,
            "suppressions": {k: self.suppressions[k] for k in sorted(self.suppressions)},
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")

    @classmethod
    def from_findings(
        cls,
        findings,
        reason: str = "accepted at baseline creation",
        *,
        previous: "Baseline | None" = None,
    ) -> "Baseline":
        """Build a baseline accepting every finding in ``findings``.

        ``previous`` carries hand-written reasons forward for
        fingerprints that are still live; entries of ``previous`` that
        match nothing are pruned (``--write-baseline`` regeneration
        keeps the curated text, drops the dead weight)."""
        old = previous.suppressions if previous is not None else {}
        return cls(
            {f.fingerprint: old.get(f.fingerprint, reason) for f in findings}
        )
