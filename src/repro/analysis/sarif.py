"""SARIF 2.1.0 export of an :class:`~repro.analysis.engine.AnalysisReport`.

SARIF (Static Analysis Results Interchange Format, OASIS 2.1.0) is what
CI forges ingest to annotate pull requests with linter findings.  The
emitted log has one run, one tool (``repro-analyze``), one rule entry
per distinct rule id, and one result per finding — including the
baselined ones, which carry a ``suppressions`` entry so the forge shows
them greyed out instead of hiding them.

Mapping notes:

* A finding points at a registry kernel (``subroutine::kernel``), which
  has no physical file: it carries only a ``logicalLocations`` entry.
* ``partialFingerprints`` carries the finding's stable
  :attr:`~repro.analysis.findings.Finding.fingerprint`, so a forge's
  "new since last run" comparison matches the baseline semantics.
* Severities map ``ERROR -> error``, ``WARNING -> warning``,
  ``INFO -> note``.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Severity
from repro.utils.jsonio import dump_json

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "sarif_payload", "write_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning", Severity.INFO: "note"}

#: One-line rule descriptions for the SARIF rules table (kept short; the
#: full prose lives in ``docs/ANALYSIS.md``).
_RULE_DESCRIPTIONS = {
    "directive-race": "Shared writes under parallel mappings without protection",
    "excess-traffic": "Modeled HBM movement exceeds the streaming-byte bound",
    "implicit-transfer": "Array outside the enclosing data environment",
    "missing-data-region": "No target data region on an explicit-memory site",
    "async-no-wait": "async clause with no matching wait",
}


def _result(finding: Finding, *, suppressed: bool) -> dict:
    loc = {
        "logicalLocations": [
            {"fullyQualifiedName": finding.location.ident, "kind": "function"}
        ]
    }
    message = finding.message
    if finding.fix_hint:
        message += f" Fix: {finding.fix_hint}"
    result = {
        "ruleId": finding.rule_id,
        "level": _LEVEL[finding.severity],
        "message": {"text": message},
        "locations": [loc],
        "partialFingerprints": {"reproFingerprint/v1": finding.fingerprint},
    }
    if suppressed:
        result["suppressions"] = [{"kind": "external"}]
    return result


def sarif_payload(report) -> dict:
    """The SARIF 2.1.0 log of one analysis run (kept + suppressed)."""
    rule_ids = sorted(
        {f.rule_id for f in (*report.findings, *report.suppressed)}
    )
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": _RULE_DESCRIPTIONS.get(rule_id, rule_id)
            },
            "helpUri": "docs/ANALYSIS.md",
        }
        for rule_id in rule_ids
    ]
    results = [_result(f, suppressed=False) for f in report.findings]
    results.extend(_result(f, suppressed=True) for f in report.suppressed)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(report, path) -> None:
    """Write the SARIF log of ``report`` to ``path``."""
    with open(path, "w") as fh:
        dump_json(sarif_payload(report), fh)
