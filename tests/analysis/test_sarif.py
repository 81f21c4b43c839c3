"""Tests of the SARIF 2.1.0 export.

The container has no network, so the official schema cannot be fetched;
``SARIF_SUBSET_SCHEMA`` below is a faithful offline subset of
``sarif-schema-2.1.0.json`` covering every construct this exporter
emits (required properties, the ``level`` enumeration, the shapes of
locations, fingerprints and suppressions), with ``additionalProperties``
left open exactly as the real schema does.
"""

import json

import jsonschema
import pytest

from repro.analysis.engine import AnalysisConfig, AnalysisReport, analyze_repo
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.sarif import (
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    sarif_payload,
    write_sarif,
)

SARIF_SUBSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "informationUri": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "helpUri": {"type": "string"},
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "logicalLocations": {
                                                "type": "array",
                                                "items": {
                                                    "type": "object",
                                                    "properties": {
                                                        "fullyQualifiedName": {
                                                            "type": "string"
                                                        },
                                                        "kind": {"type": "string"},
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                                "partialFingerprints": {
                                    "type": "object",
                                    "additionalProperties": {"type": "string"},
                                },
                                "suppressions": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["kind"],
                                        "properties": {
                                            "kind": {
                                                "enum": ["inSource", "external"]
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _finding(rule="excess-traffic", severity=Severity.WARNING):
    return Finding(
        rule_id=rule,
        severity=severity,
        location=Location(subroutine="pflux_", kernel="boundary_lr"),
        message="msg",
        fix_hint="do the thing",
        detail="d",
        data={},
    )


@pytest.fixture(scope="module")
def repo_payload():
    report = analyze_repo(AnalysisConfig())
    return sarif_payload(report)


class TestSarifPayload:
    def test_repo_run_validates_against_the_2_1_0_schema(self, repo_payload):
        """Acceptance criterion: the real tree's log is schema-valid."""
        jsonschema.validate(repo_payload, SARIF_SUBSET_SCHEMA)

    def test_version_and_schema_uri(self, repo_payload):
        assert repo_payload["version"] == SARIF_VERSION == "2.1.0"
        assert repo_payload["$schema"] == SARIF_SCHEMA_URI

    def test_every_result_has_a_rules_table_entry(self, repo_payload):
        run = repo_payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {r["ruleId"] for r in run["results"]}
        for rule in run["tool"]["driver"]["rules"]:
            assert rule["shortDescription"]["text"]

    def test_severity_level_mapping(self):
        report = AnalysisReport(
            findings=[
                _finding(severity=Severity.ERROR),
                _finding(severity=Severity.WARNING),
                _finding(severity=Severity.INFO),
            ]
        )
        levels = [r["level"] for r in sarif_payload(report)["runs"][0]["results"]]
        assert levels == ["error", "warning", "note"]

    def test_kernel_location_has_no_physical_location(self):
        finding = Finding(
            rule_id="excess-traffic",
            severity=Severity.ERROR,
            location=Location(subroutine="pflux_", kernel="boundary_lr"),
            message="msg",
            fix_hint="",
            detail="",
            data={},
        )
        result = sarif_payload(AnalysisReport(findings=[finding]))["runs"][0][
            "results"
        ][0]
        assert "physicalLocation" not in result["locations"][0]
        assert (
            result["locations"][0]["logicalLocations"][0]["fullyQualifiedName"]
            == "pflux_::boundary_lr"
        )

    def test_suppressed_findings_are_marked_not_dropped(self):
        report = AnalysisReport(findings=[_finding(rule="directive-race")])
        report.suppressed.append(_finding(rule="excess-traffic"))
        payload = sarif_payload(report)
        jsonschema.validate(payload, SARIF_SUBSET_SCHEMA)
        results = {r["ruleId"]: r for r in payload["runs"][0]["results"]}
        assert "suppressions" not in results["directive-race"]
        assert results["excess-traffic"]["suppressions"] == [{"kind": "external"}]

    def test_fingerprint_travels_in_partial_fingerprints(self):
        finding = _finding()
        payload = sarif_payload(AnalysisReport(findings=[finding]))
        result = payload["runs"][0]["results"][0]
        assert result["partialFingerprints"] == {
            "reproFingerprint/v1": finding.fingerprint
        }

    def test_fix_hint_is_appended_to_the_message(self):
        payload = sarif_payload(AnalysisReport(findings=[_finding()]))
        text = payload["runs"][0]["results"][0]["message"]["text"]
        assert "msg" in text and "do the thing" in text


class TestWriteSarif:
    def test_roundtrip_through_disk(self, tmp_path, repo_payload):
        path = tmp_path / "out.sarif"
        write_sarif(analyze_repo(AnalysisConfig()), path)
        loaded = json.loads(path.read_text())
        jsonschema.validate(loaded, SARIF_SUBSET_SCHEMA)
        assert loaded["version"] == "2.1.0"
