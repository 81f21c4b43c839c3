"""Tests of schema stamping and baseline staleness — the engine policy
and the ``repro analyze`` flags that expose it — and of the retired
``--family`` flag: with the directive rules the only ones left, there is
no family to select."""

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.engine import ANALYSIS_SCHEMA_VERSION, AnalysisReport
from repro.analysis.findings import Finding, Location, Severity
from repro.cli import main

REPO_BASELINE = Path(__file__).parents[2] / "analysis-baseline.json"


def _finding(rule="excess-traffic", detail="d"):
    return Finding(
        rule_id=rule,
        severity=Severity.WARNING,
        location=Location(subroutine="pflux_", kernel="k"),
        message="msg",
        detail=detail,
    )


class TestStaleness:
    def test_stale_entries_and_pruned(self):
        live = _finding()
        baseline = Baseline(
            {live.fingerprint: "still real", "ghost@x::y#z": "long gone"}
        )
        assert baseline.stale_entries([live]) == {"ghost@x::y#z": "long gone"}
        pruned = baseline.pruned([live])
        assert pruned.suppressions == {live.fingerprint: "still real"}

    def test_from_findings_preserves_curated_reasons(self):
        old_f, new_f = _finding(detail="old"), _finding(detail="new")
        previous = Baseline(
            {old_f.fingerprint: "Figure 5", "ghost@x::y#z": "long gone"}
        )
        rebuilt = Baseline.from_findings([old_f, new_f], previous=previous)
        assert rebuilt.suppressions[old_f.fingerprint] == "Figure 5"
        assert (
            rebuilt.suppressions[new_f.fingerprint]
            == "accepted at baseline creation"
        )
        assert "ghost@x::y#z" not in rebuilt.suppressions

    def test_apply_baseline_records_stale_suppressions(self):
        report = AnalysisReport(findings=[_finding()])
        report.apply_baseline(Baseline({"ghost@x::y#z": "long gone"}))
        assert report.stale_suppressions == {"ghost@x::y#z": "long gone"}

    def test_exit_code_policy_for_stale_entries(self):
        stale = {"ghost@x::y#z": ""}
        report = AnalysisReport(stale_suppressions=dict(stale))
        assert report.exit_code() == 0  # non-strict: warn only
        assert report.exit_code(strict=True) == 1

    def test_render_lists_stale_entries_on_complete_runs(self):
        report = AnalysisReport(stale_suppressions={"ghost@x::y#z": ""})
        assert "ghost@x::y#z" in report.render()


class TestSchemaStamp:
    def test_to_dict_leads_with_schema_version(self):
        payload = AnalysisReport().to_dict()
        assert payload["schema_version"] == ANALYSIS_SCHEMA_VERSION == 3
        assert "families" not in payload["summary"]
        assert payload["summary"]["stale_suppressions"] == {}

    def test_cli_json_carries_the_stamp(self, capsys):
        rc = main(["analyze", "--json", "--baseline", str(REPO_BASELINE)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 3


@pytest.fixture()
def stale_baseline(tmp_path):
    """The committed baseline plus one fingerprint matching nothing."""
    payload = json.loads(REPO_BASELINE.read_text())
    payload["suppressions"]["ghost-rule@x::y#z"] = "long gone"
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(payload))
    return path


class TestCliFamilies:
    def test_unknown_family_is_an_argparse_error(self, capsys):
        """Every family name is unknown now, the surviving one included."""
        for family in ("directives", "hotpath", "precision", "lifecycle"):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--family", family])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: --family {family}" in err


class TestCliStaleness:
    def test_default_mode_warns_on_stderr(self, stale_baseline, capsys):
        rc = main(["analyze", "--baseline", str(stale_baseline)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "stale baseline suppression" in err
        assert "ghost-rule@x::y#z" in err and "long gone" in err

    def test_strict_mode_fails(self, stale_baseline, capsys):
        rc = main(["analyze", "--strict", "--baseline", str(stale_baseline)])
        assert rc == 1
        capsys.readouterr()

    def test_write_baseline_prunes_and_keeps_reasons(self, stale_baseline, capsys):
        rc = main(
            ["analyze", "--write-baseline", "--baseline", str(stale_baseline)]
        )
        assert rc == 0
        capsys.readouterr()
        rebuilt = json.loads(stale_baseline.read_text())["suppressions"]
        committed = json.loads(REPO_BASELINE.read_text())["suppressions"]
        assert "ghost-rule@x::y#z" not in rebuilt
        assert rebuilt == committed  # same live set, curated reasons intact


class TestCliSarif:
    def test_sarif_flag_writes_a_valid_log(self, tmp_path, capsys):
        path = tmp_path / "analysis.sarif"
        rc = main(
            ["analyze", "--baseline", str(REPO_BASELINE), "--sarif", str(path)]
        )
        assert rc == 0
        assert "wrote SARIF log" in capsys.readouterr().err
        payload = json.loads(path.read_text())
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        # the whole accepted set is present, marked suppressed
        assert len(results) == len(
            json.loads(REPO_BASELINE.read_text())["suppressions"]
        )
        assert all(r["suppressions"] == [{"kind": "external"}] for r in results)

    def test_unwritable_sarif_path_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "analyze",
                "--no-baseline",
                "--sarif",
                str(tmp_path / "nope" / "analysis.sarif"),
            ]
        )
        assert rc == 2
        capsys.readouterr()
