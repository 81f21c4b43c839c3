"""Tests of the analysis engine, the ``repro analyze`` CLI and the
shared ``--json`` emitters."""

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline
from repro.analysis.engine import AnalysisConfig, AnalysisReport, analyze_repo
from repro.analysis.findings import Finding, Location, Severity
from repro.cli import main

REPO_ROOT = Path(__file__).parents[2]
REPO_BASELINE = REPO_ROOT / "analysis-baseline.json"


@pytest.fixture(scope="module")
def repo_report():
    return analyze_repo(AnalysisConfig())


class TestAnalyzeRepo:
    def test_repo_has_no_errors(self, repo_report):
        assert repo_report.count(Severity.ERROR) == 0

    def test_known_findings_are_the_figure5_pair(self, repo_report):
        assert sorted(f.fingerprint for f in repo_report.findings) == [
            "excess-traffic@pflux_::boundary_lr#openacc@frontier",
            "excess-traffic@pflux_::boundary_tb#openacc@frontier",
        ]

    def test_committed_baseline_covers_every_finding(self, repo_report):
        """The acceptance criterion: the repo is clean under its own
        committed baseline, so ``repro analyze --strict`` exits 0."""
        baseline = Baseline.load(REPO_BASELINE)
        report = AnalysisReport(findings=list(repo_report.findings))
        report.apply_baseline(baseline)
        assert report.findings == []
        assert report.exit_code(strict=True) == 0

    def test_baseline_has_no_stale_entries(self, repo_report):
        """Every committed suppression matches a live finding — stale
        fingerprints would silently mask future regressions."""
        live = {f.fingerprint for f in repo_report.findings}
        baseline = Baseline.load(REPO_BASELINE)
        assert set(baseline.suppressions) == live

    def test_custom_traffic_ratio_changes_findings(self):
        loose = analyze_repo(AnalysisConfig(max_traffic_ratio=4.5))
        assert all(f.rule_id != "excess-traffic" for f in loose.findings)


class TestReportMechanics:
    def _finding(self, severity):
        return Finding(
            rule_id="excess-traffic",
            severity=severity,
            location=Location(subroutine="pflux_", kernel="k"),
            message="msg",
            fix_hint="",
            detail="",
            data={},
        )

    def test_exit_code_policy(self):
        clean = AnalysisReport(findings=[])
        assert clean.exit_code() == 0 and clean.exit_code(strict=True) == 0
        warn = AnalysisReport(findings=[self._finding(Severity.WARNING)])
        assert warn.exit_code() == 0
        assert warn.exit_code(strict=True) == 1
        err = AnalysisReport(findings=[self._finding(Severity.ERROR)])
        assert err.exit_code() == 1

    def test_render_summarises_counts(self):
        report = AnalysisReport(findings=[self._finding(Severity.WARNING)])
        text = report.render()
        assert "1 warning(s)" in text and "0 error(s)" in text


class TestAnalyzeCli:
    def test_strict_with_committed_baseline_exits_zero(self, capsys):
        rc = main(["analyze", "--strict", "--baseline", str(REPO_BASELINE)])
        assert rc == 0
        assert "0 error(s), 0 warning(s), 2 baselined" in capsys.readouterr().out

    def test_strict_without_baseline_fails_on_known_findings(self, capsys):
        rc = main(["analyze", "--strict", "--no-baseline"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "excess-traffic" in out and "Figure 5" in out

    def test_default_mode_passes_without_baseline(self, capsys):
        """Warnings alone do not fail a non-strict run."""
        assert main(["analyze", "--no-baseline"]) == 0
        capsys.readouterr()

    def test_json_output_parses_and_carries_summary(self, capsys):
        rc = main(["analyze", "--json", "--baseline", str(REPO_BASELINE)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["findings"] == []
        assert len(payload["suppressed"]) == len(
            Baseline.load(REPO_BASELINE).suppressions
        )
        assert set(payload["summary"]) == {
            "errors", "warnings", "suppressed", "stale_suppressions"
        }

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        assert main(["analyze", "--write-baseline", "--baseline", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--strict", "--baseline", str(path)]) == 0
        capsys.readouterr()

    def test_tighter_ratio_adds_findings(self, capsys):
        rc = main(
            ["analyze", "--strict", "--no-baseline", "--max-traffic-ratio", "1.2"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert out.count("excess-traffic") > 2


class TestSharedJsonEmitters:
    def test_census_json_matches_tables(self, capsys):
        assert main(["census", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"table4", "table5"}
        for table in payload.values():
            assert {"title", "headers", "rows"} <= set(table)
            assert table["rows"]

    def test_sites_json_lists_the_three_machines(self, capsys):
        assert main(["sites", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in payload] == ["perlmutter", "frontier", "sunspot"]
        by_name = {s["name"]: s for s in payload}
        assert by_name["sunspot"]["unified_memory"] is False
        assert "openacc" not in by_name["sunspot"]["models"]

    def test_text_mode_unchanged(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "{" not in out
