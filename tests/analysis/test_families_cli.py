"""Tests of family selection, schema stamping and baseline staleness —
the engine policy and the ``repro analyze`` flags that expose it."""

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.engine import (
    ALL_FAMILIES,
    ANALYSIS_SCHEMA_VERSION,
    AnalysisConfig,
    AnalysisReport,
    analyze_repo,
)
from repro.analysis.findings import Finding, Location, Severity
from repro.cli import main
from repro.errors import AnalysisError

REPO_BASELINE = Path(__file__).parents[2] / "analysis-baseline.json"


def _finding(rule="hot-alloc", detail="d"):
    return Finding(
        rule_id=rule,
        severity=Severity.WARNING,
        location=Location(module="m", qualname="f"),
        message="msg",
        detail=detail,
    )


class TestFamilySelection:
    def test_unknown_family_raises(self):
        with pytest.raises(AnalysisError, match="unknown analysis families"):
            AnalysisConfig(families=("hotpath", "vibes"))
        # The retired families are unknown too, and the error names the
        # two that remain.
        for retired in ("precision", "lifecycle"):
            with pytest.raises(
                AnalysisError, match=f"{retired} .known: directives, hotpath\\)"
            ):
                AnalysisConfig(families=(retired,))
        assert ALL_FAMILIES == ("directives", "hotpath")

    def test_empty_selection_raises(self):
        with pytest.raises(AnalysisError, match="at least one"):
            AnalysisConfig(families=())

    def test_partial_run_skips_other_families(self):
        report = analyze_repo(AnalysisConfig(families=("directives",)))
        assert report.families == ("directives",)
        assert {f.rule_id for f in report.findings} == {"excess-traffic"}  # Figure 5
        assert report.hot_functions == ()  # hotpath pass did not run

    def test_full_run_is_complete(self):
        assert AnalysisConfig().families == ALL_FAMILIES
        report = analyze_repo(AnalysisConfig(families=ALL_FAMILIES))
        assert report.complete

    def test_legacy_report_construction_counts_as_complete(self):
        assert AnalysisReport().complete
        assert not AnalysisReport(families=("directives",)).complete


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
        complete = AnalysisReport(stale_suppressions=dict(stale))
        assert complete.exit_code() == 0  # non-strict: warn only
        assert complete.exit_code(strict=True) == 1
        partial = AnalysisReport(
            families=("directives",), stale_suppressions=dict(stale)
        )
        assert partial.exit_code(strict=True) == 0  # didn't look everywhere

    def test_render_lists_stale_entries_on_complete_runs(self):
        report = AnalysisReport(stale_suppressions={"ghost@x::y#z": ""})
        assert "ghost@x::y#z" in report.render()
        partial = AnalysisReport(
            families=("directives",), stale_suppressions={"ghost@x::y#z": ""}
        )
        assert "ghost" not in partial.render()


class TestSchemaStamp:
    def test_to_dict_leads_with_schema_version(self):
        payload = AnalysisReport(families=("hotpath",)).to_dict()
        assert payload["schema_version"] == ANALYSIS_SCHEMA_VERSION == 2
        assert payload["summary"]["families"] == ["hotpath"]
        assert payload["summary"]["stale_suppressions"] == {}

    def test_cli_json_carries_the_stamp(self, capsys):
        rc = main(["analyze", "--json", "--baseline", str(REPO_BASELINE)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["summary"]["families"] == list(ALL_FAMILIES)


@pytest.fixture()
def stale_baseline(tmp_path):
    """The committed baseline plus one fingerprint matching nothing."""
    payload = json.loads(REPO_BASELINE.read_text())
    payload["suppressions"]["ghost-rule@x::y#z"] = "long gone"
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(payload))
    return path


class TestCliFamilies:
    def test_family_filtered_run_is_clean(self, capsys):
        rc = main(
            ["analyze", "--strict", "--family", "directives", "--baseline", str(REPO_BASELINE)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 2 baselined" in out
        assert "0/0 hot-path" in out  # the hotpath pass did not run

    def test_repeated_family_flags_deduplicate(self, capsys):
        rc = main(["analyze", "--json", "--family", "directives", "--family", "directives"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["summary"]["families"] == ["directives"]

    def test_unknown_family_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--family", "vibes"])
        capsys.readouterr()
        for retired in ("precision", "lifecycle"):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--family", retired])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"invalid choice: '{retired}'" in err
            assert "'directives', 'hotpath'" in err


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

    def test_partial_run_cannot_judge_staleness(self, stale_baseline, capsys):
        rc = main(
            [
                "analyze",
                "--strict",
                "--family",
                "directives",
                "--baseline",
                str(stale_baseline),
            ]
        )
        assert rc == 0
        assert "stale" not in capsys.readouterr().err

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
