"""Tests of the findings model and the suppression baseline."""

import pytest

from repro.analysis import Baseline, Finding, Location, Severity
from repro.errors import AnalysisError


def _finding(rule="directive-race", detail="openacc:psi"):
    return Finding(
        rule_id=rule,
        severity=Severity.ERROR,
        location=Location(subroutine="pflux_", kernel="boundary_lr"),
        message="msg",
        fix_hint="fix it",
        detail=detail,
    )


class TestFinding:
    def test_fingerprint_distinguishes_rule_location_detail(self):
        base = _finding().fingerprint
        assert _finding(rule="excess-traffic").fingerprint != base
        assert _finding(detail="openmp:psi").fingerprint != base

    def test_kernel_location_ident(self):
        loc = Location(subroutine="pflux_", kernel="boundary_lr")
        assert loc.ident == "pflux_::boundary_lr"

    def test_render_carries_fix_hint(self):
        text = _finding().render()
        assert "directive-race" in text
        assert "fix it" in text

    def test_to_dict_roundtrips_through_json(self):
        import json

        payload = json.loads(json.dumps(_finding().to_dict()))
        assert payload["rule"] == "directive-race"
        assert payload["severity"] == "error"
        assert payload["fingerprint"] == _finding().fingerprint


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        b = Baseline.from_findings([_finding()], reason="known")
        b.save(path)
        loaded = Baseline.load(path)
        assert loaded.is_suppressed(_finding())
        assert _finding().fingerprint in loaded

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            Baseline.load(tmp_path / "nope.json")

    def test_damaged_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError):
            Baseline.load(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"version": 9, "suppressions": {}}')
        with pytest.raises(AnalysisError):
            Baseline.load(path)

    def test_unsuppressed_finding_passes_through(self):
        b = Baseline.from_findings([_finding()], reason="known")
        other = _finding(rule="excess-traffic")
        assert not b.is_suppressed(other)

    def test_committed_repo_baseline_is_loadable(self):
        from pathlib import Path

        repo_baseline = Path(__file__).parents[2] / "analysis-baseline.json"
        loaded = Baseline.load(repo_baseline)
        assert len(loaded.suppressions) >= 1
        # Every committed suppression carries a human-written reason.
        assert all(reason.strip() for reason in loaded.suppressions.values())
