"""CLI exit-code contracts: 0 success, 2 usage/environment/library error.

Scripts (CI above all) branch on these codes, so they are tested as an
interface, not an implementation detail.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.efit import EfitSolver
from repro.errors import ConvergenceError


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2

    def test_unknown_trace_case_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "nonsense"])
        assert exc.value.code == 2


class TestAnalyzeExitCodes:
    def test_strict_with_committed_baseline_passes(self):
        assert main(["analyze", "--strict", "--baseline", "analysis-baseline.json"]) == 0

    def test_no_baseline_reports_findings_nonzero(self, capsys):
        code = main(["analyze", "--strict", "--no-baseline"])
        capsys.readouterr()
        assert code != 0

    def test_missing_baseline_path_is_error(self, tmp_path, capsys):
        code = main(["analyze", "--baseline", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "an.json"
        assert main(["analyze", "--write-baseline", "--baseline", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["analyze", "--strict", "--baseline", str(path)]) == 0


class TestTraceExitCodes:
    def test_trace_writes_chrome_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        code = main(
            ["trace", "g186610", "--grid", "33", "--out", str(out), "--jsonl", str(jsonl)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        assert jsonl.read_text().count("\n") > 10
        printed = capsys.readouterr().out
        assert "spans" in printed
        # iterate count and the map's contraction, side by side
        assert re.search(r"\d+ iterations \(contraction 0\.\d\d per iterate\)", printed)

    def test_unwritable_out_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "t.json"
        code = main(["trace", "offload", "--out", str(out)])
        assert code == 2
        assert "cannot write trace" in capsys.readouterr().err


class TestLibraryErrorBoundary:
    """A ``ReproError`` out of a command is one ``error:`` line and exit
    code 2 (``main``'s single boundary), never a traceback."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            # GridError out of make_shot: far too coarse a grid.
            (["fit", "--grid", "12"], "grid too coarse"),
            # ConvergenceError out of solver.fit (decreed below: the test is
            # about the boundary, and no registered scenario fails to order).
            (["fit", "--scenario", "solovev", "--grid", "33"], "did not converge"),
        ],
    )
    def test_fit_failure_is_one_error_line(self, argv, needle, capsys, monkeypatch):
        def give_up(self, measurements, **kwargs):
            raise ConvergenceError("fit did not converge: residual 2.0e-03 > 1.0e-05")

        monkeypatch.setattr(EfitSolver, "fit", give_up)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestScenarioSelection:
    """--scenario negative paths: the registry drives the choice list."""

    def test_unknown_fit_scenario_exits_2_with_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--scenario", "no-such-machine"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # argparse's invalid-choice message enumerates every registered
        # scenario, so the user sees what IS available.
        assert "invalid choice" in err
        for name in ("g186610", "spherical-torus", "double-null", "single-null", "mse"):
            assert name in err

    def test_unknown_pfleet_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pfleet", "--scenario", "no-such-machine"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_pfleet_non_finite_timeout_exits_2(self, capsys, timeout):
        """A NaN timeout would never time a job out."""
        assert main(["pfleet", "g186610", "--grid", "33", "--timeout", timeout]) == 2
        assert "timeout_seconds" in capsys.readouterr().err

    def test_pfleet_conflicting_forms_exit_2(self, capsys):
        code = main(["pfleet", "g186610", "--scenario", "double-null"])
        assert code == 2
        assert "conflicting" in capsys.readouterr().err

    def test_pfleet_agreeing_forms_accepted(self, capsys):
        code = main(
            ["pfleet", "g186610", "--scenario", "g186610", "--grid", "33",
             "--slices", "2", "--batch", "2", "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pfleet g186610" in out
        # the per-worker line says what the worker's start cost
        assert re.search(r"worker 0 \(pid \d+\): 1 job\(s\), .* start \d+\.\d{3} s", out)

    def test_pfleet_nondefault_scenario_compare_serial(self, capsys):
        """A diverted scenario shards across workers and stays
        bit-identical to the serial engine."""
        code = main(
            ["pfleet", "--scenario", "double-null", "--grid", "33",
             "--slices", "4", "--batch", "2", "--workers", "2",
             "--compare-serial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pfleet double-null" in out
        assert "bit-identical: True" in out
