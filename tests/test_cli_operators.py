"""CLI: `repro operators` and the boundary-method flags."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_build_parser_is_import_light(self):
        """The choice lists come from ``repro.edge_methods`` and the
        scenario registry, so building the parser loads no numpy."""
        code = (
            "import sys; from repro.cli import build_parser; build_parser(); "
            "sys.exit(1 if 'numpy' in sys.modules else 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr or "build_parser loaded numpy"

    def test_operators_defaults(self):
        args = build_parser().parse_args(["operators"])
        assert args.grid == 65 and args.vectors == 4
        assert args.method is None and not args.check

    def test_operators_method_choices(self):
        args = build_parser().parse_args(
            ["operators", "--method", "lowrank", "--method", "toeplitz"]
        )
        assert args.method == ["lowrank", "toeplitz"]
        for rejected in ("dense", "butterfly", "toeplitz-fp32"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["operators", "--method", rejected])

    def test_operators_has_one_bound(self):
        assert build_parser().parse_args(["operators"]).bound == 1e-10
        for removed in ("--fp64-bound", "--fp32-bound"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["operators", removed, "1e-3"])

    @pytest.mark.parametrize("command", ["fit"])
    def test_boundary_method_flag(self, command):
        args = build_parser().parse_args([command, "--boundary-method", "lowrank"])
        assert args.boundary_method == "lowrank"
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--boundary-method", "butterfly"])

    def test_flag_default_is_the_named_constant(self):
        from repro.edge_methods import DEFAULT_EDGE_METHOD

        for command in ("fit", "pfleet", "serve"):
            args = build_parser().parse_args([command])
            assert args.boundary_method == DEFAULT_EDGE_METHOD

    def test_analyze_prices_one_kernel(self):
        """The linter prices the paper's boundary sweep and nothing else:
        the flag that swapped it for a compressed form is gone."""
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--boundary-method", "lowrank"])
        assert exc.value.code == 2
        assert not hasattr(build_parser().parse_args(["analyze"]), "boundary_method")

    def test_removed_method_exits_2_listing_the_survivors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--boundary-method", "lowrank-fp32"])
        assert exc.value.code == 2
        assert "'dense', 'toeplitz', 'lowrank'" in capsys.readouterr().err

    def test_pfleet_boundary_method_flag(self):
        args = build_parser().parse_args(
            ["pfleet", "g186610", "--boundary-method", "toeplitz"]
        )
        assert args.boundary_method == "toeplitz"


class TestOperatorsCommand:
    def test_check_passes_at_small_grid(self, capsys):
        assert main(["operators", "--grid", "17", "--check"]) == 0
        out = capsys.readouterr().out
        assert "operator drift check: ok (2 method(s))" in out
        for method in ("toeplitz", "lowrank"):
            assert method in out
        assert "fp32" not in out
        assert "max-abs-error" in out

    def test_json_payload(self, capsys):
        assert main(["operators", "--grid", "17", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"] == 17
        assert payload["dense_nbytes"] > 0
        methods = {row["method"]: row for row in payload["methods"]}
        assert all(row["ok"] for row in methods.values())
        assert methods["lowrank"]["compression"] > 1.0
        assert set(methods) == {"toeplitz", "lowrank"}
        assert methods["lowrank"]["bound"] == pytest.approx(1e-10)

    def test_impossible_bound_fails_check(self, capsys):
        code = main(
            ["operators", "--grid", "17", "--method", "lowrank",
             "--bound", "1e-30", "--check"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "operator drift check: FAIL" in captured.err

    def test_without_check_bound_failure_is_reported_not_fatal(self, capsys):
        code = main(
            ["operators", "--grid", "17", "--method", "lowrank",
             "--bound", "1e-30"]
        )
        assert code == 0
        assert "FAIL" in capsys.readouterr().out

    def test_bad_usage_exits_2(self, capsys):
        assert main(["operators", "--grid", "3"]) == 2
        assert "--grid" in capsys.readouterr().err
