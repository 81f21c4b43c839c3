"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.artifact == "all" and args.grids is None

    def test_fit_options(self):
        args = build_parser().parse_args(["fit", "--grid", "33", "--geqdsk", "out.g"])
        assert args.grid == 33 and args.geqdsk == "out.g"

    def test_invalid_solver_rejected(self, capsys):
        """The interior solver is not a fit option: every entry point
        reconstructs with the DST solver."""
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--solver", "cyclic"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --solver cyclic" in capsys.readouterr().err


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        from repro.version import __version__

        assert capsys.readouterr().out.strip() == __version__

    def test_sites(self, capsys):
        assert main(["sites"]) == 0
        out = capsys.readouterr().out
        for name in ("perlmutter", "frontier", "sunspot"):
            assert name in out
        assert "break-even" in out

    def test_census(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "!$acc kernel" in out and "!$omp target teams distribute" in out

    def test_study_single_artifact_small_grids(self, capsys):
        assert main(["study", "--artifact", "table7", "--grids", "65"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "65x65" in out

    def test_study_fig7(self, capsys):
        assert main(["study", "--artifact", "fig7", "--grids", "65", "129"]) == 0
        assert "cpu optimized" in capsys.readouterr().out

    def test_fit_writes_geqdsk(self, tmp_path, capsys):
        out = tmp_path / "g.out"
        assert main(["fit", "--grid", "33", "--geqdsk", str(out)]) == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "converged: True" in text
        # and the file round-trips
        from repro.efit.eqdsk import read_geqdsk

        eq = read_geqdsk(out)
        assert eq.nw == 33 and eq.qpsi.shape == (33,)
        assert (eq.qpsi > 0).all()


def test_fit_writes_afile(tmp_path):
    out = tmp_path / "a.out"
    assert main(["fit", "--grid", "33", "--afile", str(out)]) == 0
    from repro.efit.afile import read_afile

    a = read_afile(out)
    assert a.converged and a.q95 > 1.0


def test_fit_nondefault_scenario(capsys):
    assert main(["fit", "--scenario", "spherical-torus", "--grid", "33"]) == 0
    out = capsys.readouterr().out
    assert "scenario: spherical-torus" in out
    assert "converged: True" in out


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.streams == 4 and args.slices == 8
        assert args.deadline_ms == 1000.0
        assert not args.no_warm_start and not args.check

    def test_invalid_streams_exit_2(self, capsys):
        assert main(["serve", "--streams", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_removed_executor_workers_flag_exits_2(self, capsys):
        """Every frame solves on the service's one solver thread."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--executor-workers", "2"])
        assert exc.value.code == 2
        assert "--executor-workers" in capsys.readouterr().err

    def test_invalid_deadline_exit_2(self, capsys):
        assert main(["serve", "--deadline-ms", "-5"]) == 2
        assert "deadline" in capsys.readouterr().err

    @pytest.mark.parametrize("deadline_ms", ["nan", "inf"])
    def test_non_finite_deadline_exit_2(self, capsys, deadline_ms):
        assert main(["serve", "--deadline-ms", deadline_ms]) == 2
        assert "deadline_s" in capsys.readouterr().err

    def test_smoke_streams_check_and_metrics(self, tmp_path, capsys):
        """The serve-smoke gate in miniature: 2 streams x 2 slices at
        33^2, no deadline, serial comparison and the --check gate."""
        out = tmp_path / "serve.json"
        rc = main(
            [
                "serve",
                "--grid", "33",
                "--streams", "2",
                "--slices", "2",
                "--deadline-ms", "0",
                "--compare-serial",
                "--check",
                "--metrics-out", str(out),
            ]
        )
        text = capsys.readouterr().out
        assert rc == 0
        assert "0 mismatch(es)" in text
        assert "serve check: ok" in text
        import json

        payload = json.loads(out.read_text())
        assert payload["summary"]["warm_iteration_savings"] > 0
        assert payload["summary"]["deadline_misses"] == 0
        assert payload["metrics"]["serve.slices"] == 4.0

    @pytest.mark.parametrize(
        "flags",
        [
            # Frames 0-2 are shed: the one solved slice is frame 3.
            ["--queue-depth", "1", "--slices", "4"],
            # Cold sessions: the replay must not chain either.
            ["--no-warm-start", "--slices", "3", "--deadline-ms", "0"],
        ],
        ids=["shed", "cold"],
    )
    def test_serial_replay_follows_the_session(self, flags, capsys):
        """Each served slice is compared with its own frame, chained as
        its stream chained it."""
        rc = main(
            ["serve", "--scenario", "g186610", "--grid", "33", "--streams", "1",
             "--compare-serial", *flags]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 mismatch(es)" in out
        assert ("3 shed" in out) == ("--queue-depth" in flags)

    def test_structured_boundary_method_matches_serial(self, capsys):
        """Served frames apply the engine's operator, and so does the
        serial replay they are compared against."""
        rc = main(
            [
                "serve",
                "--grid", "33",
                "--streams", "1",
                "--slices", "2",
                "--deadline-ms", "0",
                "--boundary-method", "lowrank",
                "--compare-serial",
            ]
        )
        assert rc == 0
        assert "0 mismatch(es)" in capsys.readouterr().out
