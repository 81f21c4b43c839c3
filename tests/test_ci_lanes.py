"""The CI lanes and the README name only what the CLI still has.

A PR that removes a sub-command or a flag and forgets a lane fails here,
not on the next nightly.  The workflow files are read as text: ``pyyaml``
is not a test dependency.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
_PLACEHOLDER = re.compile(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}")


def _run_commands(text: str) -> list[str]:
    """Every shell command of every ``run:`` key: a plain scalar is one
    command, a folded ``>`` block is its lines joined, a literal ``|``
    block is one command a line."""
    lines = text.splitlines()
    commands = []
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not m:
            continue
        indent, value = len(m.group(1)), m.group(2).strip()
        if value not in (">", "|"):
            commands.append(value)
            continue
        block = []
        for nxt in lines[i + 1 :]:
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                break
            block.append(nxt.strip())
        commands += [" ".join(block)] if value == ">" else [b for b in block if b]
    return commands


def _repro_invocations() -> list[tuple[str, list[str]]]:
    """``(workflow file, argv)`` for each ``python -m repro ...`` a lane
    runs, once per value of any ``${{ matrix.<key> }}`` it mentions."""
    found = []
    for path in WORKFLOWS:
        text = path.read_text()
        for command in _run_commands(text):
            _, marker, tail = command.partition("python -m repro ")
            if not marker:
                continue
            variants = [tail]
            for m in _PLACEHOLDER.finditer(tail):
                matrix = re.search(rf"^\s*{m.group(1)}:\s*\[(.*)\]\s*$", text, re.M).group(1)
                values = [v.strip().strip("\"'") for v in matrix.split(",")]
                variants = [t.replace(m.group(0), v) for t in variants for v in values]
            found += [(path.name, shlex.split(v)) for v in dict.fromkeys(variants)]
    return found


def _subcommands() -> list[str]:
    (sub,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return list(sub.choices)


INVOCATIONS = _repro_invocations()


def _named_method(argv: list[str]) -> str:
    """The ``--boundary-method`` an invocation names, or ``"default"``."""
    return argv[argv.index("--boundary-method") + 1] if "--boundary-method" in argv else "default"


def _parallel_stress_commands() -> list[str]:
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return _run_commands(text[text.index("  parallel-stress:") : text.index("  scenario-matrix:")])


def test_the_scan_finds_the_lanes():
    """Guards the scanner itself: both workflow files, every form of
    ``run:`` (plain, folded, matrix-expanded)."""
    assert {name for name, _ in INVOCATIONS} == {"ci.yml", "nightly.yml"}
    commands = {argv[0] for _, argv in INVOCATIONS}
    assert {"analyze", "pfleet", "fit", "serve", "trace", "operators"} <= commands
    assert sum(argv[0] == "fit" for _, argv in INVOCATIONS) == 4
    # The fleet runs three times: the crash drill on the default operator,
    # then the dense oracle and the low-rank operator.
    fleets = [argv for _, argv in INVOCATIONS if argv[0] == "pfleet"]
    assert sorted(_named_method(argv) for argv in fleets) == ["default", "dense", "lowrank"]
    # The serve smoke runs twice: the gate, and the shedding drill.
    serves = [argv for _, argv in INVOCATIONS if argv[0] == "serve"]
    assert sorted("--queue-depth" in argv for argv in serves) == [False, True]


def test_parallel_stress_lane_sweeps_its_tmpdir_for_arenas():
    """The lane gives itself a TMPDIR and, after the suite and both
    fleet drills, fails on any ``repro_arena_*`` entry left in it."""
    commands = _parallel_stress_commands()
    exported = next(i for i, c in enumerate(commands) if c.startswith('echo "TMPDIR='))
    sweep = next(i for i, c in enumerate(commands) if "repro_arena_*" in c)
    ran = [i for i, c in enumerate(commands) if "pytest" in c or "repro pfleet" in c]
    assert len(ran) == 4 and exported < min(ran) and max(ran) < sweep


def test_parallel_stress_lane_stages_every_arena_layout_in_real_processes():
    """Besides the crash drill's default layout, the lane runs the same
    short fleet once on the dense oracle and once on the low-rank operator,
    each against the serial engine and in real worker processes — and the
    arena sweep stays the lane's last step."""
    commands = _parallel_stress_commands()
    fleets = {}
    for i, command in enumerate(commands):
        _, marker, tail = command.partition("python -m repro ")
        argv = shlex.split(tail) if marker else []
        if argv[:1] == ["pfleet"] and "--boundary-method" in argv:
            k = argv.index("--boundary-method")
            fleets[argv[k + 1]] = (i, argv[:k] + argv[k + 2 :])
    assert sorted(fleets) == ["dense", "lowrank"]
    (_, dense), (_, lowrank) = fleets["dense"], fleets["lowrank"]
    assert dense == lowrank == shlex.split(
        "pfleet g186610 --grid 33 --workers 2 --slices 4 --batch 2 --compare-serial"
    )
    parsed = build_parser().parse_args(dense)
    assert parsed.workers == 2 and parsed.compare_serial
    sweep = next(i for i, c in enumerate(commands) if "repro_arena_*" in c)
    assert max(i for i, _ in fleets.values()) < sweep
    assert not any("python -m repro" in c or "pytest" in c for c in commands[sweep:])


def test_test_lane_runs_every_example():
    """The ``test`` lane runs each ``examples/*.py`` as a script and fails
    on the first non-zero exit, after the tier-1 suite."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    commands = _run_commands(text[text.index("  test:") : text.index("  analyze:")])
    (loop,) = [c for c in commands if "examples/*.py" in c]
    assert loop.startswith("for example in examples/*.py; do")
    assert 'python "$example" || exit 1' in loop
    assert commands.index(loop) > next(i for i, c in enumerate(commands) if "pytest -x" in c)
    assert len(list((ROOT / "examples").glob("*.py"))) >= 8


def test_scenario_lanes_run_their_batch_relations():
    """Each scenario-matrix lane runs the batch relations of its own
    scenario, and for every scenario of the matrix that selection holds
    the tests of widths that change mid-run and of slices in different
    phases of one iterate."""
    from tests.scenarios import test_properties

    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lane = text[text.index("  scenario-matrix:") : text.index("  serve-smoke:")]
    (command,) = [c for c in _run_commands(lane) if "test_properties.py" in c]
    assert command.endswith('-k "${{ matrix.scenario }} and batch"')
    scenarios = re.search(r"^\s*scenario:\s*\[(.*)\]\s*$", lane, re.M).group(1)
    widths = (
        test_properties.test_batch_width_shrinks_as_slices_converge,
        test_properties.test_batch_mixes_trusted_untrusted_and_cold_seeds,
        test_properties.test_batch_fits_the_vessel,
        test_properties.test_batch_mixes_phases_when_a_seed_is_revoked,
    )
    for scenario in (v.strip() for v in scenarios.split(",")):
        for fn in widths:
            (mark,) = [m for m in fn.pytestmark if m.name == "parametrize"]
            assert scenario in mark.args[1], (fn.__name__, scenario)


def test_scenario_lanes_run_the_support_apply_on_their_currents():
    """Each scenario-matrix lane runs the support-restricted edge apply on
    its own scenario's fitted currents, and that selection exists for
    every scenario of the matrix."""
    from tests.efit.test_edge_operators import TestSupportRestrictedApply

    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lane = text[text.index("  scenario-matrix:") : text.index("  serve-smoke:")]
    (command,) = [c for c in _run_commands(lane) if "test_edge_operators.py" in c]
    assert command.endswith('-k "support and ${{ matrix.scenario }}"')
    (mark,) = [
        m for m in TestSupportRestrictedApply.test_fitted_currents.pytestmark
        if m.name == "parametrize"
    ]
    scenarios = re.search(r"^\s*scenario:\s*\[(.*)\]\s*$", lane, re.M).group(1)
    for scenario in (v.strip() for v in scenarios.split(",")):
        assert scenario in mark.args[1], scenario


def test_scenario_lanes_run_the_width_one_kernel_oracles():
    """Each scenario-matrix lane holds the flux step, the vertical shift
    and the least squares of its own scenario's fits against the kernels
    they replaced, and those selections exist for every scenario of the
    matrix."""
    from tests.efit import test_flux_step_equivalence as oracles

    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lane = text[text.index("  scenario-matrix:") : text.index("  serve-smoke:")]
    (command,) = [c for c in _run_commands(lane) if "test_flux_step_equivalence.py" in c]
    assert command.endswith("-k ${{ matrix.scenario }}")
    assert "- name: Width-one kernels bit-identical to the parent's\n" in lane
    # The least-squares oracle's bits hold for the pinned numpy and scipy.
    (install,) = [c for c in _run_commands(lane) if c.startswith("pip install -e ")]
    assert install.endswith("-c .github/constraints.txt")
    pins = (ROOT / ".github" / "constraints.txt").read_text().split()
    assert {p.split("==")[0] for p in pins if "==" in p} == {"numpy", "scipy"}
    scenarios = re.search(r"^\s*scenario:\s*\[(.*)\]\s*$", lane, re.M).group(1)
    for test in (
        oracles.test_flux_step_matches_the_column_oracle,
        oracles.test_shift_z_matches_the_window_oracle,
        oracles.test_least_squares_matches_numpy_qr,
    ):
        (mark,) = [m for m in test.pytestmark if m.name == "parametrize" and m.args[0] == "name"]
        for scenario in (v.strip() for v in scenarios.split(",")):
            assert scenario in mark.args[1], (test.__name__, scenario)


def test_scenario_lanes_run_the_per_position_oracles():
    """Each scenario-matrix lane's set-up step, named for both oracles,
    holds its own scenario's responses against the per-kind build the
    per-position loop replaced, and its solver's grid response on the
    plasma's support against the full one (the response, every fit's
    result fields and the iterates' reach), and that selection exists for
    every scenario of the matrix (on the square grids and the 17x23 one)."""
    from tests.efit import test_setup_equivalence as oracles

    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lane = text[text.index("  scenario-matrix:") : text.index("  serve-smoke:")]
    (command,) = [c for c in _run_commands(lane) if "test_setup_equivalence.py" in c]
    assert command.endswith("-k ${{ matrix.scenario }}")
    (name,) = re.findall(r"- name: (.*)\n\s*run: python -m pytest -q tests/efit/test_setup_eq", lane)
    assert "per-component and per-kind oracles" in name
    assert "full response" in name
    scenarios = re.search(r"^\s*scenario:\s*\[(.*)\]\s*$", lane, re.M).group(1)
    for test in (
        oracles.test_responses_match_the_per_kind_oracle,
        oracles.test_non_square_responses_match_the_per_kind_oracle,
        oracles.test_solver_response_is_the_set_response_on_its_support,
        oracles.test_fits_match_a_solver_handed_the_full_response,
        oracles.test_every_iterate_stays_on_the_support,
        oracles.test_the_widest_plasma_meets_the_full_response,
    ):
        (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
        ids = [param.id for param in mark.args[1]]
        for scenario in (v.strip() for v in scenarios.split(",")):
            assert any(i.startswith(f"{scenario}-") for i in ids), (test.__name__, scenario)


def _check_iterate_equivalence_lane(test, phrase: str) -> None:
    """The scenario-matrix lane's iterate-equivalence step selects its
    own scenario, its name says it runs ``phrase``, and ``test`` is
    parametrised over every scenario of the matrix."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lane = text[text.index("  scenario-matrix:") : text.index("  serve-smoke:")]
    (command,) = [c for c in _run_commands(lane) if "test_iterate_equivalence.py" in c]
    assert command.endswith("-k ${{ matrix.scenario }}")
    (name,) = re.findall(r"- name: (.*)\n\s*run: python -m pytest -q tests/efit/test_iterate_eq", lane)
    assert phrase in name
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize" and m.args[0] == "name"]
    scenarios = re.search(r"^\s*scenario:\s*\[(.*)\]\s*$", lane, re.M).group(1)
    for scenario in (v.strip() for v in scenarios.split(",")):
        assert scenario in mark.args[1], scenario


def test_scenario_lanes_run_the_slab_currents_on_a_batch():
    """Each scenario-matrix lane's iterate-equivalence step, named for it,
    runs the slab-current check on a lock-step batch of its own scenario,
    and that selection exists for every scenario of the matrix."""
    from tests.efit.test_iterate_equivalence import test_slab_current_matches_the_full_grid_formula

    _check_iterate_equivalence_lane(test_slab_current_matches_the_full_grid_formula, "slab currents")


def test_scenario_lanes_run_the_warm_chain_searches():
    """Each scenario-matrix lane's iterate-equivalence step, named for it,
    holds the boundary searches of its own scenario's warm chain — the
    serve path: a trust probe, then warm iterates — against the oracle,
    and that selection exists for every scenario of the matrix."""
    from tests.efit.test_iterate_equivalence import test_warm_chain_searches_match_the_oracle

    _check_iterate_equivalence_lane(test_warm_chain_searches_match_the_oracle, "warm chain")


@pytest.mark.parametrize(
    "workflow, argv", INVOCATIONS, ids=[f"{n}:{'_'.join(a[:3])}" for n, a in INVOCATIONS]
)
def test_workflow_invocation_parses(workflow, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{workflow} runs `python -m repro {' '.join(argv)}`, which the CLI rejects")


def test_readme_names_exactly_the_subcommands():
    line = next(
        ln for ln in (ROOT / "README.md").read_text().splitlines()
        if ln.startswith("`python -m repro ") and "|" in ln
    )
    named = [w.strip() for w in line.strip("`").removeprefix("python -m repro ").split("|")]
    assert sorted(named) == sorted(_subcommands())


def test_removed_bench_command_exits_2_naming_the_survivors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bench'" in err
    assert len(_subcommands()) == 10 and all(repr(name) in err for name in _subcommands())
