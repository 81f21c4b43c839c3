#!/usr/bin/env python
"""Reachability census: which ``src/`` functions the entry points run.

Each entry point runs in a fresh Python process under ``sys.setprofile``
(and ``threading.setprofile``, for the serve layer's solver thread), which
records the code object of every Python function call whose file lies
under ``src/repro``.  The entry points:

* every CLI command (``repro.cli.main``), the four ``trace`` cases among
  them, with the flags that write files pointed into a scratch directory;
* the eight ``examples/*.py`` scripts, run from that scratch directory;
* the frozen harness's three workloads (``benchmarks/perf``), untraced and
  ``--traced``, each for a few seconds;
* ``benchmarks/bench_paper_figures.py``, ``bench_paper_tables.py`` and
  ``bench_ablations.py`` under pytest, their artifacts written to the
  scratch directory, not ``results/``;
* a fleet on ``transport="inline"``, whose workers run in the parent, so
  the worker-side code is recorded too (``repro pfleet``'s real worker
  processes are not traced).

The unit is a function line: every line inside a ``def`` of ``src/repro``,
a nested ``def``'s lines counted once, for itself.  A function is reached
when its code ran in any entry point.  The report lists the totals, the
unreached lines per module and every unreached function.

Run:  python benchmarks/reachability.py [--out results/reachability.txt]
      (about two minutes; one process at a time)
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: Seconds each harness workload runs per census entry.
PERF_SECONDS = "2"

#: (label, kind, argv) per entry point; ``{tmp}`` is the scratch directory.
ENTRIES = [
    *(("cli", "cli", argv) for argv in [
        ["version"],
        ["study"],
        ["census"],
        ["census", "--json"],
        ["sites"],
        ["sites", "--json"],
        ["analyze"],
        ["analyze", "--json", "--strict", "--baseline", str(REPO / "analysis-baseline.json"),
         "--sarif", "{tmp}/a.sarif"],
        ["operators", "--grid", "17", "--check"],
        ["operators", "--grid", "17", "--json"],
        ["fit", "--scenario", "g186610", "--grid", "33",
         "--geqdsk", "{tmp}/g.eqdsk", "--afile", "{tmp}/a.eqdsk"],
        ["fit", "--scenario", "solovev", "--grid", "65", "--boundary-method", "lowrank"],
        ["fit", "--scenario", "spherical-torus", "--grid", "33"],
        ["fit", "--scenario", "double-null", "--grid", "33"],
        ["fit", "--scenario", "single-null", "--grid", "33"],
        ["fit", "--scenario", "mse", "--grid", "33"],
        ["trace", "g186610", "--grid", "33", "--out", "{tmp}/t.json", "--jsonl", "{tmp}/t.jsonl"],
        ["trace", "solovev", "--grid", "33", "--out", "{tmp}/t.json"],
        ["trace", "batch", "--grid", "33", "--out", "{tmp}/t.json"],
        ["trace", "offload", "--grid", "33", "--out", "{tmp}/t.json"],
        ["pfleet", "g186610", "--grid", "33", "--workers", "2", "--slices", "4", "--batch", "2",
         "--compare-serial", "--trace-out", "{tmp}/p.json", "--metrics-out", "{tmp}/m.json"],
        ["serve", "--scenario", "g186610", "--grid", "33", "--streams", "2", "--slices", "4",
         "--compare-serial", "--check", "--metrics-out", "{tmp}/s.json"],
        ["serve", "--scenario", "g186610", "--grid", "33", "--streams", "1", "--slices", "4",
         "--queue-depth", "1", "--compare-serial"],
    ]),
    *(("example", "example", [name]) for name in sorted(
        p.name for p in (REPO / "examples").glob("*.py")
    )),
    *(("harness", "perf", ["--workload", w, "--seconds", PERF_SECONDS, "--trace", t])
      for w in ("fit_cold_65", "batch_cold_65_b8", "serve_warm_sn_65") for t in ("0", "1")),
    *(("paper", "pytest", [name]) for name in (
        "bench_paper_figures.py", "bench_paper_tables.py", "bench_ablations.py"
    )),
    ("fleet", "fleet", []),
]


# -- the worker: one entry point under the profiler ------------------------------------
def _inline_fleet() -> None:
    from repro.efit.measurements import synthetic_shot_186610
    from repro.batch import synthetic_slice_sequence
    from repro.obs.hooks import TraceHooks
    from repro.obs.trace import TraceRecorder
    from repro.parallel import ParallelFitEngine, SchedulerConfig

    shot = synthetic_shot_186610(33)
    slices = synthetic_slice_sequence(shot, 4, seed=5)
    hooks = TraceHooks(TraceRecorder())
    with ParallelFitEngine(
        shot.machine, shot.diagnostics, shot.grid, batch_size=2, hooks=hooks,
        config=SchedulerConfig(workers=2, transport="inline"),
    ) as engine:
        engine.fit_many(slices)
        engine.merged_trace()
        engine.merged_metrics()


def _run(kind: str, argv: list[str]) -> int | None:
    """Run one entry point; its exit code where it has one."""
    if kind == "cli":
        from repro.cli import main

        return main(argv)
    elif kind == "example":
        import runpy

        sys.argv = [argv[0]]
        runpy.run_path(str(REPO / "examples" / argv[0]), run_name="__main__")
    elif kind == "perf":
        from benchmarks.perf.cli import main

        return main(argv)
    elif kind == "pytest":
        import pytest

        import benchmarks.conftest

        benchmarks.conftest.RESULTS_DIR = Path.cwd() / "results"
        return int(pytest.main([str(REPO / "benchmarks" / argv[0]), "-q", "-p",
                                "no:cacheprovider", "--benchmark-disable"]))
    _inline_fleet()
    return None


def _worker(kind: str, argv: list[str], out: str) -> None:
    """Run one entry point with the profiler on and write its exit code
    and the reached ``(file, first line)`` pairs to ``out`` — whatever the
    entry's exit."""
    seen: set = set()
    code: object = None
    prefix = str(SRC)

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        code = _run(kind, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        reached = sorted(
            {(c.co_filename, c.co_firstlineno) for c in seen if c.co_filename.startswith(prefix)}
        )
        Path(out).write_text(json.dumps({"code": code, "reached": reached}))


# -- the census: the function table and the report -------------------------------------
def _functions(path: Path) -> list[tuple[int, str, int]]:
    """``(first line, qualified name, own lines)`` of every ``def`` in the
    file; the first line is the first decorator's, as a code object's
    ``co_firstlineno`` is, and a nested ``def``'s lines are its own only."""
    found = []

    def visit(node, prefix: str) -> int:
        """Walk ``node``'s children; return the lines of the defs directly
        inside it (nested deeper ones are their parents' concern)."""
        covered = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = child.end_lineno - first + 1
                inner = visit(child, f"{prefix}{child.name}.")
                found.append((first, f"{prefix}{child.name}", span - inner))
                covered += span
            elif isinstance(child, ast.ClassDef):
                covered += visit(child, f"{prefix}{child.name}.")
            else:
                covered += visit(child, prefix)
        return covered

    visit(ast.parse(path.read_text()), "")
    return sorted(found)


def census(out: Path) -> str:
    tmp = tempfile.mkdtemp(prefix="reachability_")
    env = {**os.environ, **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS")}}
    env.pop("PYTHONPATH", None)
    reached: set[tuple[str, int]] = set()
    ran = defaultdict(int)
    failed = []
    for k, (label, kind, argv) in enumerate(ENTRIES):
        argv = [a.replace("{tmp}", tmp) for a in argv]
        dump = os.path.join(tmp, f"reached_{k}.json")
        print(f"[{k + 1}/{len(ENTRIES)}] {kind} {' '.join(argv)}", flush=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", kind, dump, *argv],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            check=False,
        )
        if not os.path.exists(dump):
            raise RuntimeError(f"entry {kind} {argv} wrote no census")
        record = json.loads(Path(dump).read_text())
        reached |= {(f, line) for f, line in record["reached"]}
        ran[label] += 1
        if record["code"] not in (None, 0):
            failed.append(f"{kind} {' '.join(argv)}: exit {record['code']}")
    shutil.rmtree(tmp, ignore_errors=True)

    per_module: dict[str, list[int]] = {}
    unreached = []
    total = hit = functions = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(REPO / "src"))
        lines = [0, 0]
        for first, name, n in _functions(path):
            functions += 1
            total += n
            lines[1] += n
            if (str(path), first) in reached:
                hit += n
            else:
                lines[0] += n
                unreached.append((rel, first, name, n))
        per_module[rel] = lines
    missed = total - hit
    rows = [
        "Reachability census of src/repro (sys.setprofile; benchmarks/reachability.py)",
        "entry points: " + ", ".join(f"{n} {label}" for label, n in ran.items()),
        f"function lines: {total}, reached {hit}, unreached {missed} "
        f"({100.0 * missed / total:.1f} %)",
        f"functions: {functions}, unreached {len(unreached)}",
        "entries that did not exit 0: " + ("; ".join(failed) if failed else "none"),
        "",
        "unreached function lines per module (modules with any):",
    ]
    for rel, (miss, all_lines) in sorted(per_module.items(), key=lambda kv: (-kv[1][0], kv[0])):
        if miss:
            rows.append(f"  {miss:5d} / {all_lines:5d}  {rel}")
    rows += ["", "unreached functions (module:first line  name  lines):"]
    rows += [f"  {rel}:{first}  {name}  {n}" for rel, first, name, n in unreached]
    text = "\n".join(rows) + "\n"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    return text


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        _worker(argv[1], argv[3:], argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO / "results" / "reachability.txt")
    args = parser.parse_args(argv)
    text = census(args.out)
    print("\n".join(text.splitlines()[:5]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
