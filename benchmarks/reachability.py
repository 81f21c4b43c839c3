#!/usr/bin/env python
"""Reachability census: which ``src/`` functions the entry points run, and
which values their options receive.

Each entry point runs in a fresh Python process under ``sys.setprofile``
(and ``threading.setprofile``, for the serve layer's solver thread), which
records the code object of every Python function call whose file lies
under ``src/repro``.  The entry points:

* every CLI command (``repro.cli.main``), the four ``trace`` cases among
  them, with the flags that write files pointed into a scratch directory;
* the eight ``examples/*.py`` scripts, run from that scratch directory;
* the frozen harness's three workloads (``benchmarks/perf``), untraced and
  ``--traced``, each for a few seconds;
* ``benchmarks/bench_paper_figures.py``, ``bench_paper_tables.py``,
  ``bench_ablations.py`` and ``bench_fit.py`` under pytest, their
  artifacts written to the scratch directory, not ``results/``;
* the committed-artifact scripts ``benchmarks/iterate_width_split.py``
  and ``benchmarks/setup_split.py``, written to the scratch directory;
* a fleet on ``transport="inline"`` per engine edge method, whose workers
  run in the parent, so the worker-side code is recorded too (``repro
  pfleet``'s real worker processes are not traced).

Some entries set environment variables: the on-disk operator cache (run
twice: the second run loads what the first stored) and the fleet's crash
injection.

The unit is a function line: every line inside a ``def`` of ``src/repro``,
a nested ``def``'s lines counted once, for itself.  A function is reached
when its code ran in any entry point.  The report lists the totals, the
unreached lines per module and every unreached function.

The same profile hook records options.  An option is a defaulted
argument of a ``src/repro`` def (``self``/``cls`` and ``*args``/
``**kwargs`` aside) or a defaulted ``__init__`` field of a ``src/repro``
dataclass, named ``module:name(argument)``.  At every call of a def the
hook reads its options' values off the frame.  A dataclass's generated
``__init__`` lies outside ``src/``; its calls are recognised by the class
that owns the code object, and a field left to its default factory is
recorded as the factory's value.  A number, string, ``None``, enum or
short tuple, list or dict of those is recorded by value, anything else by
type, up to :data:`VALUES_KEPT` distinct values per option and entry.  The report
counts every independently settable value of ``src/repro`` (the
arguments of every def plus the ``__init__`` fields of every dataclass
and named tuple, parsed from the source) and lists every option with the
values it received: one value, two or more, or none (its def unreached or
its class never built).

Every unreached function and every option that received exactly one
value must have a line in the ledger
(``benchmarks/reachability_ledger.txt``): ``module:name  category
reason`` for a function, the category one of :data:`CATEGORIES`, and
``module:name(argument)  category  reason`` for an option, the category
one of :data:`OPTION_CATEGORIES`.  An option with one value is otherwise
a constant: delete it.  ``--check`` runs the census and exits non-zero
when an unreached function or a one-value option has no entry, an entry
names a reached or missing function, or a missing option or one that did
not receive exactly one value, or a category is unknown.

Run:  python benchmarks/reachability.py [--out results/reachability.txt]
      python benchmarks/reachability.py --check [--out FILE]
      (two to three minutes; one process at a time)
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import enum
import itertools
import json
import numbers
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
LEDGER = REPO / "benchmarks" / "reachability_ledger.txt"

#: Why an unreached function may stay, and what its reason must name.
CATEGORIES = {
    "oracle": "the test that compares against it",
    "branch": "the condition no entry point meets",
    "protocol": "the abstract method or protocol it implements",
    "frozen": "the benchmarks/perf caller",
    "user": "the CLI flag or public reader that reaches it",
}

#: Why an option that received one value may stay, and what its reason
#: must name.
OPTION_CATEGORIES = {
    "frozen": "the benchmarks/perf caller",
    "seam": "the test that substitutes a fake through it",
    "deployment": "the path, budget or environment variable it carries",
    "user": "the CLI flag, example or public reader that sets it",
    "branch": "the src code its other values select, and the test that passes one",
}

#: Distinct values recorded per option and entry, and listed per option in
#: the report.
VALUES_KEPT = 8

#: What a dataclass's generated ``__init__`` receives for a field left to
#: its default factory.
_FACTORY = getattr(dataclasses, "_HAS_DEFAULT_FACTORY", object())

#: Seconds each harness workload runs per census entry.
PERF_SECONDS = "2"

#: The on-disk table/operator cache of the entries that use one.
_DISK_CACHE = {"REPRO_TABLE_CACHE_DIR": "{tmp}/cache"}

#: (label, kind, argv[, env]) per entry point; ``{tmp}`` is the scratch
#: directory.
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
        ["analyze", "--write-baseline", "--baseline", "{tmp}/b.json"],
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
    *(("cli", "cli", ["fit", "--scenario", "g186610", "--grid", "33", "--boundary-method",
                      "lowrank"], _DISK_CACHE) for _ in ("store", "load")),
    # CI's crash drill at 33^2: two injected worker crashes, each retried
    # on a respawned worker (the parent-side recovery is what is traced).
    ("cli", "cli", ["pfleet", "g186610", "--grid", "33", "--workers", "2", "--slices", "4",
                    "--batch", "2", "--compare-serial"],
     {"REPRO_PARALLEL_CRASH_RATE": "0.3", "REPRO_PARALLEL_CRASH_SEED": "20260806"}),
    *(("example", "example", [name]) for name in sorted(
        p.name for p in (REPO / "examples").glob("*.py")
    )),
    *(("harness", "perf", ["--workload", w, "--seconds", PERF_SECONDS, "--trace", t])
      for w in ("fit_cold_65", "batch_cold_65_b8", "serve_warm_sn_65") for t in ("0", "1")),
    *(("paper", "pytest", [name]) for name in (
        "bench_paper_figures.py", "bench_paper_tables.py", "bench_ablations.py", "bench_fit.py"
    )),
    *(("script", "script", [name, "--out", "{tmp}/" + name.replace(".py", ".txt")])
      for name in ("iterate_width_split.py", "setup_split.py")),
    *(("fleet", "fleet", [method]) for method in ("toeplitz", "lowrank")),
]


# -- the worker: one entry point under the profiler ------------------------------------
def _inline_fleet(method: str) -> None:
    from repro.batch import synthetic_slice_sequence
    from repro.efit.measurements import synthetic_shot_186610
    from repro.efit.operators import cached_edge_operator
    from repro.efit.tables import cached_boundary_tables
    from repro.obs.hooks import TraceHooks
    from repro.obs.trace import TraceRecorder
    from repro.parallel import ParallelFitEngine, SchedulerConfig

    shot = synthetic_shot_186610(33)
    slices = synthetic_slice_sequence(shot, 4, seed=5)
    hooks = TraceHooks(TraceRecorder())
    op = cached_edge_operator(cached_boundary_tables(shot.grid), method)
    with ParallelFitEngine(
        shot.machine, shot.diagnostics, shot.grid, batch_size=2, hooks=hooks,
        edge_operator=op, config=SchedulerConfig(workers=2, transport="inline"),
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
    elif kind == "script":
        import runpy

        sys.argv = [argv[0], *argv[1:]]
        runpy.run_path(str(REPO / "benchmarks" / argv[0]), run_name="__main__")
    else:
        _inline_fleet(argv[0])
    return None


_SCALARS = (numbers.Number, str, bytes, type(None), enum.Enum)


def _value(value: object) -> str:
    """How an option's value is recorded: a scalar (a number, string,
    ``None`` or enum), or a short tuple, list or dict of scalars, by value;
    anything else by type."""
    items = value.items() if isinstance(value, dict) else value
    if isinstance(value, _SCALARS) or (
        isinstance(value, (tuple, list, dict)) and len(value) <= 8
        and all(isinstance(v, _SCALARS) for v in itertools.chain.from_iterable(
            item if isinstance(value, dict) else (item,) for item in items))
    ):
        return repr(value)[:60]
    return f"<{type(value).__qualname__}>"


def _dataclass_options(code, frame) -> tuple[tuple[str, str, str | None], ...]:
    """``(option, argument, value of its default factory)`` of each
    defaulted field behind a dataclass's generated ``__init__`` (its code
    lies outside ``src/``); none when ``code`` is no ``src/`` dataclass's
    ``__init__``.  The generated ``__init__`` receives a sentinel for a
    field left to its factory, so the factory's value is recorded."""
    owner = type(frame.f_locals.get("self"))
    for klass in owner.__mro__:
        init = klass.__dict__.get("__init__")
        if getattr(init, "__code__", None) is code:
            break
    else:
        return ()
    if not (klass.__module__.startswith("repro.") and dataclasses.is_dataclass(klass)):
        return ()
    found = []
    for f in dataclasses.fields(klass):
        if not f.init or (f.default is dataclasses.MISSING
                          and f.default_factory is dataclasses.MISSING):
            continue
        home = next(c for c in klass.__mro__ if f.name in c.__dict__.get("__annotations__", {}))
        factory = None if f.default_factory is dataclasses.MISSING else f.default_factory
        found.append((f"{home.__module__}:{home.__qualname__}({f.name})", f.name,
                      None if factory is None else _value(factory())))
    return tuple(found)


def _worker(kind: str, argv: list[str], out: str) -> None:
    """Run one entry point with the profiler on and write its exit code,
    the reached ``(file, first line)`` pairs and the values each option
    received to ``out`` — whatever the entry's exit."""
    seen: set = set()
    code: object = None
    prefix = str(SRC)
    defaulted = _defaulted_parameters()
    #: code object -> its options, or () once there is nothing to record.
    specs: dict = {}
    values: dict[str, set[str]] = defaultdict(set)

    def hook(frame, event, arg):
        if event != "call":
            return
        c = frame.f_code
        spec = specs.get(c)
        if spec is None:
            if c.co_filename.startswith(prefix):
                seen.add(c)
                spec = tuple(defaulted.get((c.co_filename, c.co_firstlineno), ()))
            elif c.co_name == "__init__" and c.co_filename == "<string>":
                spec = _dataclass_options(c, frame)
            else:
                spec = ()
            specs[c] = spec
        if spec:
            local = frame.f_locals
            for option, name, factory in spec:
                held = values[option]
                if len(held) < VALUES_KEPT:
                    value = local[name]
                    held.add(factory if value is _FACTORY else _value(value))
            if all(len(values[option]) >= VALUES_KEPT for option, _, _ in spec):
                specs[c] = ()

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
        reached = sorted({(c.co_filename, c.co_firstlineno) for c in seen})
        options = {option: sorted(held) for option, held in values.items()}
        Path(out).write_text(json.dumps({"code": code, "reached": reached, "options": options}))


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _field_default(value: ast.expr | None) -> bool | None:
    """Whether a class-body annotation's value gives its field a default;
    ``None`` for a field ``__init__`` does not take (``field(init=False)``)."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return value is not None
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return None
    return "default" in keywords or "default_factory" in keywords


def _signatures(path: Path) -> list[tuple[int, str, bool, list[tuple[str, bool]]]]:
    """``(line, name, is a def, [(argument, defaulted)])`` of every ``def`` (at its
    first decorator's line; ``self``/``cls`` and ``*args``/``**kwargs``
    left out) and of every dataclass or ``NamedTuple`` (its ``__init__``
    fields, at the ``class`` line) in the file."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                flags = [False] * (len(positional) - len(a.defaults)) + [True] * len(a.defaults)
                params = list(zip((x.arg for x in positional), flags))
                params += [(x.arg, d is not None) for x, d in zip(a.kwonlyargs, a.kw_defaults)]
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, f"{prefix}{child.name}", True,
                              [(n, d) for n, d in params if n not in ("self", "cls")]))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                named_tuple = any(getattr(b, "id", None) == "NamedTuple" for b in child.bases)
                if named_tuple or _is_dataclass(child):
                    fields = []
                    for item in child.body:
                        if not (isinstance(item, ast.AnnAssign)
                                and isinstance(item.target, ast.Name)):
                            continue
                        if "ClassVar" in ast.unparse(item.annotation):
                            continue
                        default = _field_default(item.value)
                        if default is not None:
                            fields.append((item.target.id, default))
                    found.append((child.lineno, f"{prefix}{child.name}", False, fields))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return sorted(found)


def _signature_table() -> dict[tuple[Path, int], tuple[str, bool, list[tuple[str, bool]]]]:
    """Every ``src/repro`` def and dataclass as ``(file, line)`` ->
    ``(module:name, is a def, [(argument, defaulted)])``."""
    table = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
        for line, name, is_def, params in _signatures(path):
            table[(path, line)] = (f"{module}:{name}", is_def, params)
    return table


def _defaulted_parameters() -> dict[tuple[str, int], list[tuple[str, str, None]]]:
    """``(file, first line)`` — a code object's key — of every def with a
    defaulted argument -> its ``(option, argument, None)`` triples, shaped
    as :func:`_dataclass_options`' (a def has no default factory)."""
    return {
        (str(path), line): [(f"{name}({arg})", arg, None) for arg, defaulted in params if defaulted]
        for (path, line), (name, is_def, params) in _signature_table().items()
        if is_def and any(defaulted for _, defaulted in params)
    }


def option_table() -> dict[str, tuple[Path, int]]:
    """Every option of ``src/repro`` — a defaulted argument of a def or a
    defaulted dataclass field — as ``module:name(argument)`` -> ``(file,
    line)``, by parsing the source alone."""
    return {
        f"{name}({arg})": where
        for where, (name, _, params) in _signature_table().items()
        for arg, defaulted in params if defaulted
    }


def settable_counts() -> tuple[int, int, int]:
    """``(arguments, dataclass fields, options)``: every independently
    settable value of ``src/repro`` and how many of them have a default."""
    counts = [0, 0, 0]
    for _, is_def, params in _signature_table().values():
        counts[0 if is_def else 1] += len(params)
        counts[2] += sum(defaulted for _, defaulted in params)
    return counts[0], counts[1], counts[2]


def _run_entries() -> tuple[set[tuple[str, int]], dict[str, set[str]], dict[str, int], list[str]]:
    """Run every entry point; the reached ``(file, first line)`` pairs,
    the values each option received, the entries run per label and the
    entries that did not exit 0."""
    tmp = tempfile.mkdtemp(prefix="reachability_")
    base_env = {**os.environ, **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS")}}
    base_env.pop("PYTHONPATH", None)
    reached: set[tuple[str, int]] = set()
    values: dict[str, set[str]] = defaultdict(set)
    ran: dict[str, int] = defaultdict(int)
    failed = []
    for k, (label, kind, argv, *entry_env) in enumerate(ENTRIES):
        argv = [a.replace("{tmp}", tmp) for a in argv]
        extra = entry_env[0] if entry_env else {}
        env = {**base_env, **{var: value.replace("{tmp}", tmp) for var, value in extra.items()}}
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
        for option, held in record["options"].items():
            values[option].update(held)
        ran[label] += 1
        if record["code"] not in (None, 0):
            failed.append(f"{kind} {' '.join(argv)}: exit {record['code']}")
    shutil.rmtree(tmp, ignore_errors=True)
    return reached, values, ran, failed


def function_table() -> dict[str, tuple[Path, int, int]]:
    """Every ``def`` of ``src/repro`` as ``module:qualified name`` ->
    ``(file, first line, own lines)``, by parsing the source alone."""
    table = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
        for first, name, n in _functions(path):
            table[f"{module}:{name}"] = (path, first, n)
    return table


def read_ledger(path: Path = LEDGER) -> dict[str, tuple[str, str]]:
    """``module:name`` or ``module:name(argument)`` -> ``(category,
    reason)`` of every ledger line (``#`` comments and blank lines
    skipped)."""
    entries = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) < 3:
            raise ValueError(f"{path.name}:{number}: want 'module:name  category  reason'")
        name, category, reason = fields
        if name in entries:
            raise ValueError(f"{path.name}:{number}: {name} listed twice")
        entries[name] = (category, reason)
    return entries


def is_option(name: str) -> bool:
    """Whether a ledger line names an option rather than a function."""
    return name.endswith(")")


def ledger_problems(unreached: set[str], values: dict[str, set[str]],
                    ledger: dict[str, tuple[str, str]], functions: set[str],
                    options: set[str]) -> list[str]:
    """What ``--check`` refuses: an unreached function or a one-value
    option without an entry; an entry naming a missing or reached
    function, or a missing option or one that did not receive exactly one
    value; an unknown category."""
    one_value = {name for name, held in values.items() if len(held) == 1}
    functions_listed = {n for n in ledger if not is_option(n)}
    options_listed = set(ledger) - functions_listed
    problems = [f"unreached, no ledger entry: {n}" for n in sorted(unreached - functions_listed)]
    problems += [f"one value, no ledger entry: {n} = {next(iter(values[n]))}"
                 for n in sorted(one_value - options_listed)]
    for name, (category, _) in sorted(ledger.items()):
        if is_option(name):
            known = OPTION_CATEGORIES
            if name not in options:
                problems.append(f"ledger names a missing option: {name}")
            elif name not in one_value:
                problems.append(f"ledger names an option that received "
                                f"{len(values.get(name, ()))} values: {name}")
        else:
            known = CATEGORIES
            if name not in functions:
                problems.append(f"ledger names a missing function: {name}")
            elif name not in unreached:
                problems.append(f"ledger names a reached function: {name}")
        if category not in known:
            problems.append(f"ledger category {category!r} of {name} is not one of "
                            f"{', '.join(known)}")
    return problems


def census() -> tuple[str, set[str], dict[str, set[str]], list[str]]:
    """Run the census; its report, the unreached ``module:name`` set, the
    values each option received and the entries that did not exit 0."""
    reached, values, ran, failed = _run_entries()
    per_module: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    unreached = []
    names = set()
    total = hit = 0
    table = function_table()
    for name, (path, first, n) in table.items():
        rel = str(path.relative_to(REPO / "src"))
        total += n
        per_module[rel][1] += n
        if (str(path), first) in reached:
            hit += n
        else:
            per_module[rel][0] += n
            unreached.append((rel, first, name.split(":", 1)[1], n))
            names.add(name)
    unreached.sort()
    missed = total - hit
    arguments, fields, n_options = settable_counts()
    options = option_table()
    held = {name: sorted(values.get(name, ())) for name in options}
    one = sorted(name for name, v in held.items() if len(v) == 1)
    many = sorted(name for name, v in held.items() if len(v) > 1)
    rows = [
        "Reachability census of src/repro (sys.setprofile; benchmarks/reachability.py)",
        "entry points: " + ", ".join(f"{n} {label}" for label, n in ran.items()),
        f"function lines: {total}, reached {hit}, unreached {missed} "
        f"({100.0 * missed / total:.1f} %)",
        f"functions: {len(table)}, unreached {len(unreached)}",
        "entries that did not exit 0: " + ("; ".join(failed) if failed else "none"),
        f"settable values: {arguments + fields} ({arguments} arguments + {fields} dataclass "
        f"fields); options (defaulted): {n_options}, one value {len(one)}, two or more "
        f"{len(many)}, none {n_options - len(one) - len(many)}",
        "",
        "unreached function lines per module (modules with any):",
    ]
    for rel, (miss, all_lines) in sorted(per_module.items(), key=lambda kv: (-kv[1][0], kv[0])):
        if miss:
            rows.append(f"  {miss:5d} / {all_lines:5d}  {rel}")
    rows += ["", "unreached functions (module:first line  name  lines):"]
    rows += [f"  {rel}:{first}  {name}  {n}" for rel, first, name, n in unreached]
    rows += ["", "options that received one value (option  value):"]
    rows += [f"  {name}  {held[name][0]}" for name in one]
    rows += ["", f"options that received two or more values (option  values; the first "
                 f"{VALUES_KEPT} listed):"]
    rows += [f"  {name}  {' | '.join(held[name][:VALUES_KEPT])}"
             f"{' | ...' if len(held[name]) > VALUES_KEPT else ''}" for name in many]
    return "\n".join(rows) + "\n", names, values, failed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        _worker(argv[1], argv[3:], argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="report file (default results/reachability.txt; "
                             "none with --check)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every unreached function and every one-value "
                             "option has a ledger line and every line names one")
    args = parser.parse_args(argv)
    out = args.out
    if out is None and not args.check:
        out = REPO / "results" / "reachability.txt"
    text, unreached, values, failed = census()
    if out is not None:
        out.parent.mkdir(exist_ok=True)
        out.write_text(text)
    print("\n".join(text.splitlines()[:6]))
    if not args.check:
        return 0
    ledger = read_ledger()
    problems = [f"entry did not exit 0: {f}" for f in failed]
    problems += ledger_problems(unreached, values, ledger, set(function_table()),
                                set(option_table()))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"ledger: {len(ledger)} entries, "
          f"{'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
