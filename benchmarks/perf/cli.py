"""Command line of the benchmark.

``--workload NAME`` runs that workload in this process and prints, as its
last line, the JSON object the contract in ``BENCHMARK.json`` prescribes.
Without it the four workloads run one after the other, each in a fresh
child process, and a table follows.  ``BENCHMARK.json`` is the manifest:
workload names, metric names, units and bounds are read from it, never
repeated here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
MANIFEST = REPO / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


# -- one workload, in this process ---------------------------------------------
def header(args: argparse.Namespace) -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"# perf workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} blas={blas.get('name', '?')}-{blas.get('version', '?')} "
        f"blas_threads=1 nproc={os.cpu_count()}"
    )


def run_workload(args: argparse.Namespace, manifest: dict) -> int:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    # One BLAS thread, and no REPRO_* variable: a leftover
    # REPRO_TABLE_CACHE_DIR would turn set-up into a cache read.
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    src = REPO / "src"
    if not (src / "repro").is_dir():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from . import workloads
    from .calibration import Calibrator, default_kernels

    print(header(args), flush=True)
    workload = workloads.WORKLOADS[args.workload]
    calibrator = Calibrator(default_kernels())
    calibrator.calibrate()  # first touch of the kernels' arrays
    calibrator.factors.clear()

    if args.trace:
        from . import probes

        inputs = workloads.make_inputs(workload, args.seed, probes.slices_needed(workload))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{workload.name}_seed{args.seed}.json"
        result = probes.run_traced(inputs, calibrator, spans_path)
        specs = manifest["per_layer"]
        print(f"spans written to {spans_path.relative_to(REPO)}")
    else:
        inputs = workloads.make_inputs(workload, args.seed)
        result = workloads.run_end_to_end(inputs, calibrator, args.seconds)
        specs = manifest["end_to_end"]

    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(units) != set(result.metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result.metrics))}"
        )
    for name, unit in units.items():
        print(f"{name:36s} {result.metrics[name]:14.6g} {unit}")
    for name, value in result.notes.items():
        print(f"  ({name} = {value:.6g})")
    for check in result.checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAILED'} {check.detail}".rstrip())
    print(f"ops: {result.attempted} attempted, {result.converged.count(False)} did not converge")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if result.correct else 1


# -- the suite: one fresh child per workload --------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter; return its result object."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def run_suite(names: list[str], seed: int, seconds: float, trace: int) -> dict[str, dict]:
    return {name: run_child(name, seed, seconds, trace) for name in names}


def values(suite: dict[str, dict], workload: str, metric: str) -> float:
    return suite[workload]["metrics"][metric]["value"]


def exit_code(*suites: dict[str, dict]) -> int:
    return 1 if any(r["exit_code"] for suite in suites for r in suite.values()) else 0


def print_table(suite: dict[str, dict], specs: list[dict]) -> None:
    names = list(suite)
    print("\n" + " " * 30 + "".join(f"{n:>20s}" for n in names))
    for spec in specs:
        row = "".join(f"{values(suite, n, spec['name']):20.6g}" for n in names)
        print(f"{spec['name'] + ' [' + spec['unit'] + ']':30s}{row}")
    print(
        f"{'ops attempted / failed':30s}"
        + "".join(f"{str(suite[n]['attempted']) + ' / ' + str(suite[n]['failed']):>20s}" for n in names)
    )


def repeat_check(names: list[str], args: argparse.Namespace, manifest: dict) -> tuple[int, list]:
    """Two untraced suites on the same seed; every end-to-end metric of the
    second must lie within its bound of the first."""
    first = run_suite(names, args.seed, args.seconds, 0)
    second = run_suite(names, args.seed, args.seconds, 0)
    excess = 0
    print("\n| workload | metric | first | second | rel. diff | bound | |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        for spec in manifest["end_to_end"]:
            a, b = values(first, name, spec["name"]), values(second, name, spec["name"])
            diff = abs(b - a) / abs(a)
            over = diff > spec["bound"]
            excess += over
            print(
                f"| {name} | {spec['name']} | {a:.5g} | {b:.5g} | {diff:.3f} "
                f"| {spec['bound']} | {'EXCESS' if over else 'ok'} |"
            )
    return (1 if excess else exit_code(first, second)), [first, second]


def noise_study(names: list[str], args: argparse.Namespace, manifest: dict) -> tuple[int, list]:
    """``--noise-study N``: N untraced suites on N seeds, and per metric the
    median, quartiles, quartile distance over median, and worst deviation."""
    suites = [
        run_suite(names, args.seed + k, args.seconds, 0) for k in range(args.noise_study)
    ]
    print(f"\n{len(suites)} runs, seeds {args.seed}..{args.seed + len(suites) - 1}\n")
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | worst dev. | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        for spec in manifest["end_to_end"]:
            xs = [values(s, name, spec["name"]) for s in suites]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            worst = max(abs(x - med) for x in xs) / med
            print(
                f"| {name} | {spec['name']} | {med:.5g} | {q1:.5g} | {q3:.5g} "
                f"| {(q3 - q1) / med:.3f} | {worst:.3f} | {spec['bound']} |"
            )
    return exit_code(*suites), suites


def main(argv: list[str] | None = None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__)
    parser.add_argument("--workload", choices=names, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1: the per-layer run")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the untraced suite twice and compare against the bounds")
    parser.add_argument("--noise-study", type=int, metavar="N",
                        help="run the untraced suite on N seeds and print the spread table")
    parser.add_argument("--json", metavar="OUT", help="also write the suite's results here")
    args = parser.parse_args(argv)

    if args.workload and not (args.repeat_check or args.noise_study):
        return run_workload(args, manifest)
    selected = [args.workload] if args.workload else names
    if args.repeat_check:
        code, suites = repeat_check(selected, args, manifest)
    elif args.noise_study:
        code, suites = noise_study(selected, args, manifest)
    else:
        suites = [run_suite(selected, args.seed, args.seconds, args.trace)]
        print_table(suites[0], manifest["per_layer" if args.trace else "end_to_end"])
        code = exit_code(*suites)
    if args.json:
        Path(args.json).write_text(json.dumps({"suites": suites}, indent=1))
    return code
