#!/usr/bin/env python
"""Split an ``EfitSolver`` construction into its ``green_`` set-up stages.

A solver's construction is what every engine pays before its first fit:
the diagnostics' grid response (the solver's own call, on its grid
statics' response support), their coil response, the boundary Green
table, the edge operator built from it, and the rest (the seed filament's
flux, the interior solver, the grid statics).  A stage the construction
no longer enters is an error, not a zero folded into the remainder.  This script builds the
g186610 solver at 65^2 and 129^2 on one BLAS thread, with the process's
table cache cleared before each construction (as a fresh process, or the
benchmark harness's set-up, finds it), times each stage inside the
construction, then times the first fit of the base shot.  Each figure is
the median of ``REPEATS`` runs after ``WARMUPS`` untimed ones; the runs go
round the grids in turn.

Run:  python benchmarks/setup_split.py [--out results/setup_split.txt]
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.efit import fitting  # noqa: E402
from repro.efit.diagnostics import DiagnosticSet  # noqa: E402
from repro.efit.fitting import EfitSolver  # noqa: E402
from repro.efit.tables import boundary_table_cache  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402

SCENARIO = "g186610"
GRIDS = (65, 129)
REPEATS = 15
WARMUPS = 2
#: The timed stages of a construction: ``(label, owner, attribute)``; the
#: construction's other work is the remainder.
STAGES = (
    ("grid response", DiagnosticSet, "response_to_grid"),
    ("coil response", DiagnosticSet, "response_to_coils"),
    ("boundary table", fitting, "cached_boundary_tables"),
    ("operator build", fitting, "cached_edge_operator"),
)
ROWS = [label for label, _, _ in STAGES] + ["remainder", "construction", "first fit"]


def _timed(seconds: dict[str, float], calls: dict[str, int], label: str, fn):
    def wrapper(*args, **kwargs):
        calls[label] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[label] += time.perf_counter() - t0

    return wrapper


def one_run(scenario, shot) -> dict[str, float]:
    """Seconds per row of :data:`ROWS` for one construction and first fit."""
    boundary_table_cache().clear()  # forgets the edge operators too
    gc.collect()
    seconds = dict.fromkeys(ROWS, 0.0)
    calls = {label: 0 for label, _, _ in STAGES}
    originals = [(owner, name, getattr(owner, name)) for _, owner, name in STAGES]
    for (label, owner, name), (_, _, fn) in zip(STAGES, originals):
        setattr(owner, name, _timed(seconds, calls, label, fn))
    try:
        t0 = time.perf_counter()
        solver = EfitSolver.for_scenario(scenario, shot.grid.nw, shot=shot)
        seconds["construction"] = time.perf_counter() - t0
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    missed = [label for label, count in calls.items() if not count]
    if missed:
        raise RuntimeError(f"the construction never entered {missed}: update STAGES")
    seconds["remainder"] = seconds["construction"] - sum(seconds[label] for label, _, _ in STAGES)
    t0 = time.perf_counter()
    solver.fit(shot.measurements, require_convergence=False)
    seconds["first fit"] = time.perf_counter() - t0
    return seconds


def split() -> dict[int, dict[str, float]]:
    """Per grid size, the median seconds of each row."""
    scenario = get_scenario(SCENARIO)
    shots = {n: scenario.make_shot(n) for n in GRIDS}
    runs = {n: [] for n in GRIDS}
    for k in range(WARMUPS + REPEATS):
        for n in GRIDS:
            seconds = one_run(scenario, shots[n])
            if k >= WARMUPS:
                runs[n].append(seconds)
    return {n: {row: statistics.median(r[row] for r in runs[n]) for row in ROWS} for n in GRIDS}


def report(medians: dict[int, dict[str, float]]) -> str:
    lines = [
        f"EfitSolver construction split, {SCENARIO}, table cache cleared before each;",
        f"median of {REPEATS} runs after {WARMUPS} warm-ups, one BLAS thread.",
        "",
        f"{'stage [ms]':<18}" + "".join(f"{f'{n}^2':>10}" for n in GRIDS),
    ]
    for row in ROWS:
        lines.append(f"{row:<18}" + "".join(f"{1e3 * medians[n][row]:>10.2f}" for n in GRIDS))
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO / "results" / "setup_split.txt")
    args = parser.parse_args()
    t0 = time.perf_counter()
    text = report(split())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    print(text, end="")
    print(f"({time.perf_counter() - t0:.1f} s; written to {args.out})")


if __name__ == "__main__":
    main()
