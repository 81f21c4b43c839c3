#!/usr/bin/env python
"""Split a lock-step Picard iterate's cost into a fixed and a per-slice part.

Every region of a lock-step iterate costs about ``F + m * B`` at width
``B``: ``F`` is what the iterate pays whatever its width (call set-up,
array glue, small-system overhead) and ``m`` what each slice adds.  This
script fits 64 cold g186610 slices at 65^2 in lock-step batches of
``B`` in {1, 2, 4, 8} on one BLAS thread, records every iterate's width
and its exclusive time per :class:`~repro.profiling.regions.RegionProfiler`
region (``steps_``, ``current_``, ``green_``, ``pflux_`` and the loop's
own ``fit_`` remainder), keeps each iterate's fastest of five passes (the
passes go round the widths in turn), and fits ``F`` and ``m`` per region
by least squares over all iterates.

Run:  python benchmarks/iterate_width_split.py [--out results/iterate_width_split.txt]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.batch import synthetic_slice_sequence  # noqa: E402
from repro.efit.fitting import EfitSolver  # noqa: E402
from repro.efit.measurements import synthetic_shot_186610  # noqa: E402
from repro.profiling.regions import RegionProfiler  # noqa: E402

SLICES = 64
REPEATS = 5
WIDTHS = (1, 2, 4, 8)
REGIONS = ("steps_", "current_", "green_", "pflux_", "fit_")


def iterate_samples(solver: EfitSolver, slices, width: int) -> list[tuple[int, np.ndarray]]:
    """``(width, region seconds)`` of every lock-step iterate of one pass
    over ``slices`` in batches of ``width``."""
    profiler = solver.profiler
    samples = []
    for start in range(0, len(slices), width):
        states = solver.start_fit(slices[start : start + width])
        profiler.reset()
        before = np.zeros(len(REGIONS))
        active = len(states)
        for _ in solver.picard(states):
            totals = profiler.report().totals
            now = np.array([totals.get(name, 0.0) for name in REGIONS])
            samples.append((active, now - before))
            before = now
            active = sum(not s.converged for s in states)
    return samples


def split(shot, slices) -> tuple[dict[str, tuple[float, float]], dict[int, float]]:
    """Per region ``(F, m)`` in seconds, and the mean iterate at each width."""
    solver = EfitSolver(shot.machine, shot.diagnostics, shot.grid, profiler=RegionProfiler())
    solver.fit(slices[0])  # first touch of every table
    # The passes go round the widths in turn, so a change in the machine's
    # speed during the run falls on every width alike.
    passes = {width: [] for width in WIDTHS}
    for _ in range(REPEATS):
        for width in WIDTHS:
            passes[width].append(iterate_samples(solver, slices, width))
    widths, seconds = [], []
    for width in WIDTHS:
        widths += [w for w, _ in passes[width][0]]
        seconds.append(np.min([[t for _, t in p] for p in passes[width]], axis=0))
    seconds = np.concatenate(seconds)
    design = np.column_stack([np.ones(len(widths)), widths])
    coef = np.linalg.lstsq(design, seconds, rcond=None)[0]  # (2, n_regions)
    per_region = {name: (coef[0, k], coef[1, k]) for k, name in enumerate(REGIONS)}
    widths = np.array(widths)
    totals = seconds.sum(axis=1)
    by_width = {w: float(totals[widths == w].mean()) for w in sorted(set(widths.tolist()))}
    return per_region, by_width


def report(per_region, by_width) -> str:
    names = {"fit_": "loop (fit_ remainder)"}
    lines = [
        f"Lock-step iterate cost F + m*B per RegionProfiler region: {SLICES} cold "
        f"g186610 slices at 65^2,",
        f"B in {WIDTHS}, fastest of {REPEATS} passes per iterate, one BLAS thread; "
        f"F and m by least squares over every iterate.",
        "",
        f"{'region':<24}{'F [ms]':>10}{'m [ms/slice]':>15}",
    ]
    for name in REGIONS:
        f, m = per_region[name]
        lines.append(f"{names.get(name, name):<24}{1e3 * f:>10.3f}{1e3 * m:>15.3f}")
    f_all = sum(f for f, _ in per_region.values())
    m_all = sum(m for _, m in per_region.values())
    lines.append(f"{'iterate':<24}{1e3 * f_all:>10.3f}{1e3 * m_all:>15.3f}")
    lines += ["", f"{'width':<8}{'mean iterate [ms]':>18}{'F + m*B [ms]':>15}"]
    for w, t in by_width.items():
        lines.append(f"{w:<8}{1e3 * t:>18.3f}{1e3 * (f_all + m_all * w):>15.3f}")
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO / "results" / "iterate_width_split.txt")
    args = parser.parse_args()
    shot = synthetic_shot_186610(65)
    slices = synthetic_slice_sequence(shot, SLICES, seed=11)
    t0 = time.perf_counter()
    per_region, by_width = split(shot, slices)
    text = report(per_region, by_width)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    print(text, end="")
    print(f"({time.perf_counter() - t0:.1f} s; written to {args.out})")


if __name__ == "__main__":
    main()
