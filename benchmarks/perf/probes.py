"""The traced run: where an op's time goes, layer by layer.

Nothing under ``src/`` carries spans yet, so the harness records them
itself, around public calls only:

* it drives the public step machine (``start_fit`` / ``iterate_pre`` /
  ``pflux.compute`` / ``iterate_post`` / ``finish``) over the workload's
  slices — cold or warm-chained, with or without ``GridStatics``, as the
  workload's entry point does — spans off, spans on, and spans on with
  replays, in alternation;
* right after each iterate it replays the layer functions underneath
  (``find_boundary``, ``basis_current_matrix``, ``assemble_response``,
  ``solve_weighted_lsq``, the boundary sums, the edge operator, the interior
  solve) on the inputs that iterate saw — milliseconds apart, because on a
  shared box two windows a second apart differ by more than the layers do;
* it probes the set-up layers (Green table, edge operator, disk cache), the
  batch engine and the service with a few ops each, on the workload's own
  scenario, so every per-layer metric exists on every workload.

Op counts are fixed per workload (``Workload.traced_*``), never timed out,
so the counters repeat exactly for a seed.  A calibration follows every op
and every probe, and every time is divided by the mean of them all: the
per-layer numbers of one run are read against each other, and a single
factor keeps their ratios exactly what the clock saw.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.batch import BatchFitEngine
from repro.efit import diskcache
from repro.efit.boundary import BoundaryResult, find_boundary
from repro.efit.current import basis_current_matrix
from repro.efit.fitting import EfitSolver, FitResult, GridStatics
from repro.efit.machine import diiid_like_machine
from repro.efit.measurements import MeasurementSet
from repro.efit.operators import build_edge_operator
from repro.efit.pflux import PfluxVectorized, boundary_flux_vectorized, edge_node_indices
from repro.efit.response import assemble_response, solve_weighted_lsq
from repro.efit.solvers import make_solver
from repro.efit.tables import build_boundary_tables
from repro.utils.constants import MU0

from .calibration import Calibrator, time_ops
from .workloads import (
    BATCH,
    GRID,
    Check,
    Inputs,
    RunResult,
    ServeDriver,
    Workload,
    clear_process_caches,
    golden_checks,
    seed_check,
)


def slices_needed(workload: Workload) -> int:
    return max(workload.traced_ops, workload.traced_batch, workload.traced_frames)


# -- spans ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    name: str
    #: Identifier shared by every span of one op, e.g. ``"drive:3"``.
    op: str
    #: Index of the enclosing span, or None.
    parent: int | None
    start: float
    end: float


class Spans:
    """In-memory span recorder, written out as JSON when the run ends."""

    def __init__(self, *, enabled: bool = True, clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.rows: list[Span | None] = []
        self._stack: list[int] = []

    def span(self, name: str, op: str):
        return self._record(name, op) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _record(self, name: str, op: str):
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.rows[index] = Span(name, op, parent, start, end)

    def seconds(self, name: str) -> list[float]:
        """Raw duration of every span called ``name``."""
        return [s.end - s.start for s in self.rows if s is not None and s.name == name]

    def seconds_by_op(self, name: str) -> dict[str, float]:
        """Raw seconds of the spans called ``name``, summed per op."""
        out: dict[str, float] = {}
        for s in self.rows:
            if s is not None and s.name == name:
                out[s.op] = out.get(s.op, 0.0) + s.end - s.start
        return out

    def write(self, path: Path, **header: object) -> None:
        rows = [
            {"index": i, "name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start, "end": s.end}
            for i, s in enumerate(self.rows)
            if s is not None
        ]  # fmt: skip
        path.write_text(json.dumps({**header, "spans": rows}))


# -- the hand-driven step machine ---------------------------------------------------
@dataclass(frozen=True)
class Iterate:
    """What one Picard iterate saw, kept for the replays."""

    measurements: MeasurementSet
    psi_in: np.ndarray
    sign: int
    boundary: BoundaryResult
    pcurr: np.ndarray


def drive_slice(
    solver: EfitSolver,
    m: MeasurementSet,
    spans: Spans,
    op: str,
    *,
    statics: GridStatics | None,
    seed: FitResult | None,
    on_iterate: Callable[[Iterate, str], None] | None,
) -> FitResult:
    """``EfitSolver.fit``'s own iterate sequence, one span per public call.
    ``on_iterate`` runs after each iterate inside a ``replay`` span, which
    the caller subtracts from the op."""
    with spans.span("fitting.op", op):
        with spans.span("fitting.start_fit", op):
            state = solver.start_fit(
                m,
                psi_initial=seed.psi if seed is not None else None,
                coeffs_initial=seed.history[-1].coefficients if seed is not None else None,
                statics=statics,
            )
        for _ in range(solver.max_iters):
            psi_in = state.psi
            with spans.span("fitting.iterate_pre", op):
                pcurr, psi_external = solver.iterate_pre(state, statics=statics)
            with spans.span("pflux.compute", op):
                psi_new = solver.pflux.compute(pcurr, psi_external)
            with spans.span("fitting.iterate_post", op):
                solver.iterate_post(state, psi_new)
            if on_iterate is not None:
                with spans.span("replay", op):
                    on_iterate(Iterate(m, psi_in, state.sign, state.boundary, pcurr), op)
            if state.converged:
                break
        with spans.span("fitting.finish", op):
            return solver.finish(state, require_convergence=False)


#: The layer functions inside ``iterate_pre`` that a replay can reach.
REPLAYED_IN_ITERATE_PRE = (
    "boundary.find", "current.basis_matrix", "response.assemble", "response.lsq",
)  # fmt: skip


def replay_iterate(
    solver: EfitSolver, edge_op, statics: GridStatics | None, it: Iterate, spans: Spans, op: str
) -> None:
    """Call each layer function once on the inputs this iterate saw."""
    grid = solver.grid
    m = it.measurements
    with spans.span("boundary.find", op):
        find_boundary(
            grid,
            it.psi_in,
            solver.machine.limiter,
            sign=it.sign,
            inside=statics.inside_limiter if statics is not None else None,
            limiter_samples=statics.limiter_samples if statics is not None else None,
        )
    with spans.span("current.basis_matrix", op):
        jmat = basis_current_matrix(
            grid, it.boundary.psin, it.boundary.mask, solver.pp_basis, solver.ffp_basis
        )
    with spans.span("response.assemble", op):
        assembly = assemble_response(
            solver.grid_response, jmat, solver.coil_response,
            m.coil_currents, m.values, m.uncertainties,
        )  # fmt: skip
    with spans.span("response.lsq", op):
        solve_weighted_lsq(assembly, ridge=solver.ridge)
    # Inside pflux_: the boundary Green sums as the serial path forms them,
    # the same sums through the engine's edge operator, and the interior solve.
    with spans.span("pflux.boundary_sums", op):
        psi_edge = boundary_flux_vectorized(solver.tables, -it.pcurr)
    with spans.span("operators.edge_apply", op):
        edge_op.apply(-it.pcurr.reshape(grid.size))
    rhs = -(MU0 / grid.cell_area) * grid.rr * it.pcurr
    with spans.span("solvers.interior_solve", op):
        solver.solver.solve(rhs, psi_edge)


def replay_batched_pflux(engine: BatchFitEngine, pcurrs: Sequence[np.ndarray], spans: Spans, op: str) -> None:
    """The batch engine's multi-RHS ``pflux_`` on ``BATCH`` stacked currents."""
    grid = engine.solver.grid
    ei, ej = edge_node_indices(grid.nw, grid.nh)
    pcurr_neg = np.stack([-p.reshape(grid.size) for p in pcurrs], axis=1)
    rhs = np.stack([-(MU0 / grid.cell_area) * grid.rr * p for p in pcurrs])
    psi_bound = np.zeros_like(rhs)
    with spans.span("batch.pflux_batched", op):
        psi_bound[:, ei, ej] = engine.edge_op.apply(pcurr_neg).T
        with spans.span("solvers.solve_batch", op):
            engine.solver.solver.solve_batch(rhs, psi_bound)


# -- layer probes ---------------------------------------------------------------------
def probe_setup_layers(inputs: Inputs, spans: Spans, calibrator: Calibrator, tmp: Path) -> dict[str, float]:
    """Green-table build, edge-operator build and the disk cache (in ``tmp``)."""
    grid = inputs.shot.grid
    box: dict = {}

    def build_tables() -> None:
        with spans.span("tables.build", "setup"):
            box["tables"] = build_boundary_tables(grid)

    def build_operator() -> None:
        with spans.span("operators.build", "setup"):
            box["operator"] = build_edge_operator(box["tables"], "dense")

    def disk_round_trip() -> None:
        with spans.span("diskcache.store", "setup"):
            stored = diskcache.store_tables(box["tables"])
        with spans.span("diskcache.load", "setup"):
            loaded = diskcache.load_tables(grid)
        box["disk_ok"] = (
            stored and loaded is not None and np.array_equal(loaded.gpc, box["tables"].gpc)
        )
        box["file_bytes"] = diskcache.table_path(grid).stat().st_size

    os.environ[diskcache.CACHE_DIR_ENV] = str(tmp)
    try:
        time_ops([build_tables, build_operator, disk_round_trip], calibrator)
    finally:
        del os.environ[diskcache.CACHE_DIR_ENV]
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "tables.nbytes": float(box["tables"].nbytes),
        "operators.edge_bytes": float(box["operator"].nbytes),
        "diskcache.file_bytes": float(box["file_bytes"]),
        "disk_ok": float(box["disk_ok"]),
    }


def probe_257(spans: Spans, calibrator: Calibrator) -> None:
    """The 257^2 kernel rung (informational): table build and one pflux_."""
    grid = diiid_like_machine().make_grid(257)
    box: dict = {}

    def build() -> None:
        with spans.span("tables.build_257", "rung257"):
            box["tables"] = build_boundary_tables(grid)

    time_ops([build], calibrator)
    pflux = PfluxVectorized(grid, box["tables"], make_solver("dst", grid))
    pcurr = np.random.default_rng(257).standard_normal(grid.shape)
    pflux.compute(pcurr)  # first touch of the table's pages

    def compute() -> None:
        with spans.span("pflux.compute_257", "rung257"):
            pflux.compute(pcurr)

    time_ops([compute] * 3, calibrator)


def probe_batch(
    inputs: Inputs, engine: BatchFitEngine, spans: Spans, calibrator: Calibrator
) -> tuple[dict[str, float], list[bool]]:
    """Serial ``fit`` and ``fit_many`` on the same slices."""
    slices = inputs.slices[: inputs.workload.traced_batch]
    chunks = [slices[i : i + BATCH] for i in range(0, len(slices), BATCH)]
    outs = []

    def serial(k: int) -> None:
        with spans.span("fit", f"serial:{k}"):
            engine.solver.fit(chunks[0][k], require_convergence=False)

    def batched(k: int) -> None:
        with spans.span("batch.fit_many", f"batch:{k}"):
            outs.append(engine.fit_many(chunks[k], require_convergence=False))

    time_ops([partial(serial, k) for k in range(len(chunks[0]))], calibrator)
    allocs_before = engine.workspace_counters().allocations
    time_ops([partial(batched, k) for k in range(len(chunks))], calibrator)
    iters = [[r.iterations for r in out.results] for out in outs]
    return {
        "batch.speedup_vs_serial": sum(spans.seconds("fit")) / spans.seconds("batch.fit_many")[0],
        "batch.useful_column_frac": sum(map(sum, iters)) / sum(len(i) * max(i) for i in iters),
        "batch.workspace_allocs_steady": float(
            engine.workspace_counters().allocations - allocs_before
        ),
    }, [r.converged for out in outs for r in out.results]


def probe_serve(
    inputs: Inputs, engine: BatchFitEngine, spans: Spans, calibrator: Calibrator
) -> tuple[dict[str, float], dict[str, float], list[bool]]:
    """One warm-chained stream, then the same frames on two streams at once.
    Returns the raw-seconds metrics (the caller divides them by the run's
    speed factor), the counted ones, and every op's outcome."""
    w = inputs.workload

    def run(n_streams: int, frames: Sequence[MeasurementSet]) -> ServeDriver:
        driver = ServeDriver(inputs, engine=engine, n_streams=n_streams)
        try:
            def one_round(m: MeasurementSet) -> None:
                with spans.span("serve.round", f"serve{n_streams}:{driver.next_index}"):
                    driver.submit_round([m] * n_streams)

            time_ops([partial(one_round, m) for m in frames], calibrator)
        finally:
            driver.close()
        return driver

    one = run(1, inputs.slices[: w.traced_frames])
    reports = one.reports["s0"][1:]  # frame 0 is the cold base shot
    latency = [r.queue_seconds + r.solve_seconds for r in reports]
    hop = [seen - lat for seen, lat in zip(one.round_seconds[1:], latency)]
    summary = one.service.metrics.summary()

    two = run(2, inputs.slices[: w.traced_rounds])
    latency_two = [
        r.queue_seconds + r.solve_seconds for s in two.streams for r in two.reports[s][1:]
    ]
    converged = [r.converged for d in (one, two) for s in d.streams for r in d.reports[s]]
    median = statistics.median
    seconds = {
        "serve.solve_s_p50": median(r.solve_seconds for r in reports),
        "serve.queue_s_p50": median(r.queue_seconds for r in reports),
        "serve.hop_overhead_s_p50": median(hop),
    }
    counted = {
        "serve.warm_iters_mean": float(summary["warm_iterations_mean"]),
        "serve.cold_iters_mean": float(summary["cold_iterations_mean"]),
        "serve.warm_fallbacks": float(summary["warm_start_fallbacks"]),
        "serve.frames_shed": float(one.frames_shed + two.frames_shed),
        "serve.two_stream_slowdown": median(latency_two) / median(latency[: w.traced_rounds]),
    }
    return seconds, counted, converged


# -- the traced run -------------------------------------------------------------------
def run_traced(inputs: Inputs, calibrator: Calibrator, spans_path: Path) -> RunResult:
    w = inputs.workload
    spans = Spans()

    # Set-up, once: the engine every probe shares, and the base-shot fit.
    clear_process_caches(inputs)
    gc.collect()
    box: list = []

    def set_up() -> None:
        engine = BatchFitEngine.for_scenario(
            inputs.scenario, GRID, shot=inputs.shot, batch_size=BATCH, n_workers=1
        )
        base = engine.fit_many([inputs.shot.measurements], require_convergence=False)
        box.extend([engine, base.results[0]])

    (setup,) = time_ops([set_up], calibrator)
    engine, base = box
    solver = engine.solver

    # The step machine over the workload's slices, as its entry point runs
    # them: fit() passes no statics; the batch engine and the service do;
    # the service also chains each converged slice into the next.
    statics = None if w.kind == "fit" else engine.statics
    warm = w.kind == "serve"
    ops = inputs.slices[: w.traced_ops]

    def make_pass(recorder: Spans, on_iterate: Callable[[Iterate, str], None] | None):
        results: list[FitResult] = []
        seeds: list[FitResult | None] = [base if warm else None]

        def one(k: int) -> None:
            result = drive_slice(
                solver, ops[k], recorder, f"drive:{k}",
                statics=statics, seed=seeds[k], on_iterate=on_iterate,
            )  # fmt: skip
            results.append(result)
            seeds.append(result if warm and result.converged else None)

        return one, results, seeds

    pcurrs: list[np.ndarray] = []

    def replay_now(it: Iterate, op: str) -> None:
        replay_iterate(solver, engine.edge_op, statics, it, spans, op)
        if len(pcurrs) < BATCH:
            pcurrs.append(it.pcurr)

    # Three passes alternate slice by slice, so that all see the same machine
    # state: spans off and spans on (their ratio is the recorder's cost), and
    # spans on with the replays (which warm the caches for the next iterate,
    # so this pass is read only for where the time goes).
    plain_one, _, _ = make_pass(Spans(enabled=False), None)
    recorded_one, _, _ = make_pass(Spans(), None)
    traced_one, results, seeds = make_pass(spans, replay_now)
    gc.collect()
    driven = time_ops(
        [partial(one, k) for k in range(len(ops)) for one in (plain_one, recorded_one, traced_one)],
        calibrator,
    )
    overhead = sum(s.raw_s for s in driven[1::3]) / sum(s.raw_s for s in driven[0::3]) - 1.0
    replaying = spans.seconds_by_op("replay")
    traced = [raw - replaying[op] for op, raw in spans.seconds_by_op("fitting.op").items()]
    n_seeded = sum(seed is not None for seed in seeds[: len(ops)])

    pcurrs += pcurrs[: BATCH - len(pcurrs)]  # a warm slice may have fewer iterates
    time_ops(
        [partial(replay_batched_pflux, engine, pcurrs, spans, f"pflux_batched:{k}") for k in range(5)],
        calibrator,
    )

    counted = probe_setup_layers(inputs, spans, calibrator, spans_path.parent / f"tables-{os.getpid()}")
    batch, batch_ok = probe_batch(inputs, engine, spans, calibrator)
    serve_seconds, serve_counted, serve_ok = probe_serve(inputs, engine, spans, calibrator)
    probe_257(spans, calibrator)

    factor = statistics.fmean(calibrator.factors)
    spans.write(spans_path, workload=w.name, seed=inputs.seed, speed_factor=factor)

    def total(name: str) -> float:
        return sum(spans.seconds(name))

    def per_call(name: str) -> float:
        """Calibrated seconds per call of the spans called ``name``."""
        return statistics.fmean(spans.seconds(name)) / factor

    op_total = sum(traced)
    n_iter = len(spans.seconds("fitting.iterate_pre"))
    edge_apply_s = per_call("operators.edge_apply")
    converged = [r.converged for r in results] + batch_ok + serve_ok

    metrics = {
        "fitting.iters_per_slice": n_iter / len(ops),
        "fitting.start_fit_s": per_call("fitting.start_fit"),
        "fitting.iterate_pre_s": per_call("fitting.iterate_pre"),
        # what no public function underneath reaches: the vertical-shift fit,
        # chi^2 and the current distribution inside iterate_pre
        "fitting.iterate_pre_rest_s": (
            per_call("fitting.iterate_pre") - sum(map(per_call, REPLAYED_IN_ITERATE_PRE))
        ),
        "fitting.iterate_post_s": per_call("fitting.iterate_post"),
        "fitting.finish_s": per_call("fitting.finish"),
        "boundary.find_s": per_call("boundary.find"),
        # one search per iterate, plus start_fit's trust probe on a seeded slice
        "boundary.calls_per_slice": (n_iter + n_seeded) / len(ops),
        "boundary.share": total("boundary.find") / op_total,
        "current.basis_matrix_s": per_call("current.basis_matrix"),
        "current.share": total("current.basis_matrix") / op_total,
        "response.assemble_s": per_call("response.assemble"),
        "response.lsq_s": per_call("response.lsq"),
        "response.share": (total("response.assemble") + total("response.lsq")) / op_total,
        "pflux.compute_s": per_call("pflux.compute"),
        "pflux.share": total("pflux.compute") / op_total,
        "pflux.boundary_sums_s": per_call("pflux.boundary_sums"),
        "operators.edge_apply_s": edge_apply_s,
        "operators.edge_bytes": counted["operators.edge_bytes"],
        "operators.edge_apply_gbps": counted["operators.edge_bytes"] / edge_apply_s / 1e9,
        "solvers.interior_solve_s": per_call("solvers.interior_solve"),
        "solvers.solve_batch_s": per_call("solvers.solve_batch"),
        "tables.build_s": per_call("tables.build"),
        "tables.nbytes": counted["tables.nbytes"],
        "operators.build_s": per_call("operators.build"),
        "diskcache.store_s": per_call("diskcache.store"),
        "diskcache.load_s": per_call("diskcache.load"),
        "diskcache.file_bytes": counted["diskcache.file_bytes"],
        "batch.fit_many_s": per_call("batch.fit_many"),
        "batch.pflux_batched_s": per_call("batch.pflux_batched"),
        **batch,
        **{name: raw / factor for name, raw in serve_seconds.items()},
        **serve_counted,
        "tables.build_257_s": per_call("tables.build_257"),
        "pflux.compute_257_s": statistics.median(spans.seconds("pflux.compute_257")) / factor,
        "harness.speed_factor_mean": factor,
        "harness.speed_factor_cv": statistics.pstdev(calibrator.factors) / factor,
        "harness.raw_op_s_p50": statistics.median(traced),
        "harness.raw_setup_s": setup.raw_s,
        "harness.n_samples": float(len(traced)),
        "harness.ops_failed": float(converged.count(False)),
        "harness.probe_coverage": (
            sum(map(total, REPLAYED_IN_ITERATE_PRE)) + total("pflux.compute")
        ) / op_total,
        "harness.tracing_overhead_frac": overhead,
    }
    checks = golden_checks(inputs, base)
    checks += [seed_check(inputs), Check("diskcache_round_trip", bool(counted["disk_ok"]))]
    return RunResult(
        metrics=metrics,
        converged=converged,
        checks=checks,
        notes={"spans": float(len(spans.rows))},
    )
