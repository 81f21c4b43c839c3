"""The four workloads: inputs, set-up, the timed closed loop and output checks.

Every workload is a closed loop with one caller: the next op is issued
when the previous one has returned (or, for the service, when its report
exists).  Only public entry points are timed — ``EfitSolver.fit``,
``BatchFitEngine.fit_many`` and ``ReconstructionService.submit`` — and
every output check runs after the clock has stopped.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.batch import BatchFitEngine, synthetic_slice_sequence
from repro.efit.fitting import EfitSolver, FitResult
from repro.efit.measurements import MeasurementSet, SyntheticShot
from repro.efit.operators import drop_edge_operator
from repro.efit.tables import boundary_table_cache
from repro.scenarios import Scenario, get_scenario
from repro.serve import Frame, ReconstructionService, ServeConfig, SliceReport

from .calibration import Calibrator, Sample, summarize, time_ops

REPO = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO / "tests" / "golden"

#: Every workload runs at the paper's production grid; see README.md for
#: why the 129^2 rung is not a workload yet.
GRID = 65
#: Slices per ``fit_many`` call.
BATCH = 8
#: Served frames between two calibrations.
SERVE_GROUP = 5
#: Seconds between two looks at the service's ``serve.slices`` counter, and
#: how long a round may take before the run is given up (a solve that raised
#: ends its stream's worker, and the counter would never move).
POLL_S = 0.001
ROUND_TIMEOUT_S = 60.0
#: Timed set-ups per run; ``setup_s`` is their median.  They follow
#: ``SETUP_WARMUPS`` untimed ones: a process's first set-ups pay the first
#: touch of every large array's pages (0.4 s of a 1.1 s set-up on the
#: reference VM) and the allocator keeps those pages afterwards, so without
#: them the median of three falls on either side of that step from run to run.
SETUPS = 3
SETUP_WARMUPS = 2
#: Slices whose psi is compared with a reference path after the run.
IDENTITY_SLICES = 8


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload (name and reason live in BENCHMARK.json)."""

    name: str
    kind: str  # "fit" | "batch" | "serve"
    scenario: str
    #: Slices generated up front.  The timed loop ends at ``--seconds`` or
    #: when the pool is spent, whichever is first.  The fit and batch pools
    #: are several times what the reference box gets through, so a faster
    #: program still runs for the whole period.  The serve pool is what the
    #: reference box finishes just inside the period: the service keeps
    #: every report until its stream closes, so a frame count that grew
    #: with speed would read as a memory regression.
    pool: int
    #: Fixed op counts of the traced run (fixed so that counters repeat
    #: exactly for a seed): hand-driven slices, slices in the batch probe,
    #: warm frames in the serve probe, rounds in the two-stream phase.
    traced_ops: int
    traced_batch: int
    traced_frames: int
    traced_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_cold_65", "fit", "g186610", 400, 8, 8, 20, 6),
        Workload("batch_cold_65_b8", "batch", "g186610", 800, 8, 24, 20, 6),
        Workload("serve_warm_sn_65", "serve", "single-null", 500, 40, 8, 60, 10),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything generated from ``--seed`` before any clock starts."""

    workload: Workload
    scenario: Scenario
    shot: SyntheticShot
    slices: list[MeasurementSet]
    seed: int


def make_inputs(workload: Workload, seed: int, n_slices: int | None = None) -> Inputs:
    scenario = get_scenario(workload.scenario)
    shot = scenario.make_shot(GRID)
    n = workload.pool if n_slices is None else n_slices
    return Inputs(
        workload, scenario, shot, synthetic_slice_sequence(shot, n, seed=seed), seed
    )


def clear_process_caches(inputs: Inputs) -> None:
    """Forget the process-local Green table and edge operator, so the next
    engine construction pays for them as a fresh process would."""
    boundary_table_cache().clear()
    drop_edge_operator(inputs.shot.grid, "dense")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


# -- the three entry points ---------------------------------------------------
class Driver:
    """One entry point under test.  Construction is the workload's set-up
    (engine plus one warm-up op on the base shot); ``calls`` yields the timed
    closures; ``finish`` turns their samples into per-op samples."""

    #: The base shot's fit (the golden check) and each timed op's outcome.
    base_result: FitResult
    converged: list[bool]

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.converged = []

    def calls(self) -> Iterator[Callable[[], object]]:
        raise NotImplementedError

    def finish(self, timed: list[Sample]) -> list[Sample]:
        return timed

    def identity_checks(self) -> list[Check]:
        return []

    def close(self) -> None:
        pass


class FitDriver(Driver):
    """``EfitSolver.fit``, one cold slice per op."""

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        self.solver = EfitSolver.for_scenario(inputs.scenario, GRID, shot=inputs.shot)
        self.base_result = self.solver.fit(
            inputs.shot.measurements, require_convergence=False
        )

    def calls(self) -> Iterator[Callable[[], None]]:
        for m in self.inputs.slices:
            yield lambda m=m: self.converged.append(
                self.solver.fit(m, require_convergence=False).converged
            )


class BatchDriver(Driver):
    """``BatchFitEngine.fit_many``, eight cold slices per call; a sample is
    the call's time divided by eight."""

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        self.engine = BatchFitEngine.for_scenario(
            inputs.scenario, GRID, shot=inputs.shot, batch_size=BATCH, n_workers=1
        )
        self.base_result = self.engine.fit_many(
            [inputs.shot.measurements], require_convergence=False
        ).results[0]
        self.first: tuple[FitResult, ...] = ()

    def _call(self, start: int) -> None:
        out = self.engine.fit_many(
            self.inputs.slices[start : start + BATCH], require_convergence=False
        )
        self.converged.extend(r.converged for r in out.results)
        if not self.first:
            self.first = out.results

    def calls(self) -> Iterator[Callable[[], None]]:
        for start in range(0, len(self.inputs.slices) - BATCH + 1, BATCH):
            yield lambda start=start: self._call(start)

    def finish(self, timed: list[Sample]) -> list[Sample]:
        return [Sample(s.raw_s / BATCH, s.factor) for s in timed]

    def identity_checks(self) -> list[Check]:
        # The batched pflux_ sums the boundary Green terms in one GEMM, the
        # serial path edge by edge: same arithmetic, another summation
        # order, so agreement is to round-off and the iterate counts match.
        worst = 0.0
        same_iters = True
        for m, got in zip(self.inputs.slices, self.first[:IDENTITY_SLICES]):
            ref = self.engine.solver.fit(m, require_convergence=False)
            worst = max(worst, float(np.max(np.abs(got.psi - ref.psi)) / np.ptp(ref.psi)))
            same_iters &= got.iterations == ref.iterations
        return [
            Check(
                "batch_matches_serial",
                bool(self.first) and same_iters and worst < 1e-9,
                f"max |dpsi|/span {worst:.2e}, iterations equal: {same_iters}",
            )
        ]


class ServeDriver(Driver):
    """``ReconstructionService`` with warm-chained streams and no deadline.

    The event loop runs in its own thread; the harness thread submits a
    round (one frame per stream) and polls the public ``serve.slices``
    counter until every report of the round exists.  An op's time is the
    ``queue_seconds + solve_seconds`` of its report, both read by the
    service on the clock handed to it here.
    """

    def __init__(self, inputs: Inputs, *, engine: BatchFitEngine | None = None, n_streams: int = 1) -> None:
        super().__init__(inputs)
        self.engine = engine if engine is not None else BatchFitEngine.for_scenario(
            inputs.scenario, GRID, shot=inputs.shot
        )
        self.clock = time.perf_counter
        self.streams = [f"s{k}" for k in range(n_streams)]
        self.service = ReconstructionService(
            self.engine,
            config=ServeConfig(
                deadline_s=None, max_streams=n_streams, executor_workers=n_streams
            ),
            clock=self.clock,
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="perf-serve-loop", daemon=True
        )
        self._thread.start()
        self._await(self.service.start())
        for stream in self.streams:
            self._await(self.service.open_stream(stream))
        self.next_index = 0
        #: Harness-observed submit -> completion seconds, one per round.
        self.round_seconds: list[float] = []
        self.reports: dict[str, tuple[SliceReport, ...]] = {}
        self.frames_shed = 0
        # The cold first frame is the scenario's base shot: it belongs to
        # set-up and is what the golden check looks at.
        self.submit_round([inputs.shot.measurements] * n_streams)

    def _await(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=170)

    def submit_round(self, measurements: Sequence[MeasurementSet]) -> None:
        """Submit one frame per stream; return when all are reconstructed."""
        slices = self.service.metrics.slices
        target = slices.value + len(self.streams)
        t0 = self.clock()
        for stream, m in zip(self.streams, measurements):
            self._await(self.service.submit(stream, Frame(stream, self.next_index, m)))
        while slices.value < target:
            if self.clock() - t0 > ROUND_TIMEOUT_S:
                raise RuntimeError(f"frame {self.next_index}: no report after {ROUND_TIMEOUT_S} s")
            time.sleep(POLL_S)
        self.round_seconds.append(self.clock() - t0)
        self.next_index += 1

    def calls(self) -> Iterator[Callable[[], None]]:
        pool = self.inputs.slices
        for start in range(0, len(pool) - SERVE_GROUP + 1, SERVE_GROUP):
            yield lambda start=start: [
                self.submit_round([m]) for m in pool[start : start + SERVE_GROUP]
            ]

    def close(self) -> None:
        """Drain and stop the service and its loop thread (idempotent)."""
        if self._thread.is_alive():
            for stream in self.streams:
                summary = self._await(self.service.close_stream(stream))
                self.reports[stream] = summary.reports
                self.frames_shed += summary.frames_shed
            self._await(self.service.stop())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop.close()

    def finish(self, timed: list[Sample]) -> list[Sample]:
        self.close()
        reports = self.reports[self.streams[0]]
        self.base_result = reports[0].result
        self.converged = [r.converged for r in reports[1:]]
        return [
            Sample(r.queue_seconds + r.solve_seconds, timed[i // SERVE_GROUP].factor)
            for i, r in enumerate(reports[1 : 1 + SERVE_GROUP * len(timed)])
        ]

    def identity_checks(self) -> list[Check]:
        reports = self.reports[self.streams[0]][:IDENTITY_SLICES]
        solver = self.engine.solver
        identical = len(reports) == IDENTITY_SLICES
        prev = None
        for report in reports:
            m = (
                self.inputs.shot.measurements
                if report.index == 0
                else self.inputs.slices[report.index - 1]
            )
            ref = solver.fit(
                m,
                psi_initial=prev.psi if prev is not None else None,
                coeffs_initial=prev.history[-1].coefficients if prev is not None else None,
                require_convergence=False,
            )
            identical &= np.array_equal(ref.psi, report.result.psi)
            prev = ref
        return [
            Check("serve_bit_identical_to_chained_serial", bool(identical)),
            Check("serve_frames_shed_zero", self.frames_shed == 0, f"shed {self.frames_shed}"),
        ]


DRIVERS = {"fit": FitDriver, "batch": BatchDriver, "serve": ServeDriver}


# -- output checks ------------------------------------------------------------
def golden_checks(inputs: Inputs, result: FitResult) -> list[Check]:
    """The set-up fit of the scenario's base shot against the committed
    golden record, at the golden test's tolerances."""
    sc = inputs.scenario
    golden = json.loads((GOLDEN_DIR / sc.golden_artifact).read_text())
    psi = result.psi
    fresh = {
        "psi_sum": float(psi.sum()),
        "psi_l1": float(np.abs(psi).sum()),
        "psi_l2": float(np.sqrt((psi * psi).sum())),
    }
    worst = max(abs(fresh[k] - golden[k]) / abs(golden[k]) for k in fresh)
    boundary_type = result.boundary.boundary_type
    return [
        Check("setup_fit_converged", bool(result.converged), f"{result.iterations} iterates"),
        Check(
            "golden_boundary_type",
            boundary_type == golden["boundary_type"] == sc.boundary_type,
            boundary_type,
        ),
        Check(
            "golden_iterations",
            abs(result.iterations - golden["iterations"]) <= 3,
            f"{result.iterations} vs {golden['iterations']}",
        ),
        Check("golden_psi_checksums", worst <= 1e-4, f"worst rel {worst:.1e}"),
    ]


def seed_check(inputs: Inputs) -> Check:
    other = synthetic_slice_sequence(inputs.shot, 1, seed=inputs.seed + 1)[0]
    return Check(
        "other_seed_other_measurements",
        not np.array_equal(other.values, inputs.slices[0].values),
    )


# -- the untraced, end-to-end run ----------------------------------------------
@dataclass
class RunResult:
    """What one workload run reports (see the contract in BENCHMARK.json)."""

    metrics: dict[str, float]
    #: One entry per op attempted: did it converge.
    converged: list[bool]
    checks: list[Check]
    #: Human-readable facts printed beside the metrics, not part of the JSON.
    notes: dict[str, float]

    @property
    def attempted(self) -> int:
        return len(self.converged)

    @property
    def failed(self) -> int:
        """Ops that did not converge, plus one per output check missed."""
        return self.converged.count(False) + sum(1 for c in self.checks if not c.ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def timed_setup(inputs: Inputs, calibrator: Calibrator):
    """Clear the caches, then time engine construction plus one warm-up op."""
    clear_process_caches(inputs)
    gc.collect()
    box = []
    (sample,) = time_ops([lambda: box.append(DRIVERS[inputs.workload.kind](inputs))], calibrator)
    return box[0], sample


def run_end_to_end(inputs: Inputs, calibrator: Calibrator, seconds: float) -> RunResult:
    setups: list[Sample] = []
    driver = None
    for _ in range(SETUP_WARMUPS + SETUPS):
        if driver is not None:
            driver.close()
        driver = None  # one engine alive at a time, or peak RSS counts two
        driver, sample = timed_setup(inputs, calibrator)
        setups.append(sample)
    first_setup, setups = setups[0], setups[SETUP_WARMUPS:]

    gc.collect()
    timed = time_ops(driver.calls(), calibrator, seconds=seconds)
    samples = driver.finish(timed)

    checks = golden_checks(inputs, driver.base_result)
    checks.append(seed_check(inputs))
    checks += driver.identity_checks()

    factors = calibrator.factors
    return RunResult(
        metrics={
            "setup_s": statistics.median(s.cal_s for s in setups),
            **summarize(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        converged=driver.converged,
        checks=checks,
        notes={
            "n_samples": len(samples),
            "raw_op_s_p50": statistics.median(s.raw_s for s in samples),
            "raw_setup_s": statistics.median(s.raw_s for s in setups),
            "raw_first_setup_s": first_setup.raw_s,
            "speed_factor_mean": statistics.fmean(factors),
            "speed_factor_cv": statistics.pstdev(factors) / statistics.fmean(factors),
        },
    )
