"""The traced run checked against itself and against the RegionProfiler.

Real solver, 65^2, a handful of slices: about half a minute.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.efit.fitting import EfitSolver
from repro.profiling.regions import RegionProfiler

from benchmarks.perf import probes
from benchmarks.perf.calibration import Calibrator, default_kernels
from benchmarks.perf.cli import load_manifest
from benchmarks.perf.workloads import GRID, WORKLOADS, make_inputs

SMALL = dataclasses.replace(
    WORKLOADS["fit_cold_65"], traced_ops=3, traced_batch=3, traced_frames=5, traced_rounds=2
)


def traced(seed: int, tmp_path):
    inputs = make_inputs(SMALL, seed, probes.slices_needed(SMALL))
    result = probes.run_traced(inputs, Calibrator(default_kernels()), tmp_path / f"spans{seed}.json")
    return inputs, result


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return traced(7, tmp_path_factory.mktemp("spans"))


def test_every_per_layer_metric_is_reported(first):
    _, result = first
    assert set(result.metrics) == {spec["name"] for spec in load_manifest()["per_layer"]}
    assert result.correct and result.failed == 0


def test_counters_repeat_for_a_seed(first, tmp_path):
    _, again = traced(7, tmp_path)
    for name in (
        "fitting.iters_per_slice",
        "boundary.calls_per_slice",
        "batch.useful_column_frac",
        "batch.workspace_allocs_steady",
        "serve.warm_iters_mean",
        "serve.cold_iters_mean",
        "tables.nbytes",
    ):
        assert again.metrics[name] == first[1].metrics[name], name


def per_slice_seconds(m: dict[str, float]) -> float:
    """Calibrated seconds of one hand-driven slice, summed from its spans."""
    per_iterate = m["fitting.iterate_pre_s"] + m["pflux.compute_s"] + m["fitting.iterate_post_s"]
    return (
        m["fitting.start_fit_s"]
        + m["fitting.iters_per_slice"] * per_iterate
        + m["fitting.finish_s"]
    )


def test_probes_account_for_the_op(first):
    m = first[1].metrics
    # The replays plus the live pflux_ span: what public layer functions reach.
    shares = m["boundary.share"] + m["current.share"] + m["response.share"] + m["pflux.share"]
    assert shares == pytest.approx(m["harness.probe_coverage"])
    assert m["harness.probe_coverage"] >= 0.6
    assert 0.0 <= m["fitting.iterate_pre_rest_s"] < m["fitting.iterate_pre_s"]
    # The spans around the five public calls leave no part of the op out.
    op_s = m["fitting.iters_per_slice"] * m["pflux.compute_s"] / m["pflux.share"]
    assert per_slice_seconds(m) / op_s == pytest.approx(1.0, abs=0.03)


def test_shares_agree_with_the_region_profiler(first):
    """The same slices through ``fit`` with a profiler handed in through the
    public ``profiler=`` argument: shares within 10 points."""
    inputs, result = first
    profiler = RegionProfiler()
    solver = EfitSolver.for_scenario(inputs.scenario, GRID, shot=inputs.shot, profiler=profiler)
    for measurements in inputs.slices[: SMALL.traced_ops]:
        solver.fit(measurements)
    report = profiler.report()
    m = result.metrics
    op_s = per_slice_seconds(m)
    # current_ also holds the vertical-shift fit, which the probes see only
    # as iterate_pre's rest; start_fit lies outside every profiler region.
    rest_share = m["fitting.iters_per_slice"] * m["fitting.iterate_pre_rest_s"] / op_s
    in_regions = 1.0 - m["fitting.start_fit_s"] / op_s
    expected = {
        "steps_": m["boundary.share"],
        "green_": m["response.share"],
        "pflux_": m["pflux.share"],
        "current_": m["current.share"] + rest_share,
    }
    for region, share in expected.items():
        assert 100 * share / in_regions == pytest.approx(
            100 * report.fraction(region), abs=10.0
        ), region
