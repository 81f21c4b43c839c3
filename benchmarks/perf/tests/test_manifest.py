"""BENCHMARK.json against the limits of the benchmark contract, and against
the harness that reads it."""

from __future__ import annotations

import re

import pytest

from benchmarks.perf.cli import REPO, load_manifest
from benchmarks.perf.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def manifest() -> dict:
    return load_manifest()


def test_top_level_keys_and_limits(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert 1 <= len(manifest["command"]) <= 32
    assert manifest["paths"] == ["benchmarks/perf"]
    assert (REPO / manifest["command"][1]).is_file()
    assert manifest["command"][1].startswith(manifest["paths"][0] + "/")
    # every run of the driver inside its time cap, on the slowest run seen
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 12) <= 3420


def test_workloads_match_the_harness(manifest):
    workloads = manifest["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(WORKLOADS)
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_specs(manifest):
    end_to_end, per_layer = manifest["end_to_end"], manifest["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer] + [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    for spec in end_to_end:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in per_layer:
        assert set(spec) == {"name", "unit", "better"}
    for spec in end_to_end + per_layer:
        assert NAME.match(spec["name"]) and UNIT.match(spec["unit"])
        assert spec["better"] in ("lower", "higher")
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
