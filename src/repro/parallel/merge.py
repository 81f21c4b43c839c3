"""Merging per-worker observability into one artifact set.

Each scheduler worker records into a private
:class:`~repro.obs.trace.TraceRecorder` and
:class:`~repro.obs.metrics.MetricsRegistry`; after a run the parent
holds one :class:`~repro.parallel.scheduler.WorkerReport` per worker.
This module folds them into:

* :func:`merged_chrome_trace` — a single Chrome-trace payload where the
  parent's scheduling spans occupy pid 0 and every worker gets its own
  pid lane (``worker 0 (pid 4711)``, ...), so ``about:tracing`` /
  Perfetto shows the fleet timeline stacked one lane per process; and
* :func:`merge_metrics` — one aggregated metrics snapshot: scalar
  metrics (counters/gauges) sum across workers, histograms merge
  bucket-wise (identical bounds required).

Both merges are order-independent: reports are keyed by worker id, and
histogram merging is associative/commutative, so the artifacts do not
depend on worker completion order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import ObservabilityError
from repro.obs.export import TRACE_SCHEMA_VERSION, chrome_event
from repro.obs.trace import TraceRecorder
from repro.parallel.scheduler import WorkerReport
from repro.utils.jsonio import dump_json

__all__ = [
    "merged_chrome_trace",
    "write_merged_chrome_trace",
    "merge_metrics",
]

def merged_chrome_trace(
    reports: Sequence[WorkerReport], *, parent: TraceRecorder | None
) -> dict[str, Any]:
    """One Chrome-trace payload with a pid lane per process.

    The parent recorder (scheduling decisions, per-job events; ``None``
    for a fleet without trace hooks) renders as pid 0, ``repro-pfleet
    parent``; worker ``w`` renders as pid ``w + 1`` labelled with its OS
    pid.  Worker clocks are ``time.perf_counter`` readings from separate
    processes — comparable on one machine (CLOCK_MONOTONIC), which is
    the only place a process fleet runs anyway.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro-pfleet parent"},
        }
    ]
    if parent is not None:
        events += filter(None, (chrome_event(record.to_dict(), 0) for record in parent.records))
    for report in sorted(reports, key=lambda r: r.worker):
        pid = report.worker + 1
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"worker {report.worker} (pid {report.pid})"},
            }
        )
        events += filter(None, (chrome_event(record, pid) for record in report.records))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": TRACE_SCHEMA_VERSION,
            "workers": len(reports),
        },
    }


def write_merged_chrome_trace(
    reports: Sequence[WorkerReport],
    path: str | Path,
    *,
    parent: TraceRecorder | None,
) -> Path:
    """Serialise :func:`merged_chrome_trace` to ``path``."""
    path = Path(path)
    path.write_text(dump_json(merged_chrome_trace(reports, parent=parent)))
    return path


def _merge_histogram(into: dict[str, Any], add: dict[str, Any], name: str) -> None:
    if list(into["bounds"]) != list(add["bounds"]):
        raise ObservabilityError(
            f"cannot merge worker histograms {name!r}: bucket bounds differ"
        )
    into["counts"] = [a + b for a, b in zip(into["counts"], add["counts"])]
    into["count"] += add["count"]
    into["sum"] += add["sum"]


def merge_metrics(reports: Iterable[WorkerReport]) -> dict[str, Any]:
    """One aggregated snapshot across workers.

    Scalars sum; histograms merge bucket-wise.  The per-worker snapshots
    ride along under ``"per_worker"`` so a fleet-level regression can be
    attributed to the worker that caused it.
    """
    merged: dict[str, Any] = {}
    per_worker: dict[str, dict[str, Any]] = {}
    for report in sorted(reports, key=lambda r: r.worker):
        metrics = report.metrics.get("metrics", {})
        per_worker[str(report.worker)] = metrics
        for name, value in metrics.items():
            if name not in merged:
                merged[name] = (
                    dict(value, counts=list(value["counts"]), bounds=list(value["bounds"]))
                    if isinstance(value, dict)
                    else float(value)
                )
            elif isinstance(value, dict):
                if not isinstance(merged[name], dict):
                    raise ObservabilityError(
                        f"metric {name!r} is a histogram on one worker and a "
                        "scalar on another"
                    )
                _merge_histogram(merged[name], value, name)
            else:
                if isinstance(merged[name], dict):
                    raise ObservabilityError(
                        f"metric {name!r} is a histogram on one worker and a "
                        "scalar on another"
                    )
                merged[name] += float(value)
    return {
        "workers": len(per_worker),
        "metrics": merged,
        "per_worker": per_worker,
    }
