"""Trace exporters: Chrome-trace JSON and JSONL.

The Chrome trace format (``chrome://tracing`` / Perfetto / Speedscope)
renders spans as nested horizontal bars per thread — the timeline view
of the paper's Figure 1/6 pie charts.  The JSONL export is the flat
machine-readable stream CI jobs archive and post-process.

:func:`region_totals` recovers per-region **exclusive** totals from an
exported Chrome payload (re-deriving the nesting from timestamps), so a
trace file alone is enough to rebuild the profiler breakdown — that
round trip is the subsystem's acceptance check.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ObservabilityError
from repro.obs.trace import TraceRecorder
from repro.utils.jsonio import dump_json

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "chrome_event",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_records",
    "write_jsonl",
    "region_totals",
]

#: Bumped whenever a record field is added/renamed; consumers key on it.
TRACE_SCHEMA_VERSION = 1

_US = 1e6  # Chrome trace timestamps/durations are microseconds


def chrome_event(record: dict[str, Any], pid: int) -> dict[str, Any] | None:
    """One Chrome event from a trace record's ``to_dict()`` form: a
    complete ("X") event per closed span, an instant ("i") event per
    event record; ``None`` for a span never closed (no extent yet, or its
    worker died mid-span)."""
    if record["kind"] == "span":
        if record["duration"] is None:
            return None
        return {
            "ph": "X",
            "pid": pid,
            "tid": record["thread_id"],
            "name": record["name"],
            "cat": record["category"],
            "ts": record["start"] * _US,
            "dur": record["duration"] * _US,
            "args": dict(record["attributes"]),
        }
    return {
        "ph": "i",
        "s": "t",
        "pid": pid,
        "tid": record["thread_id"],
        "name": record["name"],
        "cat": "event",
        "ts": record["timestamp"] * _US,
        "args": dict(record["attributes"]),
    }


def chrome_trace(recorder: TraceRecorder, *, process_name: str = "repro") -> dict[str, Any]:
    """The ``about:tracing`` payload: :func:`chrome_event` of every record,
    plus metadata."""
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    events += filter(None, (chrome_event(record.to_dict(), 0) for record in recorder.records))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema_version": TRACE_SCHEMA_VERSION},
    }


def write_chrome_trace(
    recorder: TraceRecorder, path: str | Path, *, process_name: str = "repro"
) -> Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(dump_json(chrome_trace(recorder, process_name=process_name)))
    return path


def jsonl_records(recorder: TraceRecorder) -> Iterator[str]:
    """One compact JSON object per record, schema-stamped."""
    for record in recorder.records:
        payload = record.to_dict()
        payload["schema_version"] = TRACE_SCHEMA_VERSION
        yield json.dumps(payload, allow_nan=False)


def write_jsonl(recorder: TraceRecorder, path: str | Path) -> Path:
    """Serialise :func:`jsonl_records` to ``path``; returns the path."""
    path = Path(path)
    path.write_text("".join(line + "\n" for line in jsonl_records(recorder)))
    return path


def region_totals(
    payload: dict[str, Any], *, category: str = "region"
) -> dict[str, float]:
    """Exclusive per-name totals [s] recomputed from a Chrome payload.

    Only the timestamps are used: per thread, "X" events of ``category``
    are re-nested by interval containment (an event whose extent lies
    inside a still-open earlier event is its child) and each child's
    duration is subtracted from its parent — the same exclusive-time rule
    as :class:`~repro.profiling.regions.RegionProfiler`.
    """
    try:
        events = payload["traceEvents"]
    except (TypeError, KeyError):
        raise ObservabilityError("payload is not a Chrome trace (no traceEvents)")
    spans = [
        e
        for e in events
        if e.get("ph") == "X" and e.get("cat", category) == category
    ]
    totals: dict[str, float] = {}
    by_tid: dict[int, list[dict[str, Any]]] = {}
    for e in spans:
        by_tid.setdefault(int(e.get("tid", 0)), []).append(e)
    # (name, duration_us, child_durations_us) per span; children lists
    # fill during the sweep, exclusive time settles afterwards.
    settled: list[tuple[str, float, list[float]]] = []
    for tid_spans in by_tid.values():
        # Start order; ties broken longest-first so parents open before
        # their zero-offset children.
        tid_spans.sort(key=lambda e: (float(e["ts"]), -float(e["dur"])))
        stack: list[tuple[float, list[float]]] = []  # (end_ts, child durations)
        for e in tid_spans:
            ts, dur = float(e["ts"]), float(e["dur"])
            while stack and ts >= stack[-1][0] - 1e-9:
                stack.pop()
            if stack:
                stack[-1][1].append(dur)
            children: list[float] = []
            stack.append((ts + dur, children))
            settled.append((str(e["name"]), dur, children))
    for name, dur, children in settled:
        totals[name] = totals.get(name, 0.0) + (dur - sum(children)) / _US
    return totals
