"""Observability: structured tracing and metrics.

The paper argues from instrumentation — ``omp_get_wtime()`` regions
around ``fit_``'s callees feed every table and pie chart.  This package
is that discipline as a subsystem:

* :mod:`repro.obs.trace` — :class:`TraceRecorder`, structured span/event
  records with monotonic timestamps, nesting and attributes;
* :mod:`repro.obs.hooks` — the injectable, zero-overhead-when-disabled
  hook protocol the solver, batch engine and executor call;
* :mod:`repro.obs.export` — Chrome-trace (``about:tracing``/Perfetto)
  and JSONL exporters, plus trace-side region totals;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`
  (counters/gauges/histograms) absorbing the legacy
  ``WorkspaceCounters``/``CacheCounters``/``RegionProfiler`` as sources.

See ``docs/OBSERVABILITY.md`` for the span schema and workflows.
"""

from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    jsonl_records,
    region_totals,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.hooks import NULL_HOOKS, NullHooks, ObservationHooks, TraceHooks
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    cache_source,
    counter_set_source,
    region_profiler_source,
    workspace_source,
)
from repro.obs.trace import EventRecord, SpanRecord, TraceRecorder

__all__ = [
    "TraceRecorder",
    "SpanRecord",
    "EventRecord",
    "ObservationHooks",
    "NullHooks",
    "NULL_HOOKS",
    "TraceHooks",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_records",
    "write_jsonl",
    "region_totals",
    "TRACE_SCHEMA_VERSION",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "workspace_source",
    "cache_source",
    "region_profiler_source",
    "counter_set_source",
]
