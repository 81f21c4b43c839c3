"""Multi-process reconstruction: memory-mapped table arenas + job scheduler.

The paper accelerates one reconstruction per device; this package scales
*out* instead — many (shot, time-slice) jobs sharded across CPU worker
processes, with the Green-function tables written once per fleet as
:mod:`repro.efit.diskcache` entries every worker memory-maps, so worker
startup stays O(1) in grid size.  See ``docs/PARALLEL.md`` for the
lifecycle and failure semantics.
"""

from repro.parallel.engine import ParallelFitEngine, ParallelFitResult
from repro.parallel.merge import (
    merge_metrics,
    merged_chrome_trace,
    write_merged_chrome_trace,
)
from repro.parallel.scheduler import (
    CRASH_RATE_ENV,
    CRASH_SEED_ENV,
    JobFailure,
    JobOutcome,
    ProcessScheduler,
    ScheduleResult,
    SchedulerConfig,
    WorkerContext,
    WorkerReport,
)

__all__ = [
    "ParallelFitEngine",
    "ParallelFitResult",
    "merge_metrics",
    "merged_chrome_trace",
    "write_merged_chrome_trace",
    "CRASH_RATE_ENV",
    "CRASH_SEED_ENV",
    "JobFailure",
    "JobOutcome",
    "ProcessScheduler",
    "ScheduleResult",
    "SchedulerConfig",
    "WorkerContext",
    "WorkerReport",
]
