"""The multi-process job scheduler: retries, quarantine, merge.

:class:`ProcessScheduler` owns a persistent pool of worker slots, each a
single-process :class:`~concurrent.futures.ProcessPoolExecutor`, so
whatever happens to a worker happens to one future.  A slot is *ready*
once its first call, ``submit(os.getpid)``, returns: its worker has run
the initializer, and the pid is what a timeout kills.  ``run(payloads)``
blocks until every job is **completed** (a :class:`JobOutcome`) or
**quarantined** (a :class:`JobFailure`, never retried again: no crash
loops).  A job whose worker died (its future raises
``BrokenProcessPool``) or that outlived the per-job timeout (its worker
is killed) retries on a respawned slot after ``backoff *
2**(attempt-1)``, until it has used ``max_retries``.  A Python exception
from the payload, or from ``init_fn``, is deterministic and quarantines
at once: a retry would burn a worker generation for the same traceback.
Outcomes merge by submission index, so worker count and interleaving are
invisible in the result.  The inline transport swaps each slot's
executor for an in-parent one behind the same loop.

Fault injection: ``REPRO_PARALLEL_CRASH_RATE`` (a probability in
``[0, 1]``; anything else is a :class:`ParallelError` when the pool starts) makes
workers ``os._exit`` before selected jobs (an inline worker raises
``BrokenProcessPool``), decided by a pure hash of
``(REPRO_PARALLEL_CRASH_SEED, job index, attempt)``: deterministic across
processes and runs, and different per attempt, so a retried job
eventually succeeds whenever the rate is below 1.

Observability: each worker's private
:class:`~repro.obs.trace.TraceRecorder` and
:class:`~repro.obs.metrics.MetricsRegistry` come back after every run as
one :class:`WorkerReport` per slot (one ``submit(_flush)``), which
:mod:`repro.parallel.merge` folds into one Chrome trace with a lane per
worker and one aggregated metrics snapshot.  Parent-side decisions are
events on the caller's :class:`~repro.obs.hooks.ObservationHooks` and
counts in :class:`~repro.runtime.counters.SchedulerCounters`.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
import os
import pickle
import signal
import time
import traceback as traceback_mod
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import ParallelError
from repro.obs.hooks import NULL_HOOKS, ObservationHooks, TraceHooks
from repro.obs.metrics import DEFAULT_SECONDS_BOUNDS, MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.runtime.counters import SchedulerCounters

__all__ = [
    "CRASH_RATE_ENV",
    "CRASH_SEED_ENV",
    "SchedulerConfig",
    "WorkerContext",
    "JobOutcome",
    "JobFailure",
    "WorkerReport",
    "ScheduleResult",
    "ProcessScheduler",
]

#: Fault-injection probability (worker crashes before running a job).
CRASH_RATE_ENV = "REPRO_PARALLEL_CRASH_RATE"
#: Seed of the deterministic crash decision hash.
CRASH_SEED_ENV = "REPRO_PARALLEL_CRASH_SEED"

#: Exit code of an injected crash (distinguishable from real faults in logs).
_CRASH_EXIT = 113

#: Consecutive deaths of a slot's interpreter before it is ready that
#: declare the pool broken (an ``init_fn`` that raises is not a death:
#: its worker fails each job instead).
_MAX_IDLE_DEATHS = 3

#: How long the end of a run waits for a slot still starting to report.
_REPORT_SECONDS = 10.0


def _crash_rate() -> float:
    """The injected-crash probability; a value that is no probability is
    refused, so a drill cannot silently inject nothing."""
    raw = os.environ.get(CRASH_RATE_ENV, "")
    try:
        rate = float(raw or "0")
    except ValueError:
        rate = math.nan
    if not 0.0 <= rate <= 1.0:
        raise ParallelError(f"{CRASH_RATE_ENV}={raw!r} is not a probability in [0, 1]")
    return rate


def _should_crash(index: int, attempt: int, rate: float) -> bool:
    """Deterministic fault-injection decision (same on every platform)."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    seed = os.environ.get(CRASH_SEED_ENV, "0")
    digest = hashlib.sha256(f"{seed}:{index}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 < rate


def _describe(exc: BaseException) -> str:
    """A failure's ``detail``: the traceback, ending ``Type: message``."""
    return "".join(traceback_mod.format_exception(type(exc), exc, exc.__traceback__))


@dataclass(frozen=True)
class SchedulerConfig:
    """Pool-level policy knobs (all validated at scheduler construction).

    ``timeout_seconds`` is per job, measured from assignment to a ready
    worker; ``None`` disables the timeout.  ``transport`` selects real
    processes (``"process"``) or the in-parent ``"inline"`` mode the
    property tests use to exercise merge determinism cheaply (inline mode
    still honours fault injection by *simulating* a crash, so the retry
    and quarantine paths run without forking).  ``start_method`` picks the
    multiprocessing context (default: ``fork`` where available — worker
    startup then inherits the parent's modules; ``spawn`` workers rebuild
    from pickled state and map the tables from the arena's files)."""

    workers: int = 2
    timeout_seconds: float | None = 120.0
    max_retries: int = 2
    backoff_seconds: float = 0.05
    transport: str = "process"
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ParallelError("scheduler needs at least one worker")
        if self.timeout_seconds is not None and not 0 < self.timeout_seconds < math.inf:
            raise ParallelError("timeout_seconds must be positive and finite (or None)")
        if self.max_retries < 0:
            raise ParallelError("max_retries must be >= 0")
        if not 0 <= self.backoff_seconds < math.inf:
            raise ParallelError("backoff_seconds must be finite and >= 0")
        if self.transport not in ("process", "inline"):
            raise ParallelError(f"unknown transport {self.transport!r}")
        methods = get_all_start_methods()
        if self.start_method is not None and self.start_method not in methods:
            raise ParallelError(
                f"unknown start_method {self.start_method!r}; this platform "
                f"has {methods}"
            )


@dataclass
class WorkerContext:
    """What a worker-state initializer receives: identity + local sinks."""

    worker: int
    recorder: TraceRecorder
    metrics: MetricsRegistry
    hooks: ObservationHooks


@dataclass(frozen=True)
class JobOutcome:
    """One completed job, in submission order after the merge."""

    index: int
    result: Any
    worker: int
    attempts: int
    seconds: float


@dataclass(frozen=True)
class JobFailure:
    """One quarantined job: final disposition, never retried again."""

    index: int
    reason: str  # "crash" | "timeout" | "error"
    attempts: int
    detail: str = ""


@dataclass(frozen=True)
class WorkerReport:
    """Per-worker observability payload collected after a run."""

    worker: int
    pid: int
    jobs_done: int
    records: tuple[dict, ...]
    metrics: dict


@dataclass(frozen=True)
class ScheduleResult:
    """Everything one ``run`` produces, deterministically ordered."""

    outcomes: tuple[JobOutcome, ...]
    failures: tuple[JobFailure, ...]
    reports: tuple[WorkerReport, ...]
    counters: SchedulerCounters
    wall_seconds: float


class _Worker:
    """One slot's worker: its sinks, its state and its job count.

    Gauge ``init_seconds`` is what ``init_fn`` took: the fixed cost every
    worker start — and every respawn after a crash — pays before its
    first job.  An ``init_fn`` that raises leaves the worker alive with
    no state, and every job it is handed fails as an ``"error"`` carrying
    the initialisation traceback."""

    def __init__(self, slot: int, trace_enabled: bool, init_fn: Callable,
                 init_args: tuple, worker_fn: Callable, in_parent: bool) -> None:
        recorder = TraceRecorder(enabled=trace_enabled)
        self.ctx = WorkerContext(slot, recorder, MetricsRegistry(), TraceHooks(recorder))
        self.worker_fn = worker_fn
        self.in_parent = in_parent
        self.jobs_done = 0
        self.state = self.init_failure = None
        t0 = time.perf_counter()
        try:
            self.state = init_fn(self.ctx, *init_args)
        except Exception as exc:
            self.init_failure = "worker initialisation failed: " + _describe(exc)
        self.ctx.metrics.gauge("init_seconds").set(time.perf_counter() - t0)

    def run(self, index: int, attempt: int, payload: Any) -> tuple[str, float, Any]:
        """One job: ``("done", seconds, result)`` or ``("error", seconds, detail)``."""
        if _should_crash(index, attempt, _crash_rate()):
            if self.in_parent:
                raise BrokenProcessPool(f"injected crash (attempt {attempt})")
            os._exit(_CRASH_EXIT)
        self.jobs_done += 1
        metrics = self.ctx.metrics
        if self.init_failure is not None:
            metrics.counter("jobs_failed").inc()
            return "error", 0.0, self.init_failure
        t0 = time.perf_counter()
        try:
            with self.ctx.hooks.region("job", job=index, attempt=attempt, worker=self.ctx.worker):
                result = self.worker_fn(self.state, payload)
        except Exception as exc:
            metrics.counter("jobs_failed").inc()
            return "error", time.perf_counter() - t0, _describe(exc)
        elapsed = time.perf_counter() - t0
        metrics.histogram("job_seconds", DEFAULT_SECONDS_BOUNDS).observe(elapsed)
        metrics.counter("jobs_completed").inc()
        return "done", elapsed, result

    def flush(self) -> tuple[int, tuple[dict, ...], dict]:
        """``(jobs_done, records, metrics)``; the next run's report holds
        only its own spans."""
        records = tuple(r.to_dict() for r in self.ctx.recorder.records)
        if self.ctx.recorder.enabled:
            self.ctx.recorder.reset()
        return self.jobs_done, records, self.ctx.metrics.to_dict()


#: The calling context's worker: set by the pool initializer in a worker
#: process, and inside each inline executor's own context.
_WORKER: contextvars.ContextVar[_Worker] = contextvars.ContextVar("repro_pfleet_worker")


def _init_worker(*args: Any) -> None:
    _WORKER.set(_Worker(*args))


def _run_job(index: int, attempt: int, payload: Any) -> tuple[str, float, Any]:
    return _WORKER.get().run(index, attempt, payload)


def _flush() -> tuple[int, tuple[dict, ...], dict]:
    return _WORKER.get().flush()


class _InlineExecutor(Executor):
    """The in-parent transport: runs each call as it is submitted, in a
    context of its own — where ``_WORKER`` is this slot's worker, as it is
    a worker process's own."""

    def __init__(self, initializer: Callable, initargs: tuple) -> None:
        self._context = contextvars.Context()
        self.submit(initializer, *initargs)

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(self._context.run(fn, *args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _submit(executor: Executor, fn: Callable, *args: Any) -> Future:
    """``executor.submit``; a pool that broke while idle is reported on
    the future, like any other death."""
    try:
        return executor.submit(fn, *args)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


class _Job(NamedTuple):
    index: int
    attempt: int
    assigned: float  # time.monotonic() at assignment
    future: Future


@dataclass
class _Slot:
    """Parent-side bookkeeping of one worker slot."""

    executor: Executor
    ready: Future  # submit(os.getpid): done once the worker has initialised
    job: _Job | None = field(default=None, init=False)
    idle_deaths: int = field(default=0, init=False)

    @property
    def idle(self) -> bool:
        return self.job is None and self.ready.done() and not self.ready.exception()


class ProcessScheduler:
    """A persistent, crash-tolerant pool executing ``worker_fn`` on jobs.

    Parameters
    ----------
    init_fn, init_args:
        ``init_fn(ctx, *init_args)`` runs once per worker *process* (and
        once more after each respawn) and returns the worker state —
        for reconstructions, the worker-local
        :class:`~repro.batch.engine.BatchFitEngine` attached to the
        shared table arena.
    worker_fn:
        ``worker_fn(state, payload) -> result`` executes one job.
        ``init_fn``, ``init_args`` and ``worker_fn`` must pickle, as a
        spawned worker receives them, on either transport: a lambda or a
        nested function is refused here with
        :class:`~repro.errors.ParallelError`.
    hooks:
        Parent-side observation hooks; scheduling decisions emit events
        here, and ``hooks.enabled`` switches worker-side tracing on.
    """

    def __init__(
        self,
        init_fn: Callable,
        init_args: tuple,
        worker_fn: Callable,
        *,
        config: SchedulerConfig | None = None,
        hooks: ObservationHooks | None = None,
    ) -> None:
        try:
            pickle.dumps((init_fn, init_args, worker_fn))
        except Exception as exc:
            raise ParallelError(f"init_fn, init_args and worker_fn must pickle: {exc}") from exc
        self.config = config if config is not None else SchedulerConfig()
        self.hooks = hooks if hooks is not None else NULL_HOOKS
        self.counters = SchedulerCounters()
        self._work = (init_fn, init_args, worker_fn)
        self._slots: list[_Slot] = []
        self._closed = False
        self._ctx = None
        if self.config.transport == "process":
            method = self.config.start_method
            if method is None:
                method = "fork" if "fork" in get_all_start_methods() else "spawn"
            self._ctx = get_context(method)

    # -- pool lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Start the pool (idempotent; ``run`` calls it on first use)."""
        if self._closed:
            raise ParallelError("scheduler already closed")
        if not self._slots:
            _crash_rate()  # a malformed rate fails here, in the parent, not in a worker
            self._slots = [_Slot(*self._spawn(i)) for i in range(self.config.workers)]

    def _spawn(self, slot_id: int) -> tuple[Executor, Future]:
        """A new executor for ``slot_id`` and its ready future."""
        initargs = (slot_id, bool(self.hooks.enabled), *self._work, self._ctx is None)
        if self._ctx is None:
            executor: Executor = _InlineExecutor(_init_worker, initargs)
        else:
            executor = ProcessPoolExecutor(1, mp_context=self._ctx, initializer=_init_worker,
                                           initargs=initargs)
        return executor, _submit(executor, os.getpid)

    def _respawn(self, slot_id: int) -> None:
        self.counters.worker_restarts += 1
        self.hooks.event("worker_restart", worker=slot_id)
        slot = self._slots[slot_id]
        slot.job = None
        slot.executor.shutdown(wait=True, cancel_futures=True)
        slot.executor, slot.ready = self._spawn(slot_id)

    @staticmethod
    def _kill(slot: _Slot) -> None:
        with contextlib.suppress(ProcessLookupError):  # it already died on its own
            os.kill(slot.ready.result(), signal.SIGKILL)

    def close(self) -> None:
        """Stop every worker and wait for it to exit (idempotent).  A
        worker still busy with a job — a run interrupted by an exception —
        is killed first."""
        self._closed = True
        for slot in self._slots:
            if slot.job is not None and not slot.job.future.done():
                self._kill(slot)
            slot.executor.shutdown(wait=True, cancel_futures=True)
        self._slots = []

    def __enter__(self) -> "ProcessScheduler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- the run loop --------------------------------------------------------------
    def run(self, payloads: Sequence[Any]) -> ScheduleResult:
        """Execute one job per payload; block until all are disposed of.
        A run that raises closes the scheduler on its way out."""
        if self._closed:
            raise ParallelError("scheduler already closed")
        payloads = list(payloads)
        if not payloads:
            raise ParallelError("run() needs at least one payload")
        self.start()
        t0 = time.perf_counter()
        self.counters.submitted += len(payloads)
        self.hooks.event("schedule_run_start", n_jobs=len(payloads), workers=self.config.workers)
        outcomes: dict[int, JobOutcome] = {}
        failures: dict[int, JobFailure] = {}
        try:
            self._drain(payloads, outcomes, failures)
            reports = self._collect_reports()
        except BaseException:
            self.close()
            raise
        result = ScheduleResult(
            outcomes=tuple(outcomes[i] for i in sorted(outcomes)),
            failures=tuple(failures[i] for i in sorted(failures)),
            reports=reports,
            counters=self.counters.snapshot(),
            wall_seconds=time.perf_counter() - t0,
        )
        self.hooks.event(
            "schedule_run_end", completed=len(outcomes), quarantined=len(failures),
            wall_seconds=result.wall_seconds,
        )
        return result

    def _drain(self, payloads: list, outcomes: dict, failures: dict) -> None:
        """Until every job is decided: hand due jobs to idle slots, wait
        for the first future (or the next timeout or backoff deadline),
        then settle every slot."""
        timeout = self.config.timeout_seconds
        #: (ready_at, index, attempt) — backoff delays live here.
        pending = [(0.0, i, 1) for i in range(len(payloads))]
        while len(outcomes) + len(failures) < len(payloads):
            now = time.monotonic()
            for slot_id, slot in enumerate(self._slots):
                if not slot.idle:
                    continue
                due = next((entry for entry in pending if entry[0] <= now), None)
                if due is None:
                    break
                pending.remove(due)
                _, index, attempt = due
                future = _submit(slot.executor, _run_job, index, attempt, payloads[index])
                slot.job, slot.idle_deaths = _Job(index, attempt, now, future), 0
                self.hooks.event("job_assigned", job=index, attempt=attempt, worker=slot_id)
            busy = [s.job.future if s.job else s.ready for s in self._slots if not s.idle]
            deadlines = [at for at, _, _ in pending if at > now]
            if timeout is not None:
                deadlines += [s.job.assigned + timeout for s in self._slots if s.job]
            wait(busy, max(0.0, min(deadlines) - time.monotonic()) if deadlines else None,
                 FIRST_COMPLETED)
            now = time.monotonic()
            for slot_id, slot in enumerate(self._slots):
                job = slot.job
                if job is not None and job.future.done():
                    slot.job = None
                    self._settle(slot_id, job, pending, outcomes, failures)
                elif job is not None and timeout is not None and now - job.assigned > timeout:
                    self._kill(slot)
                    self.counters.timeouts += 1
                    self.hooks.event("job_timeout", job=job.index, attempt=job.attempt,
                                     worker=slot_id)
                    detail = f"exceeded {timeout}s on worker {slot_id}"
                    self._dispose(job, "timeout", detail, pending, failures)
                    self._respawn(slot_id)
                elif job is None and slot.ready.done() and slot.ready.exception():
                    slot.idle_deaths += 1
                    if slot.idle_deaths >= _MAX_IDLE_DEATHS:
                        raise ParallelError(f"worker slot {slot_id} died {slot.idle_deaths} "
                                            f"times during initialisation — pool is broken")
                    self._respawn(slot_id)

    def _settle(self, slot_id: int, job: _Job, pending: list, outcomes: dict,
                failures: dict) -> None:
        """Record what a finished future decided."""
        exc = job.future.exception()
        if isinstance(exc, BrokenProcessPool):
            self.counters.crashes += 1
            self.hooks.event("worker_crash", worker=slot_id, job=job.index)
            self._dispose(job, "crash", f"worker {slot_id} died: {exc}", pending, failures)
            self._respawn(slot_id)
            return
        # Any other exception is the transport's (a result that would not
        # pickle, say): the worker reports what the job itself raised.
        status, seconds, value = ("error", 0.0, _describe(exc)) if exc else job.future.result()
        if status == "done":
            outcomes[job.index] = JobOutcome(job.index, value, slot_id, job.attempt, seconds)
            self.counters.completed += 1
            self.hooks.event("job_done", job=job.index, attempt=job.attempt, worker=slot_id,
                             seconds=seconds)
        else:
            self.counters.errors += 1
            self.hooks.event("job_error", job=job.index, attempt=job.attempt, worker=slot_id)
            self._dispose(job, "error", value, pending, failures)

    def _dispose(self, job: _Job, reason: str, detail: str, pending: list,
                 failures: dict) -> None:
        """Retry (crash/timeout, budget left) or quarantine a failed job."""
        index, attempt = job.index, job.attempt
        if reason != "error" and attempt <= self.config.max_retries:
            delay = self.config.backoff_seconds * 2.0 ** (attempt - 1)
            pending.append((time.monotonic() + delay, index, attempt + 1))
            self.counters.retries += 1
            self.hooks.event("job_retry", job=index, attempt=attempt + 1, reason=reason)
        else:
            failures[index] = JobFailure(index, reason, attempt, detail)
            self.counters.quarantined += 1
            self.hooks.event("job_quarantined", job=index, attempts=attempt, reason=reason)

    def _collect_reports(self) -> tuple[WorkerReport, ...]:
        """One ``_flush`` per slot.  A slot still starting (a respawn near
        the end of the run) is waited for, so a short run on a slow
        machine still yields one lane per worker in the merged trace."""
        flushes = [_submit(slot.executor, _flush) for slot in self._slots]
        wait(flushes, timeout=_REPORT_SECONDS)
        return tuple(
            WorkerReport(slot_id, slot.ready.result(), *future.result())
            for slot_id, (slot, future) in enumerate(zip(self._slots, flushes))
            if future.done() and not future.exception()
        )
