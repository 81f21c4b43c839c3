"""The multi-process job scheduler: queue, retries, quarantine, merge.

:class:`ProcessScheduler` owns a persistent pool of worker *processes*
(slots ``0..workers-1``), each with a private task queue and a shared
result queue.  ``run(payloads)`` shards the payload list across the pool
and blocks until every job has a final disposition:

* **completed** — the worker returned a result; delivered as a
  :class:`JobOutcome`;
* **quarantined** — the job crashed/timed out more than ``max_retries``
  times, or raised a deterministic Python exception; delivered as a
  :class:`JobFailure` and *never* retried again (no crash loops).

Crash/timeout handling: a worker that dies (or exceeds the per-job
timeout and is killed) takes exactly one in-flight job with it; the
parent requeues that job with exponential backoff
(``backoff * 2**(attempt-1)``) and respawns the slot.  Python exceptions
raised by the payload are treated as deterministic and quarantine
immediately — retrying them would burn a worker generation per attempt
for the same traceback.

The merge is deterministic: outcomes are ordered by submission index
regardless of completion order, so a run with any worker count and any
interleaving produces the same result sequence.

Fault injection: ``REPRO_PARALLEL_CRASH_RATE`` (a probability) makes
workers ``os._exit`` before selected jobs.  The decision is a pure hash
of ``(REPRO_PARALLEL_CRASH_SEED, job index, attempt)`` — deterministic
across processes and runs, and different per attempt, so a retried job
eventually succeeds whenever the rate is below 1.  The parallel-stress
CI job runs the suite under a nonzero rate to prove the retry and
quarantine paths on a real runner.

Observability: every worker owns a private
:class:`~repro.obs.trace.TraceRecorder` and
:class:`~repro.obs.metrics.MetricsRegistry`; after each run the parent
collects per-worker reports (span/event records + a metrics snapshot)
which :mod:`repro.parallel.merge` folds into one Chrome trace with one
lane per worker and one aggregated metrics snapshot.  Parent-side
scheduling decisions surface as events on the caller's
:class:`~repro.obs.hooks.ObservationHooks` and as
:class:`~repro.runtime.counters.SchedulerCounters`.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback as traceback_mod
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from queue import Empty
from typing import Any, Callable, Sequence

from repro.errors import ParallelError
from repro.obs.hooks import NULL_HOOKS, ObservationHooks, TraceHooks
from repro.obs.metrics import MetricsRegistry
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

#: How long the parent poll loop blocks on the result queue per sweep.
_POLL_SECONDS = 0.02

#: Consecutive worker deaths with no job in flight tolerated per slot
#: before the pool is declared broken (guards against init crash loops).
_MAX_IDLE_DEATHS = 3


def _crash_rate() -> float:
    try:
        return float(os.environ.get(CRASH_RATE_ENV, "0") or "0")
    except ValueError:
        return 0.0


def _should_crash(index: int, attempt: int, rate: float) -> bool:
    """Deterministic fault-injection decision (same on every platform)."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    seed = os.environ.get(CRASH_SEED_ENV, "0")
    digest = hashlib.sha256(f"{seed}:{index}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 < rate


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
    inline_order_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ParallelError("scheduler needs at least one worker")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ParallelError("timeout_seconds must be positive (or None)")
        if self.max_retries < 0:
            raise ParallelError("max_retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ParallelError("backoff_seconds must be >= 0")
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

    @property
    def results(self) -> list:
        """Completed job results, ordered by submission index."""
        return [o.result for o in self.outcomes]


@dataclass
class _Slot:
    """Parent-side bookkeeping of one worker slot."""

    proc: Any = None
    task_q: Any = None
    ready: bool = False
    inflight: tuple[int, int, float] | None = None  # (index, attempt, t_assigned)
    jobs_done: int = 0
    idle_deaths: int = 0
    report: WorkerReport | None = None


def _start_worker(
    slot: int, trace_enabled: bool, init_fn: Callable, init_args: tuple
) -> tuple[WorkerContext, Any]:
    """A worker's local sinks and its state.  Gauge ``init_seconds`` is
    what ``init_fn`` took: the fixed cost every worker start — and every
    respawn after a crash — pays before its first job."""
    recorder = TraceRecorder(enabled=trace_enabled)
    ctx = WorkerContext(
        worker=slot, recorder=recorder, metrics=MetricsRegistry(), hooks=TraceHooks(recorder)
    )
    t0 = time.perf_counter()
    state = init_fn(ctx, *init_args)
    ctx.metrics.gauge("init_seconds").set(time.perf_counter() - t0)
    return ctx, state


# ---------------------------------------------------------------------------
# Worker process body (module level: picklable under spawn)
# ---------------------------------------------------------------------------
def _worker_main(
    slot: int,
    task_q,
    result_q,
    init_fn: Callable,
    init_args: tuple,
    worker_fn: Callable,
    trace_enabled: bool,
) -> None:  # pragma: no cover - exercised in subprocesses
    ctx, state = _start_worker(slot, trace_enabled, init_fn, init_args)
    recorder, metrics = ctx.recorder, ctx.metrics
    rate = _crash_rate()
    jobs_done = 0
    result_q.put(("ready", slot))
    while True:
        msg = task_q.get()
        kind = msg[0]
        if kind == "stop":
            result_q.put(("bye", slot))
            return
        if kind == "flush":
            result_q.put(
                (
                    "report",
                    slot,
                    {
                        "pid": os.getpid(),
                        "jobs_done": jobs_done,
                        "records": [r.to_dict() for r in recorder.records],
                        "metrics": metrics.to_dict(),
                    },
                )
            )
            if recorder.enabled:
                recorder.reset()  # next run reports only its own spans
            continue
        _, index, attempt, payload = msg
        if _should_crash(index, attempt, rate):
            # Flush the queue feeder first: dying while it holds the
            # shared queue's write lock mid-message would wedge every
            # other worker's put() forever.  Real crashes originate in
            # user code with an idle feeder, so they don't hit this
            # window; the injected one is timed to, deliberately.
            result_q.close()
            result_q.join_thread()
            os._exit(_CRASH_EXIT)
        t0 = time.perf_counter()
        try:
            with ctx.hooks.region("job", job=index, attempt=attempt, worker=slot):
                result = worker_fn(state, payload)
        except Exception as exc:
            metrics.counter("jobs_failed").inc()
            result_q.put(
                (
                    "error",
                    slot,
                    index,
                    attempt,
                    time.perf_counter() - t0,
                    f"{type(exc).__name__}: {exc}\n{traceback_mod.format_exc()}",
                )
            )
        else:
            elapsed = time.perf_counter() - t0
            metrics.histogram("job_seconds").observe(elapsed)
            metrics.counter("jobs_completed").inc()
            result_q.put(("done", slot, index, attempt, elapsed, result))
        jobs_done += 1


class _SimulatedCrash(Exception):
    """Inline-transport stand-in for a worker death (fault injection)."""


class ProcessScheduler:
    """A persistent, crash-tolerant pool executing ``worker_fn`` on jobs.

    Parameters
    ----------
    init_fn, init_args:
        ``init_fn(ctx, *init_args)`` runs once per worker *process* (and
        once more after each respawn) and returns the worker state —
        for reconstructions, the worker-local
        :class:`~repro.batch.engine.BatchFitEngine` attached to the
        shared table arena.  Must be a module-level callable with
        picklable arguments (``spawn`` compatibility).
    worker_fn:
        ``worker_fn(state, payload) -> result`` executes one job.
    hooks:
        Parent-side observation hooks; scheduling decisions emit events
        here, and ``hooks.enabled`` switches worker-side tracing on.
    """

    def __init__(
        self,
        init_fn: Callable,
        init_args: tuple = (),
        worker_fn: Callable | None = None,
        *,
        config: SchedulerConfig | None = None,
        hooks: ObservationHooks | None = None,
    ) -> None:
        if worker_fn is None:
            raise ParallelError("scheduler needs a worker_fn")
        self.config = config if config is not None else SchedulerConfig()
        self.hooks = hooks if hooks is not None else NULL_HOOKS
        self.counters = SchedulerCounters()
        self._init_fn = init_fn
        self._init_args = init_args
        self._worker_fn = worker_fn
        self._slots: list[_Slot] = []
        self._closed = False
        self._started = False
        if self.config.transport == "process":
            method = self.config.start_method
            if method is None:
                method = "fork" if "fork" in get_all_start_methods() else "spawn"
            self._ctx = get_context(method)
            self._result_q = self._ctx.Queue()
        else:
            self._ctx = None
            self._result_q = None
            self._inline_states: dict[int, Any] = {}
            self._inline_ctxs: dict[int, WorkerContext] = {}

    # -- pool lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Spawn the pool (idempotent; ``run`` calls it on first use)."""
        if self._closed:
            raise ParallelError("scheduler already closed")
        if self._started:
            return
        self._started = True
        if self.config.transport == "process":
            self._slots = [_Slot() for _ in range(self.config.workers)]
            for slot_id in range(self.config.workers):
                self._spawn(slot_id)
        else:
            self._slots = [_Slot(ready=True) for _ in range(self.config.workers)]

    def _spawn(self, slot_id: int) -> None:
        slot = self._slots[slot_id]
        slot.task_q = self._ctx.Queue()
        slot.ready = False
        slot.inflight = None
        slot.proc = self._ctx.Process(
            target=_worker_main,
            args=(
                slot_id,
                slot.task_q,
                self._result_q,
                self._init_fn,
                self._init_args,
                self._worker_fn,
                bool(self.hooks.enabled),
            ),
            name=f"repro-pfleet-{slot_id}",
            daemon=True,
        )
        slot.proc.start()

    def _respawn(self, slot_id: int) -> None:
        self.counters.worker_restarts += 1
        self.hooks.event("worker_restart", worker=slot_id)
        slot = self._slots[slot_id]
        if slot.proc is not None and slot.proc.is_alive():  # timeout path
            slot.proc.kill()
            slot.proc.join()
        self._spawn(slot_id)

    def close(self) -> None:
        """Stop every worker and join (idempotent)."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        if self.config.transport != "process":
            return
        for slot in self._slots:
            if slot.proc is not None and slot.proc.is_alive():
                try:
                    slot.task_q.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - dying pool
                    pass
        deadline = time.monotonic() + 5.0
        for slot in self._slots:
            if slot.proc is not None:
                slot.proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if slot.proc.is_alive():  # pragma: no cover - hung worker
                    slot.proc.kill()
                    slot.proc.join()

    def __enter__(self) -> "ProcessScheduler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- the run loop --------------------------------------------------------------
    def run(self, payloads: Sequence[Any]) -> ScheduleResult:
        """Execute one job per payload; block until all are disposed of."""
        if self._closed:
            raise ParallelError("scheduler already closed")
        payloads = list(payloads)
        if not payloads:
            raise ParallelError("run() needs at least one payload")
        self.start()
        t0 = time.perf_counter()
        self.counters.submitted += len(payloads)
        self.hooks.event(
            "schedule_run_start", n_jobs=len(payloads), workers=self.config.workers
        )
        if self.config.transport == "inline":
            result = self._run_inline(payloads, t0)
        else:
            result = self._run_processes(payloads, t0)
        self.hooks.event(
            "schedule_run_end",
            completed=len(result.outcomes),
            quarantined=len(result.failures),
            wall_seconds=result.wall_seconds,
        )
        return result

    def _dispose(
        self,
        index: int,
        attempt: int,
        reason: str,
        detail: str,
        pending: deque,
        failures: dict[int, JobFailure],
        payloads: list,
        outcomes: dict[int, JobOutcome] | None = None,
    ) -> None:
        """Retry (crash/timeout, budget left) or quarantine a failed job."""
        if outcomes is not None and index in outcomes:
            # The worker flushed this job's result and then died before
            # the next assignment: the completion already landed, so the
            # death takes no job with it.
            return
        retryable = reason in ("crash", "timeout")
        if retryable and attempt <= self.config.max_retries:
            delay = self.config.backoff_seconds * 2.0 ** (attempt - 1)
            pending.append((time.monotonic() + delay, index, attempt + 1))
            self.counters.retries += 1
            self.hooks.event(
                "job_retry", job=index, attempt=attempt + 1, reason=reason
            )
        else:
            failures[index] = JobFailure(
                index=index, reason=reason, attempts=attempt, detail=detail
            )
            self.counters.quarantined += 1
            self.hooks.event(
                "job_quarantined", job=index, attempts=attempt, reason=reason
            )

    def _run_processes(self, payloads: list, t0: float) -> ScheduleResult:
        cfg = self.config
        n = len(payloads)
        #: (ready_time, index, attempt) — backoff delays live here.
        pending: deque = deque((0.0, i, 1) for i in range(n))
        outcomes: dict[int, JobOutcome] = {}
        failures: dict[int, JobFailure] = {}
        while len(outcomes) + len(failures) < n:
            now = time.monotonic()
            # Assign ready jobs to ready idle workers.
            for slot_id, slot in enumerate(self._slots):
                if not pending:
                    break
                if slot.ready and slot.inflight is None:
                    # Pull the first pending entry whose backoff elapsed.
                    for _ in range(len(pending)):
                        ready_at, index, attempt = pending[0]
                        if ready_at <= now:
                            pending.popleft()
                            slot.inflight = (index, attempt, time.monotonic())
                            slot.task_q.put(("job", index, attempt, payloads[index]))
                            self.hooks.event(
                                "job_assigned", job=index, attempt=attempt, worker=slot_id
                            )
                            break
                        pending.rotate(-1)
            # Drain worker messages.
            try:
                msg = self._result_q.get(timeout=_POLL_SECONDS)
            except Empty:
                msg = None
            while msg is not None:
                self._handle_message(msg, outcomes, failures, pending, payloads, t0)
                try:
                    msg = self._result_q.get_nowait()
                except Empty:
                    msg = None
            # Detect deaths and timeouts.
            now = time.monotonic()
            for slot_id, slot in enumerate(self._slots):
                if slot.proc is None:
                    continue
                if not slot.proc.is_alive():
                    self._on_death(slot_id, pending, failures, payloads, outcomes)
                elif (
                    slot.inflight is not None
                    and cfg.timeout_seconds is not None
                    and slot.ready
                    and now - slot.inflight[2] > cfg.timeout_seconds
                ):
                    index, attempt, _ = slot.inflight
                    slot.inflight = None
                    self.counters.timeouts += 1
                    self.hooks.event(
                        "job_timeout", job=index, attempt=attempt, worker=slot_id
                    )
                    self._dispose(
                        index,
                        attempt,
                        "timeout",
                        f"exceeded {cfg.timeout_seconds}s on worker {slot_id}",
                        pending,
                        failures,
                        payloads,
                    )
                    self._respawn(slot_id)
        reports = self._collect_reports()
        return ScheduleResult(
            outcomes=tuple(outcomes[i] for i in sorted(outcomes)),
            failures=tuple(failures[i] for i in sorted(failures)),
            reports=reports,
            counters=self.counters.snapshot(),
            wall_seconds=time.perf_counter() - t0,
        )

    def _handle_message(
        self,
        msg: tuple,
        outcomes: dict[int, JobOutcome],
        failures: dict[int, JobFailure],
        pending: deque,
        payloads: list,
        t0: float,
    ) -> None:
        kind = msg[0]
        if kind == "ready":
            slot = self._slots[msg[1]]
            slot.ready = True
            slot.idle_deaths = 0
        elif kind == "done":
            _, slot_id, index, attempt, seconds, result = msg
            slot = self._slots[slot_id]
            slot.inflight = None
            slot.jobs_done += 1
            if index in outcomes:  # retried after a stale completion
                return
            outcomes[index] = JobOutcome(
                index=index,
                result=result,
                worker=slot_id,
                attempts=attempt,
                seconds=seconds,
            )
            self.counters.completed += 1
            self.hooks.event(
                "job_done", job=index, attempt=attempt, worker=slot_id, seconds=seconds
            )
        elif kind == "error":
            _, slot_id, index, attempt, _seconds, detail = msg
            self._slots[slot_id].inflight = None
            self.counters.errors += 1
            self.hooks.event("job_error", job=index, attempt=attempt, worker=slot_id)
            self._dispose(index, attempt, "error", detail, pending, failures, payloads)
        elif kind == "report":
            _, slot_id, payload = msg
            self._slots[slot_id].report = WorkerReport(
                worker=slot_id,
                pid=payload["pid"],
                jobs_done=payload["jobs_done"],
                records=tuple(payload["records"]),
                metrics=payload["metrics"],
            )
        # "bye" needs no action: close() joins the process.

    def _on_death(
        self,
        slot_id: int,
        pending: deque,
        failures: dict[int, JobFailure],
        payloads: list,
        outcomes: dict[int, JobOutcome],
    ) -> None:
        slot = self._slots[slot_id]
        exitcode = slot.proc.exitcode
        if slot.inflight is not None:
            index, attempt, _ = slot.inflight
            slot.inflight = None
            self.counters.crashes += 1
            self.hooks.event(
                "worker_crash", worker=slot_id, job=index, exitcode=exitcode
            )
            self._dispose(
                index,
                attempt,
                "crash",
                f"worker {slot_id} died with exit code {exitcode}",
                pending,
                failures,
                payloads,
                outcomes,
            )
        else:
            slot.idle_deaths += 1
            if slot.idle_deaths >= _MAX_IDLE_DEATHS:
                raise ParallelError(
                    f"worker slot {slot_id} died {slot.idle_deaths} times during "
                    f"initialisation (last exit code {exitcode}) — pool is broken"
                )
        self._respawn(slot_id)

    def _collect_reports(self) -> tuple[WorkerReport, ...]:
        """Flush every live worker and gather its observability report.

        Workers still initialising (spawned but not yet "ready") are
        waited for, so a short run on a slow machine still yields one
        lane per worker in the merged trace."""
        awaiting_flush: set[int] = set()
        awaiting_ready: set[int] = set()
        for slot_id, slot in enumerate(self._slots):
            slot.report = None
            if slot.proc is not None and slot.proc.is_alive():
                if slot.ready:
                    slot.task_q.put(("flush",))
                    awaiting_flush.add(slot_id)
                else:
                    awaiting_ready.add(slot_id)
        deadline = time.monotonic() + 10.0
        while (awaiting_flush or awaiting_ready) and time.monotonic() < deadline:
            try:
                msg = self._result_q.get(timeout=_POLL_SECONDS)
            except Empty:
                for slot_id in list(awaiting_ready | awaiting_flush):
                    proc = self._slots[slot_id].proc
                    if proc is None or not proc.is_alive():  # died mid-flush
                        awaiting_ready.discard(slot_id)
                        awaiting_flush.discard(slot_id)
                continue
            if msg[0] == "report":
                self._handle_message(msg, {}, {}, deque(), [], 0.0)
                awaiting_flush.discard(msg[1])
            elif msg[0] == "ready":
                self._slots[msg[1]].ready = True
                if msg[1] in awaiting_ready:
                    awaiting_ready.discard(msg[1])
                    self._slots[msg[1]].task_q.put(("flush",))
                    awaiting_flush.add(msg[1])
        return tuple(s.report for s in self._slots if s.report is not None)

    # -- inline transport ----------------------------------------------------------
    def _inline_state(self, slot_id: int):
        state = self._inline_states.get(slot_id)
        if state is None:
            self._inline_ctxs[slot_id], state = _start_worker(
                slot_id, bool(self.hooks.enabled), self._init_fn, self._init_args
            )
            self._inline_states[slot_id] = state
        return state

    def _run_inline(self, payloads: list, t0: float) -> ScheduleResult:
        """In-parent execution with the same retry/quarantine semantics.

        Jobs are assigned round-robin to worker slots; a fault-injected
        "crash" raises internally and follows the process path's retry
        logic.  Completion order is deliberately scrambled by
        ``inline_order_seed`` before the merge, so tests can assert the
        merge is order-independent without forking."""
        rate = _crash_rate()
        pending: deque = deque((0.0, i, 1) for i in range(len(payloads)))
        completed: list[JobOutcome] = []
        failures: dict[int, JobFailure] = {}
        while pending:
            _, index, attempt = pending.popleft()
            slot_id = index % self.config.workers
            state = self._inline_state(slot_id)
            ctx = self._inline_ctxs[slot_id]
            t_job = time.perf_counter()
            try:
                if _should_crash(index, attempt, rate):
                    raise _SimulatedCrash(f"injected crash (attempt {attempt})")
                with ctx.hooks.region("job", job=index, attempt=attempt, worker=slot_id):
                    result = self._worker_fn(state, payloads[index])
            except _SimulatedCrash as exc:
                self.counters.crashes += 1
                self.hooks.event("worker_crash", worker=slot_id, job=index)
                self._dispose(
                    index, attempt, "crash", str(exc), pending, failures, payloads
                )
            except Exception as exc:
                ctx.metrics.counter("jobs_failed").inc()
                self.counters.errors += 1
                self.hooks.event("job_error", job=index, attempt=attempt, worker=slot_id)
                self._dispose(
                    index,
                    attempt,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    pending,
                    failures,
                    payloads,
                )
            else:
                elapsed = time.perf_counter() - t_job
                ctx.metrics.histogram("job_seconds").observe(elapsed)
                ctx.metrics.counter("jobs_completed").inc()
                self._slots[slot_id].jobs_done += 1
                completed.append(
                    JobOutcome(
                        index=index,
                        result=result,
                        worker=slot_id,
                        attempts=attempt,
                        seconds=elapsed,
                    )
                )
                self.counters.completed += 1
        # Scramble completion order deterministically, then merge: the
        # result must not depend on this permutation.
        import random

        shuffled = completed[:]
        random.Random(self.config.inline_order_seed).shuffle(shuffled)
        merged = {o.index: o for o in shuffled}
        reports = tuple(
            WorkerReport(
                worker=slot_id,
                pid=os.getpid(),
                jobs_done=self._slots[slot_id].jobs_done,
                records=tuple(
                    r.to_dict() for r in self._inline_ctxs[slot_id].recorder.records
                ),
                metrics=self._inline_ctxs[slot_id].metrics.to_dict(),
            )
            for slot_id in sorted(self._inline_ctxs)
        )
        for ctx in self._inline_ctxs.values():
            if ctx.recorder.enabled:
                ctx.recorder.reset()
        return ScheduleResult(
            outcomes=tuple(merged[i] for i in sorted(merged)),
            failures=tuple(failures[i] for i in sorted(failures)),
            reports=reports,
            counters=self.counters.snapshot(),
            wall_seconds=time.perf_counter() - t0,
        )
