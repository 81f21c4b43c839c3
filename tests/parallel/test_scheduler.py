"""The process scheduler: dispatch, retries, timeouts, quarantine.

Worker callables live at module level so they pickle under every start
method.  The fault-injection tests drive the *real* crash path (workers
``os._exit`` mid-run) through the documented environment variables —
the same mechanism the parallel-stress CI job uses.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import ParallelError
from repro.obs import NullHooks, TraceHooks, TraceRecorder
from repro.parallel import (
    CRASH_RATE_ENV,
    CRASH_SEED_ENV,
    ProcessScheduler,
    SchedulerConfig,
)
from repro.parallel.merge import merge_metrics, merged_chrome_trace
from repro.parallel.scheduler import _should_crash


def _init(ctx):
    return {"worker": ctx.worker, "ctx": ctx}


def _double(state, payload):
    return payload * 2


def _traced_double(state, payload):
    ctx = state["ctx"]
    with ctx.hooks.region("work", payload=payload):
        return payload * 2


def _sleepy(state, payload):
    if payload == "slow":
        time.sleep(30.0)
    return payload


def _flaky(state, payload):
    if payload == "bad":
        raise ValueError("deterministic failure")
    return payload


def _init_fails(ctx):
    raise FileNotFoundError("no tables here")


class _InterruptOnAssign(NullHooks):
    """Raises out of the run loop once job 1 is on a worker."""

    def event(self, name, **attributes):
        if name == "job_assigned" and attributes["job"] == 1:
            raise RuntimeError("interrupted")


@pytest.fixture()
def no_crash_env(monkeypatch):
    monkeypatch.delenv(CRASH_RATE_ENV, raising=False)
    monkeypatch.delenv(CRASH_SEED_ENV, raising=False)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"timeout_seconds": 0.0},
            {"max_retries": -1},
            {"backoff_seconds": -0.1},
            {"transport": "carrier-pigeon"},
            # not a bare ValueError out of get_context, after an engine
            # already holds an arena
            {"start_method": "bogus"},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ParallelError):
            SchedulerConfig(**kwargs)

    def test_missing_worker_fn_rejected(self):
        with pytest.raises(ParallelError):
            ProcessScheduler(_init, ())

    def test_empty_run_rejected(self, no_crash_env):
        sched = ProcessScheduler(
            _init, (), _double, config=SchedulerConfig(workers=1, transport="inline")
        )
        with pytest.raises(ParallelError):
            sched.run([])

    def test_run_after_close_rejected(self, no_crash_env):
        sched = ProcessScheduler(
            _init, (), _double, config=SchedulerConfig(workers=1, transport="inline")
        )
        sched.close()
        with pytest.raises(ParallelError):
            sched.run([1])

    @pytest.mark.parametrize("transport", ["process", "inline"])
    def test_lambda_init_fn_refused(self, transport):
        with pytest.raises(ParallelError, match="must pickle"):
            ProcessScheduler(
                lambda ctx: None, (), _double, config=SchedulerConfig(transport=transport)
            )

    @pytest.mark.parametrize("transport", ["process", "inline"])
    def test_nested_worker_fn_refused(self, transport):
        def work(state, payload):
            return payload

        with pytest.raises(ParallelError, match="must pickle"):
            ProcessScheduler(_init, (), work, config=SchedulerConfig(transport=transport))


class TestInitFailure:
    @pytest.mark.parametrize("transport", ["process", "inline"])
    def test_every_job_quarantines_as_an_error(self, no_crash_env, transport):
        """A raising ``init_fn`` is deterministic: each job fails once with
        its traceback, and no worker is respawned to fail again."""
        with ProcessScheduler(
            _init_fails,
            (),
            _double,
            config=SchedulerConfig(workers=2, transport=transport),
        ) as sched:
            result = sched.run([1, 2, 3])
        assert result.results == []
        assert [f.index for f in result.failures] == [0, 1, 2]
        for failure in result.failures:
            assert failure.reason == "error" and failure.attempts == 1
            assert "FileNotFoundError: no tables here" in failure.detail
            assert "_init_fails" in failure.detail  # the init traceback
        assert result.counters.errors == 3
        assert result.counters.retries == 0
        assert result.counters.worker_restarts == 0


class TestNoWorkerOutlivesItsScheduler:
    """After ``close()`` no pool process is left, however the run ended."""

    @staticmethod
    def _run_then_close(worker_fn, payloads, hooks=None, **config):
        before = set(multiprocessing.active_children())
        sched = ProcessScheduler(
            _init, (), worker_fn, config=SchedulerConfig(**config), hooks=hooks
        )
        try:
            return sched.run(payloads)
        finally:
            sched.close()
            leftover = set(multiprocessing.active_children()) - before
            assert not leftover, leftover

    def test_after_a_clean_run(self, no_crash_env):
        result = self._run_then_close(_double, [1, 2, 3], workers=2)
        assert result.results == [2, 4, 6]

    def test_after_a_timeout_kill(self, no_crash_env):
        result = self._run_then_close(
            _sleepy, ["a", "slow"], workers=2, timeout_seconds=0.3, max_retries=0
        )
        assert result.counters.timeouts == 1

    def test_after_injected_crashes(self, monkeypatch):
        monkeypatch.setenv(CRASH_RATE_ENV, "0.5")
        monkeypatch.setenv(CRASH_SEED_ENV, "7")
        result = self._run_then_close(
            _double, list(range(8)), workers=2, max_retries=6, backoff_seconds=0.01
        )
        assert result.counters.crashes > 0

    def test_after_an_interrupted_run(self, no_crash_env):
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="interrupted"):
            self._run_then_close(
                _sleepy, ["a", "slow"], hooks=_InterruptOnAssign(), workers=2
            )
        assert time.monotonic() - t0 < 10.0  # the busy worker was killed


class TestCrashDecision:
    def test_deterministic_and_attempt_dependent(self, monkeypatch):
        monkeypatch.setenv(CRASH_SEED_ENV, "42")
        first = [_should_crash(i, 1, 0.5) for i in range(64)]
        assert first == [_should_crash(i, 1, 0.5) for i in range(64)]
        assert first != [_should_crash(i, 2, 0.5) for i in range(64)]
        assert any(first) and not all(first)

    def test_rate_extremes(self):
        assert not _should_crash(0, 1, 0.0)
        assert _should_crash(0, 1, 1.0)


class TestProcessTransport:
    def test_results_ordered_by_submission(self, no_crash_env):
        with ProcessScheduler(
            _init, (), _double, config=SchedulerConfig(workers=2)
        ) as sched:
            result = sched.run(list(range(12)))
        assert result.results == [2 * i for i in range(12)]
        assert [o.index for o in result.outcomes] == list(range(12))
        assert result.counters.completed == 12
        assert result.counters.quarantined == 0

    def test_pool_persists_across_runs(self, no_crash_env):
        with ProcessScheduler(
            _init, (), _double, config=SchedulerConfig(workers=2)
        ) as sched:
            first = sched.run([1, 2, 3])
            pids = {r.pid for r in first.reports}
            second = sched.run([4, 5])
            assert second.results == [8, 10]
            assert {r.pid for r in second.reports} == pids  # no respawn

    def test_error_quarantines_without_retry(self, no_crash_env):
        with ProcessScheduler(
            _init, (), _flaky, config=SchedulerConfig(workers=2, max_retries=3)
        ) as sched:
            result = sched.run(["a", "bad", "b"])
        assert result.results == ["a", "b"]
        (failure,) = result.failures
        assert failure.reason == "error"
        assert failure.attempts == 1  # deterministic: no retry burned
        assert "deterministic failure" in failure.detail
        assert result.counters.errors == 1
        assert result.counters.quarantined == 1
        assert result.counters.retries == 0

    def test_timeout_kills_and_quarantines(self, no_crash_env):
        with ProcessScheduler(
            _init,
            (),
            _sleepy,
            config=SchedulerConfig(
                workers=2, timeout_seconds=0.5, max_retries=1, backoff_seconds=0.01
            ),
        ) as sched:
            result = sched.run(["a", "slow", "b"])
        assert result.results == ["a", "b"]
        (failure,) = result.failures
        assert failure.reason == "timeout"
        assert failure.attempts == 2  # initial + one retry
        assert result.counters.timeouts == 2
        assert result.counters.worker_restarts >= 2

    def test_injected_crashes_recovered_by_retry(self, monkeypatch):
        monkeypatch.setenv(CRASH_RATE_ENV, "0.5")
        monkeypatch.setenv(CRASH_SEED_ENV, "7")
        with ProcessScheduler(
            _init,
            (),
            _double,
            config=SchedulerConfig(workers=2, max_retries=6, backoff_seconds=0.01),
        ) as sched:
            result = sched.run(list(range(8)))
        assert result.results == [2 * i for i in range(8)]
        assert result.counters.crashes > 0
        assert result.counters.retries == result.counters.crashes
        assert result.counters.worker_restarts == result.counters.crashes
        assert result.counters.quarantined == 0

    def test_certain_crash_quarantines(self, monkeypatch):
        monkeypatch.setenv(CRASH_RATE_ENV, "1.0")
        with ProcessScheduler(
            _init,
            (),
            _double,
            config=SchedulerConfig(workers=2, max_retries=1, backoff_seconds=0.01),
        ) as sched:
            result = sched.run([1, 2])
        assert result.results == []
        assert len(result.failures) == 2
        assert all(f.reason == "crash" and f.attempts == 2 for f in result.failures)
        # Quarantine bounds the damage: 2 jobs x 2 attempts, no crash loop.
        assert result.counters.crashes == 4

    def test_worker_reports_and_merged_artifacts(self, no_crash_env):
        recorder = TraceRecorder()
        with ProcessScheduler(
            _init,
            (),
            _traced_double,
            config=SchedulerConfig(workers=2),
            hooks=TraceHooks(recorder),
        ) as sched:
            result = sched.run(list(range(6)))
        assert sum(r.jobs_done for r in result.reports) == 6
        # Every worker traced its own job spans ("job" wrapping "work").
        for report in result.reports:
            names = {r["name"] for r in report.records if r["kind"] == "span"}
            if report.jobs_done:
                assert {"job", "work"} <= names
        trace = merged_chrome_trace(result.reports, parent=recorder)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {0, 1, 2}  # parent lane + one lane per worker
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert any("worker 0" in lane for lane in lanes)
        assert any("worker 1" in lane for lane in lanes)
        # Parent lane carries the scheduling events.
        parent_events = {
            e["name"] for e in trace["traceEvents"] if e["pid"] == 0 and e["ph"] == "i"
        }
        assert "job_assigned" in parent_events and "job_done" in parent_events
        merged = merge_metrics(result.reports)
        assert merged["workers"] == 2
        assert merged["metrics"]["jobs_completed"] == 6.0
        assert merged["metrics"]["job_seconds"]["count"] == 6
        # What each worker's start cost rides in its report; merged, the sum.
        starts = [r.metrics["metrics"]["init_seconds"] for r in result.reports]
        assert all(s >= 0.0 for s in starts)
        assert merged["metrics"]["init_seconds"] == pytest.approx(sum(starts))

    def test_flush_resets_worker_recorders(self, no_crash_env):
        recorder = TraceRecorder()
        with ProcessScheduler(
            _init,
            (),
            _traced_double,
            config=SchedulerConfig(workers=1),
            hooks=TraceHooks(recorder),
        ) as sched:
            first = sched.run([1, 2, 3])
            second = sched.run([4])
        assert sum(len(r.records) for r in first.reports) >= 3
        # Second run's report holds only its own spans, not run one's.
        job_spans = [
            r
            for rep in second.reports
            for r in rep.records
            if r["kind"] == "span" and r["name"] == "job"
        ]
        assert len(job_spans) == 1


class TestInlineTransport:
    def test_matches_process_semantics(self, no_crash_env):
        sched = ProcessScheduler(
            _init,
            (),
            _double,
            config=SchedulerConfig(workers=3, transport="inline"),
        )
        result = sched.run(list(range(10)))
        assert result.results == [2 * i for i in range(10)]
        assert [o.index for o in result.outcomes] == list(range(10))
        sched.close()

    def test_simulated_crash_retries(self, monkeypatch):
        monkeypatch.setenv(CRASH_RATE_ENV, "0.5")
        monkeypatch.setenv(CRASH_SEED_ENV, "3")
        sched = ProcessScheduler(
            _init,
            (),
            _double,
            config=SchedulerConfig(
                workers=2, transport="inline", max_retries=8, backoff_seconds=0.0
            ),
        )
        result = sched.run(list(range(8)))
        assert result.results == [2 * i for i in range(8)]
        assert result.counters.crashes > 0
        sched.close()

    def test_inline_reports_cover_slots(self, no_crash_env):
        sched = ProcessScheduler(
            _init,
            (),
            _double,
            config=SchedulerConfig(workers=2, transport="inline"),
        )
        result = sched.run(list(range(4)))
        assert {r.worker for r in result.reports} == {0, 1}
        assert all(r.pid == os.getpid() for r in result.reports)
        assert all(r.metrics["metrics"]["init_seconds"] >= 0.0 for r in result.reports)
        sched.close()
