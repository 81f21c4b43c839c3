"""Tests of the concurrency-lifecycle rules.

Two rules remain: a lambda or nested function in a worker constructor's
arguments, and ``os._exit`` before a fed queue is flushed.  The three
that policed the arena's close/unlink order went with that order in
PR 24 (``tests/parallel/test_arena.py::TestViewsOutliveTheArena`` holds
the property that replaced them).
"""

import pytest

from repro.analysis.engine import analyze_lifecycle
from repro.analysis.lifecycle import (
    RULE_EXIT_FLUSH,
    RULE_FORK_CAPTURE,
    scan_lifecycle_source,
)


def _scan_fn(body: str, *, module="m") -> list:
    lines = "\n".join("    " + ln for ln in body.strip("\n").splitlines())
    return scan_lifecycle_source(f"def f(ctx, spec, work_q):\n{lines}\n", module)


class TestForkUnsafeCapture:
    def test_lambda_worker_arg(self):
        findings = _scan_fn(
            """
return ProcessScheduler(lambda spec: None, n_workers=2)
"""
        )
        assert [f.rule_id for f in findings] == [RULE_FORK_CAPTURE]
        assert findings[0].detail == "ProcessScheduler:lambda"

    def test_nested_function_worker_arg(self):
        findings = _scan_fn(
            """
def init(spec):
    return None
return ProcessScheduler(init, n_workers=2)
"""
        )
        assert [f.rule_id for f in findings] == [RULE_FORK_CAPTURE]
        assert "init" in findings[0].message

    def test_passing_the_spec_is_the_blessed_idiom(self):
        """Picklable data in the arguments is not flagged."""
        findings = _scan_fn(
            """
arena = manager.acquire(grid)
p = ctx.Process(target=work, args=(arena.spec,))
return arena, p
"""
        )
        assert [f.rule_id for f in findings] == []


class TestExitBeforeFlush:
    def test_exit_with_unflushed_queue(self):
        findings = _scan_fn(
            """
work_q.put(result)
os._exit(9)
"""
        )
        assert [f.rule_id for f in findings] == [RULE_EXIT_FLUSH]
        assert findings[0].detail == "exit:work_q"

    def test_close_alone_is_not_enough(self):
        findings = _scan_fn(
            """
work_q.put(result)
work_q.close()
os._exit(9)
"""
        )
        assert [f.rule_id for f in findings] == [RULE_EXIT_FLUSH]

    def test_the_worker_main_sequence_is_clean(self):
        """The fault-injection path in _worker_main, minimised."""
        findings = _scan_fn(
            """
work_q.put(result)
work_q.close()
work_q.join_thread()
os._exit(9)
"""
        )
        assert findings == []


class TestCleanTree:
    def test_repo_lifecycle_pass_is_clean(self):
        """Acceptance criterion: the real parallel layer produces zero
        lifecycle findings."""
        assert analyze_lifecycle() == []

    def test_syntax_error_raises_analysis_error(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            scan_lifecycle_source("def f(:\n", "m")
