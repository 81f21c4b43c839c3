"""Tests of the concurrency-lifecycle rules.

The central regression test reintroduces the PR 4 use-after-unmap —
``ParallelFitEngine.close()`` releasing the arena while the seeded table
cache still holds views — and pins that the checker reports
``lifecycle-use-after-unlink`` with a stable fingerprint.
"""

import pytest

from repro.analysis.engine import analyze_lifecycle
from repro.analysis.findings import Severity
from repro.analysis.lifecycle import (
    RULE_ATTACH_BEFORE_SEED,
    RULE_EXIT_FLUSH,
    RULE_FORK_CAPTURE,
    RULE_MISSING_DROP,
    RULE_USE_AFTER_UNLINK,
    scan_lifecycle_source,
)

#: The PR 4 engine, minimised: the worker initialiser seeds the
#: process-global cache with arena views, and close() releases the arena
#: WITHOUT dropping the cache first — the seeded views outlive the
#: mapping and the next table lookup reads unmapped pages.
PR4_ENGINE = """
from repro.efit.tables import boundary_table_cache
from repro.parallel.arena import arena_manager


def _init_fit_worker(spec):
    arena = attach_arena(spec)
    boundary_table_cache().seed(arena.tables())
    return {"arena": arena, "engine": BatchFitEngine(spec.grid())}


class ParallelFitEngine:
    def close(self):
        self._manager.release(self.grid)
"""

#: The same engine with the fix PR 4 shipped after the segfault: drop
#: the cache entry before releasing the mapping.
PR4_ENGINE_FIXED = """
from repro.efit.tables import boundary_table_cache
from repro.parallel.arena import arena_manager


def _init_fit_worker(spec):
    arena = attach_arena(spec)
    boundary_table_cache().seed(arena.tables())
    return {"arena": arena, "engine": BatchFitEngine(spec.grid())}


class ParallelFitEngine:
    def close(self):
        boundary_table_cache().drop(self.grid)
        self._manager.release(self.grid)
"""


class TestPr4Regression:
    def test_reintroduced_use_after_unmap_is_detected(self):
        """Acceptance criterion: the PR 4 segfault, caught statically."""
        findings = scan_lifecycle_source(PR4_ENGINE, "repro.parallel.engine")
        by_rule = {f.rule_id: f for f in findings}
        assert RULE_USE_AFTER_UNLINK in by_rule
        f = by_rule[RULE_USE_AFTER_UNLINK]
        assert f.severity is Severity.ERROR
        assert f.location.ident == "repro.parallel.engine::ParallelFitEngine.close"
        assert f.fingerprint == (
            "lifecycle-use-after-unlink@"
            "repro.parallel.engine::ParallelFitEngine.close#release:self._manager"
        )
        assert "drop" in f.fix_hint

    def test_shipped_fix_is_clean(self):
        findings = scan_lifecycle_source(PR4_ENGINE_FIXED, "repro.parallel.engine")
        assert [f.rule_id for f in findings] == []

    def test_release_in_a_non_seeding_module_is_fine(self):
        """Without a seeded cache there is nothing to outlive the
        mapping: release alone is the normal teardown."""
        src = (
            "class Engine:\n"
            "    def close(self):\n"
            "        self._manager.release(self.grid)\n"
        )
        assert scan_lifecycle_source(src, "m") == []


def _scan_fn(body: str, *, module="m") -> list:
    lines = "\n".join("    " + ln for ln in body.strip("\n").splitlines())
    return scan_lifecycle_source(f"def f(ctx, spec, work_q):\n{lines}\n", module)


class TestUseAfterUnlink:
    def test_view_after_unlink(self):
        findings = _scan_fn(
            """
arena = TableArena.build(grid)
arena.unlink()
return arena.tables()
"""
        )
        assert [f.rule_id for f in findings] == [RULE_USE_AFTER_UNLINK]
        assert "unlinked" in findings[0].message

    def test_operator_view_after_unlink(self):
        """``edge_op()`` is the accessor the fleet calls; the rule was
        blind to it while it listed the raw-matrix accessor instead."""
        findings = _scan_fn(
            """
arena = TableArena.build(grid)
arena.unlink()
return arena.edge_op()
"""
        )
        assert [f.rule_id for f in findings] == [RULE_USE_AFTER_UNLINK]
        assert findings[0].detail == "edge_op:arena"

    def test_rule_watches_exactly_the_arena_view_accessors(self):
        """The blindness came from drift: the rule listed an accessor the
        fleet had stopped calling.  Every public method of the worker-side
        handle other than ``close`` hands out a view and must be listed."""
        from repro.analysis.lifecycle import _VIEW_METHODS
        from repro.parallel import AttachedArena, TableArena

        accessors = {
            name
            for name, member in vars(AttachedArena).items()
            if callable(member) and not name.startswith("_")
        } - {"close"}
        assert accessors == set(_VIEW_METHODS)
        assert all(callable(getattr(TableArena, name)) for name in _VIEW_METHODS)

    def test_view_after_close(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
arena.close()
return arena.edge_op()
"""
        )
        assert [f.rule_id for f in findings] == [RULE_USE_AFTER_UNLINK]

    def test_view_on_a_conditionally_dead_handle(self):
        """May-analysis: unlink on one branch poisons the join."""
        findings = _scan_fn(
            """
arena = TableArena.build(grid)
if spec:
    arena.unlink()
return arena.tables()
"""
        )
        assert RULE_USE_AFTER_UNLINK in {f.rule_id for f in findings}

    def test_view_before_teardown_is_clean(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
tables = arena.tables()
arena.close()
return tables
"""
        )
        assert findings == []

    def test_unlink_after_close_is_the_legal_order(self):
        findings = _scan_fn(
            """
arena = TableArena.build(grid)
tables = arena.tables()
arena.close()
arena.unlink()
return tables
"""
        )
        assert findings == []


class TestAttachBeforeSeed:
    def test_engine_before_seed_is_flagged(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
engine = BatchFitEngine(spec.grid())
cache.seed(arena.tables())
return {"arena": arena, "engine": engine}
"""
        )
        assert RULE_ATTACH_BEFORE_SEED in {f.rule_id for f in findings}

    def test_seed_then_engine_is_clean(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
cache.seed(arena.tables())
return {"arena": arena, "engine": BatchFitEngine(spec.grid())}
"""
        )
        assert findings == []


class TestMissingDrop:
    def test_unreleased_local_handle_is_flagged(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
x = arena.tables()
return x.gpc.sum()
"""
        )
        assert [f.rule_id for f in findings] == [RULE_MISSING_DROP]
        assert findings[0].detail == "leak:arena"

    def test_conditional_teardown_is_flagged_as_conditional(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
total = compute(arena.tables())
if spec.early:
    arena.close()
return total
"""
        )
        leaks = [f for f in findings if f.rule_id == RULE_MISSING_DROP]
        assert len(leaks) == 1
        assert "conditionally" in leaks[0].message

    def test_finally_teardown_is_clean(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
try:
    use(arena.tables())
finally:
    arena.close()
"""
        )
        assert findings == []

    def test_escaping_handle_transfers_ownership(self):
        findings = _scan_fn(
            """
arena = attach_arena(spec)
return arena
"""
        )
        assert findings == []

    def test_stored_handle_transfers_ownership(self):
        src = (
            "class M:\n"
            "    def acquire(self, spec):\n"
            "        arena = attach_arena(spec)\n"
            "        self._arenas[spec.shm_name] = arena\n"
            "        return arena.spec\n"
        )
        assert scan_lifecycle_source(src, "m") == []


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

    def test_live_arena_handle_in_process_args(self):
        findings = _scan_fn(
            """
arena = manager.acquire(grid)
p = ctx.Process(target=work, args=(arena,))
return arena, p
"""
        )
        capture = [f for f in findings if f.rule_id == RULE_FORK_CAPTURE]
        assert len(capture) == 1
        assert "arena.spec" in capture[0].fix_hint

    def test_passing_the_spec_is_the_blessed_idiom(self):
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
        """Acceptance criterion: the real parallel layer (with the PR 4
        fix shipped) produces zero lifecycle findings."""
        assert analyze_lifecycle() == []

    def test_syntax_error_raises_analysis_error(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            scan_lifecycle_source("def f(:\n", "m")
