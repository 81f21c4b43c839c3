"""Concurrency-lifecycle rules: protocol checking over the parallel layer.

The shared-memory arena and the worker pool follow strict protocols
(``docs/PARALLEL.md``): an arena is *built* (or *attached*), its views
are *used*, the process-global table cache is *seeded* with them, and —
in exactly this order — the cache is *dropped* before the mapping is
*released/unlinked*.  PR 4 shipped a real segfault by violating the last
step: ``ParallelFitEngine.close()`` released the arena while the seeded
cache still held views over the unmapped pages.  That bug class is
invisible to tests that don't touch the freed view and to the
allocation/directive rules; this family catches it statically.

The checker is an intraprocedural abstract interpreter (shared core:
:mod:`repro.analysis.dataflow`) over every function of the parallel
modules, with a per-module fact pre-pass.  Arena handles move through a
three-state protocol lattice — ``live`` → ``closed`` → ``unlinked`` —
where ``unlink()`` after ``close()`` is legal (that *is* the teardown
order) but producing views from a closed or unlinked handle is not.

Rules (all documented in ``docs/ANALYSIS.md``):

``lifecycle-use-after-unlink``
    A view-producing call (``.tables()``, ``.edge_op()``) on a
    handle that may already be closed/unlinked; **or** a
    ``.release(...)`` in a module that seeds the process-global table
    cache with no ``.drop(...)`` on any path before it — the exact PR 4
    use-after-unmap: the cache's views outlive the mapping and the next
    reader touches unmapped pages.
``lifecycle-attach-before-seed``
    A worker initialiser attaches an arena but constructs its engine
    before seeding the table cache with the shared view: the engine's
    table lookup silently rebuilds the O(N^3) table privately, paying
    the exact cost the arena exists to avoid.
``lifecycle-missing-drop``
    An arena created in a function neither escapes (returned / stored)
    nor is reliably cleaned up — on some path (typically the
    exceptional one) the handle is still live at exit, leaking the
    mapping.
``fork-unsafe-capture``
    A lambda, nested function, or live arena handle passed into a
    ``ProcessScheduler(...)`` / ``ctx.Process(...)`` construction:
    neither survives pickling under ``spawn``, and a bare handle would
    ship a process-private mapping instead of the picklable
    :class:`~repro.parallel.arena.ArenaSpec`.
``lifecycle-exit-before-flush``
    ``os._exit`` reachable while a queue this process has ``put()`` into
    has not been ``close()``d **and** ``join_thread()``ed: dying with
    the feeder thread mid-message wedges every other user of the queue
    (the fault-injection path in ``_worker_main`` shows the required
    sequence).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.dataflow import (
    BOTTOM,
    AbstractInterpreter,
    dotted_name,
)
from repro.analysis.findings import Finding, Location, Severity
from repro.errors import AnalysisError

__all__ = [
    "RULE_USE_AFTER_UNLINK",
    "RULE_ATTACH_BEFORE_SEED",
    "RULE_MISSING_DROP",
    "RULE_FORK_CAPTURE",
    "RULE_EXIT_FLUSH",
    "scan_lifecycle_source",
    "scan_lifecycle_paths",
]

RULE_USE_AFTER_UNLINK = "lifecycle-use-after-unlink"
RULE_ATTACH_BEFORE_SEED = "lifecycle-attach-before-seed"
RULE_MISSING_DROP = "lifecycle-missing-drop"
RULE_FORK_CAPTURE = "fork-unsafe-capture"
RULE_EXIT_FLUSH = "lifecycle-exit-before-flush"

#: Protocol states of an arena handle.
LIVE = "live"
CLOSED = "closed"
UNLINKED = "unlinked"

#: Callables whose result is a live arena handle, matched on the terminal
#: dotted component(s) of the callee.
_ATTACH_CONSTRUCTORS = ("attach_arena", "AttachedArena")
#: Methods that produce views over the mapped pages (illegal after
#: close/unlink).
_VIEW_METHODS = ("tables", "edge_op")


def _is_arena_constructor(node: ast.expr) -> tuple[bool, bool]:
    """(is_constructor, is_attach) for the RHS of an assignment."""
    if not isinstance(node, ast.Call):
        return False, False
    dotted = dotted_name(node.func)
    if dotted is None:
        return False, False
    terminal = dotted.rsplit(".", 1)[-1]
    if terminal in _ATTACH_CONSTRUCTORS:
        return True, True
    if terminal == "acquire" or dotted.endswith("Arena.build"):
        return True, False
    return False, False


def _maximal_refs(node: ast.expr):
    """Yield (node, dotted) for each *maximal* Name/Attribute chain and
    each Lambda in ``node`` — sub-chains of a longer chain are not
    yielded (``self.arena.spec`` hides ``self.arena``)."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = dotted_name(node)
        if dotted is not None:
            yield node, dotted
            return
        # Chain broken by a call/subscript: recurse into children.
    if isinstance(node, ast.Lambda):
        yield node, "<lambda>"
        return
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            yield from _maximal_refs(child)


class _FunctionPrePass(ast.NodeVisitor):
    """One cheap pass before interpretation: queue receivers + escapes."""

    def __init__(self) -> None:
        #: Dotted receivers of ``.put(...)`` — queues this function feeds.
        self.queues: set[str] = set()
        #: Bare names whose value escapes the function (returned, yielded,
        #: or stored into a container/attribute) — ownership transferred.
        self.escaped: set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        if isinstance(node.func, ast.Attribute) and node.func.attr == "put":
            recv = dotted_name(node.func.value)
            if recv is not None:
                self.queues.add(recv)
        self.generic_visit(node)

    def _mark_names(self, node: ast.expr | None) -> None:
        if node is None:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                self.escaped.add(child.id)

    def visit_Return(self, node: ast.Return) -> None:  # noqa: N802
        self._mark_names(node.value)

    def visit_Yield(self, node: ast.Yield) -> None:  # noqa: N802
        self._mark_names(node.value)

    def visit_Assign(self, node: ast.Assign) -> None:  # noqa: N802
        if any(isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets):
            self._mark_names(node.value)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
        pass  # nested scopes own their names

    visit_AsyncFunctionDef = visit_FunctionDef


class _LifecycleInterpreter(AbstractInterpreter):
    """Protocol checking of one function body."""

    def __init__(
        self,
        module: str,
        qualname: str,
        *,
        module_seeds_cache: bool,
        queues: set[str],
        escaped: set[str],
    ) -> None:
        super().__init__()
        self.module = module
        self.qualname = qualname
        self.module_seeds_cache = module_seeds_cache
        self.queues = queues
        self.escaped = escaped
        self.findings: list[Finding] = []
        #: Bare locals bound to a fresh handle here: name -> creation line.
        self.created: dict[str, int] = {}
        #: Names introduced by nested ``def`` in this scope (unpicklable
        #: under spawn when passed to a worker constructor).
        self._nested: set[str] = set()

    def _loc(self, node: ast.AST) -> Location:
        line = getattr(node, "lineno", None)
        return Location(module=self.module, qualname=self.qualname, line=line)

    def _emit(
        self,
        rule: str,
        severity: Severity,
        node: ast.AST,
        message: str,
        fix: str,
        detail: str,
    ) -> None:
        self.findings.append(
            Finding(
                rule_id=rule,
                severity=severity,
                location=self._loc(node),
                message=message,
                fix_hint=fix,
                detail=detail,
            )
        )

    # -- transfer functions ---------------------------------------------------------
    def on_assign(self, target: str, value: ast.expr, node: ast.stmt) -> None:
        is_ctor, is_attach = _is_arena_constructor(value)
        if is_ctor:
            self.env[target] = frozenset({LIVE})
            if is_attach:
                self.env["%attached"] = frozenset({"yes"})
            if "." not in target:
                self.created.setdefault(target, getattr(node, "lineno", 0))
        elif target in self.env:
            del self.env[target]  # rebinding kills stale protocol facts

    def on_nested_def(self, node: ast.stmt) -> None:
        name = getattr(node, "name", None)
        if name:
            self._nested.add(name)

    def on_call(self, node: ast.Call) -> None:
        func = node.func
        dotted = dotted_name(func)
        if isinstance(func, ast.Attribute):
            method = func.attr
            recv = dotted_name(func.value)
            if recv is not None:
                self._method_call(node, method, recv)
            else:
                # Chained receiver (``boundary_table_cache().seed(...)``,
                # ``pop(key).unlink()``): no handle to track, but the
                # module-global cache facts still transfer.
                self._method_call(node, method, "<expr>", tracked=False)
        terminal = dotted.rsplit(".", 1)[-1] if dotted else None
        if dotted is not None and dotted.endswith("_exit"):
            self._check_exit(node)
        if terminal == "ProcessScheduler" or (
            isinstance(func, ast.Attribute) and func.attr == "Process"
        ):
            self._check_fork_site(node, terminal or "Process")
        if terminal is not None and terminal.endswith("Engine"):
            self._check_engine_ctor(node, terminal)

    def _method_call(
        self, node: ast.Call, method: str, recv: str, *, tracked: bool = True
    ) -> None:
        state = self.env.get(recv, BOTTOM) if tracked else BOTTOM
        if method in _VIEW_METHODS and (CLOSED in state or UNLINKED in state):
            dead = UNLINKED if UNLINKED in state else CLOSED
            self._emit(
                RULE_USE_AFTER_UNLINK,
                Severity.ERROR,
                node,
                f".{method}() on '{recv}' which may already be {dead}: the "
                f"view maps pages the segment no longer backs — reading them "
                f"is the PR 4 segfault",
                f"take the view before tearing '{recv}' down (or re-attach "
                f"from the spec)",
                f"{method}:{recv}",
            )
        if method == "close":
            if recv in self.env or recv in self.created:
                self.env[recv] = frozenset({CLOSED})
            if recv in self.queues:
                key = f"%flush:{recv}"
                self.env[key] = self.env.get(key, BOTTOM) | {CLOSED}
        elif method == "join_thread" and recv in self.queues:
            key = f"%flush:{recv}"
            self.env[key] = self.env.get(key, BOTTOM) | {"joined"}
        elif method == "unlink" and tracked:
            # unlink after close is the documented teardown order: legal.
            self.env[recv] = frozenset({UNLINKED})
        elif method == "drop":
            self.env["%dropped"] = frozenset({"done"})
        elif method == "seed":
            self.env["%seeded"] = frozenset({"done"})
        elif method == "release" and self.module_seeds_cache:
            if "done" not in self.env.get("%dropped", BOTTOM):
                self._emit(
                    RULE_USE_AFTER_UNLINK,
                    Severity.ERROR,
                    node,
                    f"'{recv}.release(...)' unlinks the arena in a module that "
                    f"seeds the process-global table cache, and no path "
                    f"through this function drops the cache first: the seeded "
                    f"views outlive the mapping and the next table lookup "
                    f"reads unmapped pages (the PR 4 use-after-unmap)",
                    "call boundary_table_cache().drop(grid) before "
                    f"'{recv}.release(...)'",
                    f"release:{recv}",
                )

    def _check_exit(self, node: ast.Call) -> None:
        for q in sorted(self.queues):
            flush = self.env.get(f"%flush:{q}", BOTTOM)
            if CLOSED in flush and "joined" in flush:
                continue
            self._emit(
                RULE_EXIT_FLUSH,
                Severity.ERROR,
                node,
                f"os._exit is reachable while queue '{q}' may have an "
                f"unflushed feeder thread: dying mid-message leaves the "
                f"queue's write lock held and wedges every other worker's "
                f"put() forever",
                f"call {q}.close() and {q}.join_thread() before os._exit",
                f"exit:{q}",
            )

    def _check_fork_site(self, node: ast.Call, kind: str) -> None:
        exprs = list(node.args) + [kw.value for kw in node.keywords]
        for expr in exprs:
            for ref_node, ref in _maximal_refs(expr):
                if ref == "<lambda>":
                    self._emit(
                        RULE_FORK_CAPTURE,
                        Severity.ERROR,
                        node,
                        f"lambda passed into {kind}(...): not picklable, so "
                        f"the pool breaks the moment start_method is 'spawn'",
                        "hoist the callable to module level",
                        f"{kind}:lambda",
                    )
                    continue
                bare = ref.split(".", 1)[0]
                if ref in self._nested or bare in self._nested:
                    self._emit(
                        RULE_FORK_CAPTURE,
                        Severity.ERROR,
                        node,
                        f"nested function '{ref}' passed into {kind}(...): "
                        f"not picklable under spawn (and closes over parent "
                        f"state under fork)",
                        f"move '{ref}' to module level with explicit "
                        f"arguments",
                        f"{kind}:{ref}",
                    )
                elif self.env.get(ref, BOTTOM) & {LIVE, CLOSED, UNLINKED}:
                    self._emit(
                        RULE_FORK_CAPTURE,
                        Severity.ERROR,
                        node,
                        f"arena handle '{ref}' passed into {kind}(...): the "
                        f"mapping is process-private — ship the picklable "
                        f"'{ref}.spec' and attach_arena() in the worker",
                        f"pass {ref}.spec instead of {ref}",
                        f"{kind}:{ref}",
                    )

    def _check_engine_ctor(self, node: ast.Call, terminal: str) -> None:
        if "yes" not in self.env.get("%attached", BOTTOM):
            return
        if "done" in self.env.get("%seeded", BOTTOM):
            return
        self._emit(
            RULE_ATTACH_BEFORE_SEED,
            Severity.WARNING,
            node,
            f"{terminal}(...) is constructed after attaching an arena but "
            f"before seeding the table cache with the shared view: the "
            f"engine's table lookup rebuilds the O(N^3) table privately, "
            f"paying the cost the arena exists to avoid",
            "seed boundary_table_cache() with arena.tables() before "
            "constructing the engine",
            f"ctor:{terminal}",
        )

    # -- end-of-function obligations -----------------------------------------------
    def finish(self, fn_node: ast.AST) -> None:
        for name, line in sorted(self.created.items()):
            if name in self.escaped:
                continue
            state = self.env.get(name, BOTTOM)
            if LIVE not in state:
                continue
            conditional = bool(state & {CLOSED, UNLINKED})
            self._emit(
                RULE_MISSING_DROP,
                Severity.WARNING,
                fn_node,
                (
                    f"arena handle '{name}' (created at line {line}) is only "
                    f"conditionally torn down: on some path — typically the "
                    f"exceptional one — it is still live at function exit, "
                    f"leaking the mapping"
                    if conditional
                    else f"arena handle '{name}' (created at line {line}) is "
                    f"neither closed/unlinked nor handed off: the mapping "
                    f"leaks when this function returns"
                ),
                f"tear '{name}' down in a finally block (or return it to a "
                f"caller that owns the lifecycle)",
                f"leak:{name}",
            )


class _LifecycleModuleScanner(ast.NodeVisitor):
    """Runs the interpreter over every function of one module."""

    def __init__(self, module: str, *, seeds_cache: bool) -> None:
        self.module = module
        self.seeds_cache = seeds_cache
        self.findings: list[Finding] = []
        self._class_stack: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:  # noqa: N802
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _handle_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = ".".join((*self._class_stack, node.name))
        prepass = _FunctionPrePass()
        for stmt in node.body:
            prepass.visit(stmt)
        interp = _LifecycleInterpreter(
            self.module,
            qualname,
            module_seeds_cache=self.seeds_cache,
            queues=prepass.queues,
            escaped=prepass.escaped,
        )
        interp.run(node.body)
        interp.finish(node)
        self.findings.extend(interp.findings)
        # Methods of nested classes still deserve scanning; plain nested
        # defs were already judged at their capture sites.
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef):
                self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
        self._handle_function(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def _module_seeds_cache(tree: ast.Module) -> bool:
    """Does any call in this module seed the process-global table cache?"""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "seed"
        ):
            return True
    return False


def scan_lifecycle_source(source: str, module: str) -> list[Finding]:
    """Lifecycle rules over one module's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {module}: {exc}") from None
    scanner = _LifecycleModuleScanner(module, seeds_cache=_module_seeds_cache(tree))
    scanner.visit(tree)
    return scanner.findings


def scan_lifecycle_paths(paths, *, package_root: Path | None = None) -> list[Finding]:
    """Lifecycle rules over ``.py`` files or directories of them."""
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    findings: list[Finding] = []
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            if not f.exists():
                raise AnalysisError(f"cannot scan missing file {f}")
            module = (
                ".".join(("repro", *f.relative_to(package_root).with_suffix("").parts))
                if f.is_relative_to(package_root)
                else str(f)
            )
            findings.extend(scan_lifecycle_source(f.read_text(), module))
    return findings
