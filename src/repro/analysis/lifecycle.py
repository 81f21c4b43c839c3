"""Concurrency-lifecycle rules: protocol checking over the parallel layer.

Two orderings in the worker pool cannot be read off a signature and are
invisible to tests that happen not to hit them; this family checks them
statically.  (The table arena has none to check: a view owns its
mapping — ``docs/ANALYSIS.md`` tells how PR 4's segfault was designed
out.)

The checker is an intraprocedural abstract interpreter (shared core:
:mod:`repro.analysis.dataflow`) over every function of the parallel
modules.

Rules (all documented in ``docs/ANALYSIS.md``):

``fork-unsafe-capture``
    A lambda or nested function passed into a
    ``ProcessScheduler(...)`` / ``ctx.Process(...)`` construction:
    neither survives pickling under ``spawn``.
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
    "RULE_FORK_CAPTURE",
    "RULE_EXIT_FLUSH",
    "scan_lifecycle_source",
    "scan_lifecycle_paths",
]

RULE_FORK_CAPTURE = "fork-unsafe-capture"
RULE_EXIT_FLUSH = "lifecycle-exit-before-flush"


def _maximal_refs(node: ast.expr):
    """Yield the dotted name of each *maximal* Name/Attribute chain in
    ``node``, and ``"<lambda>"`` for each Lambda — sub-chains of a longer
    chain are not yielded (``self.arena.spec`` hides ``self.arena``)."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = dotted_name(node)
        if dotted is not None:
            yield dotted
            return
        # Chain broken by a call/subscript: recurse into children.
    if isinstance(node, ast.Lambda):
        yield "<lambda>"
        return
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            yield from _maximal_refs(child)


class _FunctionPrePass(ast.NodeVisitor):
    """One cheap pass before interpretation: the queues a function feeds."""

    def __init__(self) -> None:
        #: Dotted receivers of ``.put(...)`` — queues this function feeds.
        self.queues: set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        if isinstance(node.func, ast.Attribute) and node.func.attr == "put":
            recv = dotted_name(node.func.value)
            if recv is not None:
                self.queues.add(recv)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
        pass  # nested scopes own their names

    visit_AsyncFunctionDef = visit_FunctionDef


class _LifecycleInterpreter(AbstractInterpreter):
    """Protocol checking of one function body."""

    def __init__(self, module: str, qualname: str, *, queues: set[str]) -> None:
        super().__init__()
        self.module = module
        self.qualname = qualname
        self.queues = queues
        self.findings: list[Finding] = []
        #: Names introduced by nested ``def`` in this scope (unpicklable
        #: under spawn when passed to a worker constructor).
        self._nested: set[str] = set()

    def _emit(
        self, rule: str, node: ast.AST, message: str, fix: str, detail: str
    ) -> None:
        self.findings.append(
            Finding(
                rule_id=rule,
                severity=Severity.ERROR,
                location=Location(
                    module=self.module,
                    qualname=self.qualname,
                    line=getattr(node, "lineno", None),
                ),
                message=message,
                fix_hint=fix,
                detail=detail,
            )
        )

    # -- transfer functions ---------------------------------------------------------
    def on_nested_def(self, node: ast.stmt) -> None:
        name = getattr(node, "name", None)
        if name:
            self._nested.add(name)

    def on_call(self, node: ast.Call) -> None:
        func = node.func
        dotted = dotted_name(func)
        if isinstance(func, ast.Attribute) and func.attr in ("close", "join_thread"):
            recv = dotted_name(func.value)
            if recv in self.queues:
                key = f"%flush:{recv}"
                self.env[key] = self.env.get(key, BOTTOM) | {func.attr}
        terminal = dotted.rsplit(".", 1)[-1] if dotted else None
        if dotted is not None and dotted.endswith("_exit"):
            self._check_exit(node)
        if terminal == "ProcessScheduler" or (
            isinstance(func, ast.Attribute) and func.attr == "Process"
        ):
            self._check_fork_site(node, terminal or "Process")

    def _check_exit(self, node: ast.Call) -> None:
        for q in sorted(self.queues):
            if self.env.get(f"%flush:{q}", BOTTOM) >= {"close", "join_thread"}:
                continue
            self._emit(
                RULE_EXIT_FLUSH,
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
            for ref in _maximal_refs(expr):
                if ref == "<lambda>":
                    self._emit(
                        RULE_FORK_CAPTURE,
                        node,
                        f"lambda passed into {kind}(...): not picklable, so "
                        f"the pool breaks the moment start_method is 'spawn'",
                        "hoist the callable to module level",
                        f"{kind}:lambda",
                    )
                elif ref in self._nested or ref.split(".", 1)[0] in self._nested:
                    self._emit(
                        RULE_FORK_CAPTURE,
                        node,
                        f"nested function '{ref}' passed into {kind}(...): "
                        f"not picklable under spawn (and closes over parent "
                        f"state under fork)",
                        f"move '{ref}' to module level with explicit "
                        f"arguments",
                        f"{kind}:{ref}",
                    )


class _LifecycleModuleScanner(ast.NodeVisitor):
    """Runs the interpreter over every function of one module."""

    def __init__(self, module: str) -> None:
        self.module = module
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
        interp = _LifecycleInterpreter(self.module, qualname, queues=prepass.queues)
        interp.run(node.body)
        self.findings.extend(interp.findings)
        # Methods of nested classes still deserve scanning; plain nested
        # defs were already judged at their capture sites.
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef):
                self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
        self._handle_function(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def scan_lifecycle_source(source: str, module: str) -> list[Finding]:
    """Lifecycle rules over one module's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {module}: {exc}") from None
    scanner = _LifecycleModuleScanner(module)
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
