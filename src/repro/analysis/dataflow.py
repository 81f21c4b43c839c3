"""Dataflow core of the lifecycle analysis.

The lifecycle family is *flow-sensitive*: what it flags depends on the
order of statements (``os._exit`` reached before a queue is flushed),
not just on which calls appear somewhere in a function.  This module
provides the abstraction underneath — a small abstract interpreter over
Python function bodies — so a checker only implements transfer
functions.

The abstract domain is deliberately simple: every tracked name maps to a
**frozenset of tokens** ("may" facts — the set of states the value can
have on some path reaching this point).  Joining two paths is set union;
the bottom element is the empty set.  This makes every analysis monotone
by construction and keeps loop handling to a single widening join
(execute the body once, then join with the pre-loop state), which is
exact for the protocol lattice used here — it is finite and transfer
functions only add tokens or overwrite.

:class:`AbstractInterpreter` walks one function body statement by
statement, maintaining the environment and handling control flow:

* ``if`` — both branches run from the pre-state; the post-state is
  their join;
* ``for``/``while`` — the body runs once, the post-state joins the
  zero-iteration path back in; :attr:`loop_depth` tells transfer hooks
  whether they are inside a (possibly hot) loop;
* ``try`` — handler bodies run from the join of the pre-state and the
  normal body exit (an exception can land anywhere in between);
  ``finally`` always runs; :attr:`finally_depth` tells hooks whether the
  current statement is exception-safe cleanup;
* nested ``def``/``lambda`` bodies are *not* charged to the enclosing
  function (matching the hot-path pass), but the hook
  :meth:`on_nested_def` sees them so closure-capture rules can record
  their names.

Subclasses override the ``on_*`` hooks; expressions are walked by
:meth:`visit_expr`, which dispatches every :class:`ast.Call` to
:meth:`on_call` in evaluation order.
"""

from __future__ import annotations

import ast

__all__ = [
    "BOTTOM",
    "join",
    "join_env",
    "dotted_name",
    "AbstractInterpreter",
]

#: The bottom abstract value: no information on any path.
BOTTOM: frozenset[str] = frozenset()


def join(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """Least upper bound of two abstract values (may-union)."""
    return a | b


def join_env(a: dict[str, frozenset[str]], b: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    """Pointwise join of two environments (missing keys are bottom)."""
    out = dict(a)
    for name, value in b.items():
        out[name] = join(out.get(name, BOTTOM), value)
    return out


def dotted_name(node: ast.expr) -> str | None:
    """``self._manager`` / ``result_q`` as a dotted string, else None.

    Only pure Name/Attribute chains qualify — a call or subscript in the
    chain means the expression is not a stable storage location.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class AbstractInterpreter:
    """Flow-sensitive single-pass walker over one function body."""

    def __init__(self) -> None:
        #: name -> may-set of tokens.  Names are dotted paths
        #: (``dotted_name``); checkers may also use reserved ``%``-prefixed
        #: keys for function-global facts (obligations, flush states).
        self.env: dict[str, frozenset[str]] = {}
        #: How many ``for``/``while`` bodies enclose the current statement.
        self.loop_depth = 0
        #: How many ``finally`` blocks enclose the current statement.
        self.finally_depth = 0

    # -- hooks (override in checkers) ----------------------------------------------
    def on_assign(self, target: str, value: ast.expr, node: ast.stmt) -> None:
        """A binding ``target = value`` (also ``with ... as target``)."""

    def on_call(self, node: ast.Call) -> None:
        """Every call expression, in evaluation order."""

    def on_nested_def(self, node: ast.stmt) -> None:
        """A nested ``def``/``async def``/``class`` (body not walked)."""

    # -- expression walking ----------------------------------------------------------
    def visit_expr(self, node: ast.expr | None) -> None:
        """Dispatch calls inside ``node`` in evaluation order."""
        if node is None:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self.on_call(child)

    # -- statement walking -----------------------------------------------------------
    def run(self, body: list[ast.stmt]) -> None:
        self.exec_block(body)

    def exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self.visit_expr(stmt.test)
            base = dict(self.env)
            self.exec_block(stmt.body)
            after_true = self.env
            self.env = dict(base)
            self.exec_block(stmt.orelse)
            self.env = join_env(after_true, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.visit_expr(stmt.iter)
            target = dotted_name(stmt.target)
            if target is not None:
                self.on_assign(target, stmt.iter, stmt)
            base = dict(self.env)
            self.loop_depth += 1
            self.exec_block(stmt.body)
            self.loop_depth -= 1
            self.env = join_env(base, self.env)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.visit_expr(stmt.test)
            base = dict(self.env)
            self.loop_depth += 1
            self.exec_block(stmt.body)
            self.loop_depth -= 1
            self.env = join_env(base, self.env)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            base = dict(self.env)
            self.exec_block(stmt.body)
            normal_exit = dict(self.env)
            # An exception may fire anywhere in the body: handlers start
            # from the join of "nothing ran" and "everything ran".
            mid = join_env(base, normal_exit)
            exits = [normal_exit]
            for handler in stmt.handlers:
                self.env = dict(mid)
                if handler.name:
                    self.env[handler.name] = BOTTOM
                self.exec_block(handler.body)
                exits.append(self.env)
            merged: dict[str, frozenset[str]] = {}
            for e in exits:
                merged = join_env(merged, e)
            self.env = merged
            self.exec_block(stmt.orelse)
            self.finally_depth += 1
            self.exec_block(stmt.finalbody)
            self.finally_depth -= 1
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    target = dotted_name(item.optional_vars)
                    if target is not None:
                        self.on_assign(target, item.context_expr, stmt)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Assign):
            self.visit_expr(stmt.value)
            for tgt in stmt.targets:
                target = dotted_name(tgt)
                if target is not None:
                    self.on_assign(target, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.visit_expr(stmt.value)
                target = dotted_name(stmt.target)
                if target is not None:
                    self.on_assign(target, stmt.value, stmt)
        elif isinstance(stmt, (ast.AugAssign, ast.Expr, ast.Return)):
            self.visit_expr(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.visit_expr(child)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self.on_nested_def(stmt)
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                target = dotted_name(tgt)
                if target is not None:
                    self.env.pop(target, None)
        # Pass/Break/Continue/Import/Global/Nonlocal: no dataflow effect.
