"""RPR04x -- concurrency-discipline rules.

The service layer (HTTP threads, the job-queue worker pool) and the
result cache share mutable state across threads.  The convention is
declarative: the line that *creates* a shared attribute carries a
``# guarded-by: <lockname>`` comment, and from then on every touch of
``self.<attr>`` outside ``__init__`` must sit lexically inside
``with self.<lockname>:``.

* RPR041 -- a guarded attribute accessed outside its lock's ``with``
  block (the PR 6/7 class of bug: a stats read racing a writer).
* RPR042 -- a ``threading.Thread(daemon=True)`` created by a class with
  no ``join()`` call anywhere in it: daemon threads die mid-write at
  interpreter exit, so every pool needs a drain/close path.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, List

from repro.devtools.framework import FileContext, Rule, dotted_name, is_self_attr

GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_]\w*)")

#: Methods that may touch guarded attributes lock-free (construction).
_EXEMPT_METHODS = frozenset({"__init__"})


def _direct_methods(node: ast.ClassDef) -> List[ast.AST]:
    return [
        item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _iter_non_class_children(node: ast.AST) -> Iterable[ast.AST]:
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.ClassDef):
            yield child


class GuardedByRule(Rule):
    """RPR041: ``guarded-by`` attributes only move under their lock."""

    id = "RPR041"
    name = "guarded-by-discipline"
    description = (
        "an attribute annotated '# guarded-by: <lock>' was accessed "
        "outside 'with self.<lock>:', racing the threads that honour it"
    )
    node_types = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.ClassDef)
        guarded = self._collect_guarded(node, ctx)
        if not guarded:
            return
        for method in _direct_methods(node):
            if method.name in _EXEMPT_METHODS:  # type: ignore[union-attr]
                continue
            for stmt in method.body:  # type: ignore[union-attr]
                self._walk(stmt, frozenset(), guarded, ctx)

    # ------------------------------------------------------------------
    def _collect_guarded(
        self, node: ast.ClassDef, ctx: FileContext
    ) -> Dict[str, str]:
        """``self.<attr>`` assignments annotated ``# guarded-by: <lock>``."""
        guarded: Dict[str, str] = {}
        stack: List[ast.AST] = [node]
        while stack:
            current = stack.pop()
            stack.extend(_iter_non_class_children(current))
            if not isinstance(current, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            comment = ctx.comments.get(current.lineno, "")
            match = GUARDED_BY_RE.search(comment)
            if match is None:
                continue
            lock = match.group(1)
            targets = (
                current.targets
                if isinstance(current, ast.Assign)
                else [current.target]
            )
            for target in targets:
                if is_self_attr(target):
                    guarded[target.attr] = lock  # type: ignore[attr-defined]
        return guarded

    def _acquired(self, node: "ast.With | ast.AsyncWith") -> FrozenSet[str]:
        names = set()
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            if is_self_attr(expr):
                names.add(expr.attr)  # type: ignore[attr-defined]
        return frozenset(names)

    def _walk(
        self,
        node: ast.AST,
        held: FrozenSet[str],
        guarded: Dict[str, str],
        ctx: FileContext,
    ) -> None:
        if is_self_attr(node):
            attr = node.attr  # type: ignore[attr-defined]
            lock = guarded.get(attr)
            if lock is not None and lock not in held:
                ctx.report(
                    node, self,
                    "'self.%s' is guarded-by %r but accessed outside "
                    "'with self.%s:'" % (attr, lock, lock),
                )
            return  # self.<attr>.<sub> chains anchor at the inner access
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._walk(item.context_expr, held, guarded, ctx)
                if item.optional_vars is not None:
                    self._walk(item.optional_vars, held, guarded, ctx)
            inner = held | self._acquired(node)
            for stmt in node.body:
                self._walk(stmt, inner, guarded, ctx)
            return
        for child in _iter_non_class_children(node):
            self._walk(child, held, guarded, ctx)


class DaemonThreadRule(Rule):
    """RPR042: daemon threads need a join/flush path."""

    id = "RPR042"
    name = "daemon-thread-join"
    description = (
        "a daemon thread with no join() anywhere in its owning class "
        "dies mid-write at interpreter exit"
    )
    node_types = (ast.Call,)

    def _is_thread_ctor(self, func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "Thread"
        dotted = dotted_name(func)
        return dotted is not None and dotted.endswith("threading.Thread")

    def _has_join(self, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
            ):
                return True
        return False

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if not self._is_thread_ctor(node.func):
            return
        daemon = next(
            (
                kw.value
                for kw in node.keywords
                if kw.arg == "daemon"
            ),
            None,
        )
        if not (
            isinstance(daemon, ast.Constant) and daemon.value is True
        ):
            return
        scope: ast.AST = ctx.tree
        for ancestor in reversed(ctx.ancestors):
            if isinstance(ancestor, ast.ClassDef):
                scope = ancestor
                break
        if not self._has_join(scope):
            ctx.report(
                node, self,
                "daemon Thread with no join() in its owning scope; give "
                "the pool a close/drain path so exits cannot strand "
                "half-written state",
            )


RULES = (GuardedByRule, DaemonThreadRule)
