"""Single-walk AST linting framework behind ``repro-dtpm lint``.

The reproduction's correctness rests on invariants the test suite can
only sample after the fact: bit-exact scalar/batch parity, content keys
that never silently alias when :class:`~repro.runner.spec.RunSpec` grows
a field, determinism across processes, and lock-guarded shared state in
the threaded service layer.  This module is the enforcement machinery:
each ``.py`` file is parsed **once**, tokenised **once** (for waiver and
``guarded-by`` comments) and walked **once**, with every node dispatched
to the rules registered for its type.  Project-scoped rules (cross-file
checks like the wire-codec coherence pass) observe files during the same
walk and reconcile at the end.

Findings carry a rule id (``RPR011`` ... ``RPR042``), a severity and a
location.  A finding is suppressed by an inline waiver on its line::

    risky_line()  # repro-lint: disable=RPR032 -- justification here

Waivers are themselves linted: an unknown rule id in a waiver is RPR001
(error) and a waiver that suppresses nothing is RPR002 (warning), so
waiver debt cannot accumulate silently.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
_SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)

#: Inline waiver syntax.  The optional `` -- text`` tail is the
#: justification; rules are comma-separated ids or the word ``all``.
WAIVER_RE = re.compile(
    r"repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)(?:\s*--\s*(?P<why>.*))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return "%s:%d:%d: %s [%s] %s" % (
            self.path, self.line, self.col, self.rule, self.severity,
            self.message,
        )


@dataclass
class Waiver:
    """One parsed ``repro-lint: disable=...`` comment."""

    line: int
    rules: Set[str]           # rule ids, or {"all"}
    justification: str
    used: bool = False

    def covers(self, rule_id: str) -> bool:
        return "all" in self.rules or rule_id in self.rules


class Rule:
    """Base class of one lint check.

    File rules declare the AST node types they want in ``node_types`` and
    receive every matching node of every file through :meth:`visit`
    during the shared single walk.  Findings are emitted with
    :meth:`FileContext.report`.
    """

    id: str = ""
    name: str = ""
    severity: str = SEVERITY_ERROR
    description: str = ""
    node_types: Tuple[Type[ast.AST], ...] = ()

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        """Handle one AST node of the file being walked."""

    def observe(self, ctx: "FileContext") -> None:
        """Called once per file after its walk (project rules)."""

    def finalize(self, run: "LintRun") -> None:
        """Called once after every file was observed (project rules)."""


class FileContext:
    """Everything a rule may want to know about the file being walked."""

    def __init__(
        self, path: str, rel_path: str, source: str, tree: ast.Module,
        run: "LintRun",
    ) -> None:
        self.path = path
        #: POSIX-style path relative to the lint invocation (display path).
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self.run = run
        self.lines = source.splitlines()
        #: Comment text by line number (from one tokenize pass).
        self.comments: Dict[int, str] = {}
        #: Parsed waivers by line number.
        self.waivers: Dict[int, Waiver] = {}
        #: Ancestor chain of the node currently being visited (outermost
        #: first, excluding the node itself), maintained by the walker.
        self.ancestors: List[ast.AST] = []
        self._scan_comments()

    # ------------------------------------------------------------------
    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    self.comments[tok.start[0]] = tok.string
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return
        for line, text in self.comments.items():
            match = WAIVER_RE.search(text)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            self.waivers[line] = Waiver(
                line=line, rules=rules,
                justification=(match.group("why") or "").strip(),
            )

    # ------------------------------------------------------------------
    def part_names(self) -> Set[str]:
        """The path components of this file (directory names + basename)."""
        norm = self.rel_path.replace(os.sep, "/")
        return set(norm.split("/"))

    def path_endswith(self, suffix: str) -> bool:
        """Whether this file's path ends with ``suffix`` (POSIX form)."""
        norm = os.path.abspath(self.path).replace(os.sep, "/")
        return norm.endswith(suffix)

    def report(
        self, node: "ast.AST | int", rule: Rule, message: str,
        col: Optional[int] = None,
    ) -> None:
        """Emit a finding anchored at ``node`` (or an explicit line)."""
        if isinstance(node, int):
            line, column = node, (col or 0)
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0) if col is None else col
        self.run.add_finding(self, rule, line, column, message)


class LintRun:
    """State of one lint invocation: contexts, findings, waiver ledger."""

    def __init__(self, rules: Sequence[Rule], config: "LintConfig") -> None:
        self.rules = list(rules)
        self.config = config
        self.contexts: Dict[str, FileContext] = {}
        self._raw: List[Tuple[FileContext, Finding]] = []
        self.parse_failures: List[Finding] = []
        self._known_ids = {r.id for r in self.rules} | {"RPR001", "RPR002"}

    # ------------------------------------------------------------------
    def severity_of(self, rule: Rule) -> str:
        return self.config.severity_overrides.get(rule.id, rule.severity)

    def add_finding(
        self, ctx: FileContext, rule: Rule, line: int, col: int, message: str
    ) -> None:
        self._raw.append((ctx, Finding(
            rule=rule.id, path=ctx.rel_path, line=line, col=col,
            message=message, severity=self.severity_of(rule),
        )))

    def context_for(self, suffix: str) -> Optional[FileContext]:
        """The linted file whose path ends with ``suffix``, if any."""
        for ctx in self.contexts.values():
            if ctx.path_endswith(suffix):
                return ctx
        return None

    # ------------------------------------------------------------------
    def resolve(self) -> List[Finding]:
        """Apply waivers, add waiver-hygiene findings, sort."""
        findings: List[Finding] = list(self.parse_failures)
        for ctx, finding in self._raw:
            waiver = ctx.waivers.get(finding.line)
            if waiver is not None and waiver.covers(finding.rule):
                waiver.used = True
                continue
            findings.append(finding)
        for ctx in self.contexts.values():
            for waiver in ctx.waivers.values():
                unknown = sorted(
                    r for r in waiver.rules
                    if r != "all" and r not in self._known_ids
                )
                if unknown:
                    findings.append(Finding(
                        rule="RPR001", path=ctx.rel_path, line=waiver.line,
                        col=0, severity=SEVERITY_ERROR,
                        message="waiver names unknown rule id(s) %s"
                                % ", ".join(unknown),
                    ))
                elif not waiver.used:
                    findings.append(Finding(
                        rule="RPR002", path=ctx.rel_path, line=waiver.line,
                        col=0, severity=SEVERITY_WARNING,
                        message="waiver suppresses nothing on this line "
                                "(disable=%s); remove it"
                                % ",".join(sorted(waiver.rules)),
                    ))
        findings.sort(key=Finding.sort_key)
        return findings


@dataclass
class LintConfig:
    """Knobs of one lint invocation (tests override the manifests)."""

    #: Path of the pinned numeric-semantics manifest (RPR022); ``None``
    #: uses the packaged default next to this module.
    cache_manifest: Optional[str] = None
    #: Path of the scalar/batch parity manifest (RPR031).
    parity_manifest: Optional[str] = None
    #: Directory parity-manifest test paths are resolved against
    #: (defaults to the current working directory).
    repo_root: Optional[str] = None
    #: Per-rule severity overrides, e.g. ``{"RPR032": "warning"}``.
    severity_overrides: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rule_id, level in self.severity_overrides.items():
            if level not in _SEVERITIES:
                raise ValueError(
                    "severity for %s must be one of %s, got %r"
                    % (rule_id, "/".join(_SEVERITIES), level)
                )


class _Walker(ast.NodeVisitor):
    """One pass over a file's AST dispatching nodes to interested rules."""

    def __init__(
        self, ctx: FileContext, dispatch: Dict[Type[ast.AST], List[Rule]]
    ) -> None:
        self.ctx = ctx
        self.dispatch = dispatch

    def generic_visit(self, node: ast.AST) -> None:
        for rule in self.dispatch.get(type(node), ()):
            rule.visit(node, self.ctx)
        self.ctx.ancestors.append(node)
        try:
            super().generic_visit(node)
        finally:
            self.ctx.ancestors.pop()


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(names):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(dict.fromkeys(out))


def run_lint(
    paths: Sequence[str],
    rules: Sequence[Rule],
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint files/directories with the given rules; returns findings."""
    config = config or LintConfig()
    run = LintRun(rules, config)
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)

    for path in iter_python_files(paths):
        rel = os.path.relpath(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            run.parse_failures.append(Finding(
                rule="RPR001", path=rel, line=line, col=0,
                severity=SEVERITY_ERROR,
                message="could not parse file: %s" % exc,
            ))
            continue
        ctx = FileContext(path, rel, source, tree, run)
        run.contexts[path] = ctx
        _Walker(ctx, dispatch).visit(tree)
        for rule in rules:
            rule.observe(ctx)

    for rule in rules:
        rule.finalize(run)
    return run.resolve()


# ---------------------------------------------------------------------------
# shared AST helpers used by several rule modules
# ---------------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def is_self_attr(node: ast.AST, attr: Optional[str] = None) -> bool:
    """Whether ``node`` is ``self.<attr>`` (any attr when not given)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def semantic_hash(source: str) -> str:
    """Hash of a module's semantics: AST with docstrings stripped.

    Comments, blank lines, formatting and docstrings do not participate,
    so the pinned-manifest rule (RPR022) only trips on changes that can
    move numbers.
    """
    import hashlib

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                node.body = body[1:] or [ast.Pass()]
    return hashlib.sha256(ast.dump(tree).encode("utf-8")).hexdigest()


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("%s: manifest must be a JSON object" % path)
    return data


def data_path(name: str) -> str:
    """Path of a packaged manifest under ``repro/devtools/data``."""
    return os.path.join(os.path.dirname(__file__), "data", name)
