"""RPR03x -- scalar/batch parity rules.

The batched engines (PRs 3-4, 7) only earn their speed if every batch
kernel stays bit-exact against its scalar twin.  That contract lives in
tests, but tests cannot notice a *new* batch function that never got a
pinning test.  These rules close the loop:

* RPR031 -- every scalar/batch pair (a ``<name>_batch`` definition whose
  scalar twin exists in the same module, or any pair listed in the
  manifest) must appear in ``data/parity_manifest.json`` together with
  the test file that pins their equivalence; the named test must exist
  and actually mention the batch function.  Stale manifest entries are
  flagged too.
* RPR032 -- a Python-level ``for`` statement over the batch axis inside
  a hot batched module defeats the vectorisation the pair exists for;
  each intentional one (O(B) scatter/validation, RNG stream ordering)
  carries a waiver with its justification.
  Comprehensions are deliberately exempt: the gather/scatter idiom
  builds arrays from per-board attributes and is not a hot loop.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Tuple

from repro.devtools.framework import (
    FileContext,
    LintConfig,
    LintRun,
    Rule,
    data_path,
    load_json,
)

#: Modules whose batch kernels must never loop over the batch axis.
HOT_BATCH_MODULES = (
    "thermal/kernels.py",
    "platform/state.py",
    "power/batch.py",
)

#: Identifier names that (heuristically) denote the batch axis.
BATCH_AXIS_NAMES = frozenset({"boards", "lanes", "batch"})


def _qualified_defs(tree: ast.Module) -> Dict[str, int]:
    """Function/method definitions of a module, qualname -> line."""
    out: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out["%s.%s" % (node.name, item.name)] = item.lineno
    return out


class ParityManifestRule(Rule):
    """RPR031: scalar/batch pairs must be registered with a pinning test."""

    id = "RPR031"
    name = "batch-parity-manifest"
    description = (
        "a scalar/batch kernel pair without a registered pinning test "
        "can silently drift out of bit-parity"
    )

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config
        self._defs: List[Tuple[FileContext, Dict[str, int]]] = []

    def _manifest_path(self) -> str:
        if self.config is not None and self.config.parity_manifest:
            return self.config.parity_manifest
        return data_path("parity_manifest.json")

    def _repo_root(self) -> str:
        if self.config is not None and self.config.repo_root:
            return self.config.repo_root
        return os.getcwd()

    def observe(self, ctx: FileContext) -> None:
        defs = _qualified_defs(ctx.tree)
        if defs:
            self._defs.append((ctx, defs))

    def finalize(self, run: LintRun) -> None:
        try:
            manifest = load_json(self._manifest_path())
        except (OSError, ValueError):
            manifest = {"pairs": []}
        pairs = manifest.get("pairs", [])

        for ctx, defs in self._defs:
            for qualname, line in defs.items():
                # a registered batch side is checked whatever its name
                # (``DtpmGovernor.stack``, ``PrbsExperiment.run_all``)
                entry = next(
                    (
                        p for p in pairs
                        if p.get("batch") == qualname
                        and ctx.path_endswith(p.get("module", ""))
                    ),
                    None,
                )
                if entry is not None:
                    self._check_entry(ctx, defs, entry, line)
                    continue
                if not qualname.endswith("_batch"):
                    continue
                scalar = qualname[: -len("_batch")]
                if scalar in defs:
                    ctx.report(
                        line, self,
                        "scalar/batch pair %s/%s has no parity-manifest "
                        "entry; register it with its pinning test in %s"
                        % (scalar, qualname, self._manifest_path()),
                    )

        # stale entries: the module is in the lint set but the pair is gone
        for entry in pairs:
            module = entry.get("module", "")
            for ctx, defs in self._defs:
                if not ctx.path_endswith(module):
                    continue
                for role in ("scalar", "batch"):
                    name = entry.get(role, "")
                    if name and name not in defs:
                        ctx.report(
                            1, self,
                            "stale parity-manifest entry: %s %r is not "
                            "defined in %s" % (role, name, module),
                        )

    def _check_entry(
        self, ctx: FileContext, defs: Dict[str, int], entry: dict, line: int
    ) -> None:
        scalar = entry.get("scalar", "")
        if scalar and scalar not in defs:
            ctx.report(
                line, self,
                "parity-manifest entry for %r names scalar twin %r which "
                "is not defined in the module" % (entry.get("batch"), scalar),
            )
        test = entry.get("test", "")
        if not test:
            ctx.report(
                line, self,
                "parity-manifest entry for %r names no pinning test"
                % entry.get("batch"),
            )
            return
        test_path = os.path.join(self._repo_root(), test)
        if not os.path.exists(test_path):
            ctx.report(
                line, self,
                "pinning test %s of %r does not exist"
                % (test, entry.get("batch")),
            )
            return
        with open(test_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        bare = str(entry.get("batch", "")).rsplit(".", 1)[-1]
        if bare and bare not in text:
            ctx.report(
                line, self,
                "pinning test %s never mentions %r; the parity contract "
                "is unenforced" % (test, bare),
            )


class BatchLoopRule(Rule):
    """RPR032: no Python ``for`` statements over the batch axis."""

    id = "RPR032"
    name = "no-batch-axis-loop"
    description = (
        "a Python-level loop over the batch axis in a hot batched module "
        "defeats the vectorisation the batch path exists for"
    )
    node_types = (ast.For,)

    def _mentions_batch_axis(self, expr: ast.AST) -> Optional[str]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in BATCH_AXIS_NAMES:
                return node.id
            if isinstance(node, ast.Attribute) and node.attr in BATCH_AXIS_NAMES:
                return node.attr
        return None

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.For)
        if not any(ctx.path_endswith(m) for m in HOT_BATCH_MODULES):
            return
        name = self._mentions_batch_axis(node.iter)
        if name is not None:
            ctx.report(
                node, self,
                "Python for-loop over the batch axis (%r) in a hot batched "
                "module; vectorise over the axis or waive with a "
                "justification" % name,
            )


RULES = (ParityManifestRule, BatchLoopRule)
