"""RPR02x -- cache-key coherence rules.

Results are cached under a content key derived from the canonical
rendering of a :class:`~repro.runner.spec.RunSpec` plus ``CACHE_FORMAT``.
The key cannot see a change to the maths behind a cached number, so:

* RPR022 -- a numeric-semantics module changed without a format bump:
  the pinned manifest stores a *semantic* hash (AST with comments and
  docstrings stripped) of the modules whose maths defines what a cached
  number means (``thermal/kernels.py``, ``platform/state.py``,
  ``power/leakage.py``).  If a hash moved, ``CACHE_FORMAT`` must move in
  the same diff -- refresh with ``repro-dtpm lint --update-manifests``.

That every spec field reaches the wire, and so the content key of a
decoded spec, needs no rule: :mod:`repro.runner.wire` walks each
dataclass's own fields (``tests/test_wire.py`` pins the round trips).
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.devtools.framework import (
    FileContext,
    LintConfig,
    LintRun,
    Rule,
    data_path,
    load_json,
    semantic_hash,
)

#: Modules whose semantic hash participates in the RPR022 manifest.
DEFAULT_PINNED_MODULES = (
    "repro/thermal/kernels.py",
    "repro/platform/state.py",
    "repro/power/leakage.py",
)


class CacheManifestRule(Rule):
    """RPR022: pinned numeric-semantics modules vs ``CACHE_FORMAT``."""

    id = "RPR022"
    name = "cache-format-manifest"
    description = (
        "a pinned numeric-semantics module changed without a CACHE_FORMAT "
        "bump, so stale cached numbers would be served as current"
    )

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config
        self._format_value: Optional[int] = None
        self._format_line = 0
        self._format_ctx: Optional[FileContext] = None
        self._hashes: List[Tuple[FileContext, str]] = []

    def _manifest_path(self) -> str:
        if self.config is not None and self.config.cache_manifest:
            return self.config.cache_manifest
        return data_path("cache_manifest.json")

    def observe(self, ctx: FileContext) -> None:
        if ctx.path_endswith("runner/spec.py"):
            for stmt in ctx.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "CACHE_FORMAT"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, int)
                ):
                    self._format_value = stmt.value.value
                    self._format_line = stmt.lineno
                    self._format_ctx = ctx
        self._hashes.append((ctx, ctx.source))

    def finalize(self, run: LintRun) -> None:
        try:
            manifest = load_json(self._manifest_path())
        except (OSError, ValueError) as exc:
            if self._format_ctx is not None:
                self._format_ctx.report(
                    self._format_line, self,
                    "cache manifest %s is unreadable (%s); regenerate with "
                    "repro-dtpm lint --update-manifests"
                    % (self._manifest_path(), exc),
                )
            return
        modules = manifest.get("modules", {})
        pinned_format = manifest.get("cache_format")
        if (
            self._format_value is not None
            and pinned_format != self._format_value
        ):
            assert self._format_ctx is not None
            self._format_ctx.report(
                self._format_line, self,
                "CACHE_FORMAT is %d but the cache manifest pins %r; "
                "refresh the manifest in the same diff "
                "(repro-dtpm lint --update-manifests)"
                % (self._format_value, pinned_format),
            )
        for ctx, source in self._hashes:
            for module, pinned in modules.items():
                if not ctx.path_endswith(module):
                    continue
                actual = semantic_hash(source)
                if actual != pinned:
                    ctx.report(
                        1, self,
                        "numeric semantics of %s changed (hash %s..., "
                        "manifest pins %s...); bump CACHE_FORMAT in "
                        "repro/runner/spec.py and refresh the manifest "
                        "(repro-dtpm lint --update-manifests)"
                        % (module, actual[:12], str(pinned)[:12]),
                    )


def update_cache_manifest(
    src_root: str, manifest_path: Optional[str] = None
) -> str:
    """Refresh the RPR022 manifest; refuses hash drift without a bump.

    Returns a human-readable summary line.  Raises ``ValueError`` when a
    pinned module's semantic hash changed but ``CACHE_FORMAT`` did not --
    the exact situation the rule exists to prevent.
    """
    manifest_path = manifest_path or data_path("cache_manifest.json")
    spec_path = os.path.join(src_root, "repro", "runner", "spec.py")
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec_tree = ast.parse(fh.read())
    current_format: Optional[int] = None
    for stmt in spec_tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "CACHE_FORMAT"
            and isinstance(stmt.value, ast.Constant)
        ):
            current_format = int(stmt.value.value)
    if current_format is None:
        raise ValueError("could not find CACHE_FORMAT in %s" % spec_path)

    old: dict = {}
    if os.path.exists(manifest_path):
        old = load_json(manifest_path)
    module_names = tuple(old.get("modules", {})) or DEFAULT_PINNED_MODULES

    fresh: Dict[str, str] = {}
    for module in module_names:
        path = os.path.join(src_root, *module.split("/"))
        with open(path, "r", encoding="utf-8") as fh:
            fresh[module] = semantic_hash(fh.read())

    drifted = sorted(
        m for m, h in fresh.items()
        if old.get("modules", {}).get(m, h) != h
    )
    if drifted and old.get("cache_format") == current_format:
        raise ValueError(
            "refusing to refresh hashes of %s: their numeric semantics "
            "changed but CACHE_FORMAT is still %d -- bump it in "
            "repro/runner/spec.py first" % (", ".join(drifted), current_format)
        )

    payload = {"cache_format": current_format, "modules": fresh}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return "cache manifest: format %d, %d module(s) pinned" % (
        current_format, len(fresh)
    )


RULES = (CacheManifestRule,)
