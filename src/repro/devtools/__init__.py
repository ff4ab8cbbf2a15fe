"""Repo-specific static analysis: the ``repro-dtpm lint`` invariant pass.

Four rule families guard the invariants the test suite can only sample
after the fact (see :mod:`repro.devtools.framework` for the machinery):

* RPR01x :mod:`~repro.devtools.determinism` -- no unsanctioned entropy
  in the numeric layers,
* RPR02x :mod:`~repro.devtools.cachekey` -- pinned numeric semantics
  stay coherent with ``CACHE_FORMAT`` and so with the content keys,
* RPR03x :mod:`~repro.devtools.parity` -- scalar/batch pairs registered
  and pinned, no batch-axis Python loops,
* RPR04x :mod:`~repro.devtools.concurrency` -- ``guarded-by`` lock
  discipline and joinable daemon threads.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Type

from repro.devtools import cachekey, concurrency, determinism, parity
from repro.devtools.framework import (
    Finding,
    LintConfig,
    Rule,
    run_lint,
)

__all__ = [
    "Finding",
    "LintConfig",
    "Rule",
    "all_rule_classes",
    "default_rules",
    "lint_paths",
    "run_lint",
]


def all_rule_classes() -> Tuple[Type[Rule], ...]:
    """Every registered rule class, in rule-id order."""
    classes = (
        determinism.RULES + cachekey.RULES + parity.RULES + concurrency.RULES
    )
    return tuple(sorted(classes, key=lambda cls: cls.id))


def default_rules(config: Optional[LintConfig] = None) -> List[Rule]:
    """Instantiate the full rule set (config-aware rules get the config)."""
    rules: List[Rule] = []
    for cls in all_rule_classes():
        try:
            rules.append(cls(config))  # type: ignore[call-arg]
        except TypeError:
            rules.append(cls())
    return rules


def lint_paths(
    paths, config: Optional[LintConfig] = None
) -> List[Finding]:
    """Lint files/directories with the default rule set."""
    config = config or LintConfig()
    return run_lint(paths, default_rules(config), config)
