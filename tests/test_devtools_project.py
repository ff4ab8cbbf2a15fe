"""Project-scoped lint rules: pinned manifests, parity, the shipped codec.

The copied spec/wire modules must lint clean, RPR022 ties the pinned
numeric-semantics modules to ``CACHE_FORMAT``, and RPR031 ties each
scalar/batch pair to its registration and pinning test.
"""

import json
import os
import shutil
import textwrap

import repro
from repro.devtools import LintConfig, lint_paths
from repro.devtools.cachekey import update_cache_manifest
from repro.devtools.framework import semantic_hash

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
RUNNER_DIR = os.path.join(SRC_ROOT, "repro", "runner")


def rules_of(findings):
    return [f.rule for f in findings]


def _copy_codec(tmp_path):
    """Copy the real spec/wire modules into an isolated runner/ tree."""
    runner = tmp_path / "runner"
    runner.mkdir()
    for name in ("spec.py", "wire.py"):
        shutil.copy(os.path.join(RUNNER_DIR, name), runner / name)
    return runner


def test_unmutated_codec_copies_lint_clean(tmp_path):
    _copy_codec(tmp_path)
    assert rules_of(lint_paths([str(tmp_path)])) == []


# ---------------------------------------------------------------------------
# RPR022 pinned numeric-semantics manifest
# ---------------------------------------------------------------------------
def _pinned_tree(tmp_path, kernel_body, cache_format=3):
    pkg = tmp_path / "repro"
    (pkg / "runner").mkdir(parents=True)
    (pkg / "thermal").mkdir()
    (pkg / "runner" / "spec.py").write_text(
        "CACHE_FORMAT = %d\n" % cache_format
    )
    kernel = pkg / "thermal" / "kernels.py"
    kernel.write_text(textwrap.dedent(kernel_body))
    return kernel


def _manifest(tmp_path, cache_format, kernel_hash):
    path = tmp_path / "cache_manifest.json"
    path.write_text(json.dumps({
        "cache_format": cache_format,
        "modules": {"repro/thermal/kernels.py": kernel_hash},
    }))
    return LintConfig(cache_manifest=str(path))


def test_rpr022_clean_when_hash_and_format_match(tmp_path):
    kernel = _pinned_tree(tmp_path, """\
        def advance(t, a):
            return a * t
    """)
    config = _manifest(tmp_path, 3, semantic_hash(kernel.read_text()))
    assert rules_of(lint_paths([str(tmp_path)], config)) == []


def test_rpr022_fires_on_semantic_drift_without_bump(tmp_path):
    kernel = _pinned_tree(tmp_path, """\
        def advance(t, a):
            return a * t + 0.5
    """)
    config = _manifest(tmp_path, 3, "0" * 64)
    findings = lint_paths([str(tmp_path)], config)
    assert rules_of(findings) == ["RPR022"]
    assert "CACHE_FORMAT" in findings[0].message


def test_rpr022_fires_on_format_mismatch(tmp_path):
    kernel = _pinned_tree(tmp_path, """\
        def advance(t, a):
            return a * t
    """, cache_format=4)
    config = _manifest(tmp_path, 3, semantic_hash(kernel.read_text()))
    findings = lint_paths([str(tmp_path)], config)
    assert rules_of(findings) == ["RPR022"]
    assert "manifest pins" in findings[0].message


def test_semantic_hash_ignores_comments_and_docstrings(tmp_path):
    bare = "def advance(t, a):\n    return a * t\n"
    commented = (
        "def advance(t, a):\n"
        '    """Propagate one step."""\n'
        "    # the propagator is precomputed\n"
        "    return a * t\n"
    )
    changed = "def advance(t, a):\n    return a * t + 1\n"
    assert semantic_hash(bare) == semantic_hash(commented)
    assert semantic_hash(bare) != semantic_hash(changed)


def test_update_cache_manifest_refuses_drift_without_bump(tmp_path):
    import pytest

    src = tmp_path / "src"
    (src / "repro" / "runner").mkdir(parents=True)
    (src / "repro" / "thermal").mkdir()
    (src / "repro" / "platform").mkdir()
    (src / "repro" / "power").mkdir()
    (src / "repro" / "runner" / "spec.py").write_text("CACHE_FORMAT = 1\n")
    for mod in ("thermal/kernels.py", "platform/state.py", "power/leakage.py"):
        path = src / "repro" / mod
        path.write_text("def f(x):\n    return x\n")
    manifest = tmp_path / "manifest.json"

    update_cache_manifest(str(src), str(manifest))
    pinned = json.loads(manifest.read_text())
    assert pinned["cache_format"] == 1
    assert len(pinned["modules"]) == 3

    # semantic change without a bump: refused
    (src / "repro" / "thermal" / "kernels.py").write_text(
        "def f(x):\n    return x + 1\n"
    )
    with pytest.raises(ValueError, match="CACHE_FORMAT"):
        update_cache_manifest(str(src), str(manifest))

    # bump the format: the refresh goes through
    (src / "repro" / "runner" / "spec.py").write_text("CACHE_FORMAT = 2\n")
    update_cache_manifest(str(src), str(manifest))
    assert json.loads(manifest.read_text())["cache_format"] == 2


# ---------------------------------------------------------------------------
# RPR031 parity manifest
# ---------------------------------------------------------------------------
def _parity_setup(tmp_path, pairs, module_body, with_test=True):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(module_body))
    manifest = tmp_path / "parity.json"
    manifest.write_text(json.dumps({"pairs": pairs}))
    if with_test:
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "pin_step.py").write_text(
            "def test_step_batch_parity():\n"
            "    assert step_batch is not None\n"
        )
    return LintConfig(
        parity_manifest=str(manifest), repo_root=str(tmp_path)
    )


_PAIR = {
    "module": "pkg/mod.py",
    "scalar": "step",
    "batch": "step_batch",
    "test": "tests/pin_step.py",
}
_MODULE = """\
    def step(x):
        return x + 1

    def step_batch(xs):
        return [x + 1 for x in xs]
"""


def test_rpr031_clean_when_pair_registered_and_pinned(tmp_path):
    config = _parity_setup(tmp_path, [_PAIR], _MODULE)
    findings = lint_paths([str(tmp_path / "pkg")], config)
    assert rules_of(findings) == []


def test_rpr031_fires_on_unregistered_pair(tmp_path):
    config = _parity_setup(tmp_path, [], _MODULE)
    findings = lint_paths([str(tmp_path / "pkg")], config)
    assert rules_of(findings) == ["RPR031"]
    assert findings[0].line == 4
    assert "step_batch" in findings[0].message


def test_rpr031_fires_when_pinning_test_missing(tmp_path):
    config = _parity_setup(tmp_path, [_PAIR], _MODULE, with_test=False)
    findings = lint_paths([str(tmp_path / "pkg")], config)
    assert rules_of(findings) == ["RPR031"]
    assert "does not exist" in findings[0].message


def test_rpr031_fires_when_test_never_mentions_batch_fn(tmp_path):
    config = _parity_setup(tmp_path, [_PAIR], _MODULE)
    (tmp_path / "tests" / "pin_step.py").write_text(
        "def test_unrelated():\n    assert True\n"
    )
    findings = lint_paths([str(tmp_path / "pkg")], config)
    assert rules_of(findings) == ["RPR031"]
    assert "never mentions" in findings[0].message


def test_rpr031_checks_the_pinning_test_of_any_registered_pair(tmp_path):
    """A registered batch side not named ``*_batch`` still needs its test."""
    pair = dict(_PAIR, batch="run_all", test="tests/pin_run_all.py")
    config = _parity_setup(tmp_path, [pair], """\
        def step(x):
            return x + 1

        def run_all(xs):
            return [x + 1 for x in xs]
    """)
    findings = lint_paths([str(tmp_path / "pkg")], config)
    assert rules_of(findings) == ["RPR031"]
    assert findings[0].line == 4
    assert "does not exist" in findings[0].message
    (tmp_path / "tests" / "pin_run_all.py").write_text(
        "def test_parity():\n    assert run_all is not None\n"
    )
    assert rules_of(lint_paths([str(tmp_path / "pkg")], config)) == []


def test_rpr031_fires_on_stale_manifest_entry(tmp_path):
    config = _parity_setup(tmp_path, [_PAIR], """\
        def unrelated(x):
            return x
    """)
    findings = lint_paths([str(tmp_path / "pkg")], config)
    assert any(
        f.rule == "RPR031" and "stale" in f.message for f in findings
    )
