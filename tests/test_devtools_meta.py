"""Meta checks: the shipped tree lints clean and the CLI behaves.

These are the gate CI leans on -- if a change to src/ introduces a
violation (or a rule regresses into flagging sanctioned code), the
first test here fails with the offending findings in the message.
"""

import json
import os
import textwrap

import repro
from repro.devtools import LintConfig, all_rule_classes, lint_paths
from repro.devtools.cli import main

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REPO_ROOT = os.path.dirname(SRC_ROOT)


def test_shipped_tree_lints_clean():
    config = LintConfig(repo_root=REPO_ROOT)
    findings = lint_paths([SRC_ROOT], config)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_rule_ids_are_unique_and_well_formed():
    ids = [cls.id for cls in all_rule_classes()]
    assert len(ids) == len(set(ids))
    assert all(i.startswith("RPR") and len(i) == 6 for i in ids)
    # every shipped family is registered; RPR02x holds only the pinned
    # manifest rule, the others at least two rules each
    for family, least in (
        ("RPR01", 2), ("RPR02", 1), ("RPR03", 2), ("RPR04", 2),
    ):
        assert sum(1 for i in ids if i.startswith(family)) >= least, family


def test_cli_clean_tree_exits_zero(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src"]) == 0
    assert "clean" in capsys.readouterr().out


def _violating_tree(tmp_path):
    mod = tmp_path / "sim" / "bad.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(textwrap.dedent("""\
        def derive(spec):
            return hash(spec)
    """))
    return tmp_path


def test_cli_violation_exits_one(tmp_path, capsys):
    _violating_tree(tmp_path)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RPR011" in out and "1 error(s)" in out


def test_cli_json_output_schema(tmp_path, capsys):
    _violating_tree(tmp_path)
    assert main([str(tmp_path), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["errors"] == 1
    assert payload["warnings"] == 0
    (finding,) = payload["findings"]
    assert finding["rule"] == "RPR011"
    assert finding["line"] == 2
    assert finding["severity"] == "error"


def test_cli_severity_override_downgrades_exit_code(tmp_path):
    _violating_tree(tmp_path)
    assert main([str(tmp_path), "--severity", "RPR011=warning"]) == 0


def test_cli_rejects_bad_severity_spec(tmp_path, capsys):
    assert main([str(tmp_path), "--severity", "RPR011=fatal"]) == 2
    assert main([str(tmp_path), "--severity", "bogus"]) == 2


def test_cli_rejects_missing_path(tmp_path):
    assert main([str(tmp_path / "nowhere")]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in all_rule_classes():
        assert cls.id in out


def test_cli_update_manifests_round_trips(tmp_path, monkeypatch, capsys):
    # refreshing the manifest against the shipped tree must be a no-op
    monkeypatch.chdir(REPO_ROOT)
    shipped = os.path.join(
        SRC_ROOT, "repro", "devtools", "data", "cache_manifest.json"
    )
    with open(shipped) as fh:
        before = json.load(fh)
    target = tmp_path / "cache_manifest.json"
    from repro.devtools.cachekey import update_cache_manifest

    update_cache_manifest(SRC_ROOT, str(target))
    assert json.loads(target.read_text()) == before


def test_repro_cli_exposes_lint_subcommand(monkeypatch, capsys):
    from repro.cli import build_parser

    monkeypatch.chdir(REPO_ROOT)
    parser = build_parser()
    args = parser.parse_args(["lint", "src"])
    assert args.func(args) == 0
    assert "clean" in capsys.readouterr().out
