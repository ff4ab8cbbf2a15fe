"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 6.1" in out
    assert "1600" in out
    assert "templerun" in out


def test_run_command(capsys):
    assert main(["run", "dijkstra", "with_fan"]) == 0
    out = capsys.readouterr().out
    assert "dijkstra/with_fan" in out
    assert "peak" in out


def test_run_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["run", "doom", "with_fan"])


def test_run_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        main(["run", "dijkstra", "turbo"])


def test_identify_command(capsys):
    assert main(["identify", "--duration", "300"]) == 0
    out = capsys.readouterr().out
    assert "identified A:" in out
    assert "spectral radius" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_compare_command(capsys, models):
    # uses the cached default models (session fixture already built them)
    assert main(["compare", "dijkstra"]) == 0
    out = capsys.readouterr().out
    assert "with_fan" in out and "dtpm" in out
    assert "savings %" in out


def _seed_model_store(root, models):
    """Pre-populate the on-disk model store so CLI tests skip the build."""
    import json

    from repro.runner import models_key, models_to_payload

    path = root / "models" / (models_key() + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(models_to_payload(models)))


def test_matrix_command_caches_runs(capsys, tmp_path):
    args = [
        "matrix",
        "--benchmarks", "dijkstra",
        "--modes", "with_fan,without_fan",
        "--cache-dir", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "2 executed, 0 cache hits" in out
    # second invocation answers entirely from the cache
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 executed, 2 cache hits" in out
    assert "dijkstra" in out and "without_fan" in out


def test_sweep_command_through_model_store(capsys, tmp_path, models):
    _seed_model_store(tmp_path, models)
    args = [
        "sweep", "constraint",
        "--benchmark", "dijkstra",
        "--values", "60,66",
        "--cache-dir", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "constraint sweep on dijkstra" in out
    assert "2 executed, 0 cache hits" in out
    assert main(args) == 0
    assert "0 executed, 2 cache hits" in capsys.readouterr().out


def test_sweep_rejects_unknown_knob():
    with pytest.raises(SystemExit):
        main(["sweep", "voltage"])


def test_matrix_schedule_runs_with_carryover(capsys, tmp_path):
    args = [
        "matrix",
        "--schedule", "dijkstra,patricia",
        "--modes", "without_fan",
        "--cache-dir", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "(pos 1)" in out  # the scheduled second app is labelled
    assert "2 executed, 0 cache hits" in out
    assert main(args) == 0
    assert "0 executed, 2 cache hits" in capsys.readouterr().out


def test_matrix_rejects_unknown_schedule_benchmark(capsys):
    assert main(["matrix", "--schedule", "doom,quake"]) == 2
    assert "error" in capsys.readouterr().err


def test_matrix_schedule_pins_per_position_modes(capsys, tmp_path):
    args = [
        "matrix",
        "--schedule", "dijkstra:with_fan,patricia",
        "--modes", "without_fan",
        "--cache-dir", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    # the pinned first position keeps its mode; the rest follow the axis
    assert "with_fan" in out and "without_fan" in out
    assert main(["matrix", "--schedule", "dijkstra:overclock"]) == 2
    assert "unknown mode" in capsys.readouterr().err


def test_matrix_days_repeats_schedule_with_overnight(capsys, tmp_path):
    args = [
        "matrix",
        "--schedule", "dijkstra",
        "--days", "2",
        "--modes", "without_fan",
        "--idle-gap", "2.0",
        "--cache-dir", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "overnight" in out  # the night standby position is on the grid
    assert "(pos 2)" in out  # day 2's app carries the overnight state
    assert main(["matrix", "--days", "2"]) == 2
    assert "--days only applies" in capsys.readouterr().err


def test_cache_stats_and_prune(capsys, tmp_path):
    cache_args = ["--cache-dir", str(tmp_path)]
    # populate two entries through a real (tiny) matrix run
    assert main([
        "matrix", "--benchmarks", "dijkstra",
        "--modes", "with_fan,without_fan",
    ] + cache_args) == 0
    capsys.readouterr()
    assert main(["cache", "stats"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "2 results" in out
    assert main(["cache", "prune", "--all"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "pruned 2 entries" in out
    assert main(["cache", "stats"] + cache_args) == 0
    assert "0 results" in capsys.readouterr().out


def test_report_days_requires_schedule(capsys):
    assert main(["report", "--days", "2"]) == 2
    assert "--days only applies" in capsys.readouterr().err
    assert main(["report", "--schedule", "doom"]) == 2
    assert "error" in capsys.readouterr().err


def test_suite_summarize_over_cache_directory(capsys, tmp_path):
    cache_args = ["--cache-dir", str(tmp_path)]
    assert main([
        "matrix", "--benchmarks", "dijkstra",
        "--modes", "with_fan,without_fan",
    ] + cache_args) == 0
    capsys.readouterr()
    assert main(["suite", "summarize"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "Suite summary: 2 cached runs" in out
    assert "with_fan" in out and "without_fan" in out
    assert "big-cluster residency" in out
    # the flag also works before the subcommand token (the parent
    # parser owns it there; the subparser must not clobber the value)
    assert main(["suite"] + cache_args + ["summarize"]) == 0
    assert "Suite summary: 2 cached runs" in capsys.readouterr().out
    assert main(["suite", "summarize", "--cache-dir", ""]) == 2
    assert "no cache directory" in capsys.readouterr().err


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    # the parser default was captured at build time, so pass an empty dir
    assert main(["cache", "stats", "--cache-dir", ""]) == 2
    assert "no cache directory" in capsys.readouterr().err


def test_cache_prune_requires_bound():
    with pytest.raises(SystemExit):
        main(["cache", "prune", "--cache-dir", "/tmp/x"])


def test_cache_stats_missing_dir_fails_clearly(capsys, tmp_path):
    missing = tmp_path / "never-created"
    assert main(["cache", "stats", "--cache-dir", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "no result cache" in err and str(missing) in err


def test_cache_stats_empty_dir_fails_clearly(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["cache", "stats", "--cache-dir", str(empty)]) == 2
    assert "no result cache" in capsys.readouterr().err


def test_suite_summarize_missing_dir_fails_clearly(capsys, tmp_path):
    missing = tmp_path / "never-created"
    assert main(["suite", "summarize", "--cache-dir", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "no cache directory" in err and str(missing) in err


def test_suite_summarize_empty_dir_fails_clearly(capsys, tmp_path):
    assert main(["suite", "summarize", "--cache-dir", str(tmp_path)]) == 2
    assert "no readable run entries" in capsys.readouterr().err


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.host == "127.0.0.1"
    assert args.port == 8765
    assert args.workers == 2
    assert args.batch is None


def test_serve_parser_accepts_overrides():
    args = build_parser().parse_args([
        "serve", "--host", "0.0.0.0", "--port", "9000",
        "--workers", "4", "--batch", "2", "--cache-dir", "/tmp/c",
    ])
    assert (args.host, args.port, args.workers, args.batch) == (
        "0.0.0.0", 9000, 4, 2
    )
    assert args.cache_dir == "/tmp/c"


@pytest.mark.parametrize("argv", [
    ["worker"],
    ["worker", "--port", "8970"],
    ["matrix", "--workers", "127.0.0.1:8970"],
    ["serve", "--dispatch", "127.0.0.1:8970"],
], ids=["worker", "worker-port", "workers-endpoint", "serve-dispatch"])
def test_remote_execution_forms_are_usage_errors(argv, capsys):
    # one executor per batch plan: in-process or the local process pool
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
