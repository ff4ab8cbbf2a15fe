"""Command-line interface to the reproduction.

Subcommands::

    python -m repro.cli tables             # print Tables 6.1-6.4
    python -m repro.cli identify           # run the Chapter-4 pipeline
    python -m repro.cli run BENCH MODE     # one benchmark, one configuration
    python -m repro.cli compare BENCH      # all four configurations
    python -m repro.cli suite              # the Fig. 6.9 sweep
    python -m repro.cli suite summarize    # columnar analytics over a cache
    python -m repro.cli sweep KNOB         # one ablation knob sweep
    python -m repro.cli matrix             # benchmarks x modes grid
    python -m repro.cli cache stats        # inspect the result cache
    python -m repro.cli cache prune        # bound / empty the result cache
    python -m repro.cli report             # cache-aware markdown report
    python -m repro.cli serve              # always-on evaluation service
    python -m repro.cli worker             # remote batch-execution worker

``suite``, ``sweep``, ``matrix`` and ``report`` accept ``--workers N`` (process
fan-out; a ``host:port,host:port`` list instead dispatches batches to
remote ``repro-dtpm worker`` processes with byte-identical results),
``--batch B`` (how many compatible runs one worker advances per
control step; defaults to ``$REPRO_BATCH`` or 8) and ``--cache-dir DIR``
(content-addressed result cache; defaults to ``$REPRO_CACHE_DIR`` when
set), so repeated invocations are near-free.
``matrix`` additionally takes ``--schedule A,B,...`` (repeatable) to run
back-to-back app sequences with thermal-state carryover on the grid;
positions may pin their own thermal mode (``A:dtpm,B``), and ``--days N``
repeats each schedule as a diurnal pattern (consecutive days separated by
an overnight standby position, see :func:`repro.sim.scenario.diurnal`).
``report`` takes the same ``--schedule``/``--days`` pair to append a
scenario section (per-position stability/power deltas along the chain);
against a warm cache the whole report renders without executing a single
simulation.  Exposed as the ``repro-dtpm`` console script as well.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.tables import benchmark_table, frequency_table, render_table
from repro.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.runner import (
    ExperimentMatrix,
    ParallelRunner,
    ResultCache,
    cached_build_models,
    default_cache_dir,
    disk_usage,
    prune,
)
from repro.runner.cache import ORPHAN_GRACE_S
from repro.sim.engine import ThermalMode
from repro.sim.experiment import (
    compare_modes,
    dtpm_vs_default,
    run_benchmark,
)
from repro.sim.metrics import (
    overall_summary,
    performance_loss_pct,
    power_savings_pct,
    summarize_categories,
)
from repro.sim.models import ESTIMATORS, build_models, default_models
from repro.sim.sweep import (
    sweep_constraint,
    sweep_guard_band,
    sweep_horizon,
    sweep_sensor_noise,
)
from repro.workloads.benchmarks import (
    ALL_BENCHMARKS,
    benchmark_names,
    get_benchmark,
    table_6_4_rows,
)

_MODES = {m.value: m for m in ThermalMode}

#: Knob name -> (sweep function, value parser, default axis, unit label,
#: domain probe run *before* the expensive model build).
_SWEEPS = {
    "constraint": (
        sweep_constraint, float, (58.0, 61.0, 63.0, 66.0), "degC",
        lambda v: SimulationConfig(t_constraint_c=v),
    ),
    "horizon": (
        sweep_horizon, int, (1, 5, 10, 30), "steps",
        lambda v: SimulationConfig(prediction_horizon_steps=v),
    ),
    "guard_band": (
        sweep_guard_band, float, (0.0, 0.75, 1.5, 2.5), "K",
        lambda v: None,
    ),
    "sensor_noise": (
        sweep_sensor_noise, float, (0.0, 0.15, 0.3, 0.6), "degC",
        lambda v: SimulationConfig(temp_sensor_noise_c=v),
    ),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _workers_arg(text: str):
    """``--workers``: a process count or a remote worker endpoint list."""
    if ":" in text:
        from repro.distributed.protocol import parse_endpoints

        try:
            parse_endpoints(text)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return _positive_int(text)


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_workers_arg, default=1,
        help="process count for parallel fan-out (default: serial), or a "
             "host:port,host:port list of repro-dtpm worker processes to "
             "dispatch batches to (byte-identical results either way)")
    parser.add_argument(
        "--batch", type=_positive_int, default=None,
        help="runs one worker advances per control step (default: "
             "$REPRO_BATCH or 8; 1 disables batching; results are "
             "byte-identical either way)")
    parser.add_argument(
        "--cache-dir", default=default_cache_dir(),
        help="result-cache directory (default: $REPRO_CACHE_DIR if set)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if a directory is configured")


def _make_runner(args, models=None) -> ParallelRunner:
    cache = None
    if not args.no_cache and args.cache_dir:
        cache = ResultCache(root=args.cache_dir)
    return ParallelRunner(
        workers=args.workers, cache=cache, models=models, batch=args.batch
    )


def _load_models(args):
    """The identified models, via the on-disk store when one is configured."""
    if args.no_cache or not args.cache_dir:
        return default_models()
    return cached_build_models(root=args.cache_dir)


def _cmd_tables(_args) -> int:
    from repro.platform.specs import (
        BIG_FREQUENCIES_HZ,
        GPU_FREQUENCIES_HZ,
        LITTLE_FREQUENCIES_HZ,
    )

    print(frequency_table(BIG_FREQUENCIES_HZ, "Table 6.1: big CPU cluster"))
    print()
    print(frequency_table(LITTLE_FREQUENCIES_HZ, "Table 6.2: little CPU cluster"))
    print()
    print(frequency_table(GPU_FREQUENCIES_HZ, "Table 6.3: GPU"))
    print()
    print(benchmark_table(table_6_4_rows()))
    return 0


def _cmd_identify(args) -> int:
    print("Running furnace characterization + PRBS identification...")
    bundle = build_models(
        prbs_duration_s=args.duration,
        run_furnace=args.furnace,
        method=args.method,
    )
    model = bundle.thermal
    print("identified A:")
    for row in model.a:
        print("  " + "  ".join("%7.4f" % v for v in row))
    print("identified B:")
    for row in model.b:
        print("  " + "  ".join("%7.4f" % v for v in row))
    print("offset d:", "  ".join("%6.2f" % v for v in model.offset))
    print("spectral radius: %.4f" % model.spectral_radius())
    return 0


def _cmd_run(args) -> int:
    workload = get_benchmark(args.benchmark)
    mode = _MODES[args.mode]
    models = default_models() if mode is ThermalMode.DTPM else None
    result = run_benchmark(workload, mode, models=models)
    print(result.summary())
    print(
        "  peak %.1f degC | interventions %d | migrations %d"
        % (result.peak_temp_c(), result.interventions, result.cluster_migrations)
    )
    return 0


def _cmd_compare(args) -> int:
    workload = get_benchmark(args.benchmark)
    results = compare_modes(workload, models=default_models())
    base = results[ThermalMode.DEFAULT_WITH_FAN]
    rows = []
    for mode, result in results.items():
        rows.append(
            [
                mode.value,
                "%.1f" % result.execution_time_s,
                "%.2f" % result.average_platform_power_w,
                "%.1f" % result.peak_temp_c(),
                "%.1f" % power_savings_pct(base, result),
                "%.1f" % performance_loss_pct(base, result),
            ]
        )
    print(
        render_table(
            ["config", "time (s)", "power (W)", "peak (C)", "savings %", "loss %"],
            rows,
            title="%s under the four Section-6.2 configurations" % workload.name,
        )
    )
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report
    from repro.errors import WorkloadError

    workloads = None
    if args.quick:
        workloads = [
            get_benchmark(n) for n in ("dijkstra", "patricia", "matrix_mult")
        ]
    scenario = None
    if args.schedule:
        from repro.sim.scenario import resolve_schedule_entry

        try:
            scenario = tuple(
                resolve_schedule_entry(entry)
                for entry in _parse_schedule_arg(args.schedule)
            )
        except (WorkloadError, ConfigurationError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    elif args.days is not None:
        print(
            "error: --days only applies with --schedule", file=sys.stderr
        )
        return 2
    models = _load_models(args)
    runner = _make_runner(args, models=models)
    text = generate_report(
        models=models,
        workloads=workloads,
        runner=runner,
        scenario=scenario,
        scenario_days=args.days if args.days is not None else 2,
    )
    with open(args.output, "w") as fh:
        fh.write(text + "\n")
    print("report written to %s (%d lines)" % (args.output, text.count("\n") + 1))
    print(runner.last_stats.summary())
    return 0


def _cmd_sweep(args) -> int:
    sweep_fn, parse, default_values, unit, probe = _SWEEPS[args.knob]
    try:
        values = (
            [parse(v) for v in args.values.split(",")]
            if args.values
            else list(default_values)
        )
    except ValueError:
        print(
            "error: --values must be comma-separated %s numbers, got %r"
            % (args.knob, args.values),
            file=sys.stderr,
        )
        return 2
    try:
        for value in values:
            probe(value)
    except ConfigurationError as exc:
        print("error: invalid %s value: %s" % (args.knob, exc), file=sys.stderr)
        return 2
    workload = get_benchmark(args.benchmark)
    models = _load_models(args)
    runner = _make_runner(args, models=models)
    print(
        "Sweeping %s over %s (%s) on %s..."
        % (args.knob, values, unit, workload.name)
    )
    points = sweep_fn(workload, values, models, runner=runner)
    print(
        render_table(
            ["%s (%s)" % (args.knob, unit), "peak (C)", "overshoot (C)",
             "time (s)", "avg power (W)", "interventions"],
            [
                [
                    "%g" % p.value,
                    "%.1f" % p.peak_c,
                    "%.1f" % p.overshoot_c,
                    "%.1f" % p.execution_time_s,
                    "%.2f" % p.average_power_w,
                    "%d" % p.interventions,
                ]
                for p in points
            ],
            title="Ablation: %s sweep on %s" % (args.knob, workload.name),
        )
    )
    print(runner.last_stats.summary())
    return 0


def _parse_schedule_arg(text: str):
    """One ``--schedule`` value: comma-separated ``name[:mode]`` entries."""
    entries = []
    for token in text.split(","):
        name, sep, mode = token.partition(":")
        if not sep:
            entries.append(name)
            continue
        if mode not in _MODES:
            raise ConfigurationError(
                "unknown mode %r in schedule entry %r (choose from %s)"
                % (mode, token, ", ".join(sorted(_MODES)))
            )
        entries.append((name, _MODES[mode]))
    return tuple(entries)


def _cmd_matrix(args) -> int:
    from repro.errors import WorkloadError
    from repro.sim.scenario import diurnal

    try:
        schedules = tuple(
            _parse_schedule_arg(s) for s in (args.schedule or ())
        )
        if args.days > 1:
            schedules = tuple(
                diurnal(schedule, days=args.days) for schedule in schedules
            )
    except (WorkloadError, ConfigurationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.idle_gap and not schedules:
        print(
            "error: --idle-gap only applies to --schedule sequences",
            file=sys.stderr,
        )
        return 2
    if args.days > 1 and not schedules:
        print(
            "error: --days only applies to --schedule sequences",
            file=sys.stderr,
        )
        return 2
    benchmarks = (
        args.benchmarks.split(",")
        if args.benchmarks
        else ([] if schedules else benchmark_names())
    )
    mode_names = args.modes.split(",") if args.modes else list(_MODES)
    unknown = [m for m in mode_names if m not in _MODES]
    if unknown:
        print(
            "error: unknown mode(s) %s (choose from %s)"
            % (", ".join(unknown), ", ".join(sorted(_MODES))),
            file=sys.stderr,
        )
        return 2
    modes = tuple(_MODES[m] for m in mode_names)
    try:
        matrix = ExperimentMatrix(
            workloads=tuple(benchmarks),
            modes=modes,
            schedules=schedules,
            idle_gap_s=args.idle_gap,
        )
        # round-trip through the versioned wire codec so the CLI runs the
        # exact grid a service client POSTing this payload would get
        matrix = ExperimentMatrix.from_dict(matrix.to_dict())
    except (WorkloadError, ConfigurationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # pinned schedule positions can pull DTPM into a grid whose mode axis
    # has none, so ask the expanded specs rather than the axis
    needs_models = any(s.needs_models for s in matrix.specs())
    runner = _make_runner(
        args, models=_load_models(args) if needs_models else None
    )
    print(
        "Running a %dx%d experiment matrix (%d runs, %s workers)..."
        % (len(benchmarks) + len(schedules), len(modes), len(matrix),
           args.workers)
    )
    results = runner.run(matrix)
    specs = matrix.specs()
    print(
        render_table(
            ["benchmark", "mode", "time (s)", "power (W)", "peak (C)",
             "interventions"],
            [
                [
                    s.workload.name
                    + ("" if not s.history else " (pos %d)" % len(s.history)),
                    s.mode.value,
                    "%.1f" % r.execution_time_s,
                    "%.2f" % r.average_platform_power_w,
                    "%.1f" % r.peak_temp_c(),
                    "%d" % r.interventions,
                ]
                for s, r in zip(specs, results)
            ],
            title="Experiment matrix",
        )
    )
    print(runner.last_stats.summary())
    return 0


def _cache_root(args) -> Optional[str]:
    root = args.cache_dir
    if not root:
        print(
            "error: no cache directory (pass --cache-dir or set "
            "$REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return None
    return root


def _cmd_cache_stats(args) -> int:
    root = _cache_root(args)
    if root is None:
        return 2
    # a pruned store keeps its shard directories, so listdir() only comes
    # up empty for directories no cache writer has ever touched
    if not os.path.isdir(root) or not os.listdir(root):
        print(
            "error: no result cache at %s (nothing has been cached "
            "there yet)" % root,
            file=sys.stderr,
        )
        return 2
    usage = disk_usage(root)
    print("cache at %s" % usage.root)
    print("  " + usage.summary())
    if usage.stray_files:
        print(
            "  %d stray file(s), %.1f MiB: interrupted writes or an earlier "
            "store version's layout, never read; `repro-dtpm cache prune` "
            "removes those older than %.0f s"
            % (usage.stray_files, usage.stray_bytes / 2**20, ORPHAN_GRACE_S)
        )
    for note in usage.notes:
        print("  note: %s" % note)
    return 0


def _cmd_cache_prune(args) -> int:
    root = _cache_root(args)
    if root is None:
        return 2
    max_bytes = None if args.all else int(args.max_mb * 2**20)
    removed, freed = prune(root, max_bytes=max_bytes)
    print(
        "pruned %d entr%s, freed %.1f MiB"
        % (removed, "y" if removed == 1 else "ies", freed / 2**20)
    )
    print("  now: " + disk_usage(root).summary())
    return 0


def _cmd_suite_summarize(args) -> int:
    from repro.analysis.suite import summarize_dir

    root = _cache_root(args)
    if root is None:
        return 2
    if not os.path.isdir(root):
        print(
            "error: no cache directory at %s (run a suite with "
            "--cache-dir first)" % root,
            file=sys.stderr,
        )
        return 2
    try:
        text = summarize_dir(root)
    except SimulationError as exc:  # a missing or damaged trace blob
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if "no readable run entries" in text:
        print("error: %s" % text, file=sys.stderr)
        return 2
    print(text)
    return 0


def _cmd_suite(args) -> int:
    if getattr(args, "suite_command", None) == "summarize":
        return _cmd_suite_summarize(args)
    print("Running the full Fig. 6.9 sweep (15 benchmarks x 2 configs)...")
    models = _load_models(args)
    runner = _make_runner(args, models=models)
    rows = dtpm_vs_default(ALL_BENCHMARKS, models=models, runner=runner)
    table_rows = [
        [
            r.benchmark,
            r.category,
            "%.1f" % r.power_savings_pct,
            "%.1f" % r.performance_loss_pct,
        ]
        for r in rows
    ]
    print(
        render_table(
            ["benchmark", "category", "savings %", "perf loss %"],
            table_rows,
            title="Fig 6.9: DTPM vs fan-cooled default",
        )
    )
    print("\nper category:", summarize_categories(rows))
    print("overall:", overall_summary(rows))
    print(runner.last_stats.summary())
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    return serve(
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        batch=args.batch,
        dispatch=args.dispatch,
    )


def _cmd_worker(args) -> int:
    from repro.distributed.worker import run_worker

    return run_worker(host=args.host, port=args.port)


def _cmd_lint(args) -> int:
    from repro.devtools.cli import run_lint_cli

    return run_lint_cli(args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dtpm",
        description="Predictive DTPM reproduction (Singla et al., DATE 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 6.1-6.4").set_defaults(
        func=_cmd_tables
    )

    p_ident = sub.add_parser("identify", help="run the Chapter-4 pipeline")
    p_ident.add_argument("--duration", type=float, default=1050.0,
                         help="PRBS session length in seconds")
    p_ident.add_argument("--furnace", action="store_true",
                         help="run the furnace characterization too")
    p_ident.add_argument("--method", default="structured",
                         choices=tuple(ESTIMATORS))
    p_ident.set_defaults(func=_cmd_identify)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark", choices=benchmark_names())
    p_run.add_argument("mode", choices=sorted(_MODES))
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="all four configurations")
    p_cmp.add_argument("benchmark", choices=benchmark_names())
    p_cmp.set_defaults(func=_cmd_compare)

    p_suite = sub.add_parser(
        "suite",
        help="the full Fig. 6.9 sweep (or `suite summarize` for columnar "
             "analytics over an existing cache directory)",
    )
    _add_runner_args(p_suite)
    suite_sub = p_suite.add_subparsers(dest="suite_command")
    p_summ = suite_sub.add_parser(
        "summarize",
        help="open a cache directory as one columnar SuiteFrame and "
             "print per-mode aggregate reductions (each trace blob is "
             "read and CRC-checked; a damaged one is an error)",
    )
    # SUPPRESS: the parent `suite` parser already owns --cache-dir (via
    # _add_runner_args); a subparser default would clobber a value given
    # before the subcommand token (`suite --cache-dir X summarize`)
    p_summ.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help="cache directory (default: $REPRO_CACHE_DIR)")
    p_suite.set_defaults(func=_cmd_suite)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one ablation knob through the parallel runner"
    )
    p_sweep.add_argument("knob", choices=sorted(_SWEEPS))
    p_sweep.add_argument("--benchmark", default="basicmath",
                         choices=benchmark_names())
    p_sweep.add_argument("--values",
                         help="comma-separated knob values (default: a "
                              "paper-centred axis)")
    _add_runner_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mat = sub.add_parser(
        "matrix", help="run a benchmarks x modes experiment matrix"
    )
    p_mat.add_argument("--benchmarks",
                       help="comma-separated benchmark names (default: all, "
                            "or none when --schedule is given)")
    p_mat.add_argument("--modes",
                       help="comma-separated modes (default: all four)")
    p_mat.add_argument("--schedule", action="append", metavar="B1[:MODE],B2,...",
                       help="back-to-back benchmark sequence run with "
                            "thermal-state carryover (repeatable); a "
                            "position may pin its own thermal mode, the "
                            "rest follow the --modes axis")
    p_mat.add_argument("--idle-gap", type=float, default=0.0,
                       help="idle seconds between schedule runs (default: 0)")
    p_mat.add_argument("--days", type=_positive_int, default=1,
                       help="repeat each schedule as a diurnal pattern of "
                            "this many days, separated by overnight standby "
                            "positions (default: 1)")
    _add_runner_args(p_mat)
    p_mat.set_defaults(func=_cmd_matrix)

    p_cache = sub.add_parser(
        "cache", help="inspect or bound the content-addressed result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cstats = cache_sub.add_parser(
        "stats", help="entry counts and byte footprint of the store"
    )
    p_cstats.add_argument("--cache-dir", default=default_cache_dir(),
                          help="cache directory (default: $REPRO_CACHE_DIR)")
    p_cstats.set_defaults(func=_cmd_cache_stats)
    p_cprune = cache_sub.add_parser(
        "prune",
        help="evict result entries (least-recently-read first) to bound "
             "the store",
    )
    p_cprune.add_argument("--cache-dir", default=default_cache_dir(),
                          help="cache directory (default: $REPRO_CACHE_DIR)")
    bound = p_cprune.add_mutually_exclusive_group(required=True)
    bound.add_argument("--max-mb", type=float,
                       help="evict least-recently-read entries until under "
                            "this many MiB")
    bound.add_argument("--all", action="store_true",
                       help="remove every result entry (models are kept)")
    p_cprune.set_defaults(func=_cmd_cache_prune)

    p_rep = sub.add_parser(
        "report",
        help="write a markdown evaluation report (cache-aware: a warm "
             "result cache renders it without executing simulations)",
    )
    p_rep.add_argument("--output", default="dtpm_report.md")
    p_rep.add_argument("--quick", action="store_true",
                       help="restrict to a few representative benchmarks")
    p_rep.add_argument("--schedule", metavar="B1[:MODE],B2,...",
                       help="add a scenario section: one day's app "
                            "sequence run as a diurnal chain with "
                            "thermal-state carryover")
    p_rep.add_argument("--days", type=_positive_int, default=None,
                       help="days the --schedule pattern repeats, "
                            "separated by overnight standby (default: 2)")
    _add_runner_args(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_srv = sub.add_parser(
        "serve",
        help="start the always-on evaluation service: POST RunSpec/matrix "
             "wire JSON to /v1/runs and /v1/matrix; warm requests answer "
             "from the cache with zero simulations, cold ones run on a "
             "background job queue with request coalescing",
    )
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8765,
                       help="bind port (default: 8765; 0 picks a free one)")
    p_srv.add_argument("--workers", type=_positive_int, default=2,
                       help="background job worker threads (default: 2)")
    p_srv.add_argument("--batch", type=_positive_int, default=None,
                       help="runs one job advances per control step "
                            "(default: $REPRO_BATCH or 8)")
    p_srv.add_argument("--cache-dir", default=default_cache_dir(),
                       help="result-cache directory the service persists "
                            "to (default: $REPRO_CACHE_DIR; without one "
                            "results live in memory only)")
    p_srv.add_argument("--dispatch", default=None, metavar="HOST:PORT,...",
                       help="remote repro-dtpm worker endpoints cold jobs "
                            "dispatch their batches to (results and cache "
                            "writes are byte-identical to local execution)")
    p_srv.set_defaults(func=_cmd_serve)

    p_wrk = sub.add_parser(
        "worker",
        help="start a remote batch-execution worker: a coordinator "
             "(ParallelRunner(workers=\"host:port,...\") or serve "
             "--dispatch) ships it spec batches over TCP and it answers "
             "with byte-identical results; it never touches the cache",
    )
    p_wrk.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_wrk.add_argument("--port", type=int, default=8970,
                       help="bind port (default: 8970; 0 picks a free one)")
    p_wrk.set_defaults(func=_cmd_worker)

    from repro.devtools.cli import add_lint_arguments

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's invariant linter: determinism (RPR01x), "
             "cache-key coherence (RPR02x), batch parity (RPR03x) and "
             "lock discipline (RPR04x) as a single-walk AST pass",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
