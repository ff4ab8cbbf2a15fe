"""The repository benchmark: one command per workload, one JSON result.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cold_dtpm --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 3        # all four workloads in turn

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` measures the same way, untraced, then wraps the program's
layer boundaries (``tracing.py``) and runs a fixed amount of the same
work, printing per-layer self times, call counts, the program's own
counts and the tracing overhead.  Either way the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run also writes a record with host, core count, Python and numpy
versions and the git revision under ``.perfbench/results/`` (and, when
traced, every span under ``.perfbench/traces/``).

``python3 perfbench/run.py --record-digests`` re-records the output
digests that every run checks against (``digests.json``); only do that
for a change that is meant to change simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

OUT_DIR = ".perfbench"

#: Environment knobs of the program that would change what is measured.
_PROGRAM_ENV = ("REPRO_CACHE_DIR", "REPRO_BATCH", "REPRO_KERNEL", "REPRO_WORKERS")


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def host_info() -> Dict[str, object]:
    import numpy as np

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        revision = "unknown"
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
    }


def end_to_end(wl, setups: List[float], m) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": m.ops_per_s,
        "latency_p50_ms": _percentile(m.latencies_ms, 50),
        "peak_rss_mb": wl.peak_rss_mb(),
    }


#: Units of the end-to-end metrics (names as in BENCHMARK.json).
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: What one operation and one work unit are, per workload.
OPERATION = {
    "cold_dtpm": ("matrix", "sim_s_per_s", "simulated s per host s"),
    "cold_fan": ("matrix", "sim_s_per_s", "simulated s per host s"),
    "warm_service": ("request", "req_per_s", "requests per s"),
    "suite_scan": ("summarize_dir call", "summarize_per_s", "calls per s"),
}


def per_layer(tracer, counts: Dict[str, float], untraced, traced) -> Dict[str, float]:
    from tracing import SPAN_NAMES

    stats = tracer.layer_stats()
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        entry = stats.get(name, {"self_s": 0.0, "calls": 0})
        out[name + "_s"] = entry["self_s"]
        out[name + "_calls"] = entry["calls"]
    get = stats.get("runner.cache_get", {"hits": 0, "misses": 0})
    out["runner.cache_get_hits"] = get["hits"]
    out["runner.cache_get_misses"] = get["misses"]
    memo = stats.get("service.memo", {"hits": 0, "calls": 0})
    out["service.memo_hit_ratio"] = (
        memo["hits"] / memo["calls"] if memo["calls"] else 0.0
    )
    for name in ("sim.lane_intervals", "core.interventions",
                 "core.violations_predicted", "runner.cache_put_bytes"):
        out[name] = counts.get(name, 0)
    out["trace.spans"] = tracer.span_count()
    out["trace.untraced_ops_per_s"] = untraced.ops_per_s
    out["trace.traced_ops_per_s"] = traced.ops_per_s
    out["trace.overhead_pct"] = 100.0 * (
        1.0 - traced.ops_per_s / untraced.ops_per_s
    )
    return out


def run(args) -> Dict[str, object]:
    from tracing import Tracer
    from workloads import WORKLOADS, at_nominal_speed

    work_dir = os.path.join(
        OUT_DIR, "work", "%s-%d" % (args.workload, os.getpid())
    )
    os.makedirs(work_dir)
    wl = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        setups = [
            at_nominal_speed(wl.timed_setup)[0]
            for _ in range(SETUP_REPS if not args.trace else 1)
        ]
        m = wl.measure(args.seconds)
        attempted, failed = m.attempted, m.failed
        if not args.trace:
            wl.final_checks()
            metrics = end_to_end(wl, setups, m)
            units = UNITS
        else:
            wl.prepare_traced()
            tracer = Tracer().install()
            try:
                traced = wl.traced_work()
            finally:
                tracer.uninstall()
            wl.final_checks()
            attempted += traced.attempted
            failed += traced.failed
            metrics = per_layer(tracer, traced.counts, m, traced)
            units = {}
            os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
            tracer.write(os.path.join(
                OUT_DIR, "traces",
                "%s-seed%d.json" % (args.workload, args.seed),
            ))
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    op, rate_name, rate_unit = OPERATION[args.workload]
    lat = m.latencies_ms
    print("workload %s, seed %d (input variant %d), %d %s(s) timed"
          % (args.workload, args.seed, wl.variant, len(lat), op))
    print("  %s = %.6g %s (median of %d spans)"
          % (rate_name, m.ops_per_s, rate_unit, len(m.rates)))
    if args.workload == "suite_scan":
        print("  summarize_s = %.6g s (median per call)"
              % (_percentile(lat, 50) / 1e3))
    # printed and recorded, not gated: its run-to-run spread is too wide
    print("  latency_p99_ms = %.6g ms (%d samples)" % (
        _percentile(lat, 99), len(lat)))
    for name, value in metrics.items():
        print("  %s = %.6g %s" % (name, value, units.get(name, "")))
    for problem in wl.problems:
        print("  CHECK FAILED: %s" % problem)
    info = host_info()
    print("  host %(host)s, %(cores)s cores, python %(python)s, "
          "numpy %(numpy)s, revision %(git_revision)s" % info)

    result = {
        "correct": failed == 0 and not wl.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name, units)}
            for name, value in metrics.items()
        },
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(
        OUT_DIR, "results",
        "%s-seed%d-trace%d-%d.json"
        % (args.workload, args.seed, args.trace, int(time.time())),
    ), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       latency_p99_ms=_percentile(lat, 99),
                       seconds=args.seconds, problems=wl.problems, **info),
                  fh, indent=1)
    return result


def unit_of(name: str, units: Dict[str, str]) -> str:
    """Unit of an end-to-end metric, or of a per-layer one by its suffix."""
    if name in units:
        return units[name]
    for suffix, unit in (("_ops_per_s", "1/s"), ("_s", "s"),
                         ("_bytes", "bytes"), ("_ratio", "ratio"),
                         ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def record_digests() -> None:
    """Re-record digests.json from the current program."""
    from repro.runner import cached_build_models, model_fingerprint
    from workloads import DIGESTS_PATH, PRBS_S, VARIANTS, WORKLOADS

    work_dir = os.path.join(OUT_DIR, "work", "record-%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        models = cached_build_models(
            root=os.path.join(work_dir, "models"), prbs_duration_s=PRBS_S
        )
        out: Dict[str, object] = {"models": model_fingerprint(models)}
        for name, cls in WORKLOADS.items():
            table = {}
            for variant in range(VARIANTS):
                wl = cls(variant, work_dir)
                wl.models = models  # only the DTPM lanes use them
                table[str(variant)] = wl.record()
                wl.close()
            out[name] = table
            print("recorded", name, flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(OPERATION),
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join("src", "repro")):
        print("error: run from the root of a repro checkout (no src/repro "
              "here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        # each workload in its own process, as the benchmark is meant to
        # be run; the last line is the last workload's result
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in OPERATION
        ]
        return max(codes)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
