"""The benchmark's four workloads: inputs from a seed, set-up, timed work.

Every workload drives the program only through its public entry points
(``ParallelRunner.run``, ``repro-dtpm serve`` over HTTP, ``summarize_dir``)
and checks what comes back.  A workload object

* builds its inputs from the workload seed in its constructor (the
  program only ever sees the generated inputs);
* ``setup()`` does everything that must happen before the first timed
  operation, from scratch each time it is called (the harness repeats it
  and reports the median);
* ``measure(seconds)`` runs timed operations for about ``seconds`` and
  returns a :class:`Measurement`, every time rescaled to the nominal
  host speed (:mod:`hostspeed`);
* ``prepare_traced()`` then ``traced_work()`` run a fixed amount of the
  same work for the traced run, so per-layer totals and call counts
  compare across runs (only ``traced_work`` runs under the tracer);
* ``close()`` stops what it started and removes its files.

Simulated results are checked against digests recorded in
``digests.json`` (see ``run.py --record-digests``): a "speed-up" that
changes any simulated statistic fails the check.  Inputs depend on the
seed through ``seed % VARIANTS``, the number of recorded variants.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from hostspeed import reference_s, scale
from repro.analysis.suite import summarize_dir
from repro.runner import (
    ExperimentMatrix,
    ParallelRunner,
    ResultCache,
    RunSpec,
    cached_build_models,
    model_fingerprint,
    result_bytes,
    result_to_summary,
    spec_key,
    trace_blob_bytes,
)
from repro.sim.engine import ThermalMode
from repro.sim.scenario import diurnal
from repro.workloads.generator import synthesize

#: Distinct input sets; the seed selects one as ``seed % VARIANTS``.
VARIANTS = 32

#: Lanes per cold matrix, run as one lock-step batch in one process.
LANES = 16

#: Nominal full-speed seconds of each cold lane's workload.  Short
#: matrices give many operations per run to take the median over.
LANE_S = 15.0

#: PRBS campaign length of the cold_dtpm model identification.  A third
#: of the library default (1050 s): identification is repeated for the
#: set-up median, and every run must fit the time budget.
PRBS_S = 300.0

#: Entries in the suite_scan store (few simulated results, many keys).
SUITE_ENTRIES = 2000

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(PERFBENCH_DIR, "digests.json")

FAN_MODES = (ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN, ThermalMode.REACTIVE)


def digest(result) -> str:
    """Short SHA-256 of a result's canonical bytes (every statistic)."""
    return hashlib.sha256(result_bytes(result)).hexdigest()[:20]


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def _rng(workload_id: int, variant: int) -> np.random.Generator:
    return np.random.default_rng([workload_id, variant])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**20))


def _app(workload_id: int, lane: int, category: str, duration_s: float,
         name: str):
    """A synthetic 2-thread app, the same for every seed.

    Seeds vary the run seeds (sensor noise, scheduler and meter draws) of
    a fixed app mix, so runs with different seeds do comparable work and
    the spread across seeds measures the host, not the inputs.
    """
    return synthesize(category, duration_s, threads=2,
                      seed=1000 * workload_id + lane, name=name)


def _short_apps(workload_id: int, count: int):
    """``count`` short apps (cheap to simulate during set-up)."""
    return [
        _app(workload_id, i, "high" if i % 2 else "medium", 15.0,
             "short-%d" % i)
        for i in range(count)
    ]


@dataclass
class Measurement:
    """What one measuring window produced, at the nominal host speed."""

    #: Work units per second over each operation (loop workloads) or
    #: each one-second window of load (warm_service).
    rates: List[float]
    #: Milliseconds per operation (matrix, request or scan).
    latencies_ms: List[float]
    attempted: int
    failed: int
    #: The program's own counts over the window (per-layer metrics).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.rates)


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.variant = seed % VARIANTS
        self.work_dir = work_dir
        self.problems: List[str] = []

    def fresh_dir(self, tag: str) -> str:
        """A new empty directory under the work directory."""
        return tempfile.mkdtemp(prefix=tag + "-", dir=self.work_dir)

    def expected(self) -> dict:
        return load_digests()[self.name][str(self.variant)]

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setup(self) -> tuple:
        """``(host_s,)`` of one :meth:`setup`."""
        t0 = time.perf_counter()
        self.setup()
        return (time.perf_counter() - t0,)

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def prepare_traced(self) -> None:
        """Untraced preparation for :meth:`traced_work`."""

    def traced_work(self) -> Measurement:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks made once after the timed work (failures -> problems)."""

    def close(self) -> None:
        """Stop whatever the workload started."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work (MiB)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def record(self) -> dict:
        """Digests of this variant's outputs (for digests.json)."""
        raise NotImplementedError


def at_nominal_speed(op) -> tuple:
    """Run ``op()``; its host time comes back at the nominal host speed.

    ``op`` returns ``(host_s, ...)``; see :mod:`hostspeed`.
    """
    before = reference_s()
    sample = op()
    factor = scale(before, reference_s())
    # collect the operation's garbage now, not inside the next one
    gc.collect()
    return (sample[0] * factor,) + tuple(sample[1:])


def timed_loop(seconds: float, op) -> List[tuple]:
    """Run ``op()`` until ``seconds`` have passed (at least once)."""
    samples = []
    end = time.perf_counter() + seconds
    while True:
        samples.append(at_nominal_speed(op))
        if time.perf_counter() >= end:
            return samples


def repeat(count: int, op) -> List[tuple]:
    """Run ``op()`` a fixed number of times (the traced run)."""
    return [at_nominal_speed(op) for _ in range(count)]


def loop_measurement(samples: List[tuple]) -> Measurement:
    """Fold ``(host_s, units, attempted, failed, counts)`` samples."""
    counts: Dict[str, float] = {}
    for sample in samples:
        for k, v in sample[4].items():
            counts[k] = counts.get(k, 0) + v
    return Measurement(
        rates=[s[1] / s[0] for s in samples],
        latencies_ms=[s[0] * 1e3 for s in samples],
        attempted=sum(s[2] for s in samples),
        failed=sum(s[3] for s in samples),
        counts=counts,
    )


# ---------------------------------------------------------------------------
# cold matrices
# ---------------------------------------------------------------------------
class _ColdMatrix(Workload):
    """One cold matrix per operation: a fresh, empty on-disk store."""

    models = None

    def specs(self) -> List[RunSpec]:
        raise NotImplementedError

    def run_matrix(self) -> tuple:
        specs = self.specs()
        root = self.fresh_dir("store")
        runner = ParallelRunner(
            workers=1, cache=ResultCache(root=root), models=self.models,
            batch=LANES,
        )
        t0 = time.perf_counter()
        results = runner.run(specs)
        host_s = time.perf_counter() - t0
        failed = self.check_results(results)
        if runner.last_stats.executed != len(specs):
            self.problems.append(
                "%d of %d specs executed in a cold store"
                % (runner.last_stats.executed, len(specs))
            )
        put_bytes = _tree_bytes(root)
        shutil.rmtree(root)
        counts = {
            "sim.lane_intervals": sum(len(r.trace) for r in results),
            "core.interventions": sum(r.interventions for r in results),
            "core.violations_predicted": sum(
                r.violations_predicted for r in results
            ),
            "runner.cache_put_bytes": put_bytes,
        }
        sim_s = sum(r.execution_time_s for r in results)
        return host_s, sim_s, len(results), failed, counts

    def check_results(self, results) -> int:
        """Failed lanes: incomplete, or any statistic off its digest."""
        expected = self.expected()["lanes"]
        failed = 0
        for result, want in zip(results, expected):
            if not result.completed or digest(result) != want:
                failed += 1
        return failed + abs(len(results) - len(expected))

    def measure(self, seconds: float) -> Measurement:
        return loop_measurement(timed_loop(seconds, self.run_matrix))

    def traced_work(self) -> Measurement:
        return loop_measurement(repeat(2, self.run_matrix))

    def record(self) -> dict:
        runner = ParallelRunner(workers=1, models=self.models, batch=LANES)
        return {"lanes": [digest(r) for r in runner.run(self.specs())]}


class ColdDtpm(_ColdMatrix):
    """16 synthetic DTPM lanes that run hot enough for DTPM to intervene."""

    name = "cold_dtpm"

    def specs(self) -> List[RunSpec]:
        rng = _rng(1, self.variant)
        out = []
        for i in range(LANES):
            category = "high" if i % 2 == 0 else "medium"
            workload = _app(1, i, category, LANE_S, "dtpm-%s-%d" % (category, i))
            # a device already at 60 C: the lanes reach the 63 C
            # constraint, so forecast, budget and policy all run
            out.append(RunSpec(
                workload=workload, mode=ThermalMode.DTPM, seed=_seed(rng),
                warm_start_c=60.0,
            ))
        return out

    def setup(self) -> None:
        # identify the model bundle from an empty model store
        self.models = cached_build_models(
            root=self.fresh_dir("models"), prbs_duration_s=PRBS_S
        )
        want = load_digests()["models"]
        if model_fingerprint(self.models) != want:
            self.problems.append("identified models differ from the record")

    def traced_work(self) -> Measurement:
        self.setup()  # traces the model identification too
        return super().traced_work()

    def check_results(self, results) -> int:
        if not any(r.interventions for r in results):
            self.problems.append("DTPM never intervened")
        return super().check_results(results)


class ColdFan(_ColdMatrix):
    """Fan-mode lanes plus 2-position diurnal chains with idle gaps."""

    name = "cold_fan"

    def specs(self) -> List[RunSpec]:
        rng = _rng(2, self.variant)
        out = []
        for i in range(LANES // 2):
            category = "high" if i % 2 == 0 else "medium"
            workload = _app(2, i, category, LANE_S, "fan-%s-%d" % (category, i))
            out.append(RunSpec(
                workload=workload, mode=FAN_MODES[i % 3], seed=_seed(rng),
            ))
        days = []
        for d in range(2):
            day = [
                _app(2, 100 + 2 * d + k, c, LANE_S, "day%d-%s" % (d, c))
                for k, c in enumerate(("high", "medium"))
            ]
            days.append(diurnal(day, days=1))
        chains = ExperimentMatrix(
            schedules=tuple(days),
            modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
            idle_gap_s=60.0,
            base_seed=_seed(rng),
        )
        return out + chains.specs()

    def setup(self) -> None:
        # a fan matrix needs no models, so what a user waits for before
        # the first lane runs is the start of ``repro-dtpm`` itself: a
        # fresh interpreter importing the CLI and everything it loads
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "--help"],
            stdout=subprocess.DEVNULL, env=env, check=True, timeout=60,
        )


# ---------------------------------------------------------------------------
# warm service
# ---------------------------------------------------------------------------
class WarmService(Workload):
    """``repro-dtpm serve`` over a filled store, loaded by one client."""

    name = "warm_service"
    #: keep-alive client connections: 2, but never more than cores
    connections = min(2, os.cpu_count() or 1)

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        rng = _rng(3, self.variant)
        self.matrix = ExperimentMatrix(
            workloads=tuple(_short_apps(3, 4)),
            modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
            base_seed=_seed(rng),
        )
        self.specs = self.matrix.specs()
        self.keys = [spec_key(s) for s in self.specs]
        self.proc: Optional[subprocess.Popen] = None
        self.service = None
        self.results: list = []
        self.url = ""
        self.plan_path = ""

    # -- set-up ---------------------------------------------------------
    def fill(self) -> str:
        root = self.fresh_dir("store")
        self.results = ParallelRunner(
            workers=1, cache=ResultCache(root=root), batch=LANES
        ).run(self.matrix)
        return root

    def setup(self) -> None:
        self.close()
        root = self.fill()
        self.start_server(root)
        self.write_plan()

    def start_server(self, root: str) -> None:
        """``repro-dtpm serve`` in its own process, access log to a file."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["PYTHONUNBUFFERED"] = "1"
        log = open(root + ".access.log", "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--cache-dir", root],
                stdout=subprocess.PIPE, stderr=log, env=env,
            )
        finally:
            log.close()
        line = self.proc.stdout.readline().decode("utf-8").strip()
        if " on http://" not in line:
            raise RuntimeError("serve did not start: %r" % line)
        self.url = line.rsplit(" ", 1)[1]
        self._wait_healthy()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=5) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def write_plan(self) -> None:
        """The request sequence, as the load generator reads it.

        No recorded client traffic exists to weight the four request
        kinds by, so the mix is the simplest one that exercises each: per
        spec of the ``n``-spec grid, one ``POST /v1/runs`` (answered from
        the response memo after the first cycle), one ``POST /v1/matrix``,
        one ``GET /v1/runs/{key}`` and one ``GET /v1/runs/{key}/trace``.

        Every connection repeats that ``4n``-request cycle in its own
        shuffled order.  Connections that send the same sequence fall
        into lockstep, and throughput and median latency then flip
        between runs.
        """
        n = len(self.specs)
        requests = [
            ["POST", "/v1/runs", json.dumps(spec.to_dict())]
            for spec in self.specs
        ]
        requests.append(["POST", "/v1/matrix", json.dumps(self.matrix.to_dict())])
        requests += [["GET", "/v1/runs/%s" % key, None] for key in self.keys]
        requests += [["GET", "/v1/runs/%s/trace" % key, None] for key in self.keys]
        cycle = [x for i in range(n) for x in (i, n, n + 1 + i, 2 * n + 1 + i)]
        self.requests = requests
        self.plan_path = os.path.join(self.work_dir, "plan.json")
        rng = np.random.default_rng([3, self.variant, 1])
        sequences = [
            [int(i) for i in rng.permutation(cycle)]
            for _ in range(self.connections)
        ]
        with open(self.plan_path, "w") as fh:
            json.dump({"requests": requests, "sequences": sequences}, fh)

    # -- load -----------------------------------------------------------
    def _port(self) -> int:
        return int(self.url.rsplit(":", 1)[1])

    def drive(self, windows: int, *limit: str) -> Measurement:
        """Run the load generator; windows rescaled to nominal speed."""
        out = os.path.join(self.work_dir, "load.json")
        subprocess.run(
            [sys.executable, os.path.join(PERFBENCH_DIR, "loadgen.py"),
             "--port", str(self._port()), "--plan", self.plan_path,
             "--out", out, "--windows", str(windows)] + list(limit),
            check=True, timeout=170,
        )
        with open(out) as fh:
            report = json.load(fh)
        os.unlink(out)
        rates, latencies = [], []
        for window in report["windows"]:
            factor = scale(window["ref_before_s"], window["ref_after_s"])
            rates.append(
                len(window["latencies_ms"]) / (window["elapsed_s"] * factor)
            )
            latencies.extend(x * factor for x in window["latencies_ms"])
        return Measurement(
            rates=rates,
            latencies_ms=latencies,
            attempted=len(latencies),
            failed=report["failed"] + self.check_replies(report),
        )

    def measure(self, seconds: float) -> Measurement:
        return self.drive(max(1, round(seconds)), "--window-seconds", "1")

    def prepare_traced(self) -> None:
        """Host the service in this process, over a freshly filled store.

        The tracer's wrappers cannot reach another process, so the traced
        run serves from an in-process :class:`EvaluationService` over the
        same kind of store (the untraced numbers come from ``serve``).
        """
        from repro.service import EvaluationService

        self.close()
        self.service = EvaluationService(
            cache=ResultCache(root=self.fill(), mmap=True)
        ).start()
        self.url = self.service.url

    def traced_work(self) -> Measurement:
        return self.drive(5, "--window-requests", "500")

    # -- checks ---------------------------------------------------------
    def check_replies(self, report: dict) -> int:
        """First replies against results computed in this process."""
        summaries = [
            json.loads(json.dumps(result_to_summary(r))) for r in self.results
        ]
        bad = 0
        for index, body in report["first_json"].items():
            path = self.requests[int(index)][1]
            payload = json.loads(body)
            if path == "/v1/runs":
                i = int(index)  # run requests come first, in spec order
                ok = (
                    payload.get("status") == "done"
                    and payload.get("key") == self.keys[i]
                    and payload.get("summary") == summaries[i]
                )
            elif path == "/v1/matrix":
                ok = (
                    payload.get("cached") == len(self.specs)
                    and payload.get("queued") == 0
                    and [r["key"] for r in payload["runs"]] == self.keys
                )
            else:
                i = self.keys.index(path.rsplit("/", 1)[1])
                want = dict(summaries[i], key=self.keys[i])
                ok = payload == want
            bad += not ok
        for index, sha in report["first_sha256"].items():
            path = self.requests[int(index)][1]
            if path.endswith("/trace"):
                i = self.keys.index(path.split("/")[3])
                want = hashlib.sha256(trace_blob_bytes(self.results[i]))
                bad += sha != want.hexdigest()
        return bad

    def final_checks(self) -> None:
        lanes = self.expected()["lanes"]
        if [digest(r) for r in self.results] != lanes:
            self.problems.append("store results differ from the record")
        with urllib.request.urlopen(self.url + "/v1/stats", timeout=5) as resp:
            stats = json.load(resp)
        # a mis-built request would silently queue cold simulations
        if stats["cache"]["misses"] != 0:
            self.problems.append(
                "service cache missed %d times" % stats["cache"]["misses"]
            )
        if stats["queue"]["executed"] != 0:
            self.problems.append(
                "service executed %d runs" % stats["queue"]["executed"]
            )

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server process (MiB)."""
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if self.proc is not None:
            proc, self.proc = self.proc, None
            proc.send_signal(signal.SIGINT)  # drains the queue, then exits
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def record(self) -> dict:
        self.fill()
        return {"lanes": [digest(r) for r in self.results]}


# ---------------------------------------------------------------------------
# suite scan
# ---------------------------------------------------------------------------
class SuiteScan(Workload):
    """Repeated ``summarize_dir`` over a warm depth-2 store."""

    name = "suite_scan"
    traced_calls = 5

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        rng = _rng(4, self.variant)
        self.specs = [
            RunSpec(workload=w, mode=FAN_MODES[i % 3], seed=_seed(rng))
            for i, w in enumerate(_short_apps(4, 6))
        ]
        self.keys = [
            hashlib.sha256(b"suite:%d:%d" % (self.variant, k)).hexdigest()
            for k in range(SUITE_ENTRIES)
        ]
        self.root = ""
        self.results: list = []
        self.text = ""

    def summarize(self) -> str:
        """summarize_dir output with the store path masked."""
        return summarize_dir(self.root).replace(self.root, "<store>")

    def timed_setup(self) -> tuple:
        # drop the previous set-up's store untimed; every timed fill then
        # follows the same deletion, which slows file creation for a while
        if self.root:
            shutil.rmtree(self.root)
        return super().timed_setup()

    def setup(self) -> None:
        self.results = ParallelRunner(workers=1, batch=LANES).run(self.specs)
        self.root = self.fresh_dir("store")
        cache = ResultCache(root=self.root, memory=False, fanout=2)
        for k, key in enumerate(self.keys):
            cache.put(key, self.results[k % len(self.results)])
        # the first open builds the per-shard pack and frame indexes
        self.text = self.summarize()

    def scan(self) -> tuple:
        t0 = time.perf_counter()
        text = self.summarize()
        host_s = time.perf_counter() - t0
        return host_s, 1, 1, int(text != self.text), {}

    def measure(self, seconds: float) -> Measurement:
        return loop_measurement(timed_loop(seconds, self.scan))

    def traced_work(self) -> Measurement:
        return loop_measurement(repeat(self.traced_calls, self.scan))

    def final_checks(self) -> None:
        if self.record() != self.expected():
            self.problems.append("suite results or summary differ from the record")

    def record(self) -> dict:
        if not self.root:
            self.setup()
        return {
            "lanes": [digest(r) for r in self.results],
            "summary": hashlib.sha256(self.text.encode()).hexdigest()[:20],
        }


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(root)
        for name in names
    )


WORKLOADS = {
    cls.name: cls for cls in (ColdDtpm, ColdFan, WarmService, SuiteScan)
}
