"""Shared infrastructure for the figure/table regeneration harness.

Every benchmark regenerates one artefact of the paper's evaluation and
asserts its qualitative shape.  All closed-loop runs funnel through one
session-scoped :class:`~repro.runner.ParallelRunner` whose
content-addressed cache memoises them, so figures that share runs (e.g.
Figs. 6.3 and 6.5 both need Templerun) never recompute them.

Environment knobs:

``REPRO_CACHE_DIR``
    When set, both the identified models and every run result persist
    there -- CI jobs and local sessions share one cache, and re-running
    the suite against unchanged code is near-free.  Unset, the cache is
    in-memory (per-session memoisation only, the historical behaviour).
``REPRO_WORKERS``
    Process count for run fan-out (default: serial in-process).
"""

from __future__ import annotations

import os

import pytest

from repro.runner import (
    ExperimentMatrix,
    ParallelRunner,
    ResultCache,
    RunSpec,
    default_cache_dir,
)
from repro.sim.engine import ThermalMode
from repro.sim.run_result import RunResult
from repro.workloads.benchmarks import get_benchmark

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")

#: Timing text of the perf benchmarks.  Untracked: wall times change on
#: every run, so only their ratio floors (asserts) are part of the suite.
TIMING_DIR = os.path.join(os.path.dirname(__file__), "timings")


@pytest.fixture(scope="session")
def runner(models) -> ParallelRunner:
    """Session-wide cache-backed runner every benchmark run goes through."""
    workers = int(os.environ.get("REPRO_WORKERS", "1") or "1")
    return ParallelRunner(
        workers=workers,
        cache=ResultCache(root=default_cache_dir()),
        models=models,
    )


class RunCache:
    """Memoised (benchmark, mode) -> RunResult closed-loop runs."""

    def __init__(self, runner: ParallelRunner) -> None:
        self.runner = runner

    def get(self, benchmark_name: str, mode: ThermalMode) -> RunResult:
        return self.runner.run_one(
            RunSpec(workload=get_benchmark(benchmark_name), mode=mode)
        )

    def matrix(self, benchmarks, modes) -> ExperimentMatrix:
        """Declarative grid over named benchmarks x modes."""
        return ExperimentMatrix(workloads=tuple(benchmarks), modes=tuple(modes))

    def run(self, matrix: ExperimentMatrix):
        """Execute a grid through the shared cache-backed runner."""
        return self.runner.run(matrix)


@pytest.fixture(scope="session")
def runs(runner) -> RunCache:
    """Session-wide run cache."""
    return RunCache(runner)


def save_artifact(name: str, content: str) -> str:
    """Write a rendered table/figure under benchmarks/artifacts/."""
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, name)
    with open(path, "w") as fh:
        fh.write(content + "\n")
    return path


def save_timing(name: str, content: str) -> str:
    """Write a perf benchmark's timing text under benchmarks/timings/."""
    os.makedirs(TIMING_DIR, exist_ok=True)
    path = os.path.join(TIMING_DIR, name)
    with open(path, "w") as fh:
        fh.write(content + "\n")
    return path
