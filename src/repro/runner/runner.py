"""Parallel, cache-aware execution of experiment grids.

The :class:`ParallelRunner` takes an :class:`ExperimentMatrix` (or an
explicit spec list), answers what it can from the content-addressed
:class:`ResultCache`, and fans the remaining runs out over a
``concurrent.futures.ProcessPoolExecutor``.  The identified model bundle
is pickled once and shipped to each worker at pool start-up (re-building
it costs ~10 s; the pickle is ~2 kB), and results come back in spec order
regardless of scheduling, so serial and parallel execution are
byte-identical.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.execute import default_batch, execute_batch, plan_batches
from repro.runner.spec import ExperimentMatrix, RunSpec, spec_key
from repro.sim.models import ModelBundle, default_models
from repro.sim.run_result import RunResult

Experiments = Union[ExperimentMatrix, Sequence[RunSpec]]

# Module-global model bundle of one pool worker (set by the initializer;
# worker processes are single-purpose so a global is the cheapest channel).
_WORKER_MODELS: Optional[ModelBundle] = None


def _worker_init(models_blob: Optional[bytes]) -> None:
    global _WORKER_MODELS
    _WORKER_MODELS = (
        pickle.loads(models_blob) if models_blob is not None else None
    )


def _worker_run(specs: List[RunSpec]) -> List[List[RunResult]]:
    # one chain of results per spec (a single-element list for plain
    # specs); the specs of one job lock-step through a BatchSimulator
    return execute_batch(
        specs, models=_WORKER_MODELS, batch_size=max(1, len(specs))
    )


@dataclass
class RunnerStats:
    """What one ``run()`` call (or a runner lifetime) actually did."""

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cache_hits

    def add(self, other: "RunnerStats") -> None:
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses

    def summary(self) -> str:
        return "%d runs: %d executed, %d cache hits" % (
            self.total,
            self.executed,
            self.cache_hits,
        )


def default_workers() -> int:
    """Worker count when the caller asks for "parallel" without a number."""
    return max(1, (os.cpu_count() or 2) - 1)


def ensure_runner(
    runner: Optional["ParallelRunner"], models: Optional[ModelBundle]
) -> "ParallelRunner":
    """The caller's runner (adopting ``models`` if it has none) or a
    serial, uncached default -- the shared policy of every high-level
    entry point (sweeps, experiment helpers)."""
    if runner is None:
        return ParallelRunner(models=models)
    runner.ensure_models(models)
    return runner


class ParallelRunner:
    """Executes experiment grids with memoisation and process fan-out.

    Parameters
    ----------
    workers:
        Process count for fan-out, a positive ``int``.  ``1`` (the
        default) runs in-process -- semantically identical, just serial.
    cache:
        Optional :class:`ResultCache`.  Without one every spec executes.
    models:
        Identified model bundle for DTPM specs.  Built on demand (once)
        when needed and not supplied.
    batch:
        How many compatible runs one process advances per control step
        (``repro.runner.execute.execute_batch``).  ``None`` resolves to
        ``$REPRO_BATCH`` or the built-in default; ``1`` disables packing.
        Batching never changes results -- the batched engine is
        lane-for-lane byte-identical to the serial one -- it only cuts
        interpreter overhead per run.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        models: Optional[ModelBundle] = None,
        batch: Optional[int] = None,
    ) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise ConfigurationError(
                "workers must be an int >= 1, got %r" % (workers,)
            )
        if batch is None:
            batch = default_batch()
        if batch < 1:
            raise ConfigurationError("batch must be >= 1")
        self.workers = workers
        self.batch = batch
        self.cache = cache
        self._models = models
        #: Counters across this runner's lifetime.
        self.stats = RunnerStats()
        #: Counters of the most recent ``run()`` call.
        self.last_stats = RunnerStats()

    # ------------------------------------------------------------------
    def ensure_models(self, models: Optional[ModelBundle]) -> None:
        """Adopt an already-built model bundle (no-op if one is set)."""
        if self._models is None and models is not None:
            self._models = models

    def _resolve_models(self, specs: Sequence[RunSpec]) -> Optional[ModelBundle]:
        if self._models is None and any(s.needs_models for s in specs):
            self._models = default_models()
        return self._models

    @staticmethod
    def _as_specs(experiments: Experiments) -> List[RunSpec]:
        if isinstance(experiments, ExperimentMatrix):
            return experiments.specs()
        specs = list(experiments)
        for s in specs:
            if not isinstance(s, RunSpec):
                raise ConfigurationError(
                    "expected RunSpec, got %r" % type(s).__name__
                )
        return specs

    def _key(self, spec: RunSpec, models: Optional[ModelBundle]) -> str:
        return spec_key(spec, models if spec.needs_models else None)

    # ------------------------------------------------------------------
    def run(self, experiments: Experiments) -> List[RunResult]:
        """Execute a matrix/spec list; results come back in spec order."""
        specs = self._as_specs(experiments)
        stats = RunnerStats()
        results: List[Optional[RunResult]] = [None] * len(specs)

        models = self._resolve_models(specs)

        # content keys identify results in the cache AND let scheduled
        # specs that are chain prefixes of one another share executions
        need_keys = self.cache is not None or any(s.history for s in specs)
        keys: List[Optional[str]] = [None] * len(specs)
        if need_keys:
            keys = [self._key(spec, models) for spec in specs]

        pending: List[int] = []
        if self.cache is not None:
            for i, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is None:
                    stats.cache_misses += 1
                    pending.append(i)
                else:
                    stats.cache_hits += 1
                    results[i] = hit
        else:
            pending = list(range(len(specs)))

        if pending:
            if need_keys:
                jobs = self._plan_jobs(specs, keys, pending, models)
                produced: Dict[str, RunResult] = {}
                for job, chain_results in zip(
                    jobs, self._execute([specs[i] for i in jobs], models)
                ):
                    for pos_spec, pos_result in zip(
                        specs[job].chain(), chain_results
                    ):
                        pos_key = self._key(pos_spec, models)
                        produced[pos_key] = pos_result
                        if self.cache is not None:
                            # every harvested position is cached, even ones
                            # nobody asked for -- free warm-up for later grids
                            self.cache.put(pos_key, pos_result)
                for i in pending:
                    results[i] = produced[keys[i]]
            else:
                for i, chain_results in zip(
                    pending,
                    self._execute([specs[i] for i in pending], models),
                ):
                    results[i] = chain_results[-1]
            stats.executed = len(pending)

        self.last_stats = stats
        self.stats.add(stats)
        return [r for r in results if r is not None]

    def run_one(self, spec: RunSpec) -> RunResult:
        """Convenience wrapper: execute a single spec."""
        return self.run([spec])[0]

    # ------------------------------------------------------------------
    @staticmethod
    def _plan_jobs(
        specs: List[RunSpec],
        keys: List[str],
        pending: List[int],
        models: Optional[ModelBundle],
    ) -> List[int]:
        """Pending indices worth executing: drop chain-prefix duplicates.

        A scheduled spec simulates every earlier position of its sequence
        on the way, so a pending spec whose key appears inside another
        pending spec's chain rides along for free.  Longest chains are
        planned first; plain specs are their own 1-element chain, which
        also dedupes exact repeats within one call.
        """
        covered: set = set()
        jobs: List[int] = []
        for i in sorted(
            pending, key=lambda i: len(specs[i].history), reverse=True
        ):
            if keys[i] in covered:
                continue
            jobs.append(i)
            spec = specs[i]
            if spec.history:
                for pos_spec in spec.chain():
                    covered.add(
                        spec_key(
                            pos_spec,
                            models if pos_spec.needs_models else None,
                        )
                    )
            else:
                covered.add(keys[i])
        # keep submission order deterministic and spec-ordered
        jobs.sort()
        return jobs

    def _execute(
        self, specs: List[RunSpec], models: Optional[ModelBundle]
    ) -> List[List[RunResult]]:
        """Execute specs, returning each one's full chain of results.

        In-process execution batches compatible specs directly; with
        process fan-out the batch plan becomes the unit of work shipped
        to the pool, so each worker advances a whole batch per control
        step.  The batch width is capped at ceil(specs / workers) there,
        so packing never starves workers that parallel execution was
        asked to use.  Either way results come back in spec order and
        are byte-identical to unbatched serial execution.
        """
        if self.workers == 1 or len(specs) == 1:
            return execute_batch(specs, models=models, batch_size=self.batch)
        per_worker = -(-len(specs) // self.workers)
        jobs = plan_batches(specs, max(1, min(self.batch, per_worker)))
        blob = pickle.dumps(models) if models is not None else None
        max_workers = min(self.workers, len(jobs))
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_worker_init,
            initargs=(blob,),
        ) as pool:
            chains: List[Optional[List[RunResult]]] = [None] * len(specs)
            job_specs = [[specs[i] for i in job] for job in jobs]
            for job, job_chains in zip(jobs, pool.map(_worker_run, job_specs)):
                for i, chain in zip(job, job_chains):
                    chains[i] = chain
            return chains
