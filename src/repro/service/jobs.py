"""Background execution for the evaluation service: jobs, workers, coalescing.

A :class:`Job` is one unit of cold work -- an ordered list of
:class:`RunSpec`\\ s (deduplicated by content key) that a worker thread
executes through the existing cached/batched pipeline
(:class:`~repro.runner.ParallelRunner` over
:func:`~repro.runner.execute.execute_batch`), so service traffic gets the
same lock-step vectorisation as in-process grids and every produced
result lands in the shared :class:`~repro.runner.ResultCache`.

The :class:`JobQueue` owns the worker pool and the *coalescing index*: a
map from in-flight content keys to the job computing them.  Submitting a
key someone is already computing attaches the request to that job instead
of queueing a second execution -- N identical concurrent cold requests
trigger exactly one simulation and every waiter polls the same job id.
The index is authoritative only between submission and job completion;
afterwards the cache answers directly.

Shutdown is graceful by default: :meth:`JobQueue.close` stops accepting
work, lets queued jobs drain and joins the workers, so a service restart
never strands half-computed grids (everything finished is already in the
content-addressed cache anyway).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.runner.cache import ResultCache
from repro.runner.execute import default_batch, plan_batches
from repro.runner.runner import ParallelRunner
from repro.runner.spec import RunSpec
from repro.sim.models import ModelBundle

#: Job lifecycle states (wire values of ``GET /v1/jobs/{id}``).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class ServiceClosed(SimulationError):
    """Work was submitted to a queue that is shutting down."""


@dataclass
class Job:
    """One unit of background work and its observable progress."""

    id: str
    specs: List[RunSpec]
    keys: List[str]
    state: str = QUEUED
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Specs whose results have landed in the cache so far.
    completed: int = 0
    #: Simulations this job actually executed (cache hits don't count).
    executed: int = 0
    #: Requests answered by this job (1 + coalesced attachments).
    waiters: int = 1
    error: Optional[str] = None

    def snapshot(self) -> dict:
        """JSON-able status payload (the job endpoint's response body)."""
        return {
            "id": self.id,
            "state": self.state,
            "total": len(self.specs),
            "completed": self.completed,
            "executed": self.executed,
            "waiters": self.waiters,
            "keys": list(self.keys),
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
        }


class JobQueue:
    """Worker pool executing jobs through the cached/batched runner.

    Parameters
    ----------
    cache:
        The service's shared result cache.  Workers write every produced
        position into it; readers (the HTTP threads) serve from it.
    models:
        Either a :class:`ModelBundle` or a zero-argument callable building
        one on demand.  Resolved lazily under a lock the first time a job
        actually needs models (DTPM specs), so a service in front of a
        baseline-only cache never pays the identification cost.
    workers:
        Background worker *threads*.  Each runs one job at a time
        in-process (the job itself advances up to ``batch`` compatible
        runs per control step through the batched engines).
    batch:
        Batch width inside each job; ``None`` resolves to ``$REPRO_BATCH``
        or the built-in default.
    """

    def __init__(
        self,
        cache: ResultCache,
        models: "Optional[ModelBundle | Callable[[], ModelBundle]]" = None,
        workers: int = 2,
        batch: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise SimulationError("the job queue needs at least one worker")
        self.cache = cache
        self.batch = default_batch() if batch is None else batch
        self._models_lock = threading.Lock()
        self._models: Optional[ModelBundle] = (  # guarded-by: _models_lock
            models if isinstance(models, ModelBundle) else None
        )
        self._models_factory = models if callable(models) else None

        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: List[Job] = []  # guarded-by: _lock
        self._jobs: Dict[str, Job] = {}  # guarded-by: _lock
        self._inflight: Dict[str, str] = {}  # key -> job id; guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._closing = False  # guarded-by: _lock
        #: Requests that attached to an existing in-flight job.
        self.coalesced = 0  # guarded-by: _lock
        #: Simulations executed across the queue's lifetime.
        self.executed = 0  # guarded-by: _lock

        self._threads = [
            threading.Thread(
                target=self._worker, name="repro-job-worker-%d" % i,
                daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    def resolve_models(self) -> Optional[ModelBundle]:
        """The model bundle, building it on first need (thread-safe)."""
        with self._models_lock:
            if self._models is None and self._models_factory is not None:
                self._models = self._models_factory()
            return self._models

    def _peek_models(self) -> Optional[ModelBundle]:
        """The bundle if already resolved, without triggering a build."""
        with self._models_lock:
            return self._models

    # ------------------------------------------------------------------
    def submit(
        self, specs: Sequence[RunSpec], keys: Sequence[str]
    ) -> Tuple[Dict[str, str], Optional[Job]]:
        """Route cold (cache-missed) specs to jobs, coalescing in-flight keys.

        Returns ``(key -> job id, created job or None)``.  Keys another
        job is already computing attach to it (its ``waiters`` count
        grows); at most one new job is created, holding the keys nobody
        is computing, in request order and deduplicated.
        """
        if len(specs) != len(keys):
            raise SimulationError("submit() needs one key per spec")
        with self._lock:
            if self._closing:
                raise ServiceClosed("service is shutting down")
            assignment: Dict[str, str] = {}
            fresh_specs: List[RunSpec] = []
            fresh_keys: List[str] = []
            attached: set = set()
            for spec, key in zip(specs, keys):
                owner = self._inflight.get(key)
                if owner is not None:
                    assignment[key] = owner
                    if owner not in attached:
                        self._jobs[owner].waiters += 1
                        attached.add(owner)
                        self.coalesced += 1
                elif key not in assignment:
                    fresh_specs.append(spec)
                    fresh_keys.append(key)
                    assignment[key] = ""  # placeholder, filled below
            job: Optional[Job] = None
            if fresh_specs:
                self._next_id += 1
                job = Job(
                    id="job-%06d" % self._next_id,
                    specs=fresh_specs,
                    keys=fresh_keys,
                )
                self._jobs[job.id] = job
                for key in fresh_keys:
                    self._inflight[key] = job.id
                    assignment[key] = job.id
                self._pending.append(job)
                self._wakeup.notify()
            return assignment, job

    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> Optional[dict]:
        """A consistent progress snapshot of one job, or None.

        Taken under the queue lock so a poll can never observe a
        half-updated job (e.g. ``state == DONE`` with a stale
        ``completed`` count while a worker is mid-transition).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.snapshot()

    def snapshot(self) -> dict:
        """Queue-level counters for the stats endpoint."""
        with self._lock:
            states: Dict[str, int] = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "depth": len(self._pending),
                "inflight_keys": len(self._inflight),
                "jobs": states,
                "coalesced": self.coalesced,
                "executed": self.executed,
                "workers": len(self._threads),
                "closing": self._closing,
            }

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closing:
                    self._wakeup.wait()
                if not self._pending:
                    return  # closing and drained
                job = self._pending.pop(0)
                job.state = RUNNING
                job.started_s = time.time()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        try:
            models = (
                self.resolve_models()
                if any(s.needs_models for s in job.specs)
                else self._peek_models()
            )
            runner = ParallelRunner(
                cache=self.cache, models=models, batch=self.batch
            )
            # chunk by the batch plan so progress advances as each
            # lock-stepped group of compatible runs lands in the cache
            for group in plan_batches(job.specs, self.batch):
                runner.run([job.specs[i] for i in group])
                with self._lock:
                    job.completed += len(group)
                    job.executed += runner.last_stats.executed
                    self.executed += runner.last_stats.executed
            with self._lock:
                job.state = DONE
        except Exception as exc:  # noqa: BLE001 - jobs must never kill workers
            with self._lock:
                job.state = FAILED
                job.error = "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc()
        finally:
            with self._lock:
                job.finished_s = time.time()
                for key in job.keys:
                    if self._inflight.get(key) == job.id:
                        del self._inflight[key]

    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool.  ``drain=True`` finishes queued jobs first.

        With ``drain=False`` queued (not yet running) jobs are marked
        failed and dropped; the jobs currently executing still run to
        completion -- their results are already paid for and land in the
        cache.  Safe to call more than once.
        """
        with self._lock:
            self._closing = True
            if not drain:
                for job in self._pending:
                    job.state = FAILED
                    job.error = "service shut down before execution"
                    job.finished_s = time.time()
                    for key in job.keys:
                        if self._inflight.get(key) == job.id:
                            del self._inflight[key]
                self._pending.clear()
            self._wakeup.notify_all()
        for t in self._threads:
            t.join(timeout)
