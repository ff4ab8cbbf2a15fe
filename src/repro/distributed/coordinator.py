"""The dispatch side: batches pulled by workers, leased, reassigned.

:func:`run_batches` is the distributed twin of the process-pool branch
in :meth:`repro.runner.ParallelRunner._execute`: it takes the jobs a
:func:`~repro.runner.execute.plan_batches` plan produced and returns one
chain list per job, in job order.  Everything that makes results *mean*
something -- content keys, cache writes, spec ordering -- stays in the
runner on the coordinating host; this module only moves batches and
bytes.  Because every worker executes through the same
:func:`~repro.runner.execute.execute_batch` path and results are
reassembled by job index, an N-worker run is key-for-key and
byte-identical to a 1-host run no matter how the pulls interleave.

Scheduling is *pull*-based work stealing: one connection thread per
worker pops the next unassigned job from a shared deque, so fast workers
naturally take more batches and a straggler never blocks the queue.
Each in-flight batch is leased: the worker streams heartbeat frames
while executing, and a worker silent past ``lease_timeout_s`` (or one
whose connection drops, e.g. a crash mid-batch, or whose frames do not
decode) is declared dead -- its batch goes back on the queue for the
surviving workers and the dead worker is never handed work again.  Idle
threads wait on a condition rather than exiting, so a batch requeued
late still finds takers.  Only when *every* worker is dead with work
outstanding does the run fail.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.distributed.protocol import (
    ProtocolError,
    chains_from_wire,
    hello_payload,
    parse_endpoints,
    recv_frame,
    run_payload,
    send_frame,
)
from repro.errors import SimulationError
from repro.runner.spec import RunSpec
from repro.sim.models import ModelBundle
from repro.sim.run_result import RunResult

#: Seconds a worker may stay silent (no heartbeat, no result) before its
#: in-flight batch is reassigned.  Workers heartbeat every second, so
#: the default tolerates long GC pauses and swaps, not dead processes.
DEFAULT_LEASE_TIMEOUT_S = 60.0

#: Seconds allowed for the TCP connect + hello/ready handshake.
DEFAULT_CONNECT_TIMEOUT_S = 10.0

Chains = List[List[RunResult]]


class _RunState:
    """Shared queue/results state of one :func:`run_batches` call.

    Every mutable field is protected by ``cond``; the connection threads
    acquire it around each queue pop, result store and death notice, and
    :meth:`finished` is only ever called with it held.
    """

    def __init__(self, jobs: int, workers: int) -> None:
        self.cond = threading.Condition()
        self.queue: Deque[int] = deque(range(jobs))
        self.results: Dict[int, Chains] = {}
        self.jobs = jobs
        self.dead = 0
        self.workers = workers
        self.fatal: Optional[BaseException] = None

    def finished(self) -> bool:
        return (
            self.fatal is not None
            or len(self.results) == self.jobs
            or self.dead >= self.workers
        )


def _connect(
    endpoint: Tuple[str, int],
    models_hello: dict,
    connect_timeout_s: float,
) -> socket.socket:
    """Open one worker session: connect, hello, await ready."""
    sock = socket.create_connection(endpoint, timeout=connect_timeout_s)
    try:
        send_frame(sock, models_hello)
        reply = recv_frame(sock)
        if reply.get("op") != "ready":
            raise ProtocolError(
                "worker %s:%d answered hello with %r"
                % (endpoint[0], endpoint[1], reply.get("op"))
            )
    except BaseException:
        sock.close()
        raise
    return sock


def _serve_worker(
    endpoint: Tuple[str, int],
    state: _RunState,
    job_specs: Sequence[List[RunSpec]],
    models_hello: dict,
    lease_timeout_s: float,
    connect_timeout_s: float,
) -> None:
    """One worker's connection thread: pull, lease, collect, repeat."""
    try:
        sock = _connect(endpoint, models_hello, connect_timeout_s)
    except (OSError, ProtocolError):
        with state.cond:
            state.dead += 1
            state.cond.notify_all()
        return
    job: Optional[int] = None
    try:
        while True:
            with state.cond:
                while not state.queue and not state.finished():
                    state.cond.wait()
                if state.finished():
                    break
                job = state.queue.popleft()
            sock.settimeout(lease_timeout_s)
            send_frame(sock, run_payload(job, job_specs[job]))
            while True:
                msg = recv_frame(sock)  # heartbeats refresh the lease
                op = msg.get("op")
                if op == "heartbeat":
                    continue
                if op == "done":
                    chains = chains_from_wire(msg.get("chains"))
                    if len(chains) != len(job_specs[job]):
                        raise ProtocolError(
                            "worker returned %d chains for %d specs"
                            % (len(chains), len(job_specs[job]))
                        )
                    with state.cond:
                        state.results[job] = chains
                        state.cond.notify_all()
                    job = None
                    break
                if op == "error":
                    # execution is deterministic: a spec that raised here
                    # raises on every host, so failing fast beats retrying
                    raise SimulationError(
                        "worker %s:%d failed batch %d: %s"
                        % (endpoint[0], endpoint[1], job, msg.get("message"))
                    )
                raise ProtocolError("unexpected %r frame mid-batch" % op)
        try:
            send_frame(sock, {"op": "bye"})
        except OSError:
            pass
    except (OSError, ProtocolError):
        # dead or unintelligible worker: requeue its in-flight batch for
        # the survivors and never hand this endpoint work again
        with state.cond:
            if job is not None:
                state.queue.appendleft(job)
            state.dead += 1
            state.cond.notify_all()
    except SimulationError as exc:
        with state.cond:
            state.fatal = exc
            state.cond.notify_all()
    finally:
        sock.close()


def run_batches(
    job_specs: Sequence[List[RunSpec]],
    models: Optional[ModelBundle] = None,
    workers: Union[str, Sequence[Tuple[str, int]]] = "",
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
) -> List[Chains]:
    """Execute batches on remote workers; element ``i`` is job ``i``'s chains.

    ``workers`` is a ``"host:port,host:port"`` string (the
    ``ParallelRunner(workers=...)`` form) or an explicit endpoint list.
    The model bundle is pickled once and shipped in each connection's
    hello frame.  Raises :class:`~repro.errors.SimulationError` when a
    batch's execution fails on a worker (deterministic -- it would fail
    anywhere) or when every worker died with batches outstanding.
    """
    endpoints = (
        parse_endpoints(workers) if isinstance(workers, str) else list(workers)
    )
    jobs = [list(specs) for specs in job_specs]
    if not jobs:
        return []
    state = _RunState(jobs=len(jobs), workers=len(endpoints))
    models_hello = hello_payload(models)
    threads = [
        threading.Thread(
            target=_serve_worker,
            args=(
                endpoint, state, jobs, models_hello,
                lease_timeout_s, connect_timeout_s,
            ),
            name="repro-dispatch-%s-%d" % endpoint,
        )
        for endpoint in endpoints
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    with state.cond:
        if state.fatal is not None:
            raise state.fatal
        missing = [i for i in range(len(jobs)) if i not in state.results]
        if missing:
            raise SimulationError(
                "all %d worker(s) died with %d of %d batch(es) incomplete"
                % (len(endpoints), len(missing), len(jobs))
            )
        return [state.results[i] for i in range(len(jobs))]
