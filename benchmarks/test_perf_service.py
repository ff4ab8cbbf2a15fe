"""Perf: warm-path throughput of the evaluation service.

The service's reason to exist is that a warm request -- a RunSpec whose
content key is already in the cache -- costs a dict lookup, not a
simulation.  This benchmark hammers one warm spec over persistent HTTP/1.1
connections from a few client threads and pins the floor at 2k requests
per second; the artifact records the measured number so the perf
trajectory stays visible across PRs.
"""

import http.client
import json
import threading
import time

from conftest import save_timing
from repro.runner import ParallelRunner, ResultCache, RunSpec
from repro.service import EvaluationService
from repro.sim.engine import ThermalMode
from repro.workloads import synthesize

MIN_WARM_RPS = 2000.0
CLIENTS = 4
REQUESTS_PER_CLIENT = 1500
WARMUP_REQUESTS = 50


def test_warm_throughput_floor():
    workload = synthesize("medium", duration_s=3.0, threads=2, seed=42,
                          name="perf-service")
    spec = RunSpec(workload=workload, mode=ThermalMode.NO_FAN,
                   max_duration_s=10.0)
    cache = ResultCache(root=None)
    ParallelRunner(workers=1, cache=cache).run([spec])

    service = EvaluationService(cache=cache, workers=1).start()
    host, port = service.address
    body = json.dumps(spec.to_dict()).encode()
    headers = {"Content-Type": "application/json"}

    def hammer(count, errors):
        conn = http.client.HTTPConnection(host, port)
        try:
            for _ in range(count):
                conn.request("POST", "/v1/runs", body, headers)
                resp = conn.getresponse()
                payload = resp.read()
                if resp.status != 200:
                    errors.append(payload)
                    return
        finally:
            conn.close()

    try:
        errors = []
        hammer(WARMUP_REQUESTS, errors)  # fill the warm-response memo
        assert not errors, errors[:1]

        threads = [
            threading.Thread(target=hammer, args=(REQUESTS_PER_CLIENT, errors))
            for _ in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        assert not errors, errors[:1]
        assert service.jobs.executed == 0, (
            "warm requests must never reach the execution layer"
        )
    finally:
        service.shutdown(drain=False)

    total = CLIENTS * REQUESTS_PER_CLIENT
    rps = total / elapsed
    save_timing(
        "perf_service.txt",
        "warm POST /v1/runs throughput (%d clients x %d requests, "
        "HTTP/1.1 keep-alive)\n"
        "elapsed: %.2f s\n"
        "throughput: %.0f req/s (floor: %.0f)"
        % (CLIENTS, REQUESTS_PER_CLIENT, elapsed, rps, MIN_WARM_RPS),
    )
    assert rps >= MIN_WARM_RPS, (
        "warm path only %.0f req/s (< %.0f)" % (rps, MIN_WARM_RPS)
    )
