"""The evaluation service: warm path, cold jobs, coalescing, error shapes."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runner import ParallelRunner, ResultCache
from repro.runner.spec import RunSpec
from repro.service import EvaluationService, JobQueue, ServiceClosed
from repro.sim.engine import ThermalMode
from repro.workloads import synthesize


def _spec(seed=1, name="svc-test"):
    """A seconds-scale model-free spec (NO_FAN needs no identified models)."""
    workload = synthesize("medium", duration_s=3.0, threads=2, seed=seed,
                          name="%s-%d" % (name, seed))
    return RunSpec(workload=workload, mode=ThermalMode.NO_FAN,
                   max_duration_s=10.0)


@pytest.fixture()
def service():
    svc = EvaluationService(cache=ResultCache(root=None), workers=2).start()
    yield svc
    svc.shutdown(drain=False)


def _post(service, path, payload):
    data = json.dumps(payload).encode()
    req = urllib.request.Request(
        service.url + path, data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(service, path):
    try:
        with urllib.request.urlopen(service.url + path, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _await_job(service, job_id, timeout_s=60.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        status, body = _get(service, "/v1/jobs/" + job_id)
        assert status == 200
        if body["state"] in ("done", "failed"):
            return body
        time.sleep(0.05)
    raise AssertionError("job %s did not finish" % job_id)


def test_warm_request_executes_nothing(service, monkeypatch):
    spec = _spec(seed=10)
    ParallelRunner(workers=1, cache=service.cache).run([spec])

    # any attempt to simulate from here on is a test failure
    def _forbidden(*args, **kwargs):
        raise AssertionError("warm request reached the execution layer")

    monkeypatch.setattr("repro.runner.runner.execute_batch", _forbidden)
    status, body = _post(service, "/v1/runs", spec.to_dict())
    assert status == 200
    assert body["status"] == "done" and body["cached"] is True
    assert body["summary"]["benchmark"] == spec.workload.name
    assert service.jobs.executed == 0
    # and again: the byte-identical body rides the warm-response memo
    status, body2 = _post(service, "/v1/runs", spec.to_dict())
    assert status == 200 and body2 == body


def test_cold_request_completes_through_job_endpoint(service):
    spec = _spec(seed=11)
    status, body = _post(service, "/v1/runs", spec.to_dict())
    assert status == 202
    assert body["status"] == "queued" and not body["coalesced"]
    job = _await_job(service, body["job"])
    assert job["state"] == "done"
    assert job["executed"] == 1 and job["completed"] == 1
    status, summary = _get(service, "/v1/runs/" + body["key"])
    assert status == 200
    assert summary["benchmark"] == spec.workload.name
    assert summary["key"] == body["key"]
    # the run is warm now
    status, again = _post(service, "/v1/runs", spec.to_dict())
    assert status == 200 and again["cached"] is True


def test_identical_inflight_requests_coalesce(service, monkeypatch):
    import repro.runner.runner as runner_mod

    real = runner_mod.execute_batch
    calls = []
    gate = threading.Event()

    def slow_execute(specs, *args, **kwargs):
        calls.append(len(specs))
        gate.wait(10.0)  # hold the job in flight until every POST landed
        return real(specs, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "execute_batch", slow_execute)

    spec = _spec(seed=12)
    payload = spec.to_dict()
    responses = []

    def post():
        responses.append(_post(service, "/v1/runs", payload))

    threads = [threading.Thread(target=post) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    gate.set()

    assert all(status == 202 for status, _ in responses)
    job_ids = {body["job"] for _, body in responses}
    assert len(job_ids) == 1, "coalesced requests must share one job"
    assert sum(body["coalesced"] for _, body in responses) == 4
    job = _await_job(service, job_ids.pop())
    assert job["state"] == "done"
    assert job["waiters"] == 5
    assert calls == [1], "five identical requests, exactly one execution"
    assert service.jobs.coalesced == 4


def test_malformed_payloads_get_structured_400(service):
    # not even JSON, JSON nested past the parser's recursion limit, or
    # bytes that are not UTF-8
    for path, data in [
        ("/v1/runs", b"{nope"),
        ("/v1/runs", b"[" * 200_000),
        ("/v1/matrix", b"[" * 200_000),
        ("/v1/runs", b"\xff\xfe{"),
        ("/v1/matrix", b"\xff\xfe{"),
    ]:
        req = urllib.request.Request(
            service.url + path, data=data,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400, path
        body = json.loads(err.value.read())
        assert body["error"]["type"] == "invalid_json", path

    # JSON, but not a schema-1 spec: a scalar of the wrong type is
    # refused here, not by the job that would run it
    run = {"schema": 1, "workload": "dijkstra", "mode": "dtpm"}
    for path, payload, fragment in [
        ("/v1/runs", {"workload": "dijkstra", "mode": "dtpm"}, "schema"),
        ("/v1/runs", dict(run, mode="x"), "mode"),
        ("/v1/runs", dict(run, bogus=1), "bogus"),
        ("/v1/runs", dict(run, seed="abc"), "spec.seed"),
        ("/v1/runs", dict(run, seed=1.5), "spec.seed"),
        ("/v1/runs", dict(run, warm_start_c="hot"), "spec.warm_start_c"),
        ("/v1/runs", dict(run, config={"seed": "x"}), "spec.config.seed"),
        ("/v1/matrix", {"schema": 1, "workloads": ["dijkstra"],
                        "guard_bands_k": ["x"]},
         "matrix.guard_bands_k[0]"),
    ]:
        status, body = _post(service, path, payload)
        assert status == 400, payload
        assert body["error"]["type"] == "WireError"
        assert fragment in body["error"]["message"]

    # well-typed, but a value no run can take: refused by the domain
    # checks the Python constructors apply, not by a failed job
    for path, payload, fragment in [
        ("/v1/runs", dict(run, seed=-1), "seed"),
        ("/v1/runs", dict(run, config={"seed": -5}), "seed"),
        ("/v1/matrix", {"schema": 1, "workloads": ["dijkstra"],
                        "base_seed": -3}, "base_seed"),
    ]:
        status, body = _post(service, path, payload)
        assert status == 400, payload
        assert body["error"]["type"] == "ConfigurationError"
        assert fragment in body["error"]["message"]


def test_inline_workload_with_negative_activity_is_a_400(service):
    """A negative activity would run to negative dynamic power; the
    workload's own check refuses it before any job starts."""
    from repro.runner.wire import spec_to_wire

    body = spec_to_wire(_spec())
    body["workload"]["activity"] = -1.0
    status, reply = _post(service, "/v1/runs", body)
    assert status == 400
    assert reply["error"]["type"] == "WorkloadError"
    assert "activity" in reply["error"]["message"]


def test_trace_route_falls_back_when_a_prune_wins_the_race(
    tmp_path, monkeypatch
):
    """A prune that unlinks the blob after the trace route picked its path
    sends the route to ``cache.get``: 404 without the memory layer, the
    blob rebuilt from memory with it -- never a 500."""
    import os

    import repro.service.http as http_mod
    from repro.runner import trace_blob_bytes

    result = ParallelRunner(workers=1).run([_spec(seed=15)])[0]
    key = "ab" * 32

    def pruned_first(path, *args, **kwargs):
        if str(path).endswith(".npz"):
            os.unlink(path)  # the prune's first step: blob before summary
        return open(path, *args, **kwargs)

    monkeypatch.setattr(http_mod, "open", pruned_first, raising=False)
    for memory, want in ((False, 404), (True, 200)):
        cache = ResultCache(root=str(tmp_path / str(memory)), memory=memory)
        cache.put(key, result)
        svc = EvaluationService(cache=cache, workers=1).start()
        try:
            url = svc.url + "/v1/runs/%s/trace" % key
            try:
                with urllib.request.urlopen(url, timeout=60) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as err:
                status, body = err.code, err.read()
        finally:
            svc.shutdown(drain=False)
        assert status == want, body
        if memory:
            assert body == trace_blob_bytes(result)
        else:
            assert json.loads(body)["error"]["type"] == "unknown_key"


def test_blob_without_a_summary_is_not_served(tmp_path):
    """A blob whose summary never landed is a stray file that ``get`` and
    the frames never read, so the trace route answers 404 like the
    summary route."""
    result = ParallelRunner(workers=1).run([_spec(seed=16)])[0]
    key = "cd" * 32
    ResultCache(root=str(tmp_path)).put(key, result)
    (summary,) = tmp_path.rglob(key + ".json")
    summary.unlink()
    svc = EvaluationService(cache=ResultCache(root=str(tmp_path)),
                            workers=1).start()
    try:
        for path in ("/v1/runs/" + key, "/v1/runs/%s/trace" % key):
            status, body = _get(svc, path)
            assert status == 404 and body["error"]["type"] == "unknown_key"
    finally:
        svc.shutdown(drain=False)


def test_unknown_key_and_job_are_404(service):
    status, body = _get(service, "/v1/runs/" + "0" * 64)
    assert status == 404 and body["error"]["type"] == "unknown_key"
    status, body = _get(service, "/v1/runs/" + "0" * 64 + "/trace")
    assert status == 404 and body["error"]["type"] == "unknown_key"
    status, body = _get(service, "/v1/jobs/job-999999")
    assert status == 404 and body["error"]["type"] == "unknown_job"
    # non-hex keys never reach the filesystem
    status, body = _get(service, "/v1/runs/..%2f..%2fetc")
    assert status == 404 and body["error"]["type"] == "unknown_path"


def test_matrix_endpoint_reports_per_key_status(service):
    from repro.runner import ExperimentMatrix

    matrix = ExperimentMatrix(
        workloads=(_spec(seed=13).workload, _spec(seed=14).workload),
        modes=(ThermalMode.NO_FAN,),
        max_duration_s=10.0,
    )
    status, body = _post(service, "/v1/matrix", matrix.to_dict())
    assert status == 202
    assert body["total"] == 2 and body["queued"] == 2
    assert body["job"] is not None
    job = _await_job(service, body["job"])
    assert job["state"] == "done" and job["completed"] == 2
    status, body = _post(service, "/v1/matrix", matrix.to_dict())
    assert status == 200
    assert body["cached"] == 2 and body["job"] is None
    assert all(r["status"] == "cached" for r in body["runs"])


def test_health_and_stats(service):
    status, body = _get(service, "/healthz")
    assert status == 200 and body["ok"] is True
    status, body = _get(service, "/v1/stats")
    assert status == 200
    assert body["queue"]["workers"] == 2
    assert body["cache"]["root"] is None


def test_queue_rejects_work_after_close():
    cache = ResultCache(root=None)
    queue = JobQueue(cache=cache, workers=1)
    queue.close(drain=True)
    spec = _spec(seed=15)
    with pytest.raises(ServiceClosed):
        queue.submit([spec], ["0" * 64])


def test_graceful_shutdown_drains_queued_jobs():
    service = EvaluationService(cache=ResultCache(root=None), workers=1)
    service.start()
    try:
        spec = _spec(seed=16)
        status, body = _post(service, "/v1/runs", spec.to_dict())
        assert status == 202
        key = body["key"]
        service.shutdown(drain=True)
        assert service.cache.get(key) is not None, (
            "drain must finish queued work before the service exits"
        )
    finally:
        service.jobs.close(drain=False)


# ---------------------------------------------------------------------------
# malformed framing: a bad or short body must never hold a server thread
# ---------------------------------------------------------------------------
def _raw_post(service, content_length, body=b"", close_write=False):
    """POST raw bytes on a socket with its own 5 s timeout; return the
    reply (the server closes the connection after a framing error).  A
    server that never answers fails with ``socket.timeout``."""
    import socket

    with socket.create_connection(service.address, timeout=5.0) as sock:
        sock.sendall(
            b"POST /v1/runs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n" + body
        )
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


def _error_of(reply):
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)["error"]["type"]


def test_negative_content_length_is_a_400(service):
    assert _error_of(_raw_post(service, b"-1", b"{}")) == (400, "bad_request")
    assert _error_of(_raw_post(service, b"ten")) == (400, "bad_request")


def test_body_shorter_than_its_length_times_out(service, monkeypatch):
    from repro.service import http

    assert 0 < http.REQUEST_TIMEOUT_S <= 60  # finite by default
    monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.5)
    # the client keeps its socket open and never sends (the rest of) it
    for sent in (b'{"a": 1}', b""):
        assert _error_of(_raw_post(service, b"100", sent)) == (
            400, "incomplete_body"
        )


def test_body_cut_short_by_the_client_is_a_400(service):
    reply = _raw_post(service, b"100", b'{"a": 1}', close_write=True)
    assert _error_of(reply) == (400, "incomplete_body")
    # and the server still answers afterwards
    assert _get(service, "/healthz")[0] == 200


def test_client_that_stops_reading_mid_reply_is_dropped(
    tmp_path, monkeypatch, capsys
):
    """A client that asks for a blob larger than the socket buffers and
    then reads nothing holds a handler thread for REQUEST_TIMEOUT_S at
    most: the send times out, the connection closes after the part that
    was sent, with no 500 after it and no traceback."""
    import dataclasses
    import os
    import socket

    import numpy as np

    from repro.service import http
    from repro.sim.run_result import TraceRecorder

    monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.5)
    result = ParallelRunner(workers=1).run([_spec(seed=17)])[0]
    rows = result.trace.array()
    # ~16 MB of trace: well past a 4 MiB send buffer plus what the
    # client's untouched receive buffer takes
    big = np.tile(rows, (-(-2_000_000 // rows.size), 1))
    result = dataclasses.replace(
        result, trace=TraceRecorder.from_array(result.trace.columns, big)
    )
    key = "ef" * 32
    cache = ResultCache(root=str(tmp_path), memory=False)
    cache.put(key, result)
    blob_size = os.path.getsize(cache.trace_path(key))
    assert blob_size > 12 * 2**20
    svc = EvaluationService(cache=cache, workers=1).start()
    try:
        with socket.create_connection(svc.address, timeout=10.0) as sock:
            sock.sendall(b"GET /v1/runs/%s/trace HTTP/1.1\r\nHost: x\r\n"
                         b"\r\n" % key.encode())
            time.sleep(2.0)  # read nothing for 4x the server's timeout
            reply = b""
            while True:  # socket.timeout here: the server never let go
                chunk = sock.recv(2**20)
                if not chunk:
                    break
                reply += chunk
    finally:
        svc.shutdown(drain=False)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert _status_of(head) == 200
    assert b"Content-Length: %d" % blob_size in head
    assert 0 < len(body) < blob_size  # cut short, and nothing after it
    with open(cache.trace_path(key), "rb") as fh:
        assert body == fh.read(len(body))
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# request heads: the service reads HTTP/1.1 headers itself
# ---------------------------------------------------------------------------
def _raw(service, request):
    """Send raw request bytes; return everything the server sends before
    it closes the connection (5 s socket timeout)."""
    import socket

    with socket.create_connection(service.address, timeout=5.0) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


def _status_of(reply):
    return int(reply.split(b"\r\n", 1)[0].split()[1])


def test_connection_close_and_http_1_0_end_the_connection(service):
    # each reply arrives whole and the server then closes the socket,
    # so _raw returns instead of timing out
    close = _raw(service, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                          b"Connection: close\r\n\r\n")
    old = _raw(service, b"GET /healthz HTTP/1.0\r\n\r\n")
    for reply in (close, old):
        head, _, body = reply.partition(b"\r\n\r\n")
        assert _status_of(reply) == 200
        assert json.loads(body)["ok"] is True
    # a request line without a version is answered with the body alone
    assert json.loads(_raw(service, b"GET /healthz\r\n\r\n"))["ok"] is True


def test_reply_head_has_the_stdlib_fields(service):
    from email.utils import parsedate_to_datetime

    reply = _raw(service, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                          b"Connection: close\r\n\r\n")
    head, _, body = reply.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    fields = dict(line.split(": ", 1) for line in lines)
    assert status == "HTTP/1.1 200 OK"
    assert sorted(fields) == [
        "Content-Length", "Content-Type", "Date", "Server"
    ]
    assert fields["Server"].startswith("repro-dtpm ")
    assert fields["Content-Type"] == "application/json"
    assert int(fields["Content-Length"]) == len(body)
    age_s = time.time() - parsedate_to_datetime(fields["Date"]).timestamp()
    assert -1.0 <= age_s < 60.0


def test_malformed_header_lines_are_400(service):
    head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
    for extra in (
        b"no colon here\r\n",
        b"X-A: 1\r\n folded: 2\r\n",  # obsolete line folding
    ):
        assert _status_of(_raw(service, head + extra + b"\r\n")) == 400
    assert _get(service, "/healthz")[0] == 200


def test_header_limits_match_the_stdlib(service):
    # an HTTP/1.0 request line takes the stdlib's parse_request
    def fields(n):
        return b"".join(b"X-%d: 1\r\n" % i for i in range(n))

    for version in (b"HTTP/1.1", b"HTTP/1.0"):
        head = b"GET /healthz " + version + b"\r\nConnection: close\r\n"
        for extra, status in [
            (fields(98), 200),  # 99 header lines
            (fields(99), 431),  # 100 header lines
            (b"X-Long: " + b"a" * 65536 + b"\r\n", 431),
        ]:
            reply = _raw(service, head + extra + b"\r\n")
            assert _status_of(reply) == status, (version, status)


def test_expect_100_continue_is_answered_before_the_body(service):
    import socket

    body = b"{nope"
    with socket.create_connection(service.address, timeout=5.0) as sock:
        sock.sendall(
            b"POST /v1/runs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)  # times out if the 100 never comes
        assert _status_of(interim) == 100
        sock.sendall(body)
        reply = b""
        while b"\r\n\r\n" not in reply:
            reply += sock.recv(65536)
    assert _status_of(reply) == 400
