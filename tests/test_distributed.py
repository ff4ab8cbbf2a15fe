"""Distributed dispatch: protocol, loopback parity, crash reassignment."""

import base64
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.coordinator import run_batches
from repro.distributed.protocol import (
    ProtocolError,
    chains_from_wire,
    chains_to_wire,
    parse_endpoints,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
)
from repro.distributed.worker import WorkerServer
from repro.errors import ConfigurationError, SimulationError
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    plan_batches,
    result_bytes,
)
from repro.sim.engine import ThermalMode
from repro.sim.run_result import RunResult
from repro.workloads.generator import synthesize


@pytest.fixture(scope="module")
def specs():
    return [
        RunSpec(
            workload=synthesize("high", 18.0, threads=4, seed=seed),
            mode=mode,
        )
        for seed in (6, 7)
        for mode in (ThermalMode.NO_FAN, ThermalMode.DEFAULT_WITH_FAN)
    ]


@pytest.fixture(scope="module")
def serial(specs):
    return ParallelRunner().run(list(specs))


def _populate(root, specs, workers):
    runner = ParallelRunner(
        workers=workers, cache=ResultCache(root=root), batch=2
    )
    return runner, runner.run(list(specs))


def _summary_files(root):
    cache = ResultCache(root=root, memory=False)
    out = {}
    for key in cache.keys():
        with open(cache._find_summary(key), "rb") as fh:
            out[key] = fh.read()
    return out


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
def test_frame_round_trip_over_socketpair():
    a, b = socket.socketpair()
    try:
        send_frame(a, {"op": "hello", "n": 3, "s": "x"})
        assert recv_frame(b) == {"op": "hello", "n": 3, "s": "x"}
    finally:
        a.close()
        b.close()


def test_recv_frame_rejects_eof_garbage_and_oversize():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x02{]")
        with pytest.raises(ProtocolError):
            recv_frame(b)
        a.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            recv_frame(b)
        a.close()
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        b.close()


def _recv_sent(data):
    """``recv_frame`` on a socket whose peer sent ``data`` and hung up."""
    a, b = socket.socketpair()
    writer = threading.Thread(target=lambda: (a.sendall(data), a.close()))
    writer.start()
    try:
        return recv_frame(b)
    finally:
        writer.join(timeout=10.0)
        b.close()


def test_recv_frame_rejects_deep_nesting():
    """200 KB of ``[`` is far below the frame bound but past the JSON
    decoder's recursion limit: a protocol error, not ``RecursionError``."""
    body = b"[" * 200_000
    with pytest.raises(ProtocolError):
        _recv_sent(struct.pack(">I", len(body)) + body)


_BODIES = st.one_of(
    st.binary(max_size=512),
    st.text(max_size=64).map(lambda t: t.encode("utf-8")),
    st.integers(min_value=0, max_value=3000).map(lambda n: b"[" * n),
    st.sampled_from([b'{"op": "done"}', b'{"op": 1, "x": [', b"[]"]),
)


@settings(max_examples=150, deadline=None)
@given(body=_BODIES, framed=st.booleans())
def test_recv_frame_raises_only_protocol_errors(body, framed):
    """Arbitrary bytes, length-prefixed or raw, decode to a frame or
    raise ProtocolError -- never anything else."""
    data = struct.pack(">I", len(body)) + body if framed else body
    try:
        frame = _recv_sent(data)
    except ProtocolError:
        return
    assert isinstance(frame, dict) and "op" in frame


#: JSON values: what ``chains_from_wire`` may be handed by a peer.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)


@st.composite
def _damaged_wire_result(draw, good):
    """``good`` with one summary field, or the blob, replaced or torn."""
    summary = dict(good["summary"], trace=dict(good["summary"]["trace"]))
    blob = good["blob"]
    target = draw(st.sampled_from(
        sorted(summary) + ["trace.columns", "trace.length", "blob", "bytes"]
    ))
    if target == "bytes":  # a torn or overwritten npz
        raw = base64.b64decode(blob)
        at = draw(st.integers(min_value=0, max_value=len(raw)))
        junk = draw(st.binary(max_size=8))
        cut = draw(st.booleans())
        raw = raw[:at] if cut else raw[:at] + junk + raw[at + len(junk):]
        blob = base64.b64encode(raw).decode("ascii")
    elif target == "blob":
        blob = draw(_JSON)
    elif target.startswith("trace."):
        summary["trace"][target[len("trace."):]] = draw(_JSON)
    else:
        summary[target] = draw(_JSON)
    return {"summary": summary, "blob": blob}


def test_result_wire_round_trip_is_byte_identical(serial):
    for result in serial:
        clone = result_from_wire(result_to_wire(result))
        assert result_bytes(clone) == result_bytes(result)
    chains = [[serial[0]], [serial[1], serial[2]]]
    back = chains_from_wire(chains_to_wire(chains))
    assert [[result_bytes(r) for r in c] for c in back] == [
        [result_bytes(r) for r in c] for c in chains
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chains_from_wire_raises_only_protocol_errors(serial, data):
    """Generated JSON values and damaged wire results decode to chains
    of results or raise ProtocolError -- never anything else."""
    damaged = _damaged_wire_result(result_to_wire(serial[0]))
    obj = data.draw(st.one_of(
        _JSON,
        st.lists(st.lists(damaged, max_size=2), max_size=2),
        damaged.map(lambda r: [r]),
    ))
    try:
        chains = chains_from_wire(obj)
    except ProtocolError:
        return
    assert all(isinstance(r, RunResult) for c in chains for r in c)


def test_parse_endpoints():
    assert parse_endpoints("a:1, b:65535") == [("a", 1), ("b", 65535)]
    for bad in ("", "hostonly", "h:0", "h:x", "h:70000", ","):
        with pytest.raises(ConfigurationError):
            parse_endpoints(bad)


def test_runner_validates_worker_string_at_construction():
    with pytest.raises(ConfigurationError):
        ParallelRunner(workers="nonsense")


# ---------------------------------------------------------------------------
# loopback execution
# ---------------------------------------------------------------------------
def test_two_worker_run_matches_serial_key_for_key(
    tmp_path, specs, serial
):
    w1, w2 = WorkerServer().start(), WorkerServer().start()
    try:
        serial_runner, serial_cached = _populate(
            str(tmp_path / "serial"), specs, workers=1
        )
        dist_runner, dist = _populate(
            str(tmp_path / "dist"),
            specs,
            workers="%s,%s" % (w1.endpoint, w2.endpoint),
        )
    finally:
        w1.stop()
        w2.stop()
    assert [result_bytes(r) for r in dist] == [
        result_bytes(r) for r in serial
    ]
    assert [result_bytes(r) for r in serial_cached] == [
        result_bytes(r) for r in serial
    ]
    # key-for-key: same content keys, byte-identical summary files
    serial_files = _summary_files(str(tmp_path / "serial"))
    dist_files = _summary_files(str(tmp_path / "dist"))
    assert set(dist_files) == set(serial_files)
    for key, blob in serial_files.items():
        assert dist_files[key] == blob
    assert dist_runner.last_stats.executed == len(specs)


def test_worker_crash_mid_batch_reassigns_and_completes(
    tmp_path, specs, serial
):
    flaky = WorkerServer(fail_runs=1).start()
    steady = WorkerServer().start()
    try:
        cache = ResultCache(root=str(tmp_path))
        runner = ParallelRunner(
            workers="%s,%s" % (flaky.endpoint, steady.endpoint),
            cache=cache,
            batch=2,
        )
        results = runner.run(list(specs))
    finally:
        flaky.stop()
        steady.stop()
    assert [result_bytes(r) for r in results] == [
        result_bytes(r) for r in serial
    ]
    # the reassigned batch produced no duplicate cache writes: one store
    # per distinct content key, nothing else
    assert cache.stats_snapshot().stores == len(set(cache.keys()))
    assert len(cache.keys()) == len(specs)


def test_deterministic_worker_failure_fails_fast(specs):
    """An ``error`` frame (execution raised on the worker) is fatal --
    deterministic failures would fail on every host, so no retry."""

    def _erroring(server_sock):
        conn, _ = server_sock.accept()
        with conn:
            recv_frame(conn)  # hello
            send_frame(conn, {"op": "ready"})
            msg = recv_frame(conn)  # the run frame
            send_frame(conn, {
                "op": "error", "id": msg["id"], "message": "boom",
            })

    lis = socket.socket()
    lis.bind(("127.0.0.1", 0))
    lis.listen(1)
    thread = threading.Thread(target=_erroring, args=(lis,), daemon=True)
    thread.start()
    try:
        with pytest.raises(SimulationError, match="boom"):
            run_batches(
                [[specs[0]]],
                workers="127.0.0.1:%d" % lis.getsockname()[1],
            )
    finally:
        lis.close()
        thread.join(timeout=10.0)


def test_all_workers_dead_raises(specs):
    # grab a port nothing listens on
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    jobs = [[s] for s in specs[:2]]
    with pytest.raises(SimulationError, match="worker"):
        run_batches(jobs, workers="127.0.0.1:%d" % port)


def test_lease_timeout_reassigns_silent_worker(specs, serial):
    """A connected worker that accepts a batch then goes silent (no
    heartbeat, no result) times out its lease; survivors finish the run."""

    def _silent(server_sock):
        conn, _ = server_sock.accept()
        with conn:
            recv_frame(conn)  # hello
            send_frame(conn, {"op": "ready"})
            recv_frame(conn)  # the run frame it will never answer
            stop.wait(30.0)

    stop = threading.Event()
    lis = socket.socket()
    lis.bind(("127.0.0.1", 0))
    lis.listen(1)
    thread = threading.Thread(target=_silent, args=(lis,), daemon=True)
    thread.start()
    steady = WorkerServer().start()
    try:
        silent_ep = "127.0.0.1:%d" % lis.getsockname()[1]
        jobs = plan_batches(list(specs), 2)
        chains = run_batches(
            [[specs[i] for i in job] for job in jobs],
            workers="%s,%s" % (silent_ep, steady.endpoint),
            lease_timeout_s=2.0,
        )
        flat = {}
        for job, job_chains in zip(jobs, chains):
            for i, chain in zip(job, job_chains):
                flat[i] = chain[-1]
        assert [result_bytes(flat[i]) for i in range(len(specs))] == [
            result_bytes(r) for r in serial
        ]
    finally:
        stop.set()
        steady.stop()
        lis.close()
        thread.join(timeout=10.0)


def test_malformed_done_frame_fails_the_run_instead_of_hanging(specs):
    """Both workers answer the one batch with an undecodable ``done``
    frame.  Each is retired and the batch requeued, so the run fails
    with SimulationError once both are gone -- it must not leave the
    second worker's thread waiting for a batch that never comes back."""
    done = {"op": "done", "chains": [[{"summary": {}, "blob": ""}]]}

    def _malformed(server_sock):
        conn, _ = server_sock.accept()
        with conn:
            recv_frame(conn)  # hello
            send_frame(conn, {"op": "ready"})
            recv_frame(conn)  # the run frame
            send_frame(conn, done)
            stop.wait(30.0)

    stop = threading.Event()
    listeners, fakes = [], []
    for _ in range(2):
        lis = socket.socket()
        lis.bind(("127.0.0.1", 0))
        lis.listen(1)
        listeners.append(lis)
        fakes.append(
            threading.Thread(target=_malformed, args=(lis,), daemon=True)
        )
    for fake in fakes:
        fake.start()
    outcome = []

    def _run():
        try:
            run_batches(
                [[specs[0]]],
                workers=",".join(
                    "127.0.0.1:%d" % lis.getsockname()[1] for lis in listeners
                ),
            )
        except Exception as exc:  # noqa: BLE001 - checked below
            outcome.append(exc)

    runner = threading.Thread(target=_run, daemon=True)
    runner.start()
    try:
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "run_batches hung on a malformed frame"
        assert len(outcome) == 1
        assert isinstance(outcome[0], SimulationError), outcome[0]
    finally:
        stop.set()
        for lis in listeners:
            lis.close()
        for fake in fakes:
            fake.join(timeout=10.0)
