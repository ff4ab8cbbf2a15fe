"""Closed-loop HTTP load generator for the ``warm_service`` workload.

Runs as its own process, so it shares no interpreter lock with the
server or the benchmark. Each connection is one keep-alive HTTP/1.1
client that sends its next request only after it has read the previous
reply in full, which makes a closed loop. Each connection cycles
through its own request sequence from the plan.

Load comes in windows: one second each (``--window-seconds``), or a
fixed number of requests per connection (``--window-requests``).
Between windows every connection waits at a barrier while the host
speed reference runs (``hostspeed.reference_s``) on an idle server. The
caller uses these readings to rescale each window to the nominal host
speed.

Every reply must be 200 and byte-identical to the first reply the same
request received. Anything else counts as a failure. The first reply to
each request is reported back, so the caller can check it against
results it computed itself. Trace replies are reported by SHA-256.

Usage::

    python3 perfbench/loadgen.py --port PORT --plan plan.json --out out.json
        --windows N (--window-seconds S | --window-requests K)
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from hostspeed import reference_s  # noqa: E402


class _Connection:
    """One closed-loop client and what it observed."""

    def __init__(self, port: int, requests: List[list], sequence: List[int]):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.requests = requests
        self.sequence = sequence
        self.next = 0
        self.first: Dict[int, bytes] = {}
        self.failed = 0
        #: per window: latencies (ms) and the time the last reply ended
        self.latencies: List[List[float]] = []
        self.ended: List[float] = []

    def window(self, seconds: Optional[float], count: Optional[int]) -> None:
        headers = {"Content-Type": "application/json"}
        latencies: List[float] = []
        deadline = None if seconds is None else time.perf_counter() + seconds
        t1 = time.perf_counter()
        while (count is None or len(latencies) < count) and (
            deadline is None or t1 < deadline
        ):
            index = self.sequence[self.next % len(self.sequence)]
            self.next += 1
            method, path, body = self.requests[index]
            t0 = time.perf_counter()
            if body is None:
                self.conn.request(method, path)
            else:
                self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
            t1 = time.perf_counter()
            latencies.append((t1 - t0) * 1e3)
            if resp.status != 200:
                self.failed += 1
            elif index not in self.first:
                self.first[index] = data
            elif self.first[index] != data:
                self.failed += 1
        self.latencies.append(latencies)
        self.ended.append(t1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--windows", type=int, required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--window-seconds", type=float)
    group.add_argument("--window-requests", type=int,
                       help="requests per connection per window")
    args = parser.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)
    conns = [
        _Connection(args.port, plan["requests"], seq)
        for seq in plan["sequences"]
    ]
    refs: List[float] = []
    starts: List[float] = []

    def between_windows() -> None:
        refs.append(reference_s())
        starts.append(time.perf_counter())

    barrier = threading.Barrier(len(conns), action=between_windows)
    errors: List[BaseException] = []

    def drive(conn: _Connection) -> None:
        try:
            for _ in range(args.windows):
                barrier.wait()
                conn.window(args.window_seconds, args.window_requests)
            barrier.wait()
        except BaseException as exc:  # report, and free the other thread
            errors.append(exc)
            barrier.abort()
        finally:
            conn.conn.close()

    threads = [threading.Thread(target=drive, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        print("loadgen failed: %r" % (errors[0],), file=sys.stderr)
        return 1
    first: Dict[str, bytes] = {}
    failed = sum(c.failed for c in conns)
    for conn in conns:
        for k, v in conn.first.items():
            if first.setdefault(str(k), v) != v:
                failed += 1  # two connections saw different replies
    windows = []
    for w in range(args.windows):
        windows.append({
            "elapsed_s": max(c.ended[w] for c in conns) - starts[w],
            "ref_before_s": refs[w],
            "ref_after_s": refs[w + 1],
            "latencies_ms": [x for c in conns for x in c.latencies[w]],
        })
    report = {
        "windows": windows,
        "failed": failed,
        "first_sha256": {
            k: hashlib.sha256(v).hexdigest() for k, v in first.items()
        },
        "first_json": {
            k: v.decode("utf-8")
            for k, v in first.items()
            if not plan["requests"][int(k)][1].endswith("/trace")
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
