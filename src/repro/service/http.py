"""The always-on evaluation service: a stdlib HTTP front on runner + cache.

Clients POST :class:`RunSpec` / :class:`ExperimentMatrix` wire JSON
(:mod:`repro.runner.wire`, ``"schema": 1``) and the service answers:

* **warm** requests -- content key already in the
  :class:`~repro.runner.ResultCache` -- straight from the cache: zero
  simulations, microseconds, ``{"status": "done", "summary": ...}``;
* **cold** requests land on the background :class:`~repro.service.jobs.
  JobQueue`, which executes them through the batched runner pipeline;
  the 202 response names the job to poll.  Identical in-flight specs
  coalesce onto one job (and one execution).

Endpoints::

    GET  /healthz               liveness probe
    GET  /v1/stats              cache / queue / coalescing snapshot
    POST /v1/runs               one RunSpec        -> summary | job
    POST /v1/matrix             one ExperimentMatrix -> per-key statuses
    GET  /v1/jobs/{id}          background job progress
    GET  /v1/runs/{key}         cached run summary
    GET  /v1/runs/{key}/trace   the binary (npz) trace blob

Errors are structured JSON: ``{"error": {"type": ..., "message": ...}}``
with 400 for malformed payloads, 404 for unknown keys/jobs/paths, 503
while shutting down.  The server is a ``ThreadingHTTPServer`` speaking
HTTP/1.1 with keep-alive; repeated identical warm ``POST /v1/runs``
bodies additionally short-circuit through a bounded byte-for-byte
response memo, so a hot spec costs one dict lookup per request.  The
handler reads HTTP/1.1 request headers without the email package's
parser and sends each JSON reply, head and body, in one write: on a memo
hit those two had been most of the server's Python.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
import struct
import threading
import time
from email.utils import formatdate
from functools import lru_cache, partial
from http.client import HTTPMessage
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.runner.cache import (
    ResultCache,
    default_cache_dir,
    loads_json,
    result_to_summary,
    trace_blob_bytes,
)
from repro.runner.model_store import cached_build_models
from repro.runner.spec import RunSpec, spec_key
from repro.runner.wire import WIRE_SCHEMA, matrix_from_wire, spec_from_wire
from repro.service.jobs import JobQueue, ServiceClosed
from repro.sim.models import ModelBundle

#: Content keys are sha256 hex digests; anything else 404s before it can
#: touch the filesystem.
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: Upper bound on accepted request bodies (custom platforms + phase lists
#: fit in a few kB; this is pure DoS hygiene).
MAX_BODY_BYTES = 4 * 2**20

#: Seconds a connection may stall (mid-request or idle between
#: keep-alive requests) before its handler thread gives up on it.
REQUEST_TIMEOUT_S = 30.0

#: What a write raises when the client went away, or stopped reading for
#: REQUEST_TIMEOUT_S (a blocking send past SO_SNDTIMEO: BlockingIOError).
_CLIENT_GONE = (BrokenPipeError, ConnectionResetError, BlockingIOError)

#: Entries kept in the warm-response memo before it is cleared whole.
WARM_MEMO_LIMIT = 4096

#: The stdlib's request header limits: a longer line, or more lines (the
#: blank one that ends them included), is answered 431.
MAX_HEADER_LINE = 65536
MAX_HEADER_LINES = 100


class EvaluationService:
    """One long-lived evaluation endpoint over a runner cache.

    Parameters
    ----------
    cache:
        Shared :class:`ResultCache`.  Defaults to ``$REPRO_CACHE_DIR``
        or a process-local in-memory cache.
    models:
        A :class:`ModelBundle`, or None to load/build lazily through the
        cache's model store the first time a DTPM spec arrives.
    workers:
        Background job worker threads (cold-path concurrency).
    batch:
        Lock-step batch width inside each job (``$REPRO_BATCH`` default).
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        models: Optional[ModelBundle] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        batch: Optional[int] = None,
        verbose: bool = False,
    ) -> None:
        if cache is None:
            cache = ResultCache(root=default_cache_dir())
        self.cache = cache
        self.verbose = verbose
        self.started_s = time.time()
        self.jobs = JobQueue(
            cache=cache,
            models=models
            if models is not None
            else partial(cached_build_models, root=cache.root),
            workers=workers,
            batch=batch,
        )
        self._memo_lock = threading.Lock()
        self._warm_memo: Dict[bytes, bytes] = {}  # guarded-by: _memo_lock
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- port resolved when 0 was requested."""
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self.httpd.serve_forever()

    def start(self) -> "EvaluationService":
        """Serve on a daemon thread; returns self (for tests/embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Graceful stop: drain (or drop) queued jobs, then close the socket.

        The queue stops accepting first (new cold requests get 503 while
        warm ones keep answering), queued jobs run to completion when
        ``drain`` is set, and only then does the HTTP loop stop.
        """
        self.jobs.close(drain=drain)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    def key_for(self, spec: RunSpec) -> str:
        """The content key this service files ``spec`` under.

        Resolves the model bundle when the spec consumes it, so the key
        matches what the background runner will produce.
        """
        models = self.jobs.resolve_models() if spec.needs_models else None
        return spec_key(spec, models)

    def stats_payload(self) -> dict:
        cache_stats = self.cache.stats_snapshot()
        return {
            "ok": True,
            "schema": WIRE_SCHEMA,
            "uptime_s": time.time() - self.started_s,
            "cache": {
                "root": self.cache.root,
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "stores": cache_stats.stores,
            },
            "queue": self.jobs.snapshot(),
            "warm_memo": self.memo_size(),
        }

    def memo_size(self) -> int:
        with self._memo_lock:
            return len(self._warm_memo)

    def memo_get(self, body: bytes) -> Optional[bytes]:
        with self._memo_lock:
            return self._warm_memo.get(body)

    def memo_put(self, body: bytes, response: bytes) -> None:
        with self._memo_lock:
            if len(self._warm_memo) >= WARM_MEMO_LIMIT:
                self._warm_memo.clear()
            self._warm_memo[body] = response


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date header value for one wall-clock second."""
    return formatdate(second, usegmt=True)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server_version = "repro-dtpm"

    def setup(self) -> None:
        super().setup()
        # a stalled client -- a body shorter than its Content-Length, an
        # idle keep-alive connection, a reader that stops mid-reply --
        # frees its thread after REQUEST_TIMEOUT_S: the kernel's receive
        # timeout ends the read short, its send timeout fails the write.
        # (StreamRequestHandler.timeout, i.e. socket.settimeout, polls
        # before every recv and send, which costs the warm path.)
        seconds, fraction = divmod(REQUEST_TIMEOUT_S, 1.0)
        timeout = struct.pack("ll", int(seconds), int(fraction * 1e6))
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            self.connection.setsockopt(socket.SOL_SOCKET, option, timeout)

    def handle_one_request(self) -> None:
        # every write path ends here: a failed write may have sent part
        # of a reply, so the connection closes with no further reply
        try:
            super().handle_one_request()
        except _CLIENT_GONE:
            self.close_connection = True

    def parse_request(self) -> bool:
        # A plain HTTP/1.1 request line reads its headers here: the
        # stdlib's parse_request runs them through the email package's
        # parser, which cost more than the rest of a warm request's
        # server-side Python.  Any other request line takes the stdlib path.
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] != "HTTP/1.1":
            return super().parse_request()
        self.requestline = requestline
        self.command, path, self.request_version = words
        # the stdlib's guard against an open redirect through '//host'
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.close_connection = False
        headers = HTTPMessage()
        for _ in range(MAX_HEADER_LINES):
            line = self.rfile.readline(MAX_HEADER_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > MAX_HEADER_LINE:
                self.send_error(431, "Line too long")
                return False
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or name[:1] in (" ", "\t"):
                # no field name, or an obsolete folded continuation line
                self.send_error(400, "Bad header line")
                return False
            headers.set_raw(name, value.lstrip(" \t").rstrip("\r\n"))
        else:
            self.send_error(431, "Too many headers")
            return False
        self.headers = headers
        if headers.get("Connection", "").lower() == "close":
            self.close_connection = True
        if headers.get("Expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    # ------------------------------------------------------------------
    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102 - stdlib override
        if self.service.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send_bytes(
        self, code: int, body: bytes,
        content_type: str = "application/json",
    ) -> None:
        # send_response's head as one formatted string, with a Date
        # formatted once a second, sent with the body in one write: the
        # send_header calls, the date formatting and a second send cost
        # more than the rest of a memo hit's server-side Python
        self.log_request(code)
        if self.request_version != "HTTP/0.9":  # 0.9 answers carry no head
            head = (
                "%s %d %s\r\nServer: %s\r\nDate: %s\r\n"
                "Content-Type: %s\r\nContent-Length: %d\r\n\r\n"
                % (self.protocol_version, code, self.responses[code][0],
                   self.version_string(), _http_date(int(time.time())),
                   content_type, len(body))
            )
            body = head.encode("latin-1") + body
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict) -> bytes:
        body = json.dumps(payload).encode("utf-8")
        self._send_bytes(code, body)
        return body

    def _send_error_json(self, code: int, kind: str, message: str) -> None:
        self._send_json(code, {"error": {"type": kind, "message": message}})

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # whatever body follows cannot be framed: drop the connection
            self.close_connection = True
            self._send_error_json(400, "bad_request", "bad Content-Length")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, "too_large",
                "body exceeds %d bytes" % MAX_BODY_BYTES,
            )
            return None
        # short (or None) when the client closes or stalls mid-body
        body = self.rfile.read(length) if length else b""
        if body is None or len(body) < length:
            self.close_connection = True
            self._send_error_json(
                400, "incomplete_body",
                "expected %d body bytes within %g s"
                % (length, REQUEST_TIMEOUT_S),
            )
            return None
        return body

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib contract
        try:
            self._route_get(urlsplit(self.path).path)
        except _CLIENT_GONE:
            raise  # no 500 after a partial reply
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            self._send_error_json(500, type(exc).__name__, str(exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib contract
        try:
            self._route_post(urlsplit(self.path).path)
        except _CLIENT_GONE:
            raise  # no 500 after a partial reply
        except ServiceClosed as exc:
            self._send_error_json(503, "shutting_down", str(exc))
        except json.JSONDecodeError as exc:
            self._send_error_json(400, "invalid_json", str(exc))
        except (ReproError, TypeError, ValueError) as exc:
            self._send_error_json(400, type(exc).__name__, str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            self._send_error_json(500, type(exc).__name__, str(exc))

    # ------------------------------------------------------------------
    def _route_get(self, path: str) -> None:
        service = self.service
        if path == "/healthz":
            self._send_json(
                200, {"ok": True, "uptime_s": time.time() - service.started_s}
            )
            return
        if path == "/v1/stats":
            self._send_json(200, service.stats_payload())
            return
        if path.startswith("/v1/jobs/"):
            payload = service.jobs.status(path[len("/v1/jobs/"):])
            if payload is None:
                self._send_error_json(404, "unknown_job", "no such job")
                return
            self._send_json(200, payload)
            return
        if path.startswith("/v1/runs/"):
            rest = path[len("/v1/runs/"):]
            key, _, tail = rest.partition("/")
            if not _KEY_RE.match(key) or tail not in ("", "trace"):
                self._send_error_json(
                    404, "unknown_path",
                    "expected /v1/runs/{sha256 hex key}[/trace]",
                )
                return
            if tail == "trace":
                self._serve_trace(key)
            else:
                self._serve_summary(key)
            return
        self._send_error_json(404, "unknown_path", "no route for %s" % path)

    def _serve_summary(self, key: str) -> None:
        result = self.service.cache.get(key)
        if result is None:
            self._send_error_json(
                404, "unknown_key", "no cached result under this key"
            )
            return
        payload = result_to_summary(result)
        payload["key"] = key
        self._send_json(200, payload)

    def _serve_trace(self, key: str) -> None:
        cache = self.service.cache
        # a blob is served only under a summary that landed: a blob alone
        # is a stray file that get() and the frames never read
        if cache.root is not None and key in cache:
            # one open: a prune that unlinks the blob before it is a miss
            # here, one that unlinks it after leaves the open file whole
            try:
                fh = open(cache.trace_path(key), "rb")
            except FileNotFoundError:
                pass
            else:
                with fh:
                    self.send_response(200)
                    self.send_header("Content-Type", "application/octet-stream")
                    self.send_header(
                        "Content-Length", str(os.fstat(fh.fileno()).st_size)
                    )
                    self.end_headers()
                    shutil.copyfileobj(fh, self.wfile)
                return
        result = cache.get(key)
        if result is None:
            self._send_error_json(
                404, "unknown_key", "no cached trace under this key"
            )
            return
        self._send_bytes(
            200, trace_blob_bytes(result), "application/octet-stream"
        )

    # ------------------------------------------------------------------
    def _route_post(self, path: str) -> None:
        body = self._read_body()
        if body is None:
            return
        if path == "/v1/runs":
            self._post_run(body)
        elif path == "/v1/matrix":
            self._post_matrix(body)
        else:
            self._send_error_json(404, "unknown_path", "no route for %s" % path)

    def _post_run(self, body: bytes) -> None:
        service = self.service
        memo = service.memo_get(body)
        if memo is not None:
            self._send_bytes(200, memo)
            return
        spec = spec_from_wire(loads_json(body))
        key = service.key_for(spec)
        result = service.cache.get(key)
        if result is not None:
            response = self._send_json(200, {
                "status": "done",
                "key": key,
                "cached": True,
                "summary": result_to_summary(result),
            })
            service.memo_put(body, response)
            return
        assignment, created = service.jobs.submit([spec], [key])
        self._send_json(202, {
            "status": "queued",
            "key": key,
            "job": assignment[key],
            "coalesced": created is None,
        })

    def _post_matrix(self, body: bytes) -> None:
        service = self.service
        matrix = matrix_from_wire(loads_json(body))
        specs = matrix.specs()
        keys = [service.key_for(spec) for spec in specs]
        runs = []
        cold_specs, cold_keys = [], []
        for spec, key in zip(specs, keys):
            if service.cache.get(key) is not None:
                runs.append({"key": key, "status": "cached"})
            else:
                cold_specs.append(spec)
                cold_keys.append(key)
                runs.append({"key": key, "status": "queued"})
        job_of: Dict[str, str] = {}
        created = None
        if cold_specs:
            job_of, created = service.jobs.submit(cold_specs, cold_keys)
            for entry in runs:
                if entry["status"] == "queued":
                    entry["job"] = job_of[entry["key"]]
        self._send_json(202 if cold_specs else 200, {
            "total": len(specs),
            "cached": len(specs) - len(cold_specs),
            "queued": len(cold_specs),
            "job": created.id if created is not None else None,
            "runs": runs,
        })


def serve(
    cache_dir: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    batch: Optional[int] = None,
    models: Optional[ModelBundle] = None,
    verbose: bool = True,
) -> int:
    """Run the service in the foreground (the ``repro-dtpm serve`` body).

    Blocks until interrupted; Ctrl-C drains the job queue before exiting
    so no queued work is silently dropped.
    """
    cache = ResultCache(root=cache_dir if cache_dir else default_cache_dir())
    service = EvaluationService(
        cache=cache, models=models, host=host, port=port,
        workers=workers, batch=batch, verbose=verbose,
    )
    where = (
        "in-memory only (no --cache-dir; results do not persist)"
        if cache.root is None
        else cache.root
    )
    print("repro-dtpm evaluation service on %s" % service.url)
    print("  cache: %s" % where)
    print("  workers: %d, batch: %d" % (workers, service.jobs.batch))
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining job queue before shutdown ...")
        service.shutdown(drain=True)
        print("bye")
    return 0
