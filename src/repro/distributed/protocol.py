"""Framing and codecs of the coordinator <-> worker TCP protocol.

Every message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  Framing is the only binary
layer; everything inside a frame reuses the versioned wire schema of
:mod:`repro.runner.wire` (``"schema": 1``) for specs and the v2 cache
artifact codecs (:func:`~repro.runner.cache.result_to_summary` +
npz trace blob, base64-wrapped) for results -- so a spec shipped to a
worker keys identically on both hosts and a result shipped back is
byte-identical to one produced locally.

The conversation, coordinator-first::

    -> {"op": "hello", "schema": 1, "models": <base64 pickle> | null}
    <- {"op": "ready"}
    -> {"op": "run", "id": 0, "specs": [<wire spec>, ...]}
    <- {"op": "heartbeat", "id": 0}           # repeated while executing
    <- {"op": "done", "id": 0, "chains": [[<wire result>, ...], ...]}
       | {"op": "error", "id": 0, "message": "..."}
    -> {"op": "bye"}

The model bundle travels as a pickle (exactly what the in-process
``ProcessPoolExecutor`` workers receive), so the protocol is for
*trusted* clusters only -- same trust boundary as the pool.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError, WireError
from repro.runner.cache import (
    BLOB_ERRORS,
    is_summary,
    loads_json,
    result_to_summary,
    summary_to_result,
    trace_blob_bytes,
    trace_from_npz_bytes,
)
from repro.runner.wire import (
    WIRE_SCHEMA,
    is_wire_schema,
    spec_from_wire,
    spec_to_wire,
)
from repro.sim.models import ModelBundle
from repro.sim.run_result import RunResult
from repro.runner.spec import RunSpec

#: Frames larger than this are rejected before allocation: a batch of
#: trace blobs is tens of MiB, so the bound is pure protocol hygiene
#: against a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 512 * 2**20

_LEN = struct.Struct(">I")


class ProtocolError(WireError):
    """A malformed, oversized or truncated protocol frame."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def send_frame(sock: socket.socket, payload: dict) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte protocol bound"
            % (len(body), MAX_FRAME_BYTES)
        )
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                "connection closed mid-frame (%d of %d bytes short)"
                % (remaining, count)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    """Read one frame; raises :class:`ProtocolError` on EOF or garbage."""
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            "peer announced a %d-byte frame (bound: %d)"
            % (length, MAX_FRAME_BYTES)
        )
    body = _recv_exact(sock, length)
    try:
        payload = loads_json(body)
    except ValueError as exc:
        raise ProtocolError("frame is not valid JSON: %s" % exc) from None
    if not isinstance(payload, dict) or "op" not in payload:
        raise ProtocolError('frame must be a JSON object with an "op" field')
    return payload


# ---------------------------------------------------------------------------
# message payloads
# ---------------------------------------------------------------------------
def hello_payload(models: Optional[ModelBundle]) -> dict:
    """The session-opening frame carrying the (optional) model bundle."""
    blob = (
        base64.b64encode(pickle.dumps(models)).decode("ascii")
        if models is not None
        else None
    )
    return {"op": "hello", "schema": WIRE_SCHEMA, "models": blob}


def models_from_hello(payload: dict) -> Optional[ModelBundle]:
    """Decode the hello frame's model bundle (None when it ships none)."""
    if not is_wire_schema(payload.get("schema")):
        raise ProtocolError(
            "hello has unsupported schema %r (this build speaks %d)"
            % (payload.get("schema"), WIRE_SCHEMA)
        )
    blob = payload.get("models")
    if blob is None:
        return None
    models = pickle.loads(base64.b64decode(blob))
    if not isinstance(models, ModelBundle):
        raise ProtocolError(
            "hello models decoded to %s, not a ModelBundle"
            % type(models).__name__
        )
    return models


def run_payload(job_id: int, specs: List[RunSpec]) -> dict:
    """One batch of specs as a ``run`` frame (wire-schema spec rendering)."""
    return {
        "op": "run",
        "id": job_id,
        "specs": [spec_to_wire(spec) for spec in specs],
    }


def specs_from_run(payload: dict) -> Tuple[int, List[RunSpec]]:
    """Decode a ``run`` frame back to (job id, specs)."""
    try:
        job_id = int(payload["id"])
        raw = payload["specs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("malformed run frame: %s" % exc) from None
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("run frame needs a non-empty spec list")
    return job_id, [
        spec_from_wire(obj, "specs[%d]" % i) for i, obj in enumerate(raw)
    ]


def result_to_wire(result: RunResult) -> dict:
    """One result as wire JSON: v2 summary + base64 npz trace blob.

    The round trip through :func:`result_from_wire` is byte-identical
    (:func:`~repro.runner.cache.result_bytes`): the summary's floats
    repr-round-trip through JSON and the trace travels as the exact
    float64 npz bytes the cache would write.
    """
    return {
        "summary": result_to_summary(result),
        "blob": base64.b64encode(trace_blob_bytes(result)).decode("ascii"),
    }


def result_from_wire(obj: Any) -> RunResult:
    """Rebuild a result shipped by :func:`result_to_wire`.

    Anything malformed raises :class:`ProtocolError`: a summary that
    fails :func:`~repro.runner.cache.is_summary`, bad base64, or a blob
    that is not the npz of a trace matrix matching the summary.
    """
    if not isinstance(obj, dict) or "summary" not in obj or "blob" not in obj:
        raise ProtocolError(
            "wire result must be an object with summary and blob fields"
        )
    if not is_summary(obj["summary"]):
        raise ProtocolError("wire result has a malformed summary")
    try:
        data = trace_from_npz_bytes(base64.b64decode(obj["blob"]))
        return summary_to_result(obj["summary"], data)
    except BLOB_ERRORS as exc:
        raise ProtocolError(
            "wire result has a malformed trace blob: %s" % exc
        ) from None


def chains_to_wire(chains: List[List[RunResult]]) -> List[List[dict]]:
    """A batch's per-spec result chains as wire JSON."""
    return [[result_to_wire(r) for r in chain] for chain in chains]


def chains_from_wire(obj: Any) -> List[List[RunResult]]:
    """Decode :func:`chains_to_wire` output."""
    if not isinstance(obj, list):
        raise ProtocolError("chains must be a JSON array")
    return [
        [result_from_wire(r) for r in chain]
        for chain in (
            c if isinstance(c, list) else [c] for c in obj
        )
    ]


# ---------------------------------------------------------------------------
# endpoint parsing ("host:port,host:port,...")
# ---------------------------------------------------------------------------
def parse_endpoints(text: str) -> List[Tuple[str, int]]:
    """Parse a ``"host:port,host:port"`` worker list.

    The accepted grammar of ``ParallelRunner(workers=...)`` strings and
    ``repro-dtpm serve --dispatch``.  Raises
    :class:`~repro.errors.ConfigurationError` on anything malformed so a
    typo'd worker list fails at construction, not mid-run.
    """
    endpoints: List[Tuple[str, int]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        host, sep, port_text = token.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                "worker endpoint %r is not host:port" % token
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigurationError(
                "worker endpoint %r has a non-numeric port" % token
            ) from None
        if not 0 < port < 65536:
            raise ConfigurationError(
                "worker endpoint %r has an out-of-range port" % token
            )
        endpoints.append((host, port))
    if not endpoints:
        raise ConfigurationError(
            "worker list %r names no host:port endpoints" % text
        )
    return endpoints
