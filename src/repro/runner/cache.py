"""Content-addressed result cache for closed-loop runs.

Entries live under ``<root>/<key[:2]>/`` (the *flat* layout, depth 1) or
``<root>/<key[:2]>/<key[2:4]>/`` (the *sharded* layout, depth 2 -- 65536
fan-out directories for ~100k+ run stores) where ``key`` is the
:func:`repro.runner.spec.spec_key` of the experiment.  A store's write
depth is recorded in a ``.layout.json`` marker; **reads always probe
both depths**, because ``repro-dtpm cache migrate`` reshards a live
store in place (copy-then-unlink per entry, re-runnable after an
interruption) and readers must keep finding every key meanwhile.

Every entry is a small ``<key>.json`` *summary* (scalars +
``"artifact": 2`` + trace shape) next to a ``<key>.npz`` binary trace
blob -- the summary is written last and is the commit point.  The blob
stores the ``(rows, columns)`` float64 matrix uncompressed, so the
round trip is numerically exact by construction.  A ``<key>.json``
without ``"artifact": 2`` (the trace-rows-inline files of cache format
1, which no current key reaches because ``spec_key`` hashes the format)
is a miss that bulk reads skip and :func:`prune` still evicts.

``repro-dtpm cache migrate --compress deflate`` may transcode blobs
through stdlib zlib (suffix ``.npz.z``).  Compression never changes a
result: the blob decompresses to the exact npz bytes an uncompressed
store would hold.  Every blob -- plain or deflated on disk, base64 on
the distributed wire -- is decoded by :func:`trace_from_npz_bytes`,
whose zip read checks the member's CRC-32: a damaged blob is a miss or
a typed error, never a wrong trace, and no read writes to the store.

Bulk readers (:meth:`ResultCache.frame_chunks`, feeding
``SuiteFrame.open_dir``) ride a per-shard *frame index*: one
``<root>/.index/<shard>.frame.json`` per top-level shard holding the
shard's well-formed summaries pre-extracted into columns, validated
against the shard directories' mtimes -- a warm 100k-entry store opens
with ~256 reads instead of ~100k.  ``.index/`` is derived data:
deleting it costs one rescan per shard, and the ``<shard>.json`` pack
files older versions wrote next to the frames are ignored and safe to
delete.

The canonical *byte-identity* unit is :func:`result_bytes`: the whole
result, every trace row included, as deterministic JSON (sorted keys,
repr-round-tripped floats), so two equal :class:`RunResult` objects
serialise to byte-identical payloads -- which is how the test-suite
checks serial, parallel, distributed and cached execution agree.

A cache without a root directory is an in-process memo (used by the
benchmark harness when ``REPRO_CACHE_DIR`` is unset); with a root it
persists across processes and CI jobs.  Writes are atomic (temp file +
``os.replace``) so concurrent writers at worst waste a little work.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
import threading
import time
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.run_result import RunResult, TraceRecorder

#: Environment variable pointing the default cache at a shared directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Version tag of the on-disk artifact layout written by this code.
ARTIFACT_FORMAT = 2

#: Suffix of the binary trace blob sitting next to a summary.
TRACE_BLOB_SUFFIX = ".npz"

#: Suffix of a deflate-compressed trace blob (``cache migrate --compress``).
DEFLATE_BLOB_SUFFIX = ".npz.z"

#: Every suffix a trace blob may carry, plain first (the probe order).
BLOB_SUFFIXES: Tuple[str, ...] = (TRACE_BLOB_SUFFIX, DEFLATE_BLOB_SUFFIX)

#: zlib level of compressed blobs (it fixes their on-disk bytes).
DEFLATE_LEVEL = 6

#: Name of the trace matrix inside the npz container.
TRACE_MEMBER = "data"

#: Name of the store-layout marker file under the cache root.
LAYOUT_MARKER = ".layout.json"

#: Directory (under the root) holding the per-shard frame index files.
INDEX_DIR = ".index"

#: Version tag of the per-shard columnar frame file payload.
FRAME_FORMAT = 1

#: Scalar summary fields analytics gathers into float64 columns.
SUMMARY_FLOAT_FIELDS: Tuple[str, ...] = (
    "execution_time_s",
    "average_platform_power_w",
    "energy_j",
)

#: Counter summary fields analytics gathers into int64 columns.
SUMMARY_COUNT_FIELDS: Tuple[str, ...] = (
    "interventions",
    "violations_predicted",
    "cluster_migrations",
    "cores_offlined",
)

#: What reading a damaged trace blob raises: a missing or torn file,
#: bytes that are no zip archive or deflate stream, a member whose CRC-32
#: or header does not check out, a member flagged as encrypted or packed
#: with a method ``zipfile`` cannot read, a missing member, an npy header
#: that does not parse, or a matrix that disagrees with its summary.
BLOB_ERRORS: Tuple[Type[BaseException], ...] = (
    OSError,
    EOFError,
    ValueError,
    KeyError,
    TypeError,
    NotImplementedError,
    RuntimeError,
    tokenize.TokenError,
    zipfile.BadZipFile,
    zlib.error,
    SimulationError,
)


def loads_json(raw: bytes) -> Any:
    """Parse a UTF-8 JSON document; ``ValueError`` on anything malformed.

    ``json.loads`` raises ``RecursionError`` on nesting deeper than the
    interpreter's recursion limit, which a few hundred kilobytes of
    ``[`` reach, and bytes that are not UTF-8 fail before parsing starts.
    Summaries, frame files, wire frames and service request bodies are
    all parsed here, so either document is malformed like any other: a
    ``json.JSONDecodeError``.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        valid = raw[: exc.start].decode("utf-8")
        raise json.JSONDecodeError(
            "Invalid UTF-8 (%s)" % exc.reason, valid, len(valid)
        ) from None
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


def is_finite_number(value: Any) -> bool:
    """Whether ``value`` is a finite JSON number (``bool`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_count(value: Any) -> bool:
    # analytics gathers counts into int64 columns
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and -(2**63) <= value < 2**63
    )


def _is_str_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def is_summary(payload: Any) -> bool:
    """Whether ``payload`` is a well-formed current-format summary.

    The one check every reader applies before trusting a summary --
    :func:`summary_row` (frame rows), :meth:`ResultCache.get` (a failing
    entry is a miss) and the distributed wire decoder (a failing result
    is a protocol error) -- so they agree on which entries exist:
    ``"artifact": 2``, ``str`` benchmark and mode, ``bool`` completed,
    finite numbers for :data:`SUMMARY_FLOAT_FIELDS`, int64-range ints
    for :data:`SUMMARY_COUNT_FIELDS` (``bool`` is neither), ``notes`` and
    ``trace.columns`` lists of ``str`` and an int ``trace.length``.
    """
    if not isinstance(payload, dict):
        return False
    trace = payload.get("trace")
    return (
        payload.get("artifact") == ARTIFACT_FORMAT
        and isinstance(payload.get("benchmark"), str)
        and isinstance(payload.get("mode"), str)
        and isinstance(payload.get("completed"), bool)
        and all(is_finite_number(payload.get(f)) for f in SUMMARY_FLOAT_FIELDS)
        and all(_is_count(payload.get(f)) for f in SUMMARY_COUNT_FIELDS)
        and _is_str_list(payload.get("notes"))
        and isinstance(trace, dict)
        and _is_str_list(trace.get("columns"))
        and _is_count(trace.get("length"))
    )


def summary_row(payload: Any) -> Optional[tuple]:
    """One summary payload as frame-row fields, or None if malformed.

    The single extraction rule behind every frame row -- the per-shard
    frame files and ``SuiteFrame.from_cache``'s explicit keys -- so both
    open paths keep or skip exactly the same entries, and exactly the
    entries :meth:`ResultCache.get` serves (:func:`is_summary`).
    Returns ``(floats, counts, benchmark, mode, completed,
    trace_columns)``.
    """
    if not is_summary(payload):
        return None
    return (
        [float(payload[f]) for f in SUMMARY_FLOAT_FIELDS],
        [payload[f] for f in SUMMARY_COUNT_FIELDS],
        payload["benchmark"],
        payload["mode"],
        payload["completed"],
        payload["trace"]["columns"],
    )


def result_to_payload(result: RunResult) -> dict:
    """Serialise a RunResult to a JSON-able payload (lossless for floats)."""
    return {
        "benchmark": result.benchmark,
        "mode": result.mode,
        "completed": result.completed,
        "execution_time_s": result.execution_time_s,
        "average_platform_power_w": result.average_platform_power_w,
        "energy_j": result.energy_j,
        "interventions": result.interventions,
        "violations_predicted": result.violations_predicted,
        "cluster_migrations": result.cluster_migrations,
        "cores_offlined": result.cores_offlined,
        "notes": list(result.notes),
        "trace": {
            "columns": result.trace.columns,
            "rows": result.trace.array().tolist(),
        },
    }


def payload_bytes(payload: dict) -> bytes:
    """Canonical byte rendering (the unit of byte-identity comparisons)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def result_bytes(result: RunResult) -> bytes:
    """Canonical byte rendering of a result."""
    return payload_bytes(result_to_payload(result))


# ---------------------------------------------------------------------------
# artifacts: summary JSON + binary trace blob
# ---------------------------------------------------------------------------
def result_to_summary(result: RunResult) -> dict:
    """The summary payload: everything except the trace rows."""
    return {
        "artifact": ARTIFACT_FORMAT,
        "benchmark": result.benchmark,
        "mode": result.mode,
        "completed": result.completed,
        "execution_time_s": result.execution_time_s,
        "average_platform_power_w": result.average_platform_power_w,
        "energy_j": result.energy_j,
        "interventions": result.interventions,
        "violations_predicted": result.violations_predicted,
        "cluster_migrations": result.cluster_migrations,
        "cores_offlined": result.cores_offlined,
        "notes": list(result.notes),
        "trace": {
            "columns": result.trace.columns,
            "length": len(result.trace),
        },
    }


def summary_to_result(payload: dict, trace_data: np.ndarray) -> RunResult:
    """Rebuild a RunResult from a summary and its trace matrix.

    ``payload`` must pass :func:`is_summary`; the fields are copied
    as they are.
    """
    meta = payload["trace"]
    if trace_data.shape != (meta["length"], len(meta["columns"])):
        raise SimulationError(
            "trace blob shape %s does not match summary %s x %d"
            % (trace_data.shape, meta["length"], len(meta["columns"]))
        )
    trace = TraceRecorder.from_array(meta["columns"], trace_data)
    return RunResult(
        benchmark=payload["benchmark"],
        mode=payload["mode"],
        completed=payload["completed"],
        execution_time_s=payload["execution_time_s"],
        average_platform_power_w=payload["average_platform_power_w"],
        energy_j=payload["energy_j"],
        trace=trace,
        interventions=payload["interventions"],
        violations_predicted=payload["violations_predicted"],
        cluster_migrations=payload["cluster_migrations"],
        cores_offlined=payload["cores_offlined"],
        notes=list(payload["notes"]),
    )


def trace_blob_bytes(result: RunResult) -> bytes:
    """The uncompressed npz rendering of a result's trace matrix."""
    buf = io.BytesIO()
    np.savez(buf, **{TRACE_MEMBER: result.trace.array()})
    return buf.getvalue()


def _blob_key(name: str) -> Optional[str]:
    """The entry key a blob file name encodes, or None for other files."""
    for suffix in BLOB_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return None


def load_trace_blob(path: str) -> np.ndarray:
    """The trace matrix of a blob file, plain or deflated (``.npz.z``)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(DEFLATE_BLOB_SUFFIX):
        raw = zlib.decompress(raw)
    return trace_from_npz_bytes(raw)


def trace_from_npz_bytes(raw: bytes) -> np.ndarray:
    """The trace matrix of an npz blob's bytes -- the one blob decoder.

    Store reads (:func:`load_trace_blob`) and the distributed wire
    decoder both end here.  ``ZipFile.read`` checks the member's CRC-32,
    so damaged bytes raise one of :data:`BLOB_ERRORS` instead of
    decoding to a wrong matrix, and ``allow_pickle=False`` keeps the
    member plain data.
    """
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        npy = zf.read(TRACE_MEMBER + ".npy")
    return np.lib.format.read_array(io.BytesIO(npy), allow_pickle=False)


def default_cache_dir() -> Optional[str]:
    """The shared cache directory, if ``REPRO_CACHE_DIR`` names one."""
    path = os.environ.get(CACHE_DIR_ENV, "").strip()
    return path or None


# ---------------------------------------------------------------------------
# store layout (shard depth) marker
# ---------------------------------------------------------------------------
def store_depth(root: str) -> int:
    """The shard depth a store's ``.layout.json`` marker declares (1 or 2).

    A missing or unreadable marker means the legacy single-level layout
    (depth 1) -- every store written before the marker existed -- and so
    does a marker that declares anything but depth 2.
    """
    try:
        with open(os.path.join(root, LAYOUT_MARKER), "rb") as fh:
            payload = loads_json(fh.read())
    except (OSError, ValueError):
        return 1
    return 2 if isinstance(payload, dict) and payload.get("depth") == 2 else 1


def _write_layout_marker(root: str, depth: int) -> None:
    os.makedirs(root, exist_ok=True)
    ResultCache._atomic_write(
        os.path.join(root, LAYOUT_MARKER),
        payload_bytes({"depth": depth}),
    )


def _entry_dir(root: str, key: str, depth: int) -> str:
    if depth == 2:
        return os.path.join(root, key[:2], key[2:4])
    return os.path.join(root, key[:2])


@dataclass
class CacheStats:
    """Hit/miss/store counters of one ResultCache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """Content-addressed RunResult store (in-memory + optional disk).

    ``fanout`` picks the shard depth new entries are written at: ``1``
    (``<root>/ab/``, the legacy flat layout), ``2`` (``<root>/ab/cd/``),
    or ``None`` (default) to adopt whatever the store's layout marker
    declares.  Reads always probe both depths, so mixed and mid-migration
    stores stay fully readable.

    New trace blobs are written plain; reads handle any mix of plain and
    deflated blobs.  ``mmap`` is accepted and ignored: every read decodes
    the whole blob through its CRC check.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        memory: bool = True,
        mmap: bool = False,
        fanout: Optional[int] = None,
    ) -> None:
        if root is None and not memory:
            raise SimulationError(
                "a cache needs a root directory or the memory layer"
            )
        self.root = (
            os.path.abspath(os.path.expanduser(root)) if root else None
        )
        if fanout is None:
            depth = store_depth(self.root) if self.root is not None else 1
        elif fanout in (1, 2):
            depth = int(fanout)
        else:
            raise ConfigurationError(
                "fanout must be 1 (flat) or 2 (sharded), got %r" % (fanout,)
            )
        self.depth = depth
        self._lock = threading.Lock()
        # decoded results, so repeated in-process hits skip JSON parsing
        # (callers share the object, like the old per-session run memo);
        # service HTTP threads and job workers share one instance
        self._memory: Optional[Dict[str, RunResult]] = (  # guarded-by: _lock
            {} if memory else None
        )
        self.stats = CacheStats()  # guarded-by: _lock
        self._marker_written = False  # guarded-by: _lock

    @classmethod
    def from_env(cls) -> "ResultCache":
        """Disk-backed cache at ``$REPRO_CACHE_DIR``, else in-memory only."""
        return cls(root=default_cache_dir())

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        """The summary path at this cache's *write* depth."""
        assert self.root is not None
        return os.path.join(
            _entry_dir(self.root, key, self.depth), key + ".json"
        )

    def _probe_dirs(self, key: str) -> List[str]:
        """Candidate entry directories, write depth first."""
        assert self.root is not None
        dirs = [_entry_dir(self.root, key, self.depth)]
        other = _entry_dir(self.root, key, 3 - self.depth)
        dirs.append(other)
        return dirs

    def _find_summary(self, key: str) -> Optional[str]:
        """The existing summary path for ``key`` at either depth."""
        if self.root is None:
            return None
        for base in self._probe_dirs(key):
            path = os.path.join(base, key + ".json")
            if os.path.exists(path):
                return path
        return None

    def _find_blob(self, key: str) -> Optional[str]:
        """The existing trace blob for ``key``: any depth, plain first."""
        if self.root is None:
            return None
        for base in self._probe_dirs(key):
            for suffix in BLOB_SUFFIXES:
                path = os.path.join(base, key + suffix)
                if os.path.exists(path):
                    return path
        return None

    def _read_trace(self, key: str) -> np.ndarray:
        """One entry's trace matrix; raises one of :data:`BLOB_ERRORS`.

        A blob can vanish between the probe and the open: a concurrent
        ``cache migrate`` moved it to the other depth or codec.  What
        replaced it holds the same trace, so the probe runs once more.
        """
        try:
            return self._read_blob(key)
        except FileNotFoundError:
            return self._read_blob(key)

    def _read_blob(self, key: str) -> np.ndarray:
        path = self._find_blob(key)
        if path is None:
            raise SimulationError("no trace blob")
        return load_trace_blob(path)

    def _load_disk(self, key: str) -> Optional[RunResult]:
        path = self._find_summary(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                payload = loads_json(fh.read())
            if not is_summary(payload):
                return None
            data = self._read_trace(key)
            result = summary_to_result(payload, data)
        except BLOB_ERRORS:
            # corrupt/truncated/stale/format-1 entry: treat as a miss, let
            # the writer replace it
            return None
        self._touch(path)
        return result

    @staticmethod
    def _touch(path: str) -> None:
        """Best-effort LRU access stamp on a disk entry.

        :func:`prune` evicts oldest-accessed-first by the summary file's
        mtime; bumping it on every successful read makes the store an LRU
        rather than a write-order FIFO.  Failures (read-only mounts,
        races with a pruner) are ignored -- the entry just keeps its old
        position in the eviction order.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None on a miss."""
        with self._lock:
            memo = (
                self._memory.get(key) if self._memory is not None else None
            )
            if memo is not None:
                self.stats.hits += 1
        if memo is not None:
            if self.root is not None:
                # memory-layer hits must keep the disk entry warm too, or
                # a long-lived process would let prune() evict its hottest
                # keys by their stale first-read stamp
                path = self._find_summary(key)
                if path is not None:
                    self._touch(path)
            return memo
        result = self._load_disk(key)  # file I/O stays outside the lock
        with self._lock:
            if result is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            if self._memory is not None:
                self._memory[key] = result
        return result

    @staticmethod
    def _atomic_write(path: str, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _ensure_marker(self) -> None:
        """Record a depth-2 write layout once per instance (best effort)."""
        with self._lock:
            if self._marker_written:
                return
            self._marker_written = True
        if self.root is not None and self.depth == 2:
            try:
                _write_layout_marker(self.root, self.depth)
            except OSError:
                pass

    def put(self, key: str, result: RunResult) -> None:
        """Store a result under its content key (summary + trace blob)."""
        with self._lock:
            if self._memory is not None:
                self._memory[key] = result
        if self.root is not None:
            self._ensure_marker()
            path = self._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            # trace blob first, summary JSON last: the summary is the
            # commit point, so readers never see a summary without a blob
            entry = path[: -len(".json")]
            blob = trace_blob_bytes(result)
            self._atomic_write(entry + TRACE_BLOB_SUFFIX, blob)
            self._atomic_write(path, payload_bytes(result_to_summary(result)))
            # a re-put over a blob ``cache migrate --compress deflate``
            # transcoded drops that copy, so the entry has exactly one blob
            try:
                os.unlink(entry + DEFLATE_BLOB_SUFFIX)
            except OSError:
                pass
        with self._lock:
            self.stats.stores += 1

    def stats_snapshot(self) -> CacheStats:
        """A point-in-time copy of the hit/miss/store counters."""
        with self._lock:
            return CacheStats(
                hits=self.stats.hits,
                misses=self.stats.misses,
                stores=self.stats.stores,
            )

    # ------------------------------------------------------------------
    # suite-scale read path: summaries without traces, traces on demand
    # (repro.analysis.suite opens whole directories through these)
    def keys(self) -> List[str]:
        """Every key with an on-disk summary, in deterministic order."""
        if self.root is None or not os.path.isdir(self.root):
            return []
        seen = set()
        out: List[str] = []
        for key, _, _ in _iter_entries(self.root):
            if key not in seen:  # mid-migration stores list a key twice
                seen.add(key)
                out.append(key)
        return out

    def load_summary(self, key: str) -> Optional[dict]:
        """One entry's summary payload, without touching its trace blob.

        Returns the parsed ``<key>.json`` as-is (:func:`summary_row`
        tells a well-formed summary apart), or ``None`` on a miss or an
        unparseable file.  Deliberately does **not** bump the LRU stamp:
        analytics sweeps over a suite directory are bulk reads and must
        not reorder the eviction queue wholesale.
        """
        path = self._find_summary(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                return loads_json(fh.read())
        except (OSError, ValueError):
            return None

    def iter_summaries(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(key, summary payload)`` for every readable disk entry."""
        for key in self.keys():
            payload = self.load_summary(key)
            if payload is not None:
                yield key, payload

    def frame_chunks(self) -> List[Dict[str, Any]]:
        """Per-shard columnar frames feeding ``SuiteFrame.open_dir``.

        One frame (see :func:`summary_frame`) per top-level shard, read
        from ``<root>/.index/<shard>.frame.json`` while its stamp still
        matches the shard directories' mtimes -- entry writes and
        evictions replace or unlink files, which bumps them; LRU
        ``utime`` stamps touch only files, so reads never invalidate a
        frame.  A missing, stale or damaged frame is rebuilt from the
        shard and persisted best-effort, so the first open after a write
        pays one shard scan and every later open is a single JSON read
        per shard with no per-entry work at all.  Frames come back in
        sorted shard order with keys sorted inside each, which is
        exactly the order of :meth:`keys` (every key is prefixed by its
        shard) minus the malformed entries a frame leaves out.
        """
        if self.root is None or not os.path.isdir(self.root):
            return []
        frames: List[Dict[str, Any]] = []
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if _skip_dir(shard) or not os.path.isdir(shard_dir):
                continue
            frame = _load_shard_frame(self.root, shard)
            if frame is None:
                frame = _build_shard_frame(self.root, shard)
                _persist_shard_frame(self.root, shard, frame)
            frames.append(frame)
        return frames

    def trace_path(self, key: str) -> str:
        """Path of the plain ``.npz`` trace blob belonging to ``key``.

        Consumers stream these bytes as npz directly (e.g. the service's
        trace endpoint).  An entry whose blob ``cache migrate --compress
        deflate`` transcoded, like a missing one, reports the write-depth
        path of a plain blob, which does not exist; callers fall back to
        :meth:`get` + :func:`trace_blob_bytes`.
        """
        if self.root is None:
            raise SimulationError("cache has no root directory")
        found = self._find_blob(key)
        if found is not None and found.endswith(TRACE_BLOB_SUFFIX):
            return found
        return os.path.join(
            _entry_dir(self.root, key, self.depth), key + TRACE_BLOB_SUFFIX
        )

    def open_trace(self, key: str) -> np.ndarray:
        """The trace matrix of one entry, decoded and CRC-checked in full.

        A missing or damaged blob raises :class:`SimulationError` naming
        ``key``.
        """
        try:
            return self._read_trace(key)
        except BLOB_ERRORS as exc:
            raise SimulationError(
                "cache entry %s: unreadable trace blob (%s)" % (key, exc)
            ) from None

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if self._memory is not None and key in self._memory:
                return True
        return self._find_summary(key) is not None

    def __len__(self) -> int:
        """Number of distinct entries reachable from this cache."""
        with self._lock:
            keys = set(self._memory or ())
        if self.root is not None and os.path.isdir(self.root):
            for key, _json_path, _blob in _iter_entries(self.root):
                keys.add(key)
        return len(keys)


# ---------------------------------------------------------------------------
# disk store walking (shared by inspection, pruning, indexing, migration)
# ---------------------------------------------------------------------------
def _skip_dir(name: str) -> bool:
    """Top-level directories that never hold result entries."""
    return name == "models" or name.startswith(".")


def _entry_dirs(root: str, shard: str) -> List[str]:
    """Directories of one shard that may hold entries (both depths)."""
    shard_dir = os.path.join(root, shard)
    dirs = [shard_dir]
    subs = []
    try:
        with os.scandir(shard_dir) as it:
            for entry in it:
                if entry.is_dir():
                    subs.append(entry.path)
    except OSError:
        return dirs
    dirs.extend(sorted(subs))
    return dirs


def _iter_shard_entries(
    root: str, shard: str
) -> Iterator[Tuple[str, str, Optional[str]]]:
    """Yield (key, json_path, blob_path-or-None) for one shard, key order.

    Walks the shard directory *and* its depth-2 subdirectories, so flat,
    sharded and mid-migration stores all enumerate completely.  A key
    present at both depths (an interrupted migration) yields twice --
    content-addressed entries are identical, and consumers that need
    distinctness (``keys()``) dedupe.
    """
    found: List[Tuple[str, str]] = []
    for entry_dir in _entry_dirs(root, shard):
        try:
            names = os.listdir(entry_dir)
        except OSError:
            continue
        for name in names:
            if name.endswith(".json"):
                found.append(
                    (name[: -len(".json")], os.path.join(entry_dir, name))
                )
    found.sort()
    for key, json_path in found:
        base = os.path.dirname(json_path)
        blob = None
        for suffix in BLOB_SUFFIXES:
            candidate = os.path.join(base, key + suffix)
            if os.path.exists(candidate):
                blob = candidate
                break
        yield key, json_path, blob


def _iter_entries(root: str) -> Iterator[Tuple[str, str, Optional[str]]]:
    """Yield (key, json_path, blob_path-or-None) for every result entry."""
    for shard in sorted(os.listdir(root)):
        if _skip_dir(shard) or not os.path.isdir(os.path.join(root, shard)):
            continue
        yield from _iter_shard_entries(root, shard)


def _iter_orphan_blobs(root: str, known: set) -> Iterator[str]:
    """Blob paths whose summary never landed (interrupted writers)."""
    for shard in sorted(os.listdir(root)):
        if _skip_dir(shard) or not os.path.isdir(os.path.join(root, shard)):
            continue
        for entry_dir in _entry_dirs(root, shard):
            try:
                names = sorted(os.listdir(entry_dir))
            except OSError:
                continue
            for name in names:
                key = _blob_key(name)
                if key is not None and key not in known:
                    yield os.path.join(entry_dir, name)


# ---------------------------------------------------------------------------
# per-shard frame index (the bulk read path of frame_chunks)
# ---------------------------------------------------------------------------
def _frame_path(root: str, shard: str) -> str:
    return os.path.join(root, INDEX_DIR, shard + ".frame.json")


def _shard_stamp(root: str, shard: str) -> Dict[str, int]:
    """mtime_ns of every entry directory of one shard (the frame's validity).

    File writes and unlinks inside a directory bump its mtime; ``utime``
    LRU stamps on files do not.  Creating a depth-2 subdirectory bumps
    the parent, so new subdirs invalidate through the parent stamp even
    before their own entry appears here.
    """
    shard_dir = os.path.join(root, shard)
    stamp: Dict[str, int] = {}
    try:
        stamp[shard] = os.stat(shard_dir).st_mtime_ns
    except OSError:
        return stamp
    prefix = shard + "/"
    try:
        with os.scandir(shard_dir) as it:
            for entry in it:
                try:
                    if entry.is_dir():
                        stamp[prefix + entry.name] = entry.stat().st_mtime_ns
                except OSError:
                    continue
    except OSError:
        pass
    return stamp


#: Column names a frame carries one flat list for.
_FRAME_LISTS: Tuple[str, ...] = (
    ("keys", "benchmark", "mode", "completed", "trace_col_idx")
    + SUMMARY_FLOAT_FIELDS
    + SUMMARY_COUNT_FIELDS
)


def summary_frame(rows: Iterable[Tuple[str, tuple]]) -> Dict[str, Any]:
    """Columnar frame of ``(key, summary_row)`` pairs, in the given order.

    One flat list per :data:`_FRAME_LISTS` name.  Trace column lists
    repeat across a suite, so rows store an index (``trace_col_idx``)
    into a small table of distinct lists (``trace_columns``) instead of
    the lists themselves.
    """
    frame: Dict[str, Any] = {name: [] for name in _FRAME_LISTS}
    frame["trace_columns"] = []
    col_tables: Dict[Tuple[str, ...], int] = {}
    for key, (floats, counts, benchmark, mode, completed, columns) in rows:
        signature = tuple(columns)
        idx = col_tables.get(signature)
        if idx is None:
            idx = len(frame["trace_columns"])
            col_tables[signature] = idx
            frame["trace_columns"].append(columns)
        frame["keys"].append(key)
        frame["benchmark"].append(benchmark)
        frame["mode"].append(mode)
        frame["completed"].append(completed)
        frame["trace_col_idx"].append(idx)
        for name, value in zip(SUMMARY_FLOAT_FIELDS, floats):
            frame[name].append(value)
        for name, value in zip(SUMMARY_COUNT_FIELDS, counts):
            frame[name].append(value)
    return frame


def _shard_rows(root: str, shard: str) -> Iterator[Tuple[str, tuple]]:
    """``(key, summary_row)`` of one shard's well-formed entries, key order.

    Unreadable, malformed and format-1 summaries are left out -- exactly
    the entries ``SuiteFrame.from_cache`` rejects when given their keys.
    A key present at both depths (an interrupted migration) yields once.
    """
    seen: set = set()
    for key, json_path, _blob in _iter_shard_entries(root, shard):
        if key in seen:
            continue
        seen.add(key)
        try:
            with open(json_path, "rb") as fh:
                row = summary_row(loads_json(fh.read()))
        except (OSError, ValueError):
            continue  # unreadable debris: the directory walk skips it too
        if row is not None:
            yield key, row


def _build_shard_frame(root: str, shard: str) -> Dict[str, Any]:
    """Scan one shard into its frame file payload.

    The stamp is recorded *before* the scan, so a write racing the scan
    leaves a stamp mismatch behind and the next reader rebuilds.
    """
    stamp = _shard_stamp(root, shard)
    frame = summary_frame(_shard_rows(root, shard))
    frame["frame"] = FRAME_FORMAT
    frame["stamp"] = stamp
    return frame


def _load_shard_frame(root: str, shard: str) -> Optional[dict]:
    """A still-valid persisted columnar frame for one shard, or None."""
    try:
        with open(_frame_path(root, shard), "rb") as fh:
            frame = loads_json(fh.read())
    except (OSError, ValueError):
        return None
    if not isinstance(frame, dict) or frame.get("frame") != FRAME_FORMAT:
        return None
    if frame.get("stamp") != _shard_stamp(root, shard):
        return None  # something was written/evicted since: rebuild
    lists = [frame.get(name) for name in _FRAME_LISTS]
    if any(not isinstance(col, list) for col in lists):
        return None
    if len({len(col) for col in lists}) > 1:
        return None  # ragged columns: rebuild from the shard
    tables = frame.get("trace_columns")
    if not isinstance(tables, list) or not all(
        isinstance(cols, list) for cols in tables
    ):
        return None
    idx = frame["trace_col_idx"]
    if idx and not all(
        isinstance(i, int) and 0 <= i < len(tables) for i in idx
    ):
        return None
    return frame


def _persist_shard_frame(root: str, shard: str, frame: dict) -> None:
    """Write one shard's frame file (best effort -- a read-only store
    just rescans the shard on every open)."""
    try:
        os.makedirs(os.path.join(root, INDEX_DIR), exist_ok=True)
        ResultCache._atomic_write(
            _frame_path(root, shard), payload_bytes(frame)
        )
    except OSError:
        pass


# ---------------------------------------------------------------------------
# disk store inspection and bounding (the `repro-dtpm cache` subcommand)
# ---------------------------------------------------------------------------
@dataclass
class DiskUsage:
    """What one on-disk cache directory holds."""

    root: str
    entries: int = 0
    result_bytes: int = 0
    blob_bytes: int = 0
    compressed_blobs: int = 0
    model_entries: int = 0
    model_bytes: int = 0
    orphan_blobs: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.result_bytes + self.blob_bytes + self.model_bytes

    def summary(self) -> str:
        text = (
            "%d results, %d models, %.1f MiB total (%.1f MiB trace blobs)"
            % (
                self.entries,
                self.model_entries,
                self.total_bytes / 2**20,
                self.blob_bytes / 2**20,
            )
        )
        if self.compressed_blobs:
            text += ", %d blob(s) compressed" % self.compressed_blobs
        return text


def disk_usage(root: str) -> DiskUsage:
    """Inspect an on-disk cache directory (results, blobs, models).

    Entries a concurrent prune, migration or codec re-put removes after
    the directory listing are skipped, not an error.
    """
    root = os.path.abspath(os.path.expanduser(root))
    usage = DiskUsage(root=root)
    if not os.path.isdir(root):
        usage.notes.append("directory does not exist")
        return usage
    json_names = set()
    entries = set()
    for key, json_path, blob_path in _iter_entries(root):
        json_names.add(key)
        try:
            size = os.path.getsize(json_path)
            blob_size = 0 if blob_path is None else os.path.getsize(blob_path)
        except FileNotFoundError:
            continue  # removed since the listing
        # a key held at both depths mid-migration is one entry, but both
        # copies stay on disk until the pass ends, so both count in bytes
        entries.add(key)
        usage.result_bytes += size
        usage.blob_bytes += blob_size
        if blob_path is not None and blob_path.endswith(DEFLATE_BLOB_SUFFIX):
            usage.compressed_blobs += 1
    usage.entries = len(entries)
    # blobs whose summary never landed (interrupted writers)
    for path in _iter_orphan_blobs(root, json_names):
        try:
            usage.blob_bytes += os.path.getsize(path)
        except FileNotFoundError:
            continue  # collected by a concurrent prune
        usage.orphan_blobs += 1
    models_dir = os.path.join(root, "models")
    if os.path.isdir(models_dir):
        for name in sorted(os.listdir(models_dir)):
            if name.endswith(".json"):
                usage.model_entries += 1
                usage.model_bytes += os.path.getsize(
                    os.path.join(models_dir, name)
                )
    return usage


#: A blob without a summary younger than this is assumed to belong to an
#: in-flight put() (blob lands first, summary is the commit point) and is
#: left alone; older ones are interrupted-writer debris.
ORPHAN_GRACE_S = 300.0


def prune(root: str, max_bytes: Optional[int]) -> Tuple[int, int]:
    """Bound the result store; returns (entries removed, bytes freed).

    Result entries are evicted oldest-accessed-first until the
    result+blob footprint fits ``max_bytes``: every successful
    :meth:`ResultCache.get` read bumps the summary file's mtime
    (best-effort ``os.utime``), so the mtime order walked here is LRU --
    entries a warm grid keeps answering from survive, write-once-read-
    never debris goes first.  Passing ``None`` removes **every** result
    entry -- it is deliberately not a default so the full wipe is always
    an explicit choice (the CLI's ``--all``).  Orphaned trace blobs older
    than :data:`ORPHAN_GRACE_S` are always collected; younger ones may
    belong to a concurrent writer whose summary has not landed yet.  The
    model store (``<root>/models``) is never touched -- models are tiny
    and cost ~10 s to rebuild.

    Pruning is safe against concurrent readers: each entry's trace blob
    is unlinked *before* its summary, so the store never holds an
    unindexed blob (which would leak outside the orphan grace window if
    a pruner died between the two unlinks) -- at worst a reader sees a
    summary whose blob is gone, which :meth:`ResultCache.get` already
    treats as a clean miss, and the half-removed entry stays listed for
    the next prune.  A reader holding an open handle on a blob keeps
    reading its data (POSIX unlink semantics); files a concurrent
    pruner, migration or re-put removed first are simply skipped, never
    an error.
    """
    root = os.path.abspath(os.path.expanduser(root))
    if not os.path.isdir(root):
        return 0, 0
    removed = 0
    freed = 0
    entries = []
    known = set()
    for key, json_path, blob_path in _iter_entries(root):
        known.add(key)
        try:
            size = os.path.getsize(json_path)
            mtime = os.path.getmtime(json_path)
            if blob_path is not None:
                size += os.path.getsize(blob_path)
        except FileNotFoundError:
            continue  # removed since the listing
        entries.append((mtime, size, json_path, blob_path))
    # interrupted writers leave blobs without a summary: collect the stale
    # ones (recent ones may still get their summary -- see put())
    now = time.time()
    for path in _iter_orphan_blobs(root, known):
        try:
            if now - os.path.getmtime(path) < ORPHAN_GRACE_S:
                continue
            blob_size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            continue  # a writer committed or removed it meanwhile
        freed += blob_size
        removed += 1
    total = sum(size for _, size, _, _ in entries)
    budget = -1 if max_bytes is None else max_bytes
    for mtime, size, json_path, blob_path in sorted(entries):
        if budget >= 0 and total <= budget:
            break
        # blob before summary: a crash between the unlinks leaves a
        # summary readers treat as a miss (and the next prune still
        # lists), never an unindexed blob leaking past the grace window
        paths = [p for p in (blob_path, json_path) if p is not None]
        gone = 0
        for path in paths:
            try:
                os.unlink(path)
                gone += 1
            except FileNotFoundError:
                gone += 1  # a concurrent pruner got there first
            except OSError:
                # undeletable (permissions, a platform that locks open
                # files): keep the rest of the entry -- deleting the
                # summary after a stuck blob would orphan the blob
                # outside the index, exactly what blob-first prevents
                break
        if gone == len(paths):
            total -= size
            freed += size
            removed += 1
        # an undeletable entry keeps its footprint counted, so the walk
        # continues into newer entries until the budget is really met
    return removed, freed


# ---------------------------------------------------------------------------
# in-place store migration (the `repro-dtpm cache migrate` subcommand)
# ---------------------------------------------------------------------------
@dataclass
class MigrateStats:
    """What one :func:`migrate` pass did."""

    examined: int = 0
    moved: int = 0
    recompressed: int = 0
    cleaned: int = 0

    def summary(self) -> str:
        return (
            "%d entries examined: %d relocated, %d blobs transcoded, "
            "%d leftover copies cleaned"
            % (self.examined, self.moved, self.recompressed, self.cleaned)
        )


def migrate(
    root: str,
    fanout: int = 2,
    compress: Optional[str] = None,
) -> MigrateStats:
    """Reshard (and optionally transcode) a result store in place.

    Every entry not already at the target depth/codec is *copied* to its
    target location first (blob, then summary -- the summary is the
    commit point there just like :meth:`ResultCache.put`) and only then
    are the old copies unlinked (old summary first, so the store never
    holds two committed variants longer than necessary, and an
    interrupted pass never leaves a summary-less target).  Readers probe
    both depths throughout, so a live store stays fully readable
    mid-migration, and the pass is **idempotent**: re-running after an
    interruption finds entries already at the target and only finishes
    the pending unlinks.

    ``compress`` transcodes trace blobs on the way: ``"deflate"`` to
    zlib-compressed blobs, ``"none"`` to plain npz, ``None`` (the
    default) keeps each blob's current encoding.  The layout marker is
    written last, so new writers only adopt the target depth once the
    data is actually there.
    """
    root = os.path.abspath(os.path.expanduser(root))
    if fanout not in (1, 2):
        raise ConfigurationError(
            "fanout must be 1 (flat) or 2 (sharded), got %r" % (fanout,)
        )
    if compress not in (None, "deflate", "none"):
        raise ConfigurationError(
            "unknown blob codec %r (the codecs are 'deflate' and 'none')"
            % (compress,)
        )
    deflate = compress == "deflate"
    stats = MigrateStats()
    if not os.path.isdir(root):
        return stats
    # group every on-disk copy by key (a prior interruption may have left
    # an entry at both depths)
    copies: Dict[str, List[Tuple[str, Optional[str]]]] = {}
    for key, json_path, blob_path in _iter_entries(root):
        copies.setdefault(key, []).append((json_path, blob_path))
    for key in sorted(copies):
        stats.examined += 1
        target_dir = _entry_dir(root, key, fanout)
        target_json = os.path.join(target_dir, key + ".json")
        # source blob: prefer one already in the target encoding
        source_blob: Optional[str] = None
        for _json, blob in copies[key]:
            if blob is None:
                continue
            if source_blob is None or (
                blob.endswith(DEFLATE_BLOB_SUFFIX) == deflate
            ):
                source_blob = blob
        target_blob: Optional[str] = None
        if source_blob is not None:
            if compress is None:
                # keep the source encoding; only the location moves
                suffix = os.path.basename(source_blob)[len(key):]
            else:
                suffix = DEFLATE_BLOB_SUFFIX if deflate else TRACE_BLOB_SUFFIX
            target_blob = os.path.join(target_dir, key + suffix)
        moved = False
        # 1. blob into place (decode/re-encode when the codec changes)
        if target_blob is not None and not os.path.exists(target_blob):
            assert source_blob is not None
            with open(source_blob, "rb") as fh:
                raw = fh.read()
            source_deflated = source_blob.endswith(DEFLATE_BLOB_SUFFIX)
            target_deflated = target_blob.endswith(DEFLATE_BLOB_SUFFIX)
            if source_deflated != target_deflated:
                raw = (
                    zlib.compress(raw, DEFLATE_LEVEL)
                    if target_deflated
                    else zlib.decompress(raw)
                )
                stats.recompressed += 1
            os.makedirs(target_dir, exist_ok=True)
            ResultCache._atomic_write(target_blob, raw)
            moved = True
        # 2. summary into place (the commit point of the new location)
        if not os.path.exists(target_json):
            source_json = copies[key][0][0]
            with open(source_json, "rb") as fh:
                payload = fh.read()
            os.makedirs(target_dir, exist_ok=True)
            ResultCache._atomic_write(target_json, payload)
            moved = True
        if moved:
            stats.moved += 1
        # 3. drop every non-target copy: summaries first (readers fall
        # back to the committed target), then blobs
        for json_path, _blob in copies[key]:
            if os.path.abspath(json_path) == os.path.abspath(target_json):
                continue
            try:
                os.unlink(json_path)
                stats.cleaned += 1
            except OSError:
                pass
        for _json, blob in copies[key]:
            if blob is None:
                continue
            if target_blob is not None and (
                os.path.abspath(blob) == os.path.abspath(target_blob)
            ):
                continue
            try:
                os.unlink(blob)
                stats.cleaned += 1
            except OSError:
                pass
        # stray blob variants next to the target (e.g. a codec change
        # re-running over a finished pass) are orphan-collected by prune
    try:
        _write_layout_marker(root, fanout)
    except OSError:
        pass
    return stats
