"""Content-addressed result cache for closed-loop runs.

Every entry lives in ``<root>/<key[:2]>/<key[2:4]>/`` -- 256 top-level
*shards* of 256 directories each, so a ~100k+ run store keeps every
directory small -- where ``key`` is the
:func:`repro.runner.spec.spec_key` of the experiment.  An entry is a
small ``<key>.json`` *summary* (scalars + ``"artifact": 2`` + trace
shape) next to a ``<key>.npz`` binary trace blob -- the summary is
written last and is the commit point.  The blob stores the ``(rows,
columns)`` float64 matrix uncompressed, so the round trip is
numerically exact by construction.  A ``<key>.json`` without
``"artifact": 2`` (the trace-rows-inline files of cache format 1, which
no current key reaches because ``spec_key`` hashes the format) is a miss
that bulk reads skip and :func:`prune` still evicts.

Every blob is decoded by :func:`trace_from_npz_bytes`, whose zip read
checks the member's CRC-32: a damaged blob is a miss or a typed error,
never a wrong trace, and no read writes to the store.

Files of a shard that belong to no entry are *stray files*: a blob whose
summary never landed, a temp file a killed writer left behind, and what
earlier store versions wrote (entries directly under ``<key[:2]>/``,
compressed blobs).  Nothing reads them; :func:`disk_usage` counts them
and :func:`prune` removes them once they are older than
:data:`ORPHAN_GRACE_S`.  The store is derived data, so a store an
earlier version wrote reads as (partly) empty and refills as runs
execute again.

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
checks serial, parallel and cached execution agree.

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

#: Name of the trace matrix inside the npz container.
TRACE_MEMBER = "data"

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
#: bytes that are no zip archive, a member whose CRC-32 or header does
#: not check out (a header damaged into claiming deflate packing feeds
#: zlib bytes it rejects), a member flagged as encrypted or packed with a
#: method ``zipfile`` cannot read, a missing member, an npy header that
#: does not parse, or a matrix that disagrees with its summary.
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


def atomic_write(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` by rename, so no reader sees it torn."""
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
    :func:`summary_row` (frame rows) and :meth:`ResultCache.get` (a
    failing entry is a miss) -- so they agree on which entries exist:
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


def load_trace_blob(path: str) -> np.ndarray:
    """The trace matrix of a blob file."""
    with open(path, "rb") as fh:
        return trace_from_npz_bytes(fh.read())


def trace_from_npz_bytes(raw: bytes) -> np.ndarray:
    """The trace matrix of an npz blob's bytes -- the one blob decoder.

    Every store read ends here, through :func:`load_trace_blob`.
    ``ZipFile.read`` checks the member's CRC-32, so damaged bytes raise
    one of :data:`BLOB_ERRORS` instead of decoding to a wrong matrix,
    and ``allow_pickle=False`` keeps the member plain data.
    """
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        npy = zf.read(TRACE_MEMBER + ".npy")
    return np.lib.format.read_array(io.BytesIO(npy), allow_pickle=False)


def default_cache_dir() -> Optional[str]:
    """The shared cache directory, if ``REPRO_CACHE_DIR`` names one."""
    path = os.environ.get(CACHE_DIR_ENV, "").strip()
    return path or None


def _entry_dir(root: str, key: str) -> str:
    return os.path.join(root, key[:2], key[2:4])


@dataclass
class CacheStats:
    """Hit/miss/store counters of one ResultCache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """Content-addressed RunResult store (in-memory + optional disk).

    ``mmap`` and ``fanout`` remain for callers that still pass them:
    ``mmap`` is ignored (every read decodes the whole blob through its
    CRC check) and ``fanout`` must be ``None`` or ``2``, the one layout.
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
        if fanout not in (None, 2):
            raise ConfigurationError(
                "fanout must be 2, the one store layout, got %r" % (fanout,)
            )
        self.root = (
            os.path.abspath(os.path.expanduser(root)) if root else None
        )
        self._lock = threading.Lock()
        # decoded results, so repeated in-process hits skip JSON parsing
        # (callers share the object, like the old per-session run memo);
        # service HTTP threads and job workers share one instance
        self._memory: Optional[Dict[str, RunResult]] = (  # guarded-by: _lock
            {} if memory else None
        )
        self.stats = CacheStats()  # guarded-by: _lock

    @classmethod
    def from_env(cls) -> "ResultCache":
        """Disk-backed cache at ``$REPRO_CACHE_DIR``, else in-memory only."""
        return cls(root=default_cache_dir())

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        """The summary path of ``key``."""
        assert self.root is not None
        return os.path.join(_entry_dir(self.root, key), key + ".json")

    def _load_disk(self, key: str) -> Optional[RunResult]:
        if self.root is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = loads_json(fh.read())
            if not is_summary(payload):
                return None
            result = summary_to_result(
                payload, load_trace_blob(self.trace_path(key))
            )
        except BLOB_ERRORS:
            # missing/corrupt/truncated/stale/format-1 entry: treat as a
            # miss, let the writer replace it
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
                self._touch(self._path(key))
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

    def put(self, key: str, result: RunResult) -> None:
        """Store a result under its content key (summary + trace blob)."""
        with self._lock:
            if self._memory is not None:
                self._memory[key] = result
        if self.root is not None:
            path = self._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            # trace blob first, summary JSON last: the summary is the
            # commit point, so readers never see a summary without a blob
            atomic_write(self.trace_path(key), trace_blob_bytes(result))
            atomic_write(path, payload_bytes(result_to_summary(result)))
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
        if self.root is None:
            return []
        return [
            key
            for shard in _shards(self.root)
            for key, _, _ in _scan_shard(self.root, shard)[0]
        ]

    def load_summary(self, key: str) -> Optional[dict]:
        """One entry's summary payload, without touching its trace blob.

        Returns the parsed ``<key>.json`` as-is (:func:`summary_row`
        tells a well-formed summary apart), or ``None`` on a miss or an
        unparseable file.  Deliberately does **not** bump the LRU stamp:
        analytics sweeps over a suite directory are bulk reads and must
        not reorder the eviction queue wholesale.
        """
        if self.root is None:
            return None
        try:
            with open(self._path(key), "rb") as fh:
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
        if self.root is None:
            return []
        frames: List[Dict[str, Any]] = []
        for shard in _shards(self.root):
            frame = _load_shard_frame(self.root, shard)
            if frame is None:
                frame = _build_shard_frame(self.root, shard)
                _persist_shard_frame(self.root, shard, frame)
            frames.append(frame)
        return frames

    def trace_path(self, key: str) -> str:
        """Path of the ``.npz`` trace blob belonging to ``key``.

        Consumers stream these bytes as npz directly (e.g. the service's
        trace endpoint).  The file may not exist -- a miss, or a prune
        racing the caller -- so callers open it once and fall back to
        :meth:`get` + :func:`trace_blob_bytes` on ``FileNotFoundError``.
        """
        if self.root is None:
            raise SimulationError("cache has no root directory")
        return os.path.join(_entry_dir(self.root, key), key + TRACE_BLOB_SUFFIX)

    def open_trace(self, key: str) -> np.ndarray:
        """The trace matrix of one entry, decoded and CRC-checked in full.

        A missing or damaged blob raises :class:`SimulationError` naming
        ``key``.
        """
        try:
            return load_trace_blob(self.trace_path(key))
        except BLOB_ERRORS as exc:
            raise SimulationError(
                "cache entry %s: unreadable trace blob (%s)" % (key, exc)
            ) from None

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if self._memory is not None and key in self._memory:
                return True
        return self.root is not None and os.path.exists(self._path(key))

    def __len__(self) -> int:
        """Number of distinct entries reachable from this cache."""
        with self._lock:
            keys = set(self._memory or ())
        keys.update(self.keys())
        return len(keys)


# ---------------------------------------------------------------------------
# disk store walking (shared by inspection, pruning and indexing)
# ---------------------------------------------------------------------------
def _skip_dir(name: str) -> bool:
    """Top-level directories that never hold result entries."""
    return name == "models" or name.startswith(".")


def _shards(root: str) -> List[str]:
    """The top-level shard directories of a store, sorted."""
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    return [
        name
        for name in names
        if not _skip_dir(name) and os.path.isdir(os.path.join(root, name))
    ]


def _store_file(name: str) -> bool:
    """Whether ``name`` is a kind of file the store writes into a shard.

    A summary (``<key>.json``), a trace blob (``<key>.npz``, or with a
    further suffix: the compressed blobs of earlier versions) or a temp
    file of :func:`atomic_write` (``tmp*.tmp``).  Stray-file
    handling touches nothing else.
    """
    kind = name.partition(".")[2].split(".")[0]
    return kind in ("json", "npz") or (
        name.startswith("tmp") and name.endswith(".tmp")
    )


_Entry = Tuple[str, str, Optional[str]]


def _scan_shard(root: str, shard: str) -> Tuple[List[_Entry], List[str]]:
    """One shard's entries and stray files, from one listing per directory.

    Entries are ``(key, summary path, blob path or None)`` in key order:
    every ``<key>.json`` of a ``<shard>/<sub>/`` directory, with its
    ``<key>.npz`` when the listing holds one.  Stray files are the
    :func:`_store_file` names that belong to no entry: every one directly
    in ``<shard>/``, and in a subdirectory a blob without its summary, a
    blob in another encoding or a temp file.
    """
    shard_dir = os.path.join(root, shard)
    entries: List[_Entry] = []
    strays: List[str] = []
    try:
        with os.scandir(shard_dir) as it:
            listing = sorted((entry.name, entry.is_dir()) for entry in it)
    except OSError:
        return entries, strays
    for name, is_dir in listing:
        path = os.path.join(shard_dir, name)
        if not is_dir:
            if _store_file(name):
                strays.append(path)
            continue
        try:
            files = set(os.listdir(path))
        except OSError:
            continue
        for file in sorted(files):
            key, _, kind = file.partition(".")
            if kind == "json":
                blob = key + TRACE_BLOB_SUFFIX
                entries.append((
                    key,
                    os.path.join(path, file),
                    os.path.join(path, blob) if blob in files else None,
                ))
            elif _store_file(file) and not (
                file == key + TRACE_BLOB_SUFFIX and key + ".json" in files
            ):
                strays.append(os.path.join(path, file))
    return entries, strays


# ---------------------------------------------------------------------------
# per-shard frame index (the bulk read path of frame_chunks)
# ---------------------------------------------------------------------------
def _frame_path(root: str, shard: str) -> str:
    return os.path.join(root, INDEX_DIR, shard + ".frame.json")


def _shard_stamp(root: str, shard: str) -> Dict[str, int]:
    """mtime_ns of a shard and its subdirectories (the frame's validity).

    File writes and unlinks inside a directory bump its mtime; ``utime``
    LRU stamps on files do not.  Creating a subdirectory bumps the
    shard, so new subdirs invalidate through the shard's stamp even
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
    """
    for key, json_path, _blob in _scan_shard(root, shard)[0]:
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
        atomic_write(_frame_path(root, shard), payload_bytes(frame))
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
    model_entries: int = 0
    model_bytes: int = 0
    stray_files: int = 0
    stray_bytes: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return (
            self.result_bytes
            + self.blob_bytes
            + self.model_bytes
            + self.stray_bytes
        )

    def summary(self) -> str:
        return "%d results, %d models, %.1f MiB total (%.1f MiB trace blobs)" % (
            self.entries,
            self.model_entries,
            self.total_bytes / 2**20,
            self.blob_bytes / 2**20,
        )


def disk_usage(root: str) -> DiskUsage:
    """Inspect an on-disk cache directory (results, stray files, models).

    Files a concurrent prune or re-put removes after the directory
    listing are skipped, not an error.
    """
    root = os.path.abspath(os.path.expanduser(root))
    usage = DiskUsage(root=root)
    if not os.path.isdir(root):
        usage.notes.append("directory does not exist")
        return usage
    for shard in _shards(root):
        entries, strays = _scan_shard(root, shard)
        for _key, json_path, blob_path in entries:
            try:
                size = os.path.getsize(json_path)
                blob_size = 0 if blob_path is None else os.path.getsize(blob_path)
            except FileNotFoundError:
                continue  # removed since the listing
            usage.entries += 1
            usage.result_bytes += size
            usage.blob_bytes += blob_size
        for path in strays:
            try:
                usage.stray_bytes += os.path.getsize(path)
            except FileNotFoundError:
                continue  # collected by a concurrent prune
            usage.stray_files += 1
    models_dir = os.path.join(root, "models")
    if os.path.isdir(models_dir):
        for name in sorted(os.listdir(models_dir)):
            if name.endswith(".json"):
                usage.model_entries += 1
                usage.model_bytes += os.path.getsize(
                    os.path.join(models_dir, name)
                )
    return usage


#: A stray file younger than this may belong to an in-flight put() (its
#: temp files, then a blob whose summary -- the commit point -- has not
#: landed yet) and is left alone; older ones are debris.
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
    an explicit choice (the CLI's ``--all``).  Stray files older than
    :data:`ORPHAN_GRACE_S` are always removed, and count as removed
    entries; younger ones may belong to a concurrent writer.  The model
    store (``<root>/models``) is never touched -- models are tiny and
    cost ~10 s to rebuild.

    Pruning is safe against concurrent readers: each entry's trace blob
    is unlinked *before* its summary, so the store never holds an
    unindexed blob (which would leak outside the orphan grace window if
    a pruner died between the two unlinks) -- at worst a reader sees a
    summary whose blob is gone, which :meth:`ResultCache.get` already
    treats as a clean miss, and the half-removed entry stays listed for
    the next prune.  A reader holding an open handle on a blob keeps
    reading its data (POSIX unlink semantics); files a concurrent
    pruner or re-put removed first are simply skipped, never an error.
    """
    root = os.path.abspath(os.path.expanduser(root))
    if not os.path.isdir(root):
        return 0, 0
    removed = 0
    freed = 0
    entries = []
    strays: List[str] = []
    for shard in _shards(root):
        shard_entries, shard_strays = _scan_shard(root, shard)
        strays.extend(shard_strays)
        for _key, json_path, blob_path in shard_entries:
            try:
                stat = os.stat(json_path)
                size = stat.st_size
                if blob_path is not None:
                    size += os.path.getsize(blob_path)
            except FileNotFoundError:
                continue  # removed since the listing
            entries.append((stat.st_mtime, size, json_path, blob_path))
    # stale stray files go whatever the budget (recent ones may still be
    # part of an in-flight put -- see ORPHAN_GRACE_S)
    now = time.time()
    for path in strays:
        try:
            stat = os.stat(path)
            if now - stat.st_mtime < ORPHAN_GRACE_S:
                continue
            os.unlink(path)
        except OSError:
            continue  # a writer committed or removed it meanwhile
        freed += stat.st_size
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
