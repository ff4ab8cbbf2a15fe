"""Result cache + model store: round trips, invalidation, env wiring."""

import json
import os

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.runner import (
    ARTIFACT_FORMAT,
    ParallelRunner,
    ResultCache,
    RunSpec,
    cached_build_models,
    disk_usage,
    load_trace_blob,
    model_fingerprint,
    models_key,
    models_to_payload,
    payload_bytes,
    payload_to_models,
    prune,
    result_bytes,
    result_to_payload,
    result_to_summary,
    spec_key,
    summary_to_result,
    trace_blob_bytes,
)
from repro.sim.engine import ThermalMode
from repro.workloads.generator import synthesize


@pytest.fixture(scope="module")
def workload():
    return synthesize("medium", 12.0, threads=2, seed=3)


@pytest.fixture(scope="module")
def result(workload):
    return ParallelRunner().run_one(
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN)
    )


# ---------------------------------------------------------------------------
# payload round trip
# ---------------------------------------------------------------------------
def test_result_payload_round_trip_is_lossless(result):
    """The canonical bytes keep every float exactly (repr round trip)."""
    payload = json.loads(result_bytes(result).decode("utf-8"))
    assert payload_bytes(payload) == result_bytes(result)
    assert payload["benchmark"] == result.benchmark
    assert payload["trace"]["columns"] == result.trace.columns
    assert np.array_equal(
        np.array(payload["trace"]["rows"]), result.trace.array()
    )


def test_payload_rejects_malformed_trace(result):
    summary = result_to_summary(result)
    with pytest.raises(SimulationError):
        summary_to_result(summary, np.zeros((1, 2)))  # wrong shape


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------
def test_disk_cache_round_trip(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path))
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    assert cache.get(key) is None
    cache.put(key, result)
    assert key in cache
    assert len(cache) == 1
    # a second instance over the same directory sees the entry
    other = ResultCache(root=str(tmp_path))
    hit = other.get(key)
    assert hit is not None and result_bytes(hit) == result_bytes(result)
    assert other.stats.hits == 1


def test_memory_only_cache(result):
    cache = ResultCache()  # no root: in-process memo
    cache.put("k", result)
    assert cache.get("k") is not None
    assert len(cache) == 1
    with pytest.raises(SimulationError):
        ResultCache(root=None, memory=False)


def test_corrupt_entry_is_a_miss(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    path = os.path.join(str(tmp_path), key[:2], key + ".json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert cache.get(key) is None  # miss, not an exception


def test_from_env_honours_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
    cache = ResultCache.from_env()
    assert cache.root == str(tmp_path / "shared")
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert ResultCache.from_env().root is None


# ---------------------------------------------------------------------------
# v2 artifacts: summary JSON + npz trace blob
# ---------------------------------------------------------------------------
def _entry_paths(root, key):
    shard = os.path.join(str(root), key[:2])
    return os.path.join(shard, key + ".json"), os.path.join(shard, key + ".npz")


def test_put_writes_v2_summary_plus_blob(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    json_path, blob_path = _entry_paths(tmp_path, key)
    payload = json.loads(open(json_path, "rb").read().decode("utf-8"))
    assert payload["artifact"] == ARTIFACT_FORMAT
    assert "rows" not in payload["trace"]
    assert payload["trace"]["length"] == len(result.trace)
    data = load_trace_blob(blob_path)
    assert data.shape == (len(result.trace), len(result.trace.columns))


def test_npz_json_round_trip_numeric_equality(result):
    """The summary + npz artifact decodes to the exact canonical bytes."""
    blob = trace_blob_bytes(result)
    import io

    with np.load(io.BytesIO(blob)) as npz:
        via_npz = summary_to_result(result_to_summary(result), npz["data"])
    assert result_bytes(via_npz) == result_bytes(result)
    assert np.array_equal(via_npz.trace.array(), result.trace.array())


def test_format1_entry_is_a_miss_that_prune_evicts(tmp_path, workload, result):
    """A trace-rows-inline file left by cache format 1 is never served."""
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    json_path, _ = _entry_paths(tmp_path, key)
    os.makedirs(os.path.dirname(json_path), exist_ok=True)
    with open(json_path, "wb") as fh:
        fh.write(payload_bytes(result_to_payload(result)))
    assert cache.get(key) is None
    assert disk_usage(str(tmp_path)).entries == 1
    assert prune(str(tmp_path), max_bytes=None)[0] == 1
    assert not os.path.exists(json_path)


def test_mmap_read_back_is_identical(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    mapped = ResultCache(root=str(tmp_path), memory=False, mmap=True).get(key)
    assert mapped is not None
    assert result_bytes(mapped) == result_bytes(result)
    # the trace matrix really is file-backed
    base = mapped.trace.array()
    while not isinstance(base, np.memmap) and getattr(base, "base", None) is not None:
        base = base.base
    assert isinstance(base, np.memmap)


def test_corrupt_blob_is_a_miss(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    _, blob_path = _entry_paths(tmp_path, key)
    for damaged in (b"not an npz", b""):  # a zero-byte blob hits EOF
        with open(blob_path, "wb") as fh:
            fh.write(damaged)
        for mmap in (False, True):
            reader = ResultCache(root=str(tmp_path), memory=False, mmap=mmap)
            assert reader.get(key) is None, (damaged, mmap)


def test_disk_usage_and_prune(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path), memory=False)
    keys = [
        spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=s))
        for s in range(3)
    ]
    for key in keys:
        cache.put(key, result)
    usage = disk_usage(str(tmp_path))
    assert usage.entries == 3
    assert usage.blob_bytes > 0 and usage.result_bytes > 0
    # bound the store to roughly one entry: the oldest two are evicted
    per_entry = usage.total_bytes // 3
    removed, freed = prune(str(tmp_path), max_bytes=per_entry + 16)
    assert removed == 2 and freed > 0
    assert disk_usage(str(tmp_path)).entries == 1
    # an explicit None bound empties the result store entirely
    removed, _ = prune(str(tmp_path), max_bytes=None)
    assert removed == 1
    assert disk_usage(str(tmp_path)).entries == 0


def test_read_touches_entry_and_prune_is_lru(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path), memory=False)
    keys = [
        spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=s))
        for s in range(3)
    ]
    for key in keys:
        cache.put(key, result)
    # backdate every summary, then read the *oldest-written* entry: the
    # access touch must move it to the head of the survival order
    paths = [
        os.path.join(str(tmp_path), k[:2], k + ".json") for k in keys
    ]
    for age, path in zip((3000.0, 2000.0, 1000.0), paths):
        stamp = os.path.getmtime(path) - age
        os.utime(path, (stamp, stamp))
    before = os.path.getmtime(paths[0])
    assert cache.get(keys[0]) is not None
    assert os.path.getmtime(paths[0]) > before

    per_entry = disk_usage(str(tmp_path)).total_bytes // 3
    removed, _ = prune(str(tmp_path), max_bytes=per_entry + 16)
    assert removed == 2
    # the recently-read entry survived; the unread ones were evicted
    assert os.path.exists(paths[0])
    assert not os.path.exists(paths[1]) and not os.path.exists(paths[2])

    # memory-layer hits keep the disk stamp warm too (a long-lived
    # process must not let prune evict its hottest keys)
    warm = ResultCache(root=str(tmp_path))
    assert warm.get(keys[0]) is not None  # disk load fills the memory layer
    stamp = os.path.getmtime(paths[0])
    os.utime(paths[0], (stamp - 500.0, stamp - 500.0))
    assert warm.get(keys[0]) is not None  # memory hit
    assert os.path.getmtime(paths[0]) > stamp - 500.0


def test_prune_with_open_memmap_reader(tmp_path, workload, result):
    """Evicting an entry must not strand a reader holding its memory map.

    Deletion goes blob-before-summary with per-file error tolerance, so a
    reader that already mapped the blob keeps its data (POSIX unlink
    semantics), a reader arriving mid-eviction sees a clean miss, and the
    prune itself always completes.
    """
    cache = ResultCache(root=str(tmp_path), memory=False, mmap=True)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    mapped = cache.get(key)
    base = mapped.trace.array()
    while not isinstance(base, np.memmap) and getattr(base, "base", None) is not None:
        base = base.base
    assert isinstance(base, np.memmap)  # the reader really holds a map

    removed, freed = prune(str(tmp_path), max_bytes=None)
    assert removed == 1 and freed > 0
    assert disk_usage(str(tmp_path)).entries == 0
    assert disk_usage(str(tmp_path)).orphan_blobs == 0

    # the open map still serves the evicted entry's data...
    assert result_bytes(mapped) == result_bytes(result)
    # ...and a fresh reader sees a clean miss
    assert ResultCache(root=str(tmp_path), memory=False).get(key) is None


def test_half_removed_entry_reads_as_miss_and_reprunes(tmp_path, workload, result):
    """A summary whose blob is gone (pruner died mid-eviction) is a clean
    miss for readers and is collected by the next prune."""
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    _, blob_path = _entry_paths(tmp_path, key)
    os.unlink(blob_path)  # the state blob-before-summary deletion leaves
    assert cache.get(key) is None
    removed, _ = prune(str(tmp_path), max_bytes=None)
    assert removed == 1
    assert disk_usage(str(tmp_path)).entries == 0


def test_prune_collects_stale_orphan_blobs_keeps_models(tmp_path):
    shard = tmp_path / "ab"
    shard.mkdir()
    orphan = shard / ("ab" + "0" * 62 + ".npz")
    orphan.write_bytes(b"orphan")
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    (models_dir / "deadbeef.json").write_text("{}")
    usage = disk_usage(str(tmp_path))
    assert usage.orphan_blobs == 1 and usage.model_entries == 1
    # a fresh orphan may belong to an in-flight writer: left alone
    removed, _ = prune(str(tmp_path), max_bytes=10**9)
    assert removed == 0 and orphan.exists()
    # backdate it past the grace window: now it is debris and collected
    stale = os.path.getmtime(orphan) - 3600.0
    os.utime(orphan, (stale, stale))
    removed, freed = prune(str(tmp_path), max_bytes=10**9)
    assert removed == 1 and freed == len(b"orphan")
    assert (models_dir / "deadbeef.json").exists()


def test_stats_and_prune_skip_entries_vanishing_mid_walk(
    tmp_path, result, monkeypatch
):
    """An entry a concurrent prune/migrate/re-put removes after the
    directory listing is skipped, not a FileNotFoundError."""
    import repro.runner.cache as cache_mod

    root = str(tmp_path)
    entries = cache_mod._iter_entries
    orphans = cache_mod._iter_orphan_blobs

    def vanishing_entries(walk_root):
        for key, json_path, blob_path in entries(walk_root):
            os.unlink(blob_path)
            os.unlink(json_path)
            yield key, json_path, blob_path

    def vanishing_orphans(walk_root, known):
        for path in orphans(walk_root, known):
            os.unlink(path)
            yield path

    monkeypatch.setattr(cache_mod, "_iter_entries", vanishing_entries)
    monkeypatch.setattr(cache_mod, "_iter_orphan_blobs", vanishing_orphans)

    def fill():
        cache = ResultCache(root=root, memory=False)
        for key in ("a1" * 32, "b2" * 32):
            cache.put(key, result)
        orphan = tmp_path / "c3" / ("c3" * 32 + ".npz")
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_bytes(b"orphan")
        os.utime(orphan, (0, 0))  # past the orphan grace window

    fill()
    usage = disk_usage(root)
    assert usage.entries == 0 and usage.orphan_blobs == 0
    fill()
    assert prune(root, max_bytes=None) == (0, 0)


# ---------------------------------------------------------------------------
# model fingerprint + store
# ---------------------------------------------------------------------------
def test_model_payload_round_trip_preserves_fingerprint(models):
    clone = payload_to_models(models_to_payload(models))
    assert model_fingerprint(clone) == model_fingerprint(models)
    assert model_fingerprint(None) is None


def test_models_key_depends_on_build_inputs():
    default = models_key()
    assert default == models_key()
    assert models_key(method="staged") != default
    assert models_key(prbs_duration_s=300.0) != default
    assert models_key(config=SimulationConfig(ambient_c=30.0)) != default


def test_cached_build_models_store(tmp_path, models, monkeypatch):
    # seed the store from the session bundle to avoid a 10 s rebuild
    key = models_key()
    path = tmp_path / "models" / (key + ".json")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(models_to_payload(models)))
    loaded = cached_build_models(root=str(tmp_path))
    assert model_fingerprint(loaded) == model_fingerprint(models)
    # and the env-var path resolves the same file
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert model_fingerprint(cached_build_models()) == model_fingerprint(models)


def test_runner_cache_discriminates_models(tmp_path, workload, models):
    """A DTPM result cached under one model set must miss under another."""
    cache = ResultCache(root=str(tmp_path))
    spec = RunSpec(workload=workload, mode=ThermalMode.DTPM)
    runner = ParallelRunner(cache=cache, models=models)
    runner.run([spec])
    assert runner.last_stats.executed == 1

    # perturb the identified thermal model -> different fingerprint
    import dataclasses

    perturbed = dataclasses.replace(
        models, thermal=dataclasses.replace(models.thermal, ts_s=0.2)
    )
    other = ParallelRunner(cache=cache, models=perturbed)
    other.run([spec])
    assert other.last_stats.executed == 1  # miss: fingerprint changed
    assert other.last_stats.cache_hits == 0
