"""Result cache + model store: round trips, invalidation, env wiring."""

import json
import os
import random

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
    path, _ = _entry_paths(tmp_path, key)
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
    entry = os.path.join(str(root), key[:2], key[2:4], key)
    return entry + ".json", entry + ".npz"


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


def test_corrupt_blob_is_a_miss(tmp_path, workload, result):
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    _, blob_path = _entry_paths(tmp_path, key)
    # the member's central-directory flag bits marked encrypted: zipfile
    # raises RuntimeError (password required) on the intact trace bytes
    encrypted = bytearray(trace_blob_bytes(result))
    encrypted[encrypted.rfind(b"PK\x01\x02") + 8] |= 1
    for damaged in (b"not an npz", b"", bytes(encrypted)):  # b"" hits EOF
        with open(blob_path, "wb") as fh:
            fh.write(damaged)
        reader = ResultCache(root=str(tmp_path), memory=False)
        assert reader.get(key) is None, damaged[:16]


def test_damaged_blob_is_never_a_wrong_trace(tmp_path):
    """Overwrite 1-5 random bytes of a stored 2 s trace blob, 500 times:
    every read misses or raises ``SimulationError``, or returns the
    original trace -- never a wrong one: the zip CRC-32 guards the
    blob's member.  The readers pass ``mmap=True``, the ignored flag
    callers may still set."""
    root = str(tmp_path)
    short = ParallelRunner().run_one(
        RunSpec(
            workload=synthesize("medium", 2.0, threads=1, seed=7),
            mode=ThermalMode.NO_FAN,
        )
    )
    want, matrix = result_bytes(short), short.trace.array()
    key = "5a" * 32
    ResultCache(root=root, memory=False).put(key, short)
    _, blob_path = _entry_paths(root, key)
    with open(blob_path, "rb") as fh:
        pristine = fh.read()
    rng = random.Random("plain")
    wrong = []
    for trial in range(500):
        damaged = bytearray(pristine)
        for _ in range(rng.randint(1, 5)):
            damaged[rng.randrange(len(damaged))] = rng.randrange(256)
        with open(blob_path, "wb") as fh:
            fh.write(damaged)
        reader = ResultCache(root=root, memory=False, mmap=True)
        hit = reader.get(key)
        if hit is not None and result_bytes(hit) != want:
            wrong.append(("get", trial))
        try:
            trace = reader.open_trace(key)
        except SimulationError as exc:
            assert key in str(exc)
            continue
        if trace.shape != matrix.shape or trace.tobytes() != matrix.tobytes():
            wrong.append(("open_trace", trial))
    assert wrong == []


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
    paths = [_entry_paths(tmp_path, k)[0] for k in keys]
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


def test_prune_keeps_a_read_result_and_fresh_readers_miss(
    tmp_path, workload, result
):
    """Evicting an entry leaves a result read before the prune intact,
    the prune always completes, and a fresh reader sees a clean miss."""
    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    cache.put(key, result)
    held = cache.get(key)

    removed, freed = prune(str(tmp_path), max_bytes=None)
    assert removed == 1 and freed > 0
    assert disk_usage(str(tmp_path)).entries == 0
    assert disk_usage(str(tmp_path)).stray_files == 0

    assert result_bytes(held) == result_bytes(result)
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


def test_failure_between_blob_and_summary_writes_leaves_a_stray_blob(
    tmp_path, workload, result, monkeypatch
):
    """A disk that fills up after the blob landed fails the put before its
    commit point: readers miss the key, the blob is one stray file, and a
    later put of the key commits the same bytes and leaves no stray."""
    import errno

    cache = ResultCache(root=str(tmp_path), memory=False)
    key = spec_key(RunSpec(workload=workload, mode=ThermalMode.NO_FAN))
    replace = os.replace

    def disk_full_at_summary(src, dst):
        if dst.endswith(".json"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)
        replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", disk_full_at_summary)
        with pytest.raises(OSError) as exc:
            cache.put(key, result)
    assert exc.value.errno == errno.ENOSPC
    assert list(tmp_path.rglob("*.tmp")) == []

    fresh = ResultCache(root=str(tmp_path), memory=False)
    assert fresh.get(key) is None
    assert fresh.keys() == []
    usage = disk_usage(str(tmp_path))
    assert (usage.entries, usage.stray_files) == (0, 1)

    cache.put(key, result)
    fresh = ResultCache(root=str(tmp_path), memory=False)
    assert result_bytes(fresh.get(key)) == result_bytes(result)
    assert disk_usage(str(tmp_path)).stray_files == 0


def test_prune_collects_stale_orphan_blobs_keeps_models(tmp_path):
    shard = tmp_path / "ab" / "00"
    shard.mkdir(parents=True)
    orphan = shard / ("ab00" + "0" * 60 + ".npz")
    orphan.write_bytes(b"orphan")
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    (models_dir / "deadbeef.json").write_text("{}")
    usage = disk_usage(str(tmp_path))
    assert usage.stray_files == 1 and usage.model_entries == 1
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
    """An entry or stray file a concurrent prune or re-put removes after
    the directory listing is skipped, not a FileNotFoundError."""
    import repro.runner.cache as cache_mod

    root = str(tmp_path)
    scan = cache_mod._scan_shard

    def vanishing_scan(walk_root, shard):
        entries, strays = scan(walk_root, shard)
        for _key, json_path, blob_path in entries:
            os.unlink(blob_path)
            os.unlink(json_path)
        for path in strays:
            os.unlink(path)
        return entries, strays

    monkeypatch.setattr(cache_mod, "_scan_shard", vanishing_scan)

    def fill():
        cache = ResultCache(root=root, memory=False)
        for key in ("a1" * 32, "b2" * 32):
            cache.put(key, result)
        orphan = tmp_path / "c3" / "c3" / ("c3" * 32 + ".npz")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"orphan")
        os.utime(orphan, (0, 0))  # past the orphan grace window

    fill()
    usage = disk_usage(root)
    assert usage.entries == 0 and usage.stray_files == 0
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


@pytest.mark.parametrize(
    "damaged",
    [
        "[]",
        '{"thermal": [], "leakage": {}}',
        '{"thermal": {"a": null, "b": [], "offset": [], "ts_s": 0.1},'
        ' "leakage": {}}',
        "[" * 200_000,
        '{"thermal": {"a": [[1]], "b": [[1]], "offset": [0], "ts_s": 1%s},'
        ' "leakage": {}}' % ("0" * 400),
        # well-formed, but a 1x1 model of a platform with 4 hotspots
        json.dumps({
            "thermal": {"a": [[0.5]], "b": [[0.1]], "offset": [0.0],
                        "ts_s": 0.1},
            "leakage": {
                r: {"c1": 1.0, "c2": -2000.0, "i_gate": 0.01}
                for r in ("big", "little", "gpu", "mem")
            },
        }),
    ],
    ids=["list", "thermal-list", "bad-thermal", "deep", "overflow",
         "wrong-shape"],
)
def test_damaged_model_store_entry_is_rebuilt(
    tmp_path, models, monkeypatch, damaged
):
    """A store entry that does not rebuild into a bundle is a miss: the
    bundle is built again and the entry overwritten with its payload."""
    from repro.runner import model_store

    builds = []

    def build_models(**kwargs):
        builds.append(kwargs)
        return models

    monkeypatch.setattr(model_store, "build_models", build_models)
    path = tmp_path / "models" / (models_key(prbs_duration_s=40.0) + ".json")
    path.parent.mkdir(parents=True)
    path.write_text(damaged)
    loaded = cached_build_models(root=str(tmp_path), prbs_duration_s=40.0)
    assert len(builds) == 1
    assert model_fingerprint(loaded) == model_fingerprint(models)
    assert json.loads(path.read_text()) == models_to_payload(models)
    # the rewritten entry now serves the next call without a build
    cached_build_models(root=str(tmp_path), prbs_duration_s=40.0)
    assert len(builds) == 1


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
