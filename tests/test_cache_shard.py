"""Sharded store layout, blob compression, frame index, in-place migration."""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    disk_usage,
    migrate,
    prune,
    result_bytes,
    store_depth,
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


@pytest.fixture(scope="module")
def results(workload):
    specs = [
        RunSpec(workload=synthesize("medium", 12.0, threads=2, seed=s),
                mode=ThermalMode.NO_FAN)
        for s in (3, 4, 5)
    ]
    return ParallelRunner().run(specs)


def _files(root):
    out = []
    for base, _dirs, names in os.walk(root):
        for name in names:
            out.append(os.path.relpath(os.path.join(base, name), root))
    return sorted(out)


# ---------------------------------------------------------------------------
# shard depth
# ---------------------------------------------------------------------------
def test_fanout2_writes_depth2_and_marks_layout(tmp_path, result):
    cache = ResultCache(root=str(tmp_path), fanout=2)
    cache.put("ab" * 32, result)
    key = "ab" * 32
    assert (tmp_path / key[:2] / key[2:4] / (key + ".json")).exists()
    assert store_depth(str(tmp_path)) == 2
    # a depth-agnostic cache adopts the marker
    assert ResultCache(root=str(tmp_path), memory=False).depth == 2


def test_depths_read_each_other(tmp_path, result):
    key = "cd" * 32
    flat = ResultCache(root=str(tmp_path / "flat"), fanout=1)
    flat.put(key, result)
    deep = ResultCache(root=str(tmp_path / "flat"), memory=False, fanout=2)
    assert key in deep
    assert result_bytes(deep.get(key)) == result_bytes(result)

    sharded = ResultCache(root=str(tmp_path / "deep"), fanout=2)
    sharded.put(key, result)
    legacy = ResultCache(
        root=str(tmp_path / "deep"), memory=False, fanout=1
    )
    assert result_bytes(legacy.get(key)) == result_bytes(result)
    assert legacy.keys() == [key]


def test_fanout_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        ResultCache(root=str(tmp_path), fanout=3)


# ---------------------------------------------------------------------------
# blob compression
# ---------------------------------------------------------------------------
def test_deflate_round_trip_is_byte_identical(tmp_path, result):
    key = "ef" * 32
    ResultCache(root=str(tmp_path)).put(key, result)
    migrate(str(tmp_path), fanout=1, compress="deflate")
    blob = tmp_path / key[:2] / (key + ".npz.z")
    assert blob.exists()
    assert blob.stat().st_size < len(trace_blob_bytes(result))
    reader = ResultCache(root=str(tmp_path), memory=False)
    assert result_bytes(reader.get(key)) == result_bytes(result)
    # reads decompress in memory and write nothing
    entry = os.path.join(key[:2], key)
    assert _files(tmp_path) == [
        ".layout.json", entry + ".json", entry + ".npz.z"
    ]


def test_read_reprobes_a_blob_moved_by_a_concurrent_migrate(
    tmp_path, result, monkeypatch
):
    """A reader whose probe found a blob just before a concurrent
    ``cache migrate`` moved it probes again and reads the moved blob."""
    key = "1f" * 32
    root = str(tmp_path)
    ResultCache(root=root).put(key, result)
    reader = ResultCache(root=root, memory=False)
    stale = reader._find_blob(key)
    migrate(root, fanout=2, compress="deflate")
    assert not os.path.exists(stale)  # now deflated, one level deeper

    probe = reader._find_blob

    def probe_stale_once():
        answers = iter([stale])
        monkeypatch.setattr(
            reader, "_find_blob", lambda k: next(answers, None) or probe(k)
        )

    probe_stale_once()
    assert np.array_equal(reader.open_trace(key), result.trace.array())
    probe_stale_once()
    assert result_bytes(reader.get(key)) == result_bytes(result)  # no miss


def test_truncated_compressed_blob_is_a_clean_miss(tmp_path, result):
    key = "2f" * 32
    root = str(tmp_path)
    ResultCache(root=root).put(key, result)
    migrate(root, fanout=1, compress="deflate")
    blob = tmp_path / key[:2] / (key + ".npz.z")
    blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
    reader = ResultCache(root=root, memory=False)
    assert reader.get(key) is None
    assert reader.stats_snapshot().misses == 1
    reader.put(key, result)  # the writer replaces the damaged entry
    assert not blob.exists()  # one blob per entry: the plain one
    assert result_bytes(reader.get(key)) == result_bytes(result)


def test_unknown_codec_rejected(tmp_path):
    for codec in ("lz4", "zstd"):
        with pytest.raises(ConfigurationError):
            migrate(str(tmp_path), compress=codec)


# ---------------------------------------------------------------------------
# migration
# ---------------------------------------------------------------------------
def test_migrate_reshards_and_stays_byte_identical(tmp_path, results):
    root = str(tmp_path)
    cache = ResultCache(root=root)
    keys = ["%02x" % i * 32 for i in range(len(results))]
    for key, res in zip(keys, results):
        cache.put(key, res)
    before = {k: result_bytes(cache.get(k)) for k in keys}
    stats = migrate(root, fanout=2, compress="deflate")
    assert stats.examined == len(keys)
    assert stats.moved == len(keys)
    after = ResultCache(root=root, memory=False)
    assert after.depth == 2
    assert after.keys() == sorted(keys)
    for key in keys:
        assert result_bytes(after.get(key)) == before[key]
    # every old flat copy is gone
    for key in keys:
        assert not os.path.exists(os.path.join(root, key[:2], key + ".json"))
        assert not os.path.exists(os.path.join(root, key[:2], key + ".npz"))


def test_migrate_is_idempotent(tmp_path, result):
    root = str(tmp_path)
    ResultCache(root=root).put("aa" * 32, result)
    first = migrate(root, fanout=2)
    files = _files(root)
    second = migrate(root, fanout=2)
    assert second.moved == 0 and second.cleaned == 0
    assert _files(root) == files
    assert first.moved == 1


def test_migrate_resumes_after_interruption(tmp_path, result):
    """A pass killed between copy and unlink finishes on the next run."""
    root = str(tmp_path)
    key = "bc" * 32
    ResultCache(root=root).put(key, result)
    # simulate the interrupted state: target copies exist, old copies too
    target = os.path.join(root, key[:2], key[2:4])
    os.makedirs(target)
    for suffix in (".json", ".npz"):
        src = os.path.join(root, key[:2], key + suffix)
        with open(src, "rb") as fh:
            blob = fh.read()
        with open(os.path.join(target, key + suffix), "wb") as fh:
            fh.write(blob)
    # both copies are readable mid-migration and count once
    mid = ResultCache(root=root, memory=False)
    assert mid.keys() == [key]
    assert len(mid) == 1
    assert disk_usage(root).entries == 1
    stats = migrate(root, fanout=2)
    assert stats.cleaned == 2  # the two leftover flat copies
    assert not os.path.exists(os.path.join(root, key[:2], key + ".json"))
    done = ResultCache(root=root, memory=False)
    assert result_bytes(done.get(key)) == result_bytes(result)


def test_migrate_round_trips_back_to_flat(tmp_path, result):
    root = str(tmp_path)
    key = "de" * 32
    before = result_bytes(result)
    ResultCache(root=root, fanout=2).put(key, result)
    migrate(root, fanout=2, compress="deflate")
    migrate(root, fanout=1, compress="none")
    flat = ResultCache(root=root, memory=False)
    assert flat.depth == 1
    assert os.path.exists(os.path.join(root, key[:2], key + ".npz"))
    assert result_bytes(flat.get(key)) == before


def test_migrate_rejects_bad_fanout(tmp_path):
    with pytest.raises(ConfigurationError):
        migrate(str(tmp_path), fanout=3)


# ---------------------------------------------------------------------------
# frame index
# ---------------------------------------------------------------------------
def _frame_rows(cache):
    """(key, benchmark, energy) rows of every frame, in frame order."""
    return [
        row
        for frame in cache.frame_chunks()
        for row in zip(frame["keys"], frame["benchmark"], frame["energy_j"])
    ]


def test_indexed_summaries_match_directory_walk(tmp_path, results):
    cache = ResultCache(root=str(tmp_path), fanout=2)
    keys = ["%02x" % (16 * i) * 32 for i in range(len(results))]
    for key, res in zip(keys, results):
        cache.put(key, res)
    walked = [
        (key, payload["benchmark"], payload["energy_j"])
        for key, payload in cache.iter_summaries()
    ]
    assert _frame_rows(cache) == walked
    # one frame file per shard, and nothing else, under .index/
    assert sorted(os.listdir(tmp_path / ".index")) == sorted(
        key[:2] + ".frame.json" for key in keys
    )
    # warm path: frames answer without rescanning, same rows
    assert _frame_rows(cache) == walked


def test_pack_index_invalidates_on_writes_and_prune(tmp_path, results):
    root = str(tmp_path)
    cache = ResultCache(root=root, fanout=2)
    key_a = "11" * 32
    key_b = "11" + "ab" * 31  # same top-level shard, new depth-2 subdir
    cache.put(key_a, results[0])
    assert len(_frame_rows(cache)) == 1
    cache.put(key_b, results[1])
    assert {row[0] for row in _frame_rows(cache)} == {key_a, key_b}
    prune(root, max_bytes=None)
    assert _frame_rows(cache) == []


def test_suiteframe_open_dir_same_with_and_without_index(tmp_path, results):
    from repro.analysis.suite import SuiteFrame

    cache = ResultCache(root=str(tmp_path), fanout=2)
    keys = ["%02x" % (7 * i + 1) * 32 for i in range(len(results))]
    for key, res in zip(keys, results):
        cache.put(key, res)
    migrate(str(tmp_path), fanout=2, compress="deflate")
    fast = SuiteFrame.open_dir(str(tmp_path))
    slow = SuiteFrame.from_cache(cache, keys=cache.keys())
    assert fast.keys == slow.keys == sorted(keys)
    for field in ("execution_time_s", "average_platform_power_w"):
        assert fast.column(field).tolist() == slow.column(field).tolist()
    for i in range(len(fast)):
        assert np.array_equal(fast.trace(i), slow.trace(i))


def test_disk_usage_counts_compressed_blobs(tmp_path, result):
    ResultCache(root=str(tmp_path), fanout=2).put("21" * 32, result)
    migrate(str(tmp_path), fanout=2, compress="deflate")
    usage = disk_usage(str(tmp_path))
    assert usage.entries == 1
    assert usage.compressed_blobs == 1


def test_prune_walks_both_depths(tmp_path, result):
    root = str(tmp_path)
    ResultCache(root=root, fanout=1).put("31" * 32, result)
    ResultCache(root=root, fanout=2).put("32" * 32, result)
    removed, freed = prune(root, max_bytes=None)
    assert removed == 2
    assert freed > 0
    assert ResultCache(root=root, memory=False).keys() == []


def test_layout_marker_ignores_garbage(tmp_path):
    (tmp_path / ".layout.json").write_text("not json")
    assert store_depth(str(tmp_path)) == 1
    (tmp_path / ".layout.json").write_text(json.dumps({"depth": 9}))
    assert store_depth(str(tmp_path)) == 1


# ---------------------------------------------------------------------------
# a damaged layout marker
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "marker",
    [
        b'{"depth": 2',
        b"\x00not json",
        b"[" * 200_000,
        b'{"depth": 7}',
        b'{"depth": 1e999}',
    ],
    ids=["truncated", "non_json", "deep_nesting", "depth_7", "depth_overflow"],
)
def test_corrupt_layout_marker_keeps_the_store_readable(
    tmp_path, results, marker
):
    """A damaged ``.layout.json`` only changes the depth new writes go
    to: reads probe both depths, and ``cache migrate`` rewrites it."""
    from repro.analysis.suite import SuiteFrame
    from repro.cli import main

    root = str(tmp_path)
    keys = ["%02x" % (16 * i + 3) * 32 for i in range(len(results))]
    cache = ResultCache(root=root, fanout=2)
    for key, res in zip(keys, results):
        cache.put(key, res)
    want = dict(zip(keys, results))
    (tmp_path / ".layout.json").write_bytes(marker)

    def assert_readable(root, want):
        reader = ResultCache(root=root, memory=False)
        for key, res in want.items():
            assert result_bytes(reader.get(key)) == result_bytes(res)
        frame = SuiteFrame.open_dir(root)
        assert frame.keys == sorted(want)
        for i, key in enumerate(frame.keys):
            assert frame.trace(i).tobytes() == want[key].trace.array().tobytes()
            assert frame.column("energy_j")[i] == want[key].energy_j

    assert_readable(root, want)
    writer = ResultCache(root=root, memory=False)
    assert writer.depth == 1  # the legacy default
    writer.put("ee" * 32, results[0])
    want["ee" * 32] = results[0]
    assert_readable(root, want)

    assert main(["cache", "migrate", "--cache-dir", root, "--fanout", "2"]) == 0
    assert json.loads((tmp_path / ".layout.json").read_bytes()) == {"depth": 2}
    assert store_depth(root) == 2
    assert_readable(root, want)
