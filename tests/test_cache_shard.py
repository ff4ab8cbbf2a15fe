"""The one store layout, its frame index, and the stray files of older stores."""

import os
import time
import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    disk_usage,
    payload_bytes,
    prune,
    result_bytes,
    result_to_summary,
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
# the one layout
# ---------------------------------------------------------------------------
def test_default_cache_writes_depth2_and_nothing_at_the_root(tmp_path, result):
    """Every entry is ``<key[:2]>/<key[2:4]>/<key>.json`` + ``.npz``; the
    ``fanout=2`` callers may still pass writes the same bytes."""
    key = "ab" * 32
    ResultCache(root=str(tmp_path / "default")).put(key, result)
    ResultCache(root=str(tmp_path / "fanout2"), fanout=2).put(key, result)
    entry = os.path.join(key[:2], key[2:4], key)
    assert _files(tmp_path / "default") == [entry + ".json", entry + ".npz"]
    assert os.listdir(tmp_path / "default") == [key[:2]]
    for name in (entry + ".json", entry + ".npz"):
        assert (tmp_path / "fanout2" / name).read_bytes() == (
            tmp_path / "default" / name
        ).read_bytes()
    assert _files(tmp_path / "fanout2") == _files(tmp_path / "default")


def test_fanout_validation(tmp_path):
    for fanout in (1, 3):
        with pytest.raises(ConfigurationError):
            ResultCache(root=str(tmp_path), fanout=fanout)


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
    cache = ResultCache(root=str(tmp_path))
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
    cache = ResultCache(root=root)
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

    cache = ResultCache(root=str(tmp_path))
    keys = ["%02x" % (7 * i + 1) * 32 for i in range(len(results))]
    for key, res in zip(keys, results):
        cache.put(key, res)
    fast = SuiteFrame.open_dir(str(tmp_path))
    slow = SuiteFrame.from_cache(cache, keys=cache.keys())
    assert fast.keys == slow.keys == sorted(keys)
    for field in ("execution_time_s", "average_platform_power_w"):
        assert fast.column(field).tolist() == slow.column(field).tolist()
    for i in range(len(fast)):
        assert np.array_equal(fast.trace(i), slow.trace(i))


# ---------------------------------------------------------------------------
# stray files: what earlier store versions and killed writers leave
# ---------------------------------------------------------------------------
FLAT_KEY = "31" * 32
DEFLATED_KEY = "32" * 32


def _legacy_store(root, result):
    """A store as an earlier version left it: an entry in the flat
    ``<key[:2]>/`` layout, a depth-2 entry whose blob was deflated, the
    layout marker, an aged and a fresh temp file of killed writers, and
    files the store never writes.  Returns the aged stray files."""
    summary = payload_bytes(result_to_summary(result))
    blob = trace_blob_bytes(result)
    flat = os.path.join(root, FLAT_KEY[:2])
    deep = os.path.join(root, DEFLATED_KEY[:2], DEFLATED_KEY[2:4])
    os.makedirs(flat)
    os.makedirs(deep)
    files = {
        os.path.join(flat, FLAT_KEY + ".json"): summary,
        os.path.join(flat, FLAT_KEY + ".npz"): blob,
        os.path.join(deep, DEFLATED_KEY + ".json"): summary,
        os.path.join(deep, DEFLATED_KEY + ".npz.z"): zlib.compress(blob, 6),
        os.path.join(deep, "tmpaged0.tmp"): blob[:100],
        os.path.join(deep, "tmpfresh.tmp"): blob[:100],
        os.path.join(flat, "notes.txt"): b"kept",
        os.path.join(root, ".layout.json"): b'{"depth":2}',
    }
    for path, data in files.items():
        with open(path, "wb") as fh:
            fh.write(data)
    aged = [
        os.path.join(flat, FLAT_KEY + ".json"),
        os.path.join(flat, FLAT_KEY + ".npz"),
        os.path.join(deep, DEFLATED_KEY + ".npz.z"),
        os.path.join(deep, "tmpaged0.tmp"),
    ]
    stamp = time.time() - 3600.0  # past the grace window
    for path in aged:
        os.utime(path, (stamp, stamp))
    return aged


def test_legacy_store_files_are_strays_that_prune_collects(
    tmp_path, result, capsys
):
    """Nothing of an earlier layout is read or listed; ``cache stats``
    counts it and ``cache prune`` removes what is past the grace window,
    with a budget and with ``--all``; re-puts land at depth 2."""
    from repro.analysis.suite import SuiteFrame
    from repro.cli import main

    for how in ("budget", "all"):
        root = str(tmp_path / how)
        aged = _legacy_store(root, result)
        reader = ResultCache(root=root, memory=False)
        assert reader.get(FLAT_KEY) is None
        assert reader.get(DEFLATED_KEY) is None  # a summary without blob
        assert FLAT_KEY not in reader
        assert reader.keys() == [DEFLATED_KEY]
        assert SuiteFrame.open_dir(root).keys == [DEFLATED_KEY]

        usage = disk_usage(root)
        assert (usage.entries, usage.stray_files) == (1, 5)
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        assert "5 stray file(s)" in capsys.readouterr().out

        if how == "budget":
            assert prune(root, max_bytes=10**9)[0] == len(aged)
            assert disk_usage(root).entries == 1
        else:
            assert main(["cache", "prune", "--all", "--cache-dir", root]) == 0
            assert "pruned %d entries" % (len(aged) + 1) in (
                capsys.readouterr().out
            )
            assert disk_usage(root).entries == 0
        assert not any(os.path.exists(path) for path in aged)
        assert disk_usage(root).stray_files == 1  # the fresh temp file
        for kept in (
            os.path.join(DEFLATED_KEY[:2], DEFLATED_KEY[2:4], "tmpfresh.tmp"),
            os.path.join(FLAT_KEY[:2], "notes.txt"),
            ".layout.json",
        ):
            assert os.path.exists(os.path.join(root, kept)), (how, kept)

        ResultCache(root=root).put(FLAT_KEY, result)
        entry = os.path.join(root, FLAT_KEY[:2], FLAT_KEY[2:4], FLAT_KEY)
        assert os.path.exists(entry + ".json")
        assert os.path.exists(entry + ".npz")
        again = ResultCache(root=root, memory=False).get(FLAT_KEY)
        assert result_bytes(again) == result_bytes(result)
