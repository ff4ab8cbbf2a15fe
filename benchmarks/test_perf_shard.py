"""Perf: frame-indexed sharded-store open vs the per-entry directory walk.

Tracks what the sharded layout + per-shard frame index buy at suite
scale: ``SuiteFrame.open_dir`` over a store of ``REPRO_SHARD_N``
synthetic summaries (default 20k locally; CI's benchmark smoke runs
100k) must open >= 5x faster through the warm frame index than
``SuiteFrame.from_cache`` over the explicit ``cache.keys()`` (one
listdir/stat/read/parse round trip per entry).  Both paths must produce
identical frames -- the index is a read-path accelerator, never a second
source of truth.  The artifact records the measured numbers so the perf
trajectory is visible across PRs.
"""

import gc
import hashlib
import json
import os
import time

import numpy as np

from conftest import save_timing
from repro.analysis.suite import SuiteFrame
from repro.runner import ResultCache

#: Synthetic store size; CI's benchmark smoke raises this to 100000.
N_ENTRIES = int(os.environ.get("REPRO_SHARD_N", "20000") or "20000")

FLOOR = 5.0

REPEATS = 5


def _best_times(*fns):
    """Fastest seconds and last result of each function over
    :data:`REPEATS` rounds.

    A sub-second timing on a shared host swings by more than the margin
    over the floor, so each round calls every function once: a slow
    spell hits all of them alike.  Garbage left by earlier calls (and
    earlier tests) is collected before each call, so no call pays for
    another's collection.
    """
    best = [float("inf")] * len(fns)
    values = [None] * len(fns)
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            values[i] = None
            gc.collect()
            t0 = time.perf_counter()
            values[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, values


def _populate(root, n):
    """Write ``n`` minimal v2 summaries straight into a depth-2 layout.

    Blobs are omitted on purpose: ``SuiteFrame`` opens summaries eagerly
    and traces lazily, so the open path under measurement never touches
    them.  Keys are sha256 digests (the real key alphabet), so entries
    spread over the shard fan-out exactly like production content keys.
    """
    keys = []
    for i in range(n):
        key = hashlib.sha256(b"shard-bench-%d" % i).hexdigest()
        payload = {
            "artifact": 2,
            "benchmark": "synthetic-%d" % (i % 7),
            "mode": "without_fan" if i % 2 else "with_fan",
            "completed": True,
            "execution_time_s": 10.0 + i % 13,
            "average_platform_power_w": 4.0 + (i % 11) / 10.0,
            "energy_j": 40.0 + i % 17,
            "interventions": i % 3,
            "violations_predicted": 0,
            "cluster_migrations": 0,
            "cores_offlined": 0,
            "notes": [],
            "trace": {"columns": ["time_s", "max_temp_c"], "length": 0},
        }
        entry_dir = os.path.join(root, key[:2], key[2:4])
        os.makedirs(entry_dir, exist_ok=True)
        with open(os.path.join(entry_dir, key + ".json"), "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        keys.append(key)
    return sorted(keys)


def test_pack_indexed_open_dir_is_5x_faster(tmp_path):
    root = str(tmp_path / "store")
    keys = _populate(root, N_ENTRIES)

    # cold open builds and persists the per-shard frames (charged once,
    # amortised over every later open -- measured for the record only)
    t0 = time.perf_counter()
    cold = SuiteFrame.open_dir(root)
    cold_s = time.perf_counter() - t0
    assert cold.keys == keys

    def walk():
        cache = ResultCache(root=root, memory=False)
        return SuiteFrame.from_cache(cache, keys=cache.keys())

    (warm_s, flat_s), (warm, flat) = _best_times(
        lambda: SuiteFrame.open_dir(root), walk
    )

    # identical frames either way: the index only changes the read cost
    assert warm.keys == flat.keys == keys
    assert np.array_equal(
        warm.column("average_platform_power_w"),
        flat.column("average_platform_power_w"),
    )
    assert np.array_equal(warm.column("completed"), flat.column("completed"))

    # the frame files really carry the warm path: one per shard
    shards = [name for name in os.listdir(root) if not name.startswith(".")]
    assert sorted(os.listdir(os.path.join(root, ".index"))) == sorted(
        shard + ".frame.json" for shard in shards
    )

    speedup = flat_s / warm_s
    save_timing(
        "perf_shard.txt",
        "SuiteFrame.open_dir over %d summaries (depth-2 sharded store)\n"
        "cold (walk + build frames): %8.2f s\n"
        "warm (frame index, best of %d): %5.2f s\n"
        "per-entry walk (best of %d):    %5.2f s\n"
        "warm speedup vs walk: %.1fx (floor %.0fx)"
        % (N_ENTRIES, cold_s, REPEATS, warm_s, REPEATS, flat_s, speedup,
           FLOOR),
    )
    assert speedup >= FLOOR, (
        "frame-indexed open only %.1fx faster than the per-entry walk"
        % speedup
    )
