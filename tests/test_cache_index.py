"""Per-shard frame index: damaged files, older index files, equivalence.

``SuiteFrame.open_dir`` reads a store through the ``.index/`` frame
files; ``SuiteFrame.from_cache`` with explicit keys reads every summary
itself.  The index is derived data, so the two must always agree.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.cache as cache_mod
from repro.analysis.suite import COUNT_FIELDS, FLOAT_FIELDS, SuiteFrame
from repro.runner import (
    ResultCache,
    payload_bytes,
    result_bytes,
    result_to_payload,
    result_to_summary,
)
from repro.sim.run_result import RunResult, TraceRecorder

SHARDS = ("3a", "3b", "c0")
COLUMN_SETS = (
    ["time_s", "max_temp_c"],
    ["time_s", "max_temp_c", "big_freq_hz"],
)


def _key(shard, i):
    return shard + hashlib.sha256(b"%d" % i).hexdigest()[2:]


def _result(i, columns=0, length=3):
    names = COLUMN_SETS[columns]
    data = np.arange(length * len(names), dtype=float).reshape(
        length, len(names)
    )
    return RunResult(
        benchmark="bench-%d" % (i % 3),
        mode=("with_fan", "without_fan")[i % 2],
        completed=bool(i % 5),
        execution_time_s=10.0 + i,
        average_platform_power_w=4.0 + i / 8.0,
        energy_j=40.0 + i,
        trace=TraceRecorder.from_array(names, data + i),
        interventions=i % 4,
    )


def _fill(root, n=12, **cache_kwargs):
    cache = ResultCache(root=root, memory=False, **cache_kwargs)
    for i in range(n):
        cache.put(_key(SHARDS[i % 3], i), _result(i, columns=i % 2))
    return cache


def assert_same_frame(got, want):
    assert got.keys == want.keys
    assert got.benchmark == want.benchmark
    assert got.mode == want.mode
    for field in FLOAT_FIELDS + COUNT_FIELDS + ("completed",):
        assert got.column(field).dtype == want.column(field).dtype
        np.testing.assert_array_equal(got.column(field), want.column(field))
    assert got._trace_columns == want._trace_columns
    for i in range(len(got)):
        np.testing.assert_array_equal(got.trace(i), want.trace(i))


# ---------------------------------------------------------------------------
# open_dir == explicit keys on every store layout
# ---------------------------------------------------------------------------
def _interrupt_migration(root, keys):
    """Copy every other flat entry to depth 2, leaving the flat copy: the
    state an interrupted ``cache migrate --fanout 2`` leaves behind."""
    for key in keys[::2]:
        target = os.path.join(root, key[:2], key[2:4])
        os.makedirs(target, exist_ok=True)
        for suffix in (".npz", ".json"):
            shutil.copy(os.path.join(root, key[:2], key + suffix), target)


@pytest.mark.parametrize(
    "layout", ["flat", "depth2", "deflate", "mid_migration"]
)
def test_open_dir_equals_explicit_keys(tmp_path, layout):
    root = str(tmp_path)
    cache = _fill(
        root,
        fanout=2 if layout == "depth2" else 1,
        compress="deflate" if layout == "deflate" else None,
    )
    if layout == "mid_migration":
        _interrupt_migration(root, cache.keys())
    reader = ResultCache(root=root, memory=False)
    walked = SuiteFrame.from_cache(reader, keys=reader.keys())
    assert len(walked) == 12
    for _ in range(2):  # cold open builds the frames, warm open reads them
        assert_same_frame(SuiteFrame.open_dir(root), walked)


# ---------------------------------------------------------------------------
# damaged frame files are rebuilt, never served
# ---------------------------------------------------------------------------
def _poisoned(frame):
    """A copy whose rows would be visibly wrong if it were served."""
    return dict(frame, energy_j=[-1.0] * len(frame["energy_j"]))


FAULTS = {
    "truncated": lambda raw, frame: raw[: len(raw) // 2],
    "non_json": lambda raw, frame: b"\x00not json",
    "wrong_format": lambda raw, frame: payload_bytes(
        dict(_poisoned(frame), frame=2)
    ),
    "stale_stamp": lambda raw, frame: payload_bytes(
        dict(
            _poisoned(frame),
            stamp={k: v - 1 for k, v in frame["stamp"].items()},
        )
    ),
    "ragged_columns": lambda raw, frame: payload_bytes(
        dict(_poisoned(frame), energy_j=[-1.0])
    ),
    "trace_col_idx_out_of_range": lambda raw, frame: payload_bytes(
        dict(
            _poisoned(frame),
            trace_col_idx=[len(frame["trace_columns"])] * len(frame["keys"]),
        )
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_damaged_frame_file_is_rebuilt_never_served(tmp_path, fault):
    root = str(tmp_path)
    _fill(root, fanout=2)
    good = SuiteFrame.open_dir(root)  # builds every frame file
    path = cache_mod._frame_path(root, SHARDS[0])
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(FAULTS[fault](raw, json.loads(raw)))
    assert_same_frame(SuiteFrame.open_dir(root), good)
    with open(path, "rb") as fh:
        assert fh.read() == raw  # rebuilt in place


# ---------------------------------------------------------------------------
# index files written by the previous store version
# ---------------------------------------------------------------------------
def _write_previous_index(root, shard):
    """One shard's ``.index/`` files byte for byte as the previous store
    version wrote them: a ``<shard>.json`` pack of every summary next to
    the ``<shard>.frame.json`` columnar frame (FRAME_FORMAT 1)."""
    stamp = cache_mod._shard_stamp(root, shard)
    cache = ResultCache(root=root, memory=False)
    entries = [
        (key, cache.load_summary(key))
        for key in cache.keys()
        if key[:2] == shard
    ]
    tables = []
    for _, summary in entries:
        if summary["trace"]["columns"] not in tables:
            tables.append(summary["trace"]["columns"])
    frame = {
        "frame": 1,
        "stamp": stamp,
        "trace_columns": tables,
        "keys": [key for key, _ in entries],
        "trace_col_idx": [
            tables.index(summary["trace"]["columns"])
            for _, summary in entries
        ],
    }
    for name in ("benchmark", "mode", "completed") + FLOAT_FIELDS + COUNT_FIELDS:
        frame[name] = [summary[name] for _, summary in entries]
    pack = {"pack": 1, "stamp": stamp, "entries": entries, "unpacked": []}
    index_dir = os.path.join(root, ".index")
    os.makedirs(index_dir, exist_ok=True)
    for name, payload in ((".json", pack), (".frame.json", frame)):
        with open(os.path.join(index_dir, shard + name), "wb") as fh:
            fh.write(payload_bytes(payload))


def _index_files(root):
    index_dir = os.path.join(root, ".index")
    out = {}
    for name in os.listdir(index_dir):
        with open(os.path.join(index_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_previous_index_files_open_with_identical_rows(tmp_path, monkeypatch):
    root = str(tmp_path)
    cache = _fill(root, fanout=2)
    walked = SuiteFrame.from_cache(cache, keys=cache.keys())
    for shard in SHARDS:
        _write_previous_index(root, shard)
    before = _index_files(root)

    def no_rebuild(*args):
        raise AssertionError("a valid frame file was rebuilt")

    # the frames are served as written and the packs are left alone
    monkeypatch.setattr(cache_mod, "_build_shard_frame", no_rebuild)
    assert_same_frame(SuiteFrame.open_dir(root), walked)
    assert _index_files(root) == before


# ---------------------------------------------------------------------------
# property: any mix of valid, malformed and format-1 summaries
# ---------------------------------------------------------------------------
#: Ways a summary file can be malformed, each breaking one rule of
#: ``is_summary``.
_BREAKS = (
    lambda s: {k: v for k, v in s.items() if k != "energy_j"},
    lambda s: dict(s, interventions="many"),
    lambda s: dict(s, cores_offlined=float("inf")),  # JSON Infinity
    lambda s: dict(s, execution_time_s=[1.0]),
    lambda s: dict(s, trace=None),
    lambda s: dict(s, trace={"columns": [["time_s"]], "length": 0}),
    lambda s: dict(s, artifact=3),
    lambda s: [s],
    lambda s: dict(s, completed="no"),
    lambda s: dict(s, benchmark=5),
    lambda s: dict(s, notes="xyz"),
    lambda s: dict(s, interventions=2**63),  # overflows the int64 column
)

_KINDS = ["valid", "format1", "truncated", "deep"] + [
    "break%d" % i for i in range(len(_BREAKS))
]

_ENTRY = st.tuples(
    st.sampled_from(SHARDS),
    st.sampled_from(_KINDS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
    st.integers(min_value=0, max_value=len(COLUMN_SETS) - 1),
    st.integers(min_value=0, max_value=3),
)


def _summary_file(kind, result):
    if kind == "format1":
        return payload_bytes(result_to_payload(result))
    summary = payload_bytes(result_to_summary(result))
    if kind == "truncated":
        return summary[:-7]
    if kind == "deep":  # nested past the JSON decoder's recursion limit
        return b"[" * 200_000
    broken = _BREAKS[int(kind[len("break"):])](json.loads(summary))
    return json.dumps(broken).encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(_ENTRY, max_size=10), fanout=st.sampled_from([1, 2]))
def test_open_dir_equals_explicit_valid_keys(entries, fanout):
    """``open_dir`` rows and ``get`` hits are the same set of entries.

    Every entry gets its trace blob, so a malformed summary is all that
    stands between it and a hit.
    """
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root=root, memory=False, fanout=fanout)
        valid = {}
        broken = []
        for i, (shard, kind, energy, count, done, cols, rows) in enumerate(
            entries
        ):
            key = _key(shard, i)
            result = dataclasses.replace(
                _result(i, columns=cols, length=rows),
                energy_j=energy,
                violations_predicted=count,
                completed=done,
            )
            cache.put(key, result)
            if kind == "valid":
                valid[key] = result
                continue
            broken.append(key)
            path = os.path.join(
                cache_mod._entry_dir(root, key, fanout), key + ".json"
            )
            with open(path, "wb") as fh:
                fh.write(_summary_file(kind, result))
        expected = SuiteFrame.from_cache(cache, keys=sorted(valid))
        for _ in range(2):  # cold and warm index
            assert_same_frame(SuiteFrame.open_dir(root), expected)
        for key in broken:
            assert cache.get(key) is None, key
        for key, result in valid.items():
            assert result_bytes(cache.get(key)) == result_bytes(result)
