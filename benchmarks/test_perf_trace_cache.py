"""Perf: columnar trace recording + binary cache round trip vs legacy path.

Tracks the speedup of the columnar trace core (preallocated NumPy buffers,
v2 summary-JSON + npz artifacts) over the pre-refactor implementation
(Python list-of-rows recording, whole-trace canonical-JSON cache entries).
The acceptance bar of the refactor is a >= 3x end-to-end advantage on
record + store + load for a suite-scale trace; the artifact records the
measured numbers so the perf trajectory is visible across PRs.
"""

import json
import os
import time

import numpy as np

from conftest import save_timing
from repro.runner import ResultCache, result_bytes
from repro.sim.run_result import RUN_COLUMNS, RunResult, TraceRecorder

#: 15 simulated minutes at the 100 ms control period.
N_ROWS = 9000
REPEATS = 3


class _LegacyRecorder:
    """The pre-refactor TraceRecorder: append-only Python list of rows."""

    def __init__(self, columns):
        self._columns = list(columns)
        self._rows = []

    def append(self, **values):
        self._rows.append([float(values[c]) for c in self._columns])

    def rows(self):
        return [list(row) for row in self._rows]


def _interval_stream(n_rows):
    rng = np.random.default_rng(7)
    data = rng.normal(50.0, 5.0, size=(n_rows, len(RUN_COLUMNS)))
    return [dict(zip(RUN_COLUMNS, row)) for row in data.tolist()]


def _result_for(trace):
    return RunResult(
        benchmark="perf",
        mode="without_fan",
        completed=True,
        execution_time_s=N_ROWS * 0.1,
        average_platform_power_w=5.0,
        energy_j=5.0 * N_ROWS * 0.1,
        trace=trace,
    )


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _legacy_roundtrip(intervals, tmpdir):
    """Record row-by-row, persist as v1 canonical JSON, read it back."""
    recorder = _LegacyRecorder(RUN_COLUMNS)
    for values in intervals:
        recorder.append(**values)
    payload = {"columns": list(RUN_COLUMNS), "rows": recorder.rows()}
    path = os.path.join(tmpdir, "legacy.json")
    with open(path, "wb") as fh:
        fh.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )
    with open(path, "rb") as fh:
        loaded = json.loads(fh.read().decode("utf-8"))
    return TraceRecorder.from_array(loaded["columns"], np.asarray(loaded["rows"]))


def _columnar_roundtrip(intervals, tmpdir, key):
    """Record into the columnar buffer, persist/load a v2 cache entry."""
    recorder = TraceRecorder(RUN_COLUMNS)
    for values in intervals:
        recorder.append(**values)
    result = _result_for(recorder)
    ResultCache(root=tmpdir, memory=False).put(key, result)
    return ResultCache(root=tmpdir, memory=False).get(key)


def test_columnar_trace_cache_is_3x_faster(tmp_path):
    intervals = _interval_stream(N_ROWS)
    key = "ee" + "0" * 62

    legacy_s, legacy_trace = _best_of(
        lambda: _legacy_roundtrip(intervals, str(tmp_path))
    )
    columnar_s, columnar_result = _best_of(
        lambda: _columnar_roundtrip(intervals, str(tmp_path), key)
    )

    # both paths reproduce the exact same numbers
    assert np.array_equal(
        columnar_result.trace.array(), legacy_trace.array()
    )
    assert result_bytes(columnar_result) == result_bytes(
        _result_for(legacy_trace)
    )

    speedup = legacy_s / columnar_s
    save_timing(
        "perf_trace_cache.txt",
        "trace record + cache store/load, %d rows x %d columns (best of %d)\n"
        "legacy (list rows + JSON entry):   %8.1f ms\n"
        "columnar (numpy + summary + npz):  %8.1f ms\n"
        "speedup: %.1fx"
        % (
            N_ROWS,
            len(RUN_COLUMNS),
            REPEATS,
            legacy_s * 1e3,
            columnar_s * 1e3,
            speedup,
        ),
    )
    assert speedup >= 3.0, "columnar path only %.1fx faster" % speedup
