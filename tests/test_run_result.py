"""TraceRecorder and RunResult metrics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.run_result import RUN_COLUMNS, RunResult, TraceRecorder


def _recorder_with(temps, dt=0.1):
    rec = TraceRecorder(RUN_COLUMNS)
    for i, t in enumerate(temps):
        row = {c: 0.0 for c in RUN_COLUMNS}
        row["time_s"] = (i + 1) * dt
        row["max_temp_c"] = t
        rec.append(**row)
    return rec


def _result(temps, **kw):
    rec = _recorder_with(temps)
    defaults = dict(
        benchmark="t",
        mode="dtpm",
        completed=True,
        execution_time_s=len(temps) * 0.1,
        average_platform_power_w=5.0,
        energy_j=5.0 * len(temps) * 0.1,
        trace=rec,
    )
    defaults.update(kw)
    return RunResult(**defaults)


def test_recorder_columns_and_access():
    rec = TraceRecorder(["a", "b"])
    rec.append(a=1.0, b=2.0)
    rec.append(a=3.0, b=4.0)
    assert len(rec) == 2
    assert np.allclose(rec.column("a"), [1.0, 3.0])
    assert set(rec.as_dict()) == {"a", "b"}


def test_recorder_grows_past_initial_capacity():
    rec = TraceRecorder(["a", "b"])
    n = TraceRecorder.INITIAL_CAPACITY * 2 + 7
    for i in range(n):
        rec.append(a=float(i), b=float(2 * i))
    assert len(rec) == n
    assert rec.capacity >= n
    assert np.allclose(rec.column("a"), np.arange(n, dtype=float))
    assert rec.array()[-1].tolist() == [float(n - 1), float(2 * (n - 1))]


def test_recorder_accessors_are_views():
    rec = TraceRecorder(["a", "b"])
    rec.append(a=1.0, b=2.0)
    rec.append(a=3.0, b=4.0)
    matrix = rec.array()
    assert matrix.shape == (2, 2)
    assert np.shares_memory(rec.column("a"), matrix)
    assert np.shares_memory(rec.as_dict()["b"], matrix)
    # appending within capacity is reflected by freshly-taken views
    rec.append(a=5.0, b=6.0)
    assert rec.column("a").tolist() == [1.0, 3.0, 5.0]


def test_from_array_adopts_matrix():
    data = np.arange(6, dtype=float).reshape(3, 2)
    rec = TraceRecorder.from_array(["a", "b"], data)
    assert len(rec) == 3
    assert np.shares_memory(rec.array(), data)
    # appending after adoption grows a fresh buffer (copy) and works
    rec.append(a=10.0, b=11.0)
    assert rec.column("b").tolist() == [1.0, 3.0, 5.0, 11.0]
    with pytest.raises(SimulationError):
        TraceRecorder.from_array(["a", "b"], np.zeros((2, 3)))


def test_recorder_rejects_missing_columns():
    rec = TraceRecorder(["a", "b"])
    with pytest.raises(SimulationError):
        rec.append(a=1.0)
    with pytest.raises(SimulationError):
        rec.column("c")
    with pytest.raises(SimulationError):
        TraceRecorder([])


def test_stability_metrics():
    temps = [50.0] * 200 + [60.0, 62.0, 61.0, 63.0] * 100
    res = _result(temps)
    assert res.peak_temp_c() == 63.0
    mm = res.temp_max_min_c(skip_s=25.0)
    assert mm == pytest.approx(3.0)  # only the oscillating tail
    assert res.average_temp_c(skip_s=25.0) == pytest.approx(61.5, abs=0.05)
    assert res.temp_variance(skip_s=25.0) > 0


def test_settle_slice_skips_transient():
    res = _result([40.0] * 100 + [60.0] * 100)
    sl = res.settle_slice(skip_s=10.0)
    assert sl.start == pytest.approx(100, abs=2)


def test_constraint_exceedance():
    res = _result([60.0, 64.5, 62.0])
    assert res.constraint_exceedance_c(63.0) == pytest.approx(1.5)
    assert res.constraint_exceedance_c(70.0) == 0.0


def test_summary_mentions_key_facts():
    res = _result([60.0] * 50, benchmark="dijkstra", mode="with_fan")
    s = res.summary()
    assert "dijkstra" in s and "with_fan" in s and "completed" in s


def test_big_freqs_ghz_conversion():
    rec = TraceRecorder(RUN_COLUMNS)
    row = {c: 0.0 for c in RUN_COLUMNS}
    row.update(time_s=0.1, big_freq_hz=1.6e9)
    rec.append(**row)
    res = _result([50.0])
    assert res.big_freqs_ghz().shape == (1,)


def test_short_trace_raises_on_metrics():
    res = _result([])
    with pytest.raises(SimulationError):
        res.temp_max_min_c()
