"""Analysis helpers: stats, tables, ASCII figures."""

import numpy as np
import pytest

from repro.analysis.figures import (
    ascii_bars,
    ascii_grouped_bars,
    ascii_timeseries,
    sparkline,
)
from repro.analysis.stats import (
    average_fan_power_w,
    fan_duty,
    frequency_residency,
    frequency_residency_batch,
    regulation_quality,
    regulation_quality_batch,
    stability_stats,
    stability_stats_batch,
)
from repro.analysis.tables import (
    benchmark_table,
    frequency_table,
    markdown_table,
    render_table,
)
from repro.errors import SimulationError
from repro.platform.specs import BIG_FREQUENCIES_HZ, FAN_POWER_W
from repro.sim.engine import Simulator, ThermalMode
from repro.sim.metrics import variance_reduction_factor
from repro.sim.run_result import RUN_COLUMNS, RunResult, TraceRecorder
from repro.workloads.benchmarks import table_6_4_rows
from repro.workloads.generator import synthesize


def _result(temps=None, freqs=None, fans=None):
    n = 100
    temps = temps if temps is not None else [62.0] * n
    freqs = freqs if freqs is not None else [1.6e9] * n
    fans = fans if fans is not None else [0] * n
    rec = TraceRecorder(RUN_COLUMNS)
    for i in range(len(temps)):
        row = {c: 0.0 for c in RUN_COLUMNS}
        row.update(
            time_s=(i + 1) * 0.1,
            max_temp_c=temps[i],
            big_freq_hz=freqs[i],
            fan_speed=float(fans[i]),
        )
        rec.append(**row)
    return RunResult(
        benchmark="x", mode="dtpm", completed=True,
        execution_time_s=len(temps) * 0.1,
        average_platform_power_w=5.0, energy_j=50.0, trace=rec,
    )


def test_stability_stats():
    res = _result(temps=[50.0] * 50 + [62.0, 63.0] * 25)
    stats = stability_stats(res, skip_s=5.0)
    assert stats.max_min_c == pytest.approx(1.0)
    assert stats.average_temp_c == pytest.approx(62.5)
    assert stats.peak_c == 63.0


def test_regulation_quality():
    res = _result(temps=[62.0] * 80 + [64.0] * 20)
    q = regulation_quality(res, 63.0, skip_s=0.5)
    assert q["peak_exceedance_c"] == pytest.approx(1.0)
    assert 0 < q["fraction_over"] < 1


def test_frequency_residency():
    res = _result(freqs=[1.6e9] * 50 + [1.2e9] * 50)
    resid = frequency_residency(res)
    assert resid[1.6] == pytest.approx(0.5)
    assert resid[1.2] == pytest.approx(0.5)


def test_stability_batch_pins_scalar_as_b1_view():
    results = [
        _result(temps=[50.0] * 50 + [62.0, 63.0] * 25),
        _result(temps=[55.0] * 30 + [60.0] * 70),
    ]
    batch = stability_stats_batch(
        [r.times_s() for r in results],
        [r.max_temps_c() for r in results],
        skip_s=5.0,
    )
    for i, res in enumerate(results):
        scalar = stability_stats(res, skip_s=5.0)
        assert batch["average_temp_c"][i] == scalar.average_temp_c
        assert batch["max_min_c"][i] == scalar.max_min_c
        assert batch["variance_c2"][i] == scalar.variance_c2
        assert batch["peak_c"][i] == scalar.peak_c
    # per-run skip windows are allowed
    ragged = stability_stats_batch(
        [r.times_s() for r in results],
        [r.max_temps_c() for r in results],
        skip_s=[5.0, 2.0],
    )
    assert ragged["average_temp_c"][1] == stability_stats(
        results[1], skip_s=2.0
    ).average_temp_c


def test_regulation_batch_pins_scalar_as_b1_view():
    res = _result(temps=[62.0] * 80 + [64.0] * 20)
    batch = regulation_quality_batch(
        [res.times_s()], [res.max_temps_c()], 63.0, skip_s=0.5
    )
    scalar = regulation_quality(res, 63.0, skip_s=0.5)
    for field, values in batch.items():
        assert values[0] == scalar[field]


def test_short_trace_clamp_matches_posthoc():
    """Skip windows near a trace's end: ``settle_start`` widens the
    settled region to at least the last two samples, and the batch
    reductions settle on the same region as the ``RunResult`` helpers."""
    short = Simulator(
        synthesize("high", 20.0, threads=4, seed=11),
        ThermalMode.NO_FAN,
        max_duration_s=5.0,
    ).run()
    t = short.times_s()
    span = t[-1] - t[0]
    boundary_skips = [
        span + 1.0,  # trace entirely inside the skip window: 0 settled
        (t[-2] - t[0] + span) / 2.0,  # exactly 1 settled sample
        span - 0.5,  # a few settled samples, clamp inert
    ]
    for skip in boundary_skips:
        stats = stability_stats(short, skip_s=skip)
        assert stats.average_temp_c == short.average_temp_c(skip), skip
        assert stats.max_min_c == short.temp_max_min_c(skip), skip
        assert stats.variance_c2 == short.temp_variance(skip), skip
        settled = short.max_temps_c()[short.settle_slice(skip)]
        assert settled.size >= 2, skip
        quality = regulation_quality(short, 50.0, skip_s=skip)
        assert quality["peak_exceedance_c"] == max(
            0.0, float(np.max(settled)) - 50.0
        ), skip
    # the variance-reduction metric does not reject short traces either
    skip = span + 1.0
    expected = 1.0 if short.temp_variance(skip) > 0 else float("inf")
    assert variance_reduction_factor(short, short, skip_s=skip) == expected


def test_frequency_residency_batch_unions_keys():
    a = _result(freqs=[1.6e9] * 50 + [1.2e9] * 50)
    b = _result(freqs=[0.8e9] * 100)
    resid = frequency_residency_batch(
        [a.big_freqs_ghz(), b.big_freqs_ghz()]
    )
    assert set(resid) == {0.8, 1.2, 1.6}
    assert resid[1.6][0] == pytest.approx(0.5)
    assert resid[1.6][1] == 0.0
    assert resid[0.8][1] == pytest.approx(1.0)


def test_fan_duty_and_average_power():
    res = _result(fans=[0] * 50 + [2] * 50)
    duty = fan_duty(res)
    assert duty[0] == pytest.approx(0.5)
    assert duty[2] == pytest.approx(0.5)
    avg = average_fan_power_w(res, FAN_POWER_W)
    assert avg == pytest.approx(0.5 * FAN_POWER_W[2])


def test_render_table_alignment():
    out = render_table(["a", "bb"], [[1, 2], [30, 40]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_render_table_validation():
    with pytest.raises(SimulationError):
        render_table(["a"], [])
    with pytest.raises(SimulationError):
        render_table(["a"], [[1, 2]])


def test_frequency_table_output():
    out = frequency_table(BIG_FREQUENCIES_HZ, "Table 6.1")
    assert "Table 6.1" in out
    assert "1600" in out and "800" in out


def test_benchmark_table_output():
    out = benchmark_table(table_6_4_rows())
    assert "templerun" in out
    assert "security" in out


def test_ascii_timeseries_renders_all_series():
    t = np.linspace(0, 10, 50)
    out = ascii_timeseries(
        {"with fan": (t, 60 + np.sin(t)), "dtpm": (t, 62 + 0 * t)},
        title="Fig 6.3",
    )
    assert "Fig 6.3" in out
    assert "with fan" in out and "dtpm" in out
    assert "*" in out and "o" in out


def test_ascii_timeseries_validation():
    with pytest.raises(SimulationError):
        ascii_timeseries({})


def test_ascii_bars():
    out = ascii_bars({"dijkstra": 3.0, "matmul": 14.0}, unit="%")
    assert "dijkstra" in out and "#" in out


def test_markdown_table_shape():
    lines = markdown_table(["a", "bb"], [["1", "2"], ["3", "4"]])
    assert lines == [
        "| a | bb |",
        "|---|---|",
        "| 1 | 2 |",
        "| 3 | 4 |",
    ]
    with pytest.raises(SimulationError):
        markdown_table([], [])
    with pytest.raises(SimulationError):
        markdown_table(["a"], [[1, 2]])


def test_sparkline():
    out = sparkline([0.0, 5.0, 10.0])
    assert len(out) == 3
    assert out[0] == " " and out[-1] == "@"
    assert len(set(sparkline([3.0, 3.0, 3.0]))) == 1  # constant mid-level
    with pytest.raises(SimulationError):
        sparkline([])


def test_ascii_grouped_bars():
    out = ascii_grouped_bars(
        {"fft": {"savings": 9.0, "loss": 2.0}}, unit="%"
    )
    assert "fft" in out and "savings" in out and "loss" in out
    with pytest.raises(SimulationError):
        ascii_grouped_bars({})
