"""Workload traces, the Table 6.4 registry, and progress accounting."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    ALL_BENCHMARKS,
    CATEGORY_HIGH,
    CATEGORY_LOW,
    CATEGORY_MEDIUM,
    MATRIX_MULT,
    TEMPLERUN,
    WorkloadPhase,
    WorkloadProgress,
    WorkloadTrace,
    benchmark_names,
    benchmarks_by_category,
    get_benchmark,
    table_6_4_rows,
)


def test_fifteen_benchmarks_as_in_table_6_4():
    assert len(ALL_BENCHMARKS) == 15
    names = benchmark_names()
    assert len(set(names)) == 15
    # the paper's headline benchmarks are present
    for name in (
        "blowfish", "sha", "dijkstra", "patricia", "basicmath",
        "matrix_mult", "bitcount", "qsort", "crc32", "gsm", "fft",
        "jpeg", "angry_birds", "templerun", "youtube",
    ):
        assert name in names


def test_table_6_4_category_assignments():
    assert get_benchmark("blowfish").category == CATEGORY_LOW
    assert get_benchmark("sha").category == CATEGORY_MEDIUM
    assert get_benchmark("dijkstra").category == CATEGORY_LOW
    assert get_benchmark("patricia").category == CATEGORY_MEDIUM
    assert get_benchmark("basicmath").category == CATEGORY_HIGH
    assert get_benchmark("matrix_mult").category == CATEGORY_HIGH
    assert get_benchmark("templerun").category == CATEGORY_HIGH
    assert get_benchmark("youtube").category == CATEGORY_LOW


def test_every_category_populated():
    for category in (CATEGORY_LOW, CATEGORY_MEDIUM, CATEGORY_HIGH):
        assert benchmarks_by_category(category)


def test_unknown_lookups_raise():
    with pytest.raises(WorkloadError):
        get_benchmark("doom")
    with pytest.raises(WorkloadError):
        benchmarks_by_category("extreme")


def test_table_rows_structure():
    rows = table_6_4_rows()
    assert len(rows) == 15
    assert rows[0] == ("security", "blowfish", "low")


def test_games_use_gpu_and_video_too():
    assert TEMPLERUN.uses_gpu
    assert get_benchmark("angry_birds").uses_gpu
    assert get_benchmark("youtube").uses_gpu
    assert not MATRIX_MULT.uses_gpu


def test_games_are_rate_limited():
    assert TEMPLERUN.thread_demand < 1.0
    assert MATRIX_MULT.thread_demand == 1.0


def test_matrix_mult_is_four_threaded():
    assert MATRIX_MULT.threads == 4


def test_nominal_durations_match_paper_traces():
    # the plotted run lengths of the paper's figures
    assert get_benchmark("dijkstra").nominal_duration_s() == pytest.approx(64, rel=0.05)
    assert MATRIX_MULT.nominal_duration_s() == pytest.approx(60, rel=0.05)
    assert TEMPLERUN.nominal_duration_s() == pytest.approx(100, rel=0.05)
    assert get_benchmark("basicmath").nominal_duration_s() == pytest.approx(140, rel=0.05)
    assert get_benchmark("patricia").nominal_duration_s() == pytest.approx(300, rel=0.05)


def test_phase_cycling():
    trace = get_benchmark("dijkstra")
    cycle = sum(p.duration_s for p in trace.phases)
    p0 = trace.phase_at(0.0)
    assert trace.phase_at(cycle) is p0  # wraps around
    assert trace.phase_at(cycle * 3 + 0.5) is p0


def test_phaseless_trace_returns_neutral_phase():
    trace = get_benchmark("sha")
    phase = trace.phase_at(12.0)
    assert phase.demand == 1.0 and phase.gpu == 1.0


def test_progress_accounting():
    progress = WorkloadProgress(MATRIX_MULT)
    assert not progress.done
    assert progress.fraction_done == 0.0
    half = MATRIX_MULT.total_work_gcycles / 2
    progress.retire(half, 30.0)
    assert progress.fraction_done == pytest.approx(0.5)
    progress.retire(half, 30.0)
    assert progress.done
    assert progress.elapsed_s == pytest.approx(60.0)


def test_progress_rejects_negative(rng):
    progress = WorkloadProgress(MATRIX_MULT)
    with pytest.raises(WorkloadError):
        progress.retire(-1.0, 0.1)


def test_trace_validation():
    with pytest.raises(WorkloadError):
        WorkloadTrace(
            name="bad", category="nope", benchmark_type="x",
            threads=1, total_work_gcycles=10.0,
        )
    with pytest.raises(WorkloadError):
        WorkloadTrace(
            name="bad", category="low", benchmark_type="x",
            threads=0, total_work_gcycles=10.0,
        )
    with pytest.raises(WorkloadError):
        WorkloadTrace(
            name="bad", category="low", benchmark_type="x",
            threads=1, total_work_gcycles=10.0, thread_demand=0.0,
        )
    with pytest.raises(WorkloadError):
        WorkloadPhase(duration_s=0.0)


@pytest.mark.parametrize(
    "field", ["activity", "gpu_activity", "mem_traffic", "demand_jitter"]
)
def test_trace_rejects_negative_load_factors(field):
    import dataclasses

    from repro.workloads import synthesize

    app = synthesize("medium", 5.0, threads=2, seed=1)
    # zero is a valid value; only a negative one is refused
    dataclasses.replace(app, **{field: 0.0})
    with pytest.raises(WorkloadError, match=field):
        dataclasses.replace(app, **{field: -1.0})
