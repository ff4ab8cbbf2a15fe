"""The experiment runner: matrix expansion, determinism, fan-out."""

import os
import time

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.runner import (
    ExperimentMatrix,
    ParallelRunner,
    ResultCache,
    RunSpec,
    execute_schedule,
    execute_spec,
    result_bytes,
    spec_key,
)
from repro.sim.engine import ThermalMode
from repro.sim.scenario import ScenarioRunner
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.generator import synthesize


@pytest.fixture(scope="module")
def workload():
    return synthesize("high", 18.0, threads=4, seed=6)


@pytest.fixture(scope="module")
def second_workload():
    return synthesize("medium", 14.0, threads=2, seed=7)


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------
def test_spec_validation(workload):
    with pytest.raises(ConfigurationError):
        RunSpec(workload="dijkstra", mode=ThermalMode.DTPM)  # not a trace
    with pytest.raises(ConfigurationError):
        RunSpec(workload=workload, mode="dtpm")
    with pytest.raises(ConfigurationError):
        # guard band is a DTPM-only knob
        RunSpec(
            workload=workload,
            mode=ThermalMode.DEFAULT_WITH_FAN,
            guard_band_k=0.5,
        )
    with pytest.raises(ConfigurationError):
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN, max_duration_s=0)
    with pytest.raises(ConfigurationError, match="seed"):
        # numpy's generators take no negative seed: refused up front
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=-1)
    RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=0)


def test_spec_for_benchmark_resolves_names():
    spec = RunSpec.for_benchmark("dijkstra", ThermalMode.NO_FAN)
    assert spec.workload is get_benchmark("dijkstra")
    assert "dijkstra/without_fan" in spec.describe()


# ---------------------------------------------------------------------------
# ExperimentMatrix
# ---------------------------------------------------------------------------
def test_matrix_expansion_order_and_seeds(workload):
    configs = (SimulationConfig(), SimulationConfig(t_constraint_c=60.0))
    matrix = ExperimentMatrix(
        workloads=(workload, "dijkstra"),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
        configs=configs,
        base_seed=500,
    )
    specs = matrix.specs()
    assert len(matrix) == len(specs) == 8
    # workload-major, then mode, then config; seeds count up in that order
    assert [s.seed for s in specs] == list(range(500, 508))
    assert specs[0].workload is workload and specs[-1].workload.name == "dijkstra"
    assert specs[0].mode is ThermalMode.DEFAULT_WITH_FAN
    assert specs[1].config.t_constraint_c == 60.0
    # expansion is deterministic
    assert specs == matrix.specs()


def test_matrix_without_base_seed_leaves_config_seed(workload):
    matrix = ExperimentMatrix(workloads=(workload,))
    assert all(s.seed is None for s in matrix)


def test_matrix_rejects_empty_axes(workload):
    with pytest.raises(ConfigurationError):
        ExperimentMatrix(workloads=())
    with pytest.raises(ConfigurationError):
        ExperimentMatrix(workloads=(workload,), modes=())
    with pytest.raises(ConfigurationError):
        # guard bands on a non-DTPM axis make no sense
        ExperimentMatrix(
            workloads=(workload,),
            modes=(ThermalMode.NO_FAN,),
            guard_bands_k=(0.5,),
        )
    with pytest.raises(ConfigurationError, match="base_seed"):
        ExperimentMatrix(workloads=(workload,), base_seed=-3)


# ---------------------------------------------------------------------------
# spec_key
# ---------------------------------------------------------------------------
def test_spec_key_stable_and_discriminating(workload, models):
    a = RunSpec(workload=workload, mode=ThermalMode.NO_FAN)
    assert spec_key(a) == spec_key(a)
    # execution-relevant changes move the key
    b = RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=1)
    c = RunSpec(
        workload=workload,
        mode=ThermalMode.NO_FAN,
        config=SimulationConfig(t_constraint_c=60.0),
    )
    assert len({spec_key(a), spec_key(b), spec_key(c)}) == 3
    # baseline runs ignore the models; DTPM runs fold the fingerprint in
    assert spec_key(a, models) == spec_key(a, None)
    d = RunSpec(workload=workload, mode=ThermalMode.DTPM)
    assert spec_key(d, models) != spec_key(d, None)


# ---------------------------------------------------------------------------
# ParallelRunner
# ---------------------------------------------------------------------------
def test_serial_and_parallel_results_byte_identical(workload):
    matrix = ExperimentMatrix(
        workloads=(workload,),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
        configs=(SimulationConfig(), SimulationConfig(ambient_c=28.0)),
        base_seed=9,
    )
    serial = ParallelRunner(workers=1).run(matrix)
    parallel = ParallelRunner(workers=2).run(matrix)
    assert [result_bytes(r) for r in serial] == [
        result_bytes(r) for r in parallel
    ]
    assert [r.benchmark for r in serial] == [
        s.workload.name for s in matrix.specs()
    ]


def test_parallel_dtpm_matches_serial(workload, models):
    # warm-start near the constraint so the controller actually intervenes
    specs = [
        RunSpec(workload=workload, mode=ThermalMode.DTPM, warm_start_c=58.0),
        RunSpec(
            workload=workload,
            mode=ThermalMode.DTPM,
            warm_start_c=58.0,
            guard_band_k=3.0,
        ),
    ]
    serial = ParallelRunner(workers=1, models=models).run(specs)
    parallel = ParallelRunner(workers=2, models=models).run(specs)
    assert [result_bytes(r) for r in serial] == [
        result_bytes(r) for r in parallel
    ]
    # the guard band is actually honoured (different controller behaviour)
    assert result_bytes(serial[0]) != result_bytes(serial[1])


def test_second_invocation_executes_nothing(tmp_path, workload):
    matrix = ExperimentMatrix(
        workloads=(workload,),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
    )
    first = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
    res1 = first.run(matrix)
    assert first.last_stats.executed == 2
    assert first.last_stats.cache_hits == 0

    # fresh runner, fresh process-independent cache view: zero executions
    second = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
    res2 = second.run(matrix)
    assert second.last_stats.executed == 0
    assert second.last_stats.cache_hits == 2
    assert [result_bytes(r) for r in res1] == [result_bytes(r) for r in res2]


def test_runner_rejects_bad_inputs(workload):
    with pytest.raises(ConfigurationError):
        ParallelRunner(workers=0)
    with pytest.raises(ConfigurationError):
        ParallelRunner().run([workload])  # not a RunSpec


def test_run_one_equals_execute_spec(workload):
    spec = RunSpec(workload=workload, mode=ThermalMode.NO_FAN)
    assert result_bytes(ParallelRunner().run_one(spec)) == result_bytes(
        execute_spec(spec)
    )


# ---------------------------------------------------------------------------
# scenario schedules through the runner
# ---------------------------------------------------------------------------
def test_schedule_spec_validation(workload, second_workload):
    with pytest.raises(ConfigurationError):
        RunSpec(
            workload=workload, mode=ThermalMode.NO_FAN, idle_gap_s=5.0
        )  # idle gap without a history
    with pytest.raises(ConfigurationError):
        RunSpec(
            workload=workload,
            mode=ThermalMode.NO_FAN,
            history=("dijkstra",),  # not resolved to a trace
        )
    spec = RunSpec(
        workload=second_workload,
        mode=ThermalMode.NO_FAN,
        history=(workload,),
        idle_gap_s=3.0,
    )
    assert spec.schedule == (workload, second_workload)
    assert "after" in spec.describe() and "gap=3s" in spec.describe()


def test_chain_positions(workload, second_workload):
    spec = RunSpec(
        workload=second_workload,
        mode=ThermalMode.NO_FAN,
        history=(workload,),
        idle_gap_s=2.0,
        seed=42,
    )
    first, last = spec.chain()
    assert last == spec
    assert first.workload is workload and first.history == ()
    assert first.idle_gap_s == 0.0  # no gap before the first run
    assert first.seed == 42  # positions share the scenario base seed
    # a plain spec is its own 1-element chain and keeps its key
    plain = RunSpec(workload=workload, mode=ThermalMode.NO_FAN)
    assert plain.chain() == [plain]


def test_schedule_key_stability(workload):
    """Adding the scenario fields must not move pre-existing cache keys."""
    from repro.runner import canonical_json

    plain = RunSpec(workload=workload, mode=ThermalMode.NO_FAN)
    rendered = canonical_json(plain)
    assert "history" not in rendered and "idle_gap_s" not in rendered
    scheduled = RunSpec(
        workload=workload,
        mode=ThermalMode.NO_FAN,
        history=(workload,),
    )
    assert spec_key(scheduled) != spec_key(plain)


def test_matrix_schedules_axis(workload, second_workload):
    matrix = ExperimentMatrix(
        workloads=(workload,),
        modes=(ThermalMode.NO_FAN,),
        schedules=((workload, second_workload),),
        idle_gap_s=4.0,
        base_seed=100,
    )
    specs = matrix.specs()
    assert len(matrix) == len(specs) == 3  # 1 plain + 2 schedule positions
    plain, pos0, pos1 = specs
    assert plain.history == () and plain.seed == 100
    assert pos0.history == () and pos0.idle_gap_s == 0.0
    assert pos1.history == (workload,) and pos1.idle_gap_s == 4.0
    # the whole schedule is one experiment: both positions share one seed
    assert pos0.seed == pos1.seed == 101
    with pytest.raises(ConfigurationError):
        ExperimentMatrix(modes=(ThermalMode.NO_FAN,))  # no workloads at all
    with pytest.raises(ConfigurationError):
        ExperimentMatrix(schedules=((),))


def test_execute_schedule_matches_scenario_runner(workload, second_workload):
    spec = RunSpec(
        workload=second_workload,
        mode=ThermalMode.NO_FAN,
        warm_start_c=40.0,
        history=(workload,),
    )
    chain_results = execute_schedule(spec)
    direct = ScenarioRunner(
        ThermalMode.NO_FAN, initial_temp_c=40.0, annotate=False
    ).run([workload, second_workload])
    assert [result_bytes(r) for r in chain_results] == [
        result_bytes(r) for r in direct
    ]
    # execute_spec returns the final position
    assert result_bytes(execute_spec(spec)) == result_bytes(chain_results[-1])
    # the carried thermal state is visible: position 1 starts hotter
    assert (
        chain_results[1].max_temps_c()[0]
        > chain_results[0].max_temps_c()[0] + 3.0
    )


def test_runner_harvests_chain_positions(tmp_path, workload, second_workload):
    """One schedule through the matrix: every position cached, no rework."""
    matrix = ExperimentMatrix(
        workloads=(),
        modes=(ThermalMode.NO_FAN,),
        schedules=((workload, second_workload),),
        warm_start_c=40.0,
    )
    runner = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
    results = runner.run(matrix)
    assert len(results) == 2
    assert runner.last_stats.executed == 2
    # position 0 is byte-identical to the plain spec executed standalone
    plain = RunSpec(
        workload=workload, mode=ThermalMode.NO_FAN, warm_start_c=40.0
    )
    assert result_bytes(results[0]) == result_bytes(execute_spec(plain))
    # a fresh runner over the same directory answers everything from disk,
    # including the plain spec harvested from the schedule's chain
    warm = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
    warm_results = warm.run(matrix)
    assert warm.last_stats.executed == 0
    assert warm.last_stats.cache_hits == 2
    assert [result_bytes(r) for r in warm_results] == [
        result_bytes(r) for r in results
    ]
    assert warm.run_one(plain) is not None
    assert warm.last_stats.cache_hits == 1 and warm.last_stats.executed == 0


def test_schedules_serial_equals_parallel(workload, second_workload):
    specs = [
        RunSpec(
            workload=second_workload,
            mode=ThermalMode.NO_FAN,
            warm_start_c=40.0,
            history=(workload,),
        ),
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN, warm_start_c=40.0),
    ]
    serial = ParallelRunner(workers=1).run(specs)
    parallel = ParallelRunner(workers=2).run(specs)
    assert [result_bytes(r) for r in serial] == [
        result_bytes(r) for r in parallel
    ]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(
    _usable_cpus() < 4,
    reason="needs >= 4 CPUs for a meaningful wall-clock comparison",
)
def test_parallel_beats_serial_wall_clock(workload):
    # the acceptance bar: 4 workers beat serial on an 8-point sweep
    matrix = ExperimentMatrix(
        workloads=(workload,),
        modes=(ThermalMode.NO_FAN,),
        configs=tuple(
            SimulationConfig(ambient_c=20.0 + i) for i in range(8)
        ),
    )
    t0 = time.perf_counter()
    serial = ParallelRunner(workers=1).run(matrix)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = ParallelRunner(workers=4).run(matrix)
    t_parallel = time.perf_counter() - t0
    assert [result_bytes(r) for r in serial] == [
        result_bytes(r) for r in parallel
    ]
    assert t_parallel < t_serial
