"""The engine's per-interval ViolationCounter against the recorded trace."""

from repro.sim.consumers import ViolationCounter
from repro.sim.engine import Simulator, ThermalMode
from repro.workloads.generator import synthesize


def test_violation_counter_matches_result_fields(models):
    from repro.sim.experiment import make_dtpm_governor

    workload = synthesize("high", 20.0, threads=4, seed=11)
    result = Simulator(
        workload,
        ThermalMode.DTPM,
        dtpm=make_dtpm_governor(models),
        warm_start_c=58.0,
        max_duration_s=120.0,
    ).run()
    assert result.interventions > 0  # warm start near the constraint

    # A fresh counter fed the recorded rows, as the engine feeds its own
    # counter each interval, reproduces the result's counts.
    trace = result.trace
    columns = {name: trace.column(name) for name in trace.columns}
    counter = ViolationCounter()
    for i in range(len(trace)):
        counter.on_interval({name: col[i] for name, col in columns.items()})
    assert counter.interventions == result.interventions
    assert counter.violations == result.violations_predicted
    assert counter.interventions == int(trace.column("intervened").sum())
