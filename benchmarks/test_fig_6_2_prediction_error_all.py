"""Fig. 6.2: 1-second temperature prediction error for all 15 benchmarks.

Every benchmark is run (without fan, so temperatures roam) while the
identified model predicts T[k+10] at each interval.  The paper's claim:
the average error is below 3 % (~1 degC) and never exceeds 4 % (~1.4 degC)
on any benchmark.
"""

import numpy as np
from conftest import save_artifact

from repro.analysis.figures import ascii_bars
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.thermal.validation import prediction_error_report
from repro.workloads.benchmarks import ALL_BENCHMARKS


def _error_of(result, models):
    temps = np.stack(
        [result.trace.column("temp%d_c" % i) for i in range(4)], axis=1
    ) + 273.15
    powers = np.stack(
        [
            result.trace.column("p_big_w"),
            result.trace.column("p_little_w"),
            result.trace.column("p_gpu_w"),
            result.trace.column("p_mem_w"),
        ],
        axis=1,
    )
    return prediction_error_report(models.thermal, temps, powers, 10)


def _reports(models):
    # the 15 runs share one plant shape, so they lock-step as one batch
    # (lane-for-lane byte-identical to running them one by one)
    sims = [
        Simulator(wl, ThermalMode.NO_FAN, max_duration_s=200.0)
        for wl in ALL_BENCHMARKS
    ]
    results = BatchSimulator(sims).run()
    return {
        wl.name: _error_of(result, models)
        for wl, result in zip(ALL_BENCHMARKS, results)
    }


def test_fig_6_2(models, benchmark):
    reports = benchmark.pedantic(
        lambda: _reports(models),
        rounds=1,
        iterations=1,
    )
    bars = ascii_bars(
        {name: rep.mean_pct for name, rep in reports.items()},
        title="Fig 6.2: Temperature prediction error (1 s), all benchmarks",
        unit="%",
    )
    save_artifact("fig_6_2_prediction_error_all.txt", bars)
    print("\n" + bars)
    for name, rep in reports.items():
        print("  %-12s %s" % (name, rep))

    mean_pcts = [rep.mean_pct for rep in reports.values()]
    mean_cs = [rep.mean_abs_c for rep in reports.values()]
    # average error < 3 % across the suite, and no benchmark exceeds 4 %
    assert float(np.mean(mean_pcts)) < 3.0
    assert max(mean_pcts) < 4.0
    # the ~1 degC / ~1.4 degC absolute anchors
    assert float(np.mean(mean_cs)) < 1.2
    assert max(mean_cs) < 1.8
