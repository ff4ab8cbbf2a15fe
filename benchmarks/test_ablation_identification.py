"""Ablation: identification method (joint LS vs staged vs structured).

The budget equation targets the hottest core; how well each estimator
captures a hot core's persistence decides the regulation overshoot under
core-imbalanced workloads.  This ablation identifies three models from the
*same* PRBS campaign and runs the imbalanced Basicmath workload (2 busy
cores + background) under each.
"""

from conftest import save_artifact

from repro.analysis.tables import render_table
from repro.config import SimulationConfig
from repro.power.characterization import default_power_model
from repro.runner import model_fingerprint
from repro.sim.engine import Simulator, ThermalMode
from repro.sim.experiment import make_dtpm_governor
from repro.sim.models import ModelBundle, identify_thermal
from repro.thermal.sysid import PrbsExperiment
from repro.workloads.benchmarks import BASICMATH


def _ablation(methods):
    sessions = PrbsExperiment().run_all()
    results = {}
    for method in methods:
        bundle = ModelBundle(
            thermal=identify_thermal(sessions, method),
            power=default_power_model(),
        )
        sim = Simulator(
            BASICMATH,
            ThermalMode.DTPM,
            dtpm=make_dtpm_governor(bundle),
            warm_start_c=52.0,
        )
        results[method] = (bundle, sim.run())
    return results


def test_ablation_identification(benchmark, models):
    methods = ("joint", "staged", "structured")
    results = benchmark.pedantic(
        lambda: _ablation(methods), rounds=1, iterations=1
    )
    constraint = SimulationConfig().t_constraint_c
    table = render_table(
        ["method", "rho(A)", "peak (C)", "overshoot (C)", "time (s)"],
        [
            [
                method,
                "%.4f" % bundle.thermal.spectral_radius(),
                "%.1f" % run.peak_temp_c(),
                "%.1f" % run.constraint_exceedance_c(constraint),
                "%.1f" % run.execution_time_s,
            ]
            for method, (bundle, run) in results.items()
        ],
        title="Ablation: identification method (Basicmath)",
    )
    save_artifact("ablation_identification.txt", table)
    print("\n" + table)

    for method, (bundle, run) in results.items():
        assert bundle.thermal.is_stable(), method
        assert run.completed, method
    # the one campaign is the one build_models() runs
    assert model_fingerprint(results["structured"][0]) == model_fingerprint(
        models
    )
    # the structured estimator's hot-core persistence buys the tightest
    # regulation on this imbalanced workload
    structured = results["structured"][1]
    joint = results["joint"][1]
    assert structured.constraint_exceedance_c(constraint) <= (
        joint.constraint_exceedance_c(constraint) + 0.3
    )
    assert structured.constraint_exceedance_c(constraint) < 3.0
