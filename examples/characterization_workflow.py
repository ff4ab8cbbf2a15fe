"""The full Chapter-4 modeling workflow, step by step.

1. Furnace leakage characterization (Section 4.1.1, Figs. 4.1-4.3):
   sweep the ambient 40->80 degC under a light fixed-frequency workload and
   fit I_leak(T) = c1 T^2 exp(c2/T) for every power resource.
2. PRBS system identification (Section 4.2.1, Fig. 4.8): excite each
   resource's power with a pseudo-random binary sequence and estimate the
   discrete thermal model T[k+1] = A T[k] + B P[k] + d.
3. Validation (Section 4.2.2, Figs. 4.9-4.10): predict 1 s ahead during a
   benchmark run and compare against the sensors.

Run with::

    python examples/characterization_workflow.py
"""

import numpy as np

from repro import (
    FurnaceRig,
    PrbsExperiment,
    Resource,
    Simulator,
    SystemIdentifier,
    ThermalMode,
)
from repro.thermal.validation import error_vs_horizon
from repro.units import celsius_to_kelvin
from repro.workloads.benchmarks import BLOWFISH


def furnace_step():
    print("=" * 70)
    print("Step 1: furnace leakage characterization (40 -> 80 degC)")
    rig = FurnaceRig(soak_s=60.0, measure_s=30.0)
    result = rig.characterize()
    for point in result.points_big_session:
        print(
            "  setpoint %2.0f degC: junction %5.1f degC, P_big %.3f W"
            % (
                point.setpoint_c,
                point.junction_temp_k - 273.15,
                point.powers_w[0],
            )
        )
    models = result.leakage_models()
    big = models[Resource.BIG]
    vdd = rig.spec.big_opp.voltage(rig.spec.big_opp.f_min_hz)
    print("  fitted big-cluster leakage (at Vdd=%.2f V):" % vdd)
    for t_c in (40, 60, 80):
        print(
            "    %d degC -> %.3f W"
            % (t_c, big.power_w(celsius_to_kelvin(t_c), vdd))
        )
    return rig, models


def sysid_step():
    print("=" * 70)
    print("Step 2: PRBS excitation + system identification")
    # the four sessions run as one lock-step on the batched plant: about
    # the cost of one session run alone
    sessions = PrbsExperiment(duration_s=1050.0).run_all()
    for j, session in enumerate(sessions):
        print(
            "  %s session: %d samples, P in [%.2f, %.2f] W"
            % (
                session.resource,
                session.steps,
                session.powers_w[:, j].min(),
                session.powers_w[:, j].max(),
            )
        )
    model = SystemIdentifier().identify_structured(sessions)
    print("  identified A (4x4):")
    for row in model.a:
        print("    " + "  ".join("%6.3f" % v for v in row))
    print("  spectral radius: %.4f (stable)" % model.spectral_radius())
    return model


def validation_step(model):
    print("=" * 70)
    print("Step 3: prediction validation on Blowfish (no fan)")
    sim = Simulator(BLOWFISH, ThermalMode.NO_FAN, max_duration_s=200.0)
    result = sim.run()
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
    for horizon, report in error_vs_horizon(
        model, temps, powers, [10, 30, 50]
    ).items():
        print("  " + str(report))


def main() -> None:
    furnace_step()
    model = sysid_step()
    validation_step(model)


if __name__ == "__main__":
    main()
