"""Fig. 4.7: power model validation -- predicted vs measured total power.

The run-time model (fitted leakage + tracked alpha*C) predicts the big
cluster's total power across a temperature sweep; the prediction is
compared against the (noisy) sensor measurements from the plant.  The
paper's figure shows the two curves lying on top of each other.
"""

import numpy as np
from conftest import save_artifact

from repro.analysis.figures import ascii_timeseries
from repro.config import SimulationConfig
from repro.platform.board import OdroidBoard
from repro.platform.specs import BIG_OPP_TABLE, Resource
from repro.platform.state import BatchPlant
from repro.power.characterization import default_power_model


def _sweep():
    """Drive the plant across 40-80 degC, predicting power along the way."""
    pm = default_power_model()
    big = pm[Resource.BIG]
    measured, predicted, temps_c = [], [], []
    f = 1.3e9
    vdd = BIG_OPP_TABLE.voltage(f)
    for ambient in (40.0, 50.0, 60.0, 70.0, 80.0):
        config = SimulationConfig(ambient_c=ambient)
        board = OdroidBoard(config=config, fan_enabled=False)
        board.network.set_uniform_temperature_k(config.ambient_k)
        board.soc.big.set_frequency(f)
        board.soc.gpu.set_utilisation(0.05)
        board.soc.mem.set_traffic(0.2)
        plant = BatchPlant([board])
        state = plant.gather([0])
        utils, idle, one = np.array([(0.6, 0.2, 0.2, 0.2)]), np.zeros((1, 4)), np.ones(1)
        samples = []
        for step in range(600):
            plant.advance_interval(state, [0], utils, idle, one, one, dt_s=0.1, substeps=1)
            temps_k, powers_w = board.sensors.read_all(
                plant.hotspots_k(state)[0], state.powers_w[0]
            )
            if step >= 300:
                samples.append((float(np.mean(temps_k)), powers_w[0]))
                big.observe(powers_w[0], samples[-1][0], vdd, f)
        t_mean = float(np.mean([s[0] for s in samples]))
        p_meas = float(np.mean([s[1] for s in samples]))
        measured.append(p_meas)
        predicted.append(big.predict_total_w(f, t_mean))
        temps_c.append(t_mean - 273.15)
    return temps_c, measured, predicted


def test_fig_4_7(benchmark):
    temps_c, measured, predicted = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    figure = ascii_timeseries(
        {
            "measured": (temps_c, measured),
            "predicted": (temps_c, predicted),
        },
        title="Fig 4.7: Power model validation (big cluster total power)",
        y_label="W",
    )
    save_artifact("fig_4_7_power_validation.txt", figure)
    print("\n" + figure)
    for t, m, p in zip(temps_c, measured, predicted):
        print("  T=%5.1f degC  measured %.3f W  predicted %.3f W" % (t, m, p))

    # predicted tracks measured within a few percent at every setpoint
    for m, p in zip(measured, predicted):
        assert abs(p - m) / m < 0.06
    # and both curves rise with temperature (the leakage component)
    assert all(b > a for a, b in zip(measured, measured[1:]))
    assert all(b > a for a, b in zip(predicted, predicted[1:]))
