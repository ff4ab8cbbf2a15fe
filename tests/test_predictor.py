"""ThermalPredictor: forecasts and violation flagging."""

import numpy as np
import pytest

from repro.core.predictor import ThermalPredictor
from repro.errors import ModelError
from repro.thermal.state_space import DiscreteThermalModel
from repro.units import celsius_to_kelvin as c2k


@pytest.fixture()
def model():
    # equilibrium ~= 25 C + 20 K/W * (row . P): realistic headroom shape
    return DiscreteThermalModel(
        a=0.95 * np.eye(4),
        b=np.tile(np.array([0.9, 0.15, 0.3, 0.24]), (4, 1)),
        offset=np.full(4, 0.05 * c2k(25.0)),
        ts_s=0.1,
    )


def test_forecast_matches_model(model):
    predictor = ThermalPredictor(model, horizon_steps=10)
    temps = np.full(4, c2k(50.0))
    powers = np.array([2.0, 0.0, 0.2, 0.3])
    fc = predictor.forecast(temps, powers, c2k(63.0))
    assert np.allclose(fc.temps_k, model.predict_n_constant(temps, powers, 10))
    assert fc.max_temp_k == pytest.approx(fc.temps_k.max())
    assert fc.hottest_core == int(np.argmax(fc.temps_k))


def test_violation_flag_and_margin(model):
    predictor = ThermalPredictor(model, horizon_steps=10)
    cool = predictor.forecast(
        np.full(4, c2k(40.0)), np.zeros(4), c2k(63.0)
    )
    assert not cool.violation
    assert cool.margin_k > 0
    hot = predictor.forecast(
        np.full(4, c2k(64.0)), np.array([3.0, 0.0, 0.5, 0.4]), c2k(63.0)
    )
    assert hot.violation
    assert hot.margin_k < 0


def test_guard_band_triggers_early(model):
    temps = np.full(4, c2k(60.0))
    powers = np.array([2.0, 0.0, 0.2, 0.3])
    tight = ThermalPredictor(model, horizon_steps=10, guard_band_k=0.0)
    fc = tight.forecast(temps, powers, c2k(63.0))
    if not fc.violation:
        # a guard band as large as the margin must flip the decision
        guarded = ThermalPredictor(
            model, horizon_steps=10, guard_band_k=fc.margin_k + 0.01
        )
        assert guarded.forecast(temps, powers, c2k(63.0)).violation


def test_horizon_seconds(model):
    predictor = ThermalPredictor(model, horizon_steps=10)
    assert predictor.horizon_s == pytest.approx(1.0)


def test_forecast_trajectory(model):
    predictor = ThermalPredictor(model, horizon_steps=5)
    traj = np.tile(np.array([1.0, 0.0, 0.1, 0.2]), (5, 1))
    preds = predictor.forecast_trajectory(np.full(4, c2k(50.0)), traj)
    assert preds.shape == (5, 4)


def test_parameter_validation(model):
    with pytest.raises(ModelError):
        ThermalPredictor(model, horizon_steps=0)
    with pytest.raises(ModelError):
        ThermalPredictor(model, horizon_steps=10, guard_band_k=-1.0)


def test_stacked_forecast_matches_each_lane(model):
    """ThermalPredictor.stack forecasts B lanes -- each with its own model,
    horizon and guard band -- exactly as each lane's own predictor."""
    other = DiscreteThermalModel(
        a=0.9 * np.eye(4) + 0.01, b=np.full((4, 4), 0.2),
        offset=np.full(4, 0.05 * c2k(25.0)), ts_s=0.1,
    )
    predictors = [
        ThermalPredictor(model, horizon_steps=10, guard_band_k=0.75),
        ThermalPredictor(other, horizon_steps=4, guard_band_k=0.0),
        ThermalPredictor(model, horizon_steps=1, guard_band_k=2.0),
    ]
    stacked = ThermalPredictor.stack(predictors)
    rng = np.random.default_rng(3)
    temps = c2k(45.0 + 20.0 * rng.random((3, 4)))
    powers = 3.0 * rng.random((3, 4))
    limits = c2k(np.array([63.0, 60.0, 66.0]))
    many = stacked.forecast(temps, powers, limits)
    for lane, predictor in enumerate(predictors):
        one = predictor.forecast(temps[lane], powers[lane], limits[lane])
        row = many.lanes()[lane]
        assert np.array_equal(one.temps_k, row.temps_k)
        assert (one.max_temp_k, one.hottest_core, one.violation, one.margin_k) \
            == (row.max_temp_k, row.hottest_core, row.violation, row.margin_k)
    assert list(many.violation) != [many.violation[0]] * 3  # lanes differ
