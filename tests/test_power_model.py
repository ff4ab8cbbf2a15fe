"""Combined power model (ResourcePowerModel / PowerModel / OperatingPoint)."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.platform.specs import BIG_OPP_TABLE, POWER_RESOURCES, Resource
from repro.power.characterization import default_power_model
from repro.power.leakage import LeakageModel
from repro.power.model import OperatingPoint, PowerModel, ResourcePowerModel
from repro.units import celsius_to_kelvin as c2k


@pytest.fixture()
def big_model():
    leak = LeakageModel(c1=7.7e-3, c2=-2900.0, i_gate=0.010)
    return ResourcePowerModel(Resource.BIG, leak, BIG_OPP_TABLE)


def test_observe_updates_alpha_c(big_model):
    t, f = c2k(55), 1.6e9
    vdd = BIG_OPP_TABLE.voltage(f)
    total = 2.0 + big_model.leakage.power_w(t, vdd)
    decomp = big_model.observe(total, t, vdd, f)
    assert decomp.dynamic_w == pytest.approx(2.0)
    assert decomp.leakage_w == pytest.approx(total - 2.0)
    assert big_model.dynamic.estimator.sample_count == 1


def test_predict_total_roundtrip(big_model):
    t, f = c2k(55), 1.6e9
    vdd = BIG_OPP_TABLE.voltage(f)
    total = 2.0 + big_model.leakage.power_w(t, vdd)
    big_model.observe(total, t, vdd, f)
    assert big_model.predict_total_w(f, t) == pytest.approx(total, rel=1e-6)


def test_predict_uses_opp_voltage(big_model):
    t = c2k(55)
    big_model.observe(1.0, t, 1.25, 1.6e9)
    p_low = big_model.predict_total_w(8e8, t)
    p_high = big_model.predict_total_w(1.6e9, t)
    assert p_high > p_low


def test_predict_requires_vdd_without_table():
    leak = LeakageModel(c1=1e-3, c2=-2900.0, i_gate=0.004)
    model = ResourcePowerModel(Resource.MEM, leak, opp_table=None)
    with pytest.raises(ModelError):
        model.predict_total_w(1.0, c2k(50))
    assert model.predict_total_w(1.0, c2k(50), vdd=1.2) > 0


def test_power_model_requires_all_resources():
    leak = LeakageModel(c1=1e-3, c2=-2900.0, i_gate=0.004)
    with pytest.raises(NotFittedError):
        PowerModel({Resource.BIG: ResourcePowerModel(Resource.BIG, leak)})


def test_observe_vector_skips_gated_resources():
    pm = default_power_model()
    powers = np.array([2.0, 0.01, 0.2, 0.3])
    pm.observe_vector(
        powers,
        c2k(55),
        vdd=np.array([1.25, 1.0, 0.9, 1.2]),
        frequency_hz=np.array([1.6e9, 1.0e9, 1.77e8, 1.0]),
        active=np.array([True, False, True, True]),  # little is gated
    )
    counts = [pm[r].dynamic.estimator.sample_count for r in POWER_RESOURCES]
    assert counts == [1, 0, 1, 1]


def test_observe_vector_matches_resource_observe():
    """The stacked update is ResourcePowerModel.observe, lane for lane."""
    scalar = [default_power_model() for _ in range(3)]
    stacked = [default_power_model() for _ in range(3)]
    model = PowerModel.stack(stacked)
    rng = np.random.default_rng(5)
    for step in range(40):
        powers = 3.0 * rng.random((3, 4))
        temps = c2k(40.0 + 30.0 * rng.random(3))
        vdd = 0.9 + 0.35 * rng.random((3, 4))
        freq = np.column_stack([1e9 * (0.5 + rng.random((3, 3))), np.ones(3)])
        active = rng.random((3, 4)) < 0.8
        model.observe_vector(powers, temps, vdd, freq, active)
        for lane, pm in enumerate(scalar):
            for i, resource in enumerate(POWER_RESOURCES):
                if active[lane, i]:
                    pm[resource].observe(
                        float(powers[lane, i]),
                        float(temps[lane]),
                        float(vdd[lane, i]),
                        float(freq[lane, i]),
                    )
    for one, many in zip(scalar, stacked):
        for resource in POWER_RESOURCES:
            a = one[resource].dynamic.estimator
            b = many[resource].dynamic.estimator
            assert a.alpha_c_f == b.alpha_c_f
            assert a.sample_count == b.sample_count


def test_leakage_vector_layout():
    pm = default_power_model()
    op = OperatingPoint(
        big=(1.25, 1.6e9), little=None, gpu=(0.9, 1.77e8), mem=(1.2, 1.0)
    )
    leaks = pm.leakage_vector_w(c2k(60), op)
    assert leaks.shape == (len(POWER_RESOURCES),)
    assert leaks[0] > 0 and leaks[2] > 0 and leaks[3] > 0
    assert leaks[1] == 0.0  # gated little contributes nothing


def test_operating_point_lookup():
    op = OperatingPoint(big=(1.0, 1e9), little=None, gpu=(0.9, 2e8), mem=(1.2, 1.0))
    assert op.for_resource(Resource.BIG) == (1.0, 1e9)
    assert op.for_resource(Resource.LITTLE) is None
