"""Furnace characterization: the full Section 4.1.1 procedure end to end.

These tests run the simulated furnace against the board's ground truth and
verify that what the procedure recovers matches what the silicon actually
does -- without ever reading the hidden constants directly.
"""

import numpy as np
import pytest
from scalar_board import ScalarBoard

from repro.errors import ModelError
from repro.platform.board import OdroidBoard
from repro.platform.specs import LEAKAGE_SPECS, Resource
from repro.power.characterization import (
    DEFAULT_SETPOINTS_C,
    FurnaceRig,
    default_leakage_models,
    default_power_model,
)
from repro.units import celsius_to_kelvin as c2k


#: ``(c1, c2, i_gate, p_dynamic_w)`` the module fixture's rig fits, per
#: resource; any change to the furnace's plant path moves them.
PINNED_FITS = {
    Resource.BIG: (
        0.007750903724014013, -2902.543278074226, 0.0, 0.0851554446470569
    ),
    Resource.LITTLE: (
        0.0021307733920003804, -2937.006573192619, 0.0, 0.016711776960526392
    ),
    Resource.GPU: (
        0.00448979353003703, -2907.0182131656484, 0.0, 0.04849527499473886
    ),
    Resource.MEM: (
        0.0019884890929251116, -2866.5238814942027, 0.0, 0.04963889028990872
    ),
}


@pytest.fixture(scope="module")
def characterization():
    rig = FurnaceRig(soak_s=60.0, measure_s=30.0)
    return rig, rig.characterize()


def test_fits_are_pinned(characterization):
    _, result = characterization
    assert set(result.fits) == set(PINNED_FITS)
    for resource, fit in result.fits.items():
        assert (fit.c1, fit.c2, fit.i_gate, fit.p_dynamic_w) == (
            PINNED_FITS[resource]
        ), resource


def test_furnace_covers_paper_setpoints():
    assert DEFAULT_SETPOINTS_C == (40.0, 50.0, 60.0, 70.0, 80.0)


def test_total_power_rises_with_furnace_temperature(characterization):
    _, result = characterization
    big_powers = [p.powers_w[0] for p in result.points_big_session]
    assert all(b > a for a, b in zip(big_powers, big_powers[1:]))


def test_junction_tracks_setpoint(characterization):
    _, result = characterization
    for point in result.points_big_session:
        # light workload: small self-heating above the furnace setpoint
        assert 0.0 < (point.junction_temp_k - c2k(point.setpoint_c)) < 8.0


def test_fitted_models_match_ground_truth(characterization):
    rig, result = characterization
    models = result.leakage_models()
    spec = rig.spec
    vdds = {
        Resource.BIG: spec.big_opp.voltage(spec.big_opp.f_min_hz),
        Resource.LITTLE: spec.little_opp.voltage(spec.little_opp.f_min_hz),
        Resource.GPU: spec.gpu_opp.voltage(spec.gpu_opp.f_min_hz),
        Resource.MEM: spec.mem_vdd,
    }
    for resource, model in models.items():
        truth = LEAKAGE_SPECS[resource]
        for t_c in (45.0, 60.0, 75.0):
            t = c2k(t_c)
            assert model.power_w(t, vdds[resource]) == pytest.approx(
                truth.power(t, vdds[resource]), rel=0.25
            ), "%s leakage off at %.0f C" % (resource, t_c)


def test_build_power_model_covers_all_resources(characterization):
    rig, result = characterization
    pm = rig.build_power_model(result)
    for resource in Resource:
        assert pm[resource] is not None


def test_default_leakage_models_match_cached_fit():
    models = default_leakage_models()
    assert set(models) == set(Resource)
    big = models[Resource.BIG]
    # cached fit reproduces Fig. 4.3's range at the furnace voltage
    assert 0.05 < big.power_w(c2k(40), 0.92) < 0.12
    assert 0.20 < big.power_w(c2k(80), 0.92) < 0.35


def test_default_power_model_has_opp_tables():
    pm = default_power_model()
    assert pm[Resource.BIG].opp_table is not None
    assert pm[Resource.MEM].opp_table is None  # memory has no DVFS


def _scalar_soak(rig, setpoint_c, cluster):
    """One soak as the lone-board scalar loop (``tests/scalar_board.py``)
    that :class:`FurnaceRig` ran per setpoint and session before both
    sessions shared a batched plant; returns ``(junction K, powers W)``."""
    config = rig.config.with_(ambient_c=setpoint_c, seed=rig.seed)
    board = OdroidBoard(rig.spec, config, fan_enabled=False)
    board.network.set_uniform_temperature_k(config.ambient_k)
    light, idle = (0.25, 0.05, 0.05, 0.05), (0.0,) * 4
    if cluster is Resource.LITTLE:
        board.soc.switch_cluster(Resource.LITTLE)
        board.soc.little.set_frequency(board.soc.little.opp_table.f_min_hz)
        big_utils, little_utils = idle, light
    else:
        board.soc.big.set_frequency(board.soc.big.opp_table.f_min_hz)
        big_utils, little_utils = light, idle
    board.soc.gpu.set_frequency(board.soc.gpu.opp_table.f_min_hz)
    scalar = ScalarBoard(board)
    temps, powers = [], []
    for _ in range(int(round(rig.soak_s / rig.sample_period_s))):
        scalar.step(big_utils, little_utils, 0.15, 0.10, rig.sample_period_s)
        if board.time_s >= rig.soak_s - rig.measure_s:
            snap = scalar.read_sensors()
            temps.append(float(np.mean(snap.temperatures_k)))
            powers.append(snap.powers_w)
    return float(np.mean(temps)), np.mean(np.stack(powers), axis=0)


def test_points_match_the_scalar_soaks():
    rig = FurnaceRig(soak_s=6.0, measure_s=3.0)
    result = rig.characterize()
    for cluster, points in (
        (Resource.BIG, result.points_big_session),
        (Resource.LITTLE, result.points_little_session),
    ):
        assert [p.setpoint_c for p in points] == list(DEFAULT_SETPOINTS_C)
        for point in points:
            junction_k, powers_w = _scalar_soak(rig, point.setpoint_c, cluster)
            assert point.junction_temp_k == junction_k, (cluster, point)
            np.testing.assert_array_equal(point.powers_w, powers_w)


@pytest.mark.parametrize(
    "window",
    [
        dict(measure_s=1.0),  # the whole soak
        dict(measure_s=0.0),
        dict(measure_s=-1.0),
        dict(measure_s=0.5, sample_period_s=2.0),  # shorter than a sample
        dict(measure_s=0.5, sample_period_s=0.0),
        dict(measure_s=0.5, sample_period_s=-0.1),
    ],
)
def test_rig_rejects_a_window_that_holds_no_sample(window):
    with pytest.raises(ModelError):
        FurnaceRig(setpoints_c=(40.0, 50.0, 60.0), soak_s=1.0, **window)
