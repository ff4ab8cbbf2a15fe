"""SimulationConfig invariants and derived quantities."""

import pytest

from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.errors import ConfigurationError


def test_defaults_match_paper():
    cfg = DEFAULT_CONFIG
    assert cfg.control_period_s == pytest.approx(0.1)  # 100 ms driver period
    assert cfg.t_constraint_c == pytest.approx(63.0)  # fan's MID threshold
    assert cfg.prediction_horizon_steps == 10  # 1 s window
    assert cfg.min_big_cores == 3  # three big cores before migrating


def test_substeps_per_control():
    cfg = SimulationConfig(control_period_s=0.1, thermal_substep_s=0.02)
    assert cfg.substeps_per_control == 5


def test_derived_kelvin_properties():
    cfg = SimulationConfig(ambient_c=25.0, t_constraint_c=63.0)
    assert cfg.ambient_k == pytest.approx(298.15)
    assert cfg.t_constraint_k == pytest.approx(336.15)


def test_prediction_horizon_seconds():
    cfg = SimulationConfig(prediction_horizon_steps=10, control_period_s=0.1)
    assert cfg.prediction_horizon_s == pytest.approx(1.0)


def test_with_replaces_fields():
    cfg = DEFAULT_CONFIG.with_(t_constraint_c=70.0)
    assert cfg.t_constraint_c == 70.0
    assert cfg.control_period_s == DEFAULT_CONFIG.control_period_s
    assert DEFAULT_CONFIG.t_constraint_c == 63.0  # original untouched


def test_substep_must_divide_control_period():
    with pytest.raises(ConfigurationError):
        SimulationConfig(control_period_s=0.1, thermal_substep_s=0.03)


def test_rejects_nonpositive_periods():
    with pytest.raises(ConfigurationError):
        SimulationConfig(control_period_s=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(thermal_substep_s=-0.1)


def test_rejects_bad_horizon_and_core_counts():
    with pytest.raises(ConfigurationError):
        SimulationConfig(prediction_horizon_steps=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(min_big_cores=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(min_big_cores=5)


def test_rejects_negative_seed():
    with pytest.raises(ConfigurationError, match="seed"):
        SimulationConfig(seed=-5)
    assert SimulationConfig(seed=0).seed == 0
