"""Top-level simulation configuration.

All timing, thermal-constraint and noise knobs live here so that tests,
examples and the benchmark harness describe experiments declaratively.
Defaults reproduce the paper's setup: a 100 ms control period (the cpufreq
driver invocation period), a 1 s prediction window (10 control intervals),
and a 63 degC thermal constraint matching the fan controller's second step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.units import celsius_to_kelvin


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable bundle of experiment-level knobs.

    Parameters
    ----------
    control_period_s:
        Period at which governors and the DTPM algorithm run (paper: 100 ms).
    thermal_substep_s:
        Integration step of the ground-truth thermal RC network.  Must divide
        the control period.
    ambient_c:
        Ambient (room) temperature in Celsius.
    t_constraint_c:
        Maximum permissible hotspot temperature ``Tmax`` (paper: 63 degC).
    prediction_horizon_steps:
        Number of control intervals ahead the thermal predictor looks
        (paper: 10 intervals = 1 s).
    hotspot_delta_c:
        ``Delta`` of Eq. 5.9 -- the hottest-core temperature imbalance that
        triggers turning that core off.
    min_big_cores:
        The smallest big-cluster core count the policy will try before
        migrating everything to the little cluster (paper: three).
    temp_sensor_noise_c / temp_sensor_quantum_c:
        Gaussian noise sigma and quantisation step of the on-die thermal
        sensors (the Exynos TMU reports whole degrees).
    power_sensor_noise_rel:
        Relative Gaussian noise of the INA231-style power sensors.
    seed:
        Seed for every stochastic element (sensor noise, workload jitter).
    """

    control_period_s: float = 0.1
    thermal_substep_s: float = 0.01
    ambient_c: float = 25.0
    t_constraint_c: float = 63.0
    prediction_horizon_steps: int = 10
    hotspot_delta_c: float = 4.0
    min_big_cores: int = 3
    temp_sensor_noise_c: float = 0.15
    temp_sensor_quantum_c: float = 0.25
    power_sensor_noise_rel: float = 0.01
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.control_period_s <= 0 or self.thermal_substep_s <= 0:
            raise ConfigurationError("periods must be positive")
        ratio = self.control_period_s / self.thermal_substep_s
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError(
                "thermal_substep_s must divide control_period_s"
            )
        if self.prediction_horizon_steps < 1:
            raise ConfigurationError("prediction horizon must be >= 1 step")
        if not 1 <= self.min_big_cores <= 4:
            raise ConfigurationError("min_big_cores must be in 1..4")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0, got %r" % self.seed)

    @property
    def substeps_per_control(self) -> int:
        """Thermal integrator substeps per control interval."""
        return int(round(self.control_period_s / self.thermal_substep_s))

    @property
    def ambient_k(self) -> float:
        """Ambient temperature in Kelvin."""
        return celsius_to_kelvin(self.ambient_c)

    @property
    def t_constraint_k(self) -> float:
        """Thermal constraint in Kelvin."""
        return celsius_to_kelvin(self.t_constraint_c)

    @property
    def prediction_horizon_s(self) -> float:
        """Prediction window in seconds."""
        return self.prediction_horizon_steps * self.control_period_s

    def with_(self, **changes) -> "SimulationConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)


#: Default configuration used across examples and benchmarks.
DEFAULT_CONFIG = SimulationConfig()
