"""Three-speed fan model with the Odroid-XU+E threshold controller.

Section 6.2 of the paper: "The fan is activated when maximum core
temperature exceeds 57 degC.  Then, the fan speed is increased to 50 % and
100 % when the temperature passes 63 degC and 68 degC, respectively."

The fan influences the ground-truth thermal network by multiplying the
case-to-ambient conductance, and it draws electrical power counted by the
platform power meter (this is where the DTPM configuration's platform-power
savings partly come from).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import celsius_to_kelvin


class FanSpeed(enum.IntEnum):
    """Discrete fan speeds of the Odroid-XU+E fan header."""

    OFF = 0
    LOW = 1  # fan on, minimum duty
    MID = 2  # 50 % duty
    HIGH = 3  # 100 % duty


@dataclass(frozen=True)
class FanThresholds:
    """Turn-on temperatures (Celsius) of the three fan speeds."""

    on_c: float = 57.0
    mid_c: float = 63.0
    high_c: float = 68.0
    #: Hysteresis applied when stepping back down, to avoid chattering.
    hysteresis_c: float = 5.0

    def __post_init__(self) -> None:
        if not self.on_c < self.mid_c < self.high_c:
            raise ConfigurationError("fan thresholds must strictly increase")
        if self.hysteresis_c < 0:
            raise ConfigurationError("hysteresis must be non-negative")


class Fan:
    """Hysteretic three-speed fan driven by the maximum core temperature."""

    def __init__(
        self,
        power_w: Sequence[float],
        conductance_gain: Sequence[float],
        thresholds: FanThresholds = FanThresholds(),
        enabled: bool = True,
    ) -> None:
        if len(power_w) != 4 or len(conductance_gain) != 4:
            raise ConfigurationError(
                "fan needs power and conductance gain for all four speeds"
            )
        self._power_w: Tuple[float, ...] = tuple(power_w)
        self._gain: Tuple[float, ...] = tuple(conductance_gain)
        self.thresholds = thresholds
        self.enabled = enabled
        self._speed = FanSpeed.OFF

    @property
    def speed(self) -> FanSpeed:
        """Current fan speed."""
        return self._speed

    @property
    def power_w(self) -> float:
        """Electrical power drawn by the fan motor right now."""
        return self._power_w[int(self._speed)]

    @property
    def conductance_gain(self) -> float:
        """Multiplier on the case-to-ambient thermal conductance."""
        return self._gain[int(self._speed)]

    # -- batched-kernel views -------------------------------------------
    # The fused substep kernels (repro.thermal.kernels) run this
    # controller for many fans at once; these accessors are the single
    # source of truth for its gain-transition points and lookup tables,
    # so the vectorised automaton can never drift from Fan.update.
    def threshold_points_k(self) -> np.ndarray:
        """The three engage thresholds in Kelvin, lowest first.

        Crossing ``threshold_points_k()[i]`` upward engages speed
        ``i + 1``; falling ``hysteresis_k`` below the threshold that
        engaged the current speed steps one speed back down.
        """
        th = self.thresholds
        return np.array(
            [
                celsius_to_kelvin(th.on_c),
                celsius_to_kelvin(th.mid_c),
                celsius_to_kelvin(th.high_c),
            ]
        )

    @property
    def hysteresis_k(self) -> float:
        """Step-down hysteresis in Kelvin (a delta, so == Celsius)."""
        return self.thresholds.hysteresis_c

    def conductance_gain_table(self) -> np.ndarray:
        """Per-speed conductance multipliers, indexed by ``FanSpeed``."""
        return np.asarray(self._gain, dtype=float)

    def power_table_w(self) -> np.ndarray:
        """Per-speed electrical draw (W), indexed by ``FanSpeed``."""
        return np.asarray(self._power_w, dtype=float)

    def update(self, max_core_temp_k: float) -> FanSpeed:
        """Run one step of the threshold controller.

        Speed increases immediately when a threshold is crossed; it only
        steps back down once the temperature drops ``hysteresis_c`` below
        the threshold that engaged the current speed.

        The batched plant runs this automaton over its lanes in
        :func:`repro.thermal.kernels.fan_step`; this scalar form stays as
        the reference that kernel is pinned against
        (``tests/test_batch_sim.py``).
        """
        if not self.enabled:
            self._speed = FanSpeed.OFF
            return self._speed

        th = self.thresholds
        up_points_k = [
            celsius_to_kelvin(th.on_c),
            celsius_to_kelvin(th.mid_c),
            celsius_to_kelvin(th.high_c),
        ]

        target = FanSpeed.OFF
        for i, point in enumerate(up_points_k):
            if max_core_temp_k > point:
                target = FanSpeed(i + 1)

        if target > self._speed:
            self._speed = target
        elif target < self._speed:
            # step down one speed at a time, with hysteresis
            engage_point = up_points_k[int(self._speed) - 1]
            if max_core_temp_k < engage_point - th.hysteresis_c:
                self._speed = FanSpeed(int(self._speed) - 1)
        return self._speed

    def force_off(self) -> None:
        """Disable and stop the fan (the paper's "without fan" config)."""
        self.enabled = False
        self._speed = FanSpeed.OFF

    def restore_speed(self, speed: int) -> None:
        """Adopt a controller state computed elsewhere.

        The batched plant (:mod:`repro.platform.state`) runs the threshold
        controller for many fans at once and hands each lane's final speed
        back through this hook.
        """
        self._speed = FanSpeed(int(speed))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Fan(speed=%s, enabled=%s)" % (self._speed.name, self.enabled)
