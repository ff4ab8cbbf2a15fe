"""External platform power meter.

The paper logs *total platform power* with an external meter in addition to
the per-resource internal sensors.  Platform power = SoC power + fan motor
power + the static board/display floor.  All platform-level savings numbers
(Figs. 6.9 / 6.10) are computed from this meter.
"""

from __future__ import annotations

import numpy as np


class PlatformPowerMeter:
    """Accumulating power meter with optional measurement noise."""

    def __init__(
        self,
        rng: np.random.Generator,
        relative_noise: float = 0.005,
    ) -> None:
        self._rng = rng
        self.relative_noise = relative_noise
        self._energy_j = 0.0
        self._time_s = 0.0
        self._last_reading_w = 0.0

    def sample(self, true_platform_power_w: float, dt_s: float) -> float:
        """Record one interval of platform power; returns the noisy reading.

        The batched plant accounts every lane's meter in arrays and hands
        the result back through :meth:`restore`; this scalar form stays
        as the reference of that accounting, which the tests pin the
        plant's meter against (``tests/test_batch_sim.py``).
        """
        reading = true_platform_power_w
        if self.relative_noise > 0:
            reading *= 1.0 + self._rng.normal(0.0, self.relative_noise)
        reading = max(0.0, reading)
        self._energy_j += reading * dt_s
        self._time_s += dt_s
        self._last_reading_w = reading
        return reading

    @property
    def last_reading_w(self) -> float:
        """Most recent instantaneous reading (W)."""
        return self._last_reading_w

    @property
    def elapsed_s(self) -> float:
        """Seconds of recording accumulated so far."""
        return self._time_s

    def restore(
        self, energy_j: float, elapsed_s: float, last_reading_w: float
    ) -> None:
        """Adopt accumulator state computed elsewhere.

        The batched plant (:mod:`repro.platform.state`) integrates many
        meters at once and hands each lane's accumulators back through
        this hook.
        """
        self._energy_j = float(energy_j)
        self._time_s = float(elapsed_s)
        self._last_reading_w = float(last_reading_w)

    @property
    def energy_j(self) -> float:
        """Total energy recorded since construction (J)."""
        return self._energy_j

    @property
    def average_power_w(self) -> float:
        """Time-averaged platform power over the whole recording (W)."""
        if self._time_s <= 0:
            return 0.0
        return self._energy_j / self._time_s

    def reset(self) -> None:
        """Clear the accumulated energy and time."""
        self._energy_j = 0.0
        self._time_s = 0.0
        self._last_reading_w = 0.0
