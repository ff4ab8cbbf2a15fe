"""The Odroid-XU+E development board: SoC + fan + sensors + power meter.

This is the top-level "device under test": an :class:`OdroidBoard` owns
one board's plant state between runs.  It never advances itself.  The
batched plant (:class:`~repro.platform.state.BatchPlant`) gathers boards
into arrays once per run and writes each back through
:meth:`OdroidBoard.sync_lane` as its lane ends.  The DTPM controller sees
a board only through its sensors, as a :class:`SensorSnapshot`.
"""

from __future__ import annotations

from typing import Optional

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.platform.fan import Fan, FanThresholds
from repro.platform.power_meter import PlatformPowerMeter
from repro.platform.sensors import SensorBank
from repro.platform.soc import ExynosSoc
from repro.platform.specs import PlatformSpec
from repro.thermal import floorplan
from repro.thermal.rc_network import ThermalRCNetwork
from repro.units import celsius_to_kelvin


@dataclass
class SensorSnapshot:
    """What the controller sees at one control interval.

    ``temperatures_k`` has one entry per big core (the hotspots);
    ``powers_w`` follows the ``[big, little, gpu, mem]`` layout.  The
    snapshot a stacked :class:`~repro.core.dtpm.DtpmGovernor` takes holds
    every lane's readings, with a leading lane axis on each field.
    """

    time_s: float
    temperatures_k: np.ndarray
    powers_w: np.ndarray
    platform_power_w: float


class OdroidBoard:
    """Complete simulated platform with ground truth and sensor views.

    A run gathers ``soc``'s actuator settings once and never writes them
    back: after :meth:`~repro.sim.engine.Simulator.run` the SoC objects
    still hold the configuration they had before the run.
    """

    def __init__(
        self,
        spec: Optional[PlatformSpec] = None,
        config: Optional[SimulationConfig] = None,
        rng: Optional[np.random.Generator] = None,
        fan_enabled: bool = True,
        thermal_constants: Optional[dict] = None,
    ) -> None:
        self.spec = spec or PlatformSpec()
        self.config = config or SimulationConfig()
        self.rng = rng or np.random.default_rng(self.config.seed)
        self.soc = ExynosSoc(self.spec)
        self.fan = Fan(
            self.spec.fan_power_w,
            self.spec.fan_conductance_gain,
            FanThresholds(),
            enabled=fan_enabled,
        )
        self.network: ThermalRCNetwork = floorplan.build_exynos_network(
            self.config.ambient_k, thermal_constants
        )
        self.sensors = SensorBank(
            self.rng,
            temp_noise_k=self.config.temp_sensor_noise_c,
            temp_quantum_k=self.config.temp_sensor_quantum_c,
            power_noise_rel=self.config.power_sensor_noise_rel,
        )
        self.meter = PlatformPowerMeter(self.rng)
        self._time_s = 0.0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def time_s(self) -> float:
        """Simulated wall-clock time (s)."""
        return self._time_s

    def warm_start(self, hotspot_c: float, case_c: Optional[float] = None) -> None:
        """Pre-heat the device as after boot + prior use.

        The paper's traces start well above ambient (the board has been
        running the OS and previous benchmarks); experiments reproduce that
        by warm-starting the plant.
        """
        if case_c is None:
            case_c = hotspot_c - 6.0
        temps = np.full(
            self.network.num_nodes, celsius_to_kelvin(hotspot_c) - 2.0
        )
        for name in floorplan.BIG_CORE_NODES:
            temps[self.network.index(name)] = celsius_to_kelvin(hotspot_c)
        temps[self.network.index(floorplan.CASE_NODE)] = celsius_to_kelvin(case_c)
        temps[self.network.index(floorplan.BOARD_NODE)] = celsius_to_kelvin(
            case_c - 4.0
        )
        self.network.set_temperatures_k(temps)

    def true_hotspots_k(self) -> np.ndarray:
        """Ground-truth hotspot (big core) temperatures (K)."""
        return floorplan.hotspot_temperatures_k(self.network)

    def sync_lane(
        self,
        temps_k: np.ndarray,
        cooling_gain: float,
        fan_speed: int,
        time_s: float,
        energy_j: float,
        meter_elapsed_s: float,
        last_reading_w: float,
    ) -> None:
        """Adopt one lane of a batched plant advance.

        The batched plant (:mod:`repro.platform.state`) integrates many
        boards' physics in struct-of-arrays form and writes a lane back
        here as its run or idle-gap chunk ends, so the board owns its
        state between runs (results, scenario carry-over and tests read it).
        """
        self.network.set_temperatures_k(temps_k)
        self.network.set_cooling_gain(cooling_gain)
        self.fan.restore_speed(fan_speed)
        self.meter.restore(energy_j, meter_elapsed_s, last_reading_w)
        self._time_s = float(time_s)
