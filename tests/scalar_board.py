"""The scalar plant step, transcribed: the reference of the plant parity pins.

Boards advance only through :class:`~repro.platform.state.BatchPlant`.
Before that, :class:`~repro.platform.board.OdroidBoard` had a scalar
``step`` (one substep of ground-truth power, RC integration, fan update
and meter sample) and ``read_sensors``.  :class:`ScalarBoard` is that
pair, written once here from the scalar references ``src/`` keeps
(``ExynosSoc.power_state``, ``ThermalRCNetwork.step``, ``Fan.update``,
``PlatformPowerMeter.sample``, ``SensorBank.read_temperatures`` and
``read_powers``), so the tests can pin the batched plant, the scenario
idle gap, the PRBS lock-step and the furnace against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.platform.board import SensorSnapshot
from repro.platform.specs import Resource
from repro.thermal import floorplan


class ScalarBoard:
    """Advances one board a substep at a time through the scalar models."""

    def __init__(self, board) -> None:
        self.board = board
        self.power_state = None  # the last substep's SocPowerState

    def step(
        self,
        big_core_utils,
        little_core_utils,
        gpu_utilisation,
        mem_traffic,
        dt_s,
        cpu_activity=1.0,
        gpu_activity=1.0,
    ):
        """Advance the board by ``dt_s``: power at the current
        temperatures, RC step, fan update, then the meter sample."""
        board = self.board
        board.soc.gpu.set_utilisation(gpu_utilisation)
        board.soc.mem.set_traffic(mem_traffic)
        state = board.soc.power_state(
            floorplan.resource_temperatures_k(board.network),
            big_core_utils,
            little_core_utils,
            cpu_activity,
            gpu_activity,
        )
        self.power_state = state
        board.network.step(
            floorplan.node_powers(
                board.network,
                state.big_core_powers_w,
                state.per_resource[Resource.LITTLE].total_w,
                state.per_resource[Resource.GPU].total_w,
                state.per_resource[Resource.MEM].total_w,
            ),
            dt_s,
        )
        board.fan.update(float(np.max(board.true_hotspots_k())))
        board.network.set_cooling_gain(board.fan.conductance_gain)
        board.meter.sample(self.true_platform_power_w(), dt_s)
        board._time_s += dt_s
        return state

    def true_platform_power_w(self) -> float:
        """Ground-truth platform power of the last substep."""
        board = self.board
        soc_w = self.power_state.total_w if self.power_state else 0.0
        return soc_w + board.fan.power_w + board.spec.platform_static_power_w

    def read_sensors(self) -> SensorSnapshot:
        """Noisy sensor view of the last substep."""
        board = self.board
        powers = (
            self.power_state.resource_vector_w()
            if self.power_state is not None
            else np.zeros(len(board.sensors.power))
        )
        return SensorSnapshot(
            time_s=board.time_s,
            temperatures_k=board.sensors.read_temperatures(
                board.true_hotspots_k()
            ),
            powers_w=board.sensors.read_powers(powers),
            platform_power_w=board.meter.last_reading_w,
        )
