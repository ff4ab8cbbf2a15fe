"""Leakage characterization with a temperature furnace (Section 4.1.1).

The paper places the Odroid board inside a temperature furnace (Fig. 4.1),
sweeps the ambient from 40 to 80 degC in 10 degC increments, runs a *light*
workload at fixed frequency and voltage so dynamic power stays constant,
and records each resource's power sensor.  The temperature-driven power
spread is then all leakage, and fitting Eq. 4.2 to it recovers
(c1, c2, I_gate) per resource.

:class:`FurnaceRig` reproduces that procedure against the simulated board:
it never touches the platform's ground-truth constants, only sensor data.
At each setpoint the big-cluster and little-cluster soaks share the
furnace ambient, hence the thermal physics, so their two boards advance
in lock-step on one batched plant
(:class:`~repro.platform.state.BatchPlant`): one plant advance per
sample, and one stacked sensor read per sample inside the measurement
window.  A soak's point is the same whether it runs alone or beside the
other session's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimulationConfig
from repro.errors import ModelError
from repro.platform.board import OdroidBoard
from repro.platform.sensors import SensorBank
from repro.platform.specs import PlatformSpec, POWER_RESOURCES, Resource
from repro.platform.state import BatchPlant
from repro.power.fitting import LeakageFit, fit_leakage
from repro.power.leakage import LeakageModel
from repro.power.model import PowerModel, ResourcePowerModel

#: Default furnace setpoints (Celsius), as in the paper.
DEFAULT_SETPOINTS_C: Tuple[float, ...] = (40.0, 50.0, 60.0, 70.0, 80.0)

#: Light-workload core utilisations: one thread plus background trickle.
_LIGHT_UTILS = (0.25, 0.05, 0.05, 0.05)
#: Light fixed GPU utilisation / memory traffic during the sweep.
_LIGHT_GPU_UTIL = 0.15
_LIGHT_MEM_TRAFFIC = 0.10


@dataclass
class FurnacePoint:
    """Averaged measurements at one furnace setpoint."""

    setpoint_c: float
    junction_temp_k: float
    powers_w: np.ndarray  # [big, little, gpu, mem] sensor averages


@dataclass
class FurnaceCharacterization:
    """Full characterization output: raw points + fitted models."""

    points_big_session: List[FurnacePoint] = field(default_factory=list)
    points_little_session: List[FurnacePoint] = field(default_factory=list)
    fits: Dict[Resource, LeakageFit] = field(default_factory=dict)

    def leakage_models(self) -> Dict[Resource, LeakageModel]:
        """Run-time leakage models built from the fits."""
        return {r: LeakageModel.from_fit(f) for r, f in self.fits.items()}


class FurnaceRig:
    """Drives the simulated board through the furnace procedure."""

    def __init__(
        self,
        spec: Optional[PlatformSpec] = None,
        config: Optional[SimulationConfig] = None,
        setpoints_c: Sequence[float] = DEFAULT_SETPOINTS_C,
        soak_s: float = 80.0,
        measure_s: float = 40.0,
        sample_period_s: float = 0.1,
        seed: int = 41,
    ) -> None:
        if not 0 < sample_period_s <= measure_s < soak_s:
            raise ModelError(
                "need 0 < sample period <= measurement window < soak"
            )
        self.spec = spec or PlatformSpec()
        self.config = config or SimulationConfig()
        self.setpoints_c = tuple(setpoints_c)
        self.soak_s = soak_s
        self.measure_s = measure_s
        self.sample_period_s = sample_period_s
        self.seed = seed

    # ------------------------------------------------------------------
    def _run_setpoint(
        self, setpoint_c: float
    ) -> Tuple[FurnacePoint, FurnacePoint]:
        """Both sessions' soaks at one setpoint with the light workload.

        Returns the big session's point, then the little session's.
        """
        config = self.config.with_(ambient_c=setpoint_c, seed=self.seed)
        boards = [self._board(config, c) for c in (Resource.BIG, Resource.LITTLE)]
        light, idle = np.array(_LIGHT_UTILS), np.zeros(4)
        big_utils, little_utils = np.stack([light, idle]), np.stack([idle, light])

        plant = BatchPlant(boards)
        lanes = np.arange(len(boards))
        state = plant.gather(lanes)
        sensors = SensorBank.stack([b.sensors for b in boards])
        activity = np.ones(len(boards))
        steps = int(round(self.soak_s / self.sample_period_s))
        measure_from = self.soak_s - self.measure_s
        temp_samples: List[np.ndarray] = []  # (lanes,) per sample
        power_samples: List[np.ndarray] = []  # (lanes, 4) per sample
        for _ in range(steps):
            plant.advance_interval(
                state, lanes, big_utils, little_utils, activity, activity,
                dt_s=self.sample_period_s, substeps=1,
            )
            if state.time_s[0] >= measure_from:
                temps, powers = sensors.read_all(
                    plant.hotspots_k(state), state.powers_w
                )
                temp_samples.append(np.mean(temps, axis=1))
                power_samples.append(powers)

        temps = np.stack(temp_samples, axis=1)  # (lanes, samples)
        powers = np.stack(power_samples, axis=1)  # (lanes, samples, 4)
        return tuple(
            FurnacePoint(
                setpoint_c=setpoint_c,
                junction_temp_k=float(np.mean(temps[i])),
                powers_w=np.mean(powers[i], axis=0),
            )
            for i in lanes
        )

    def _board(self, config: SimulationConfig, cluster: Resource) -> OdroidBoard:
        """A furnace-soaked board running ``cluster`` and the GPU at f_min."""
        board = OdroidBoard(self.spec, config, fan_enabled=False)
        # the furnace soaks the whole board, including the PCB mass
        board.network.set_uniform_temperature_k(config.ambient_k)
        if cluster is Resource.LITTLE:
            board.soc.switch_cluster(Resource.LITTLE)
            board.soc.little.set_frequency(board.soc.little.opp_table.f_min_hz)
        else:
            board.soc.big.set_frequency(board.soc.big.opp_table.f_min_hz)
        board.soc.gpu.set_frequency(board.soc.gpu.opp_table.f_min_hz)
        board.soc.gpu.set_utilisation(_LIGHT_GPU_UTIL)
        board.soc.mem.set_traffic(_LIGHT_MEM_TRAFFIC)
        return board

    # ------------------------------------------------------------------
    def characterize(self) -> FurnaceCharacterization:
        """Run both furnace sessions and fit all four leakage models.

        Session 1 runs the light workload on the *big* cluster and yields
        the big / GPU / memory curves (their sensors all see fixed dynamic
        power).  Session 2 repeats on the *little* cluster for its curve.
        """
        result = FurnaceCharacterization()
        for setpoint in self.setpoints_c:
            big, little = self._run_setpoint(setpoint)
            result.points_big_session.append(big)
            result.points_little_session.append(little)

        temps_big = [p.junction_temp_k for p in result.points_big_session]
        temps_little = [p.junction_temp_k for p in result.points_little_session]
        idx = {r: i for i, r in enumerate(POWER_RESOURCES)}

        def powers(points: List[FurnacePoint], resource: Resource) -> List[float]:
            return [float(p.powers_w[idx[resource]]) for p in points]

        vdd_big = self.spec.big_opp.voltage(self.spec.big_opp.f_min_hz)
        vdd_little = self.spec.little_opp.voltage(self.spec.little_opp.f_min_hz)
        vdd_gpu = self.spec.gpu_opp.voltage(self.spec.gpu_opp.f_min_hz)

        result.fits[Resource.BIG] = fit_leakage(
            temps_big, powers(result.points_big_session, Resource.BIG), vdd_big
        )
        result.fits[Resource.GPU] = fit_leakage(
            temps_big, powers(result.points_big_session, Resource.GPU), vdd_gpu
        )
        result.fits[Resource.MEM] = fit_leakage(
            temps_big,
            powers(result.points_big_session, Resource.MEM),
            self.spec.mem_vdd,
        )
        result.fits[Resource.LITTLE] = fit_leakage(
            temps_little,
            powers(result.points_little_session, Resource.LITTLE),
            vdd_little,
        )
        return result

    def build_power_model(
        self, characterization: FurnaceCharacterization = None
    ) -> PowerModel:
        """Characterize (if needed) and assemble the run-time PowerModel."""
        if characterization is None:
            characterization = self.characterize()
        leakage = characterization.leakage_models()
        models = {
            Resource.BIG: ResourcePowerModel(
                Resource.BIG, leakage[Resource.BIG], self.spec.big_opp
            ),
            Resource.LITTLE: ResourcePowerModel(
                Resource.LITTLE, leakage[Resource.LITTLE], self.spec.little_opp
            ),
            Resource.GPU: ResourcePowerModel(
                Resource.GPU, leakage[Resource.GPU], self.spec.gpu_opp
            ),
            Resource.MEM: ResourcePowerModel(Resource.MEM, leakage[Resource.MEM]),
        }
        return PowerModel(models)


def default_leakage_models(spec: Optional[PlatformSpec] = None) -> Dict[Resource, LeakageModel]:
    """Pre-fitted leakage models for the default platform.

    Running the furnace takes a few simulated minutes; tests and examples
    that do not exercise characterization itself can use these cached fits
    (obtained by running :class:`FurnaceRig` once on the default platform).
    """
    return {
        Resource.BIG: LeakageModel(c1=7.690e-3, c2=-2900.0, i_gate=0.0),
        Resource.LITTLE: LeakageModel(c1=2.117e-3, c2=-2934.6, i_gate=0.0),
        Resource.GPU: LeakageModel(c1=4.478e-3, c2=-2905.4, i_gate=0.0),
        Resource.MEM: LeakageModel(c1=1.950e-3, c2=-2860.3, i_gate=0.0),
    }


def default_power_model(spec: Optional[PlatformSpec] = None) -> PowerModel:
    """A ready-to-use PowerModel with the cached default leakage fits."""
    spec = spec or PlatformSpec()
    leakage = default_leakage_models(spec)
    return PowerModel(
        {
            Resource.BIG: ResourcePowerModel(
                Resource.BIG, leakage[Resource.BIG], spec.big_opp
            ),
            Resource.LITTLE: ResourcePowerModel(
                Resource.LITTLE, leakage[Resource.LITTLE], spec.little_opp
            ),
            Resource.GPU: ResourcePowerModel(
                Resource.GPU, leakage[Resource.GPU], spec.gpu_opp
            ),
            Resource.MEM: ResourcePowerModel(Resource.MEM, leakage[Resource.MEM]),
        }
    )
