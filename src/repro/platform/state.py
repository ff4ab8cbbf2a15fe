"""Struct-of-arrays plant state: many boards advanced per NumPy call.

The serial plant is a graph of stateful objects -- one
:class:`~repro.platform.board.OdroidBoard` owning an SoC, fan, sensors and
meter.  Sweeps and schedule grids run many such boards with identical
physics, so the 100 ms closed loop used to pay the Python interpreter per
run per substep.  This module gives the plant a batch axis:

* :class:`PlantState` holds every lane's mutable plant state as arrays
  (``temps_k[B, N]``, ``fan_speed[B]``, ``energy_j[B]``, ...), gathered
  from the per-lane board objects once per run, idle-gap chunk or
  campaign.  It is the only copy until a lane is scattered back as it
  ends; the engine actuates by writing into its rows.  The boards own
  the state between runs: carry-over, warm starts and results read them.
* :class:`BatchPlant` advances a :class:`PlantState` through the thermal
  substeps of one control interval: batched power evaluation
  (:class:`~repro.power.batch.BatchPowerModel`), fused RC integration
  (:mod:`repro.thermal.kernels`), a vectorised fan threshold controller
  and vectorised meter accounting.

Control intervals hold the ground-truth node power for their whole
duration (zero-order hold, evaluated once at the interval-entry
temperatures).  That makes the K-substep RC chain linear in the state,
so the fused kernels integrate a whole interval in one propagator pass
and only lanes whose fan speed or quantised cooling factor actually
changes mid-interval fall back to per-substep stepping.  The idle-gap
cooldown path (``power_every=1``) re-evaluates power before every
substep and steps it through the same per-substep kernel.

:class:`BatchPlant` is the only way a board advances: the engine, the
scenario idle gap and both Chapter-4 campaigns (the PRBS identification
and the furnace) all step boards through it.  The only power output a
:class:`PlantState` keeps is ``powers_w``, the last substep's
per-resource totals, which the sensors read.

Every kernel is elementwise over the batch axis (reductions only run over
fixed-size axes such as the four cores), and per-lane RNG streams are
consumed in exactly the serial order, so lane ``b`` of a batch is
bit-identical to the same run advanced alone -- the contract
``tests/test_batch_sim.py`` enforces.  At one substep per interval the
plant is also bit-equal to a scalar per-board step built from the
models' scalar references, which the tests transcribe
(``tests/scalar_board.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.platform.board import OdroidBoard
from repro.power.batch import BatchPowerModel
from repro.thermal import floorplan, kernels


@dataclass
class PlantState:
    """Mutable plant state of ``B`` lanes in struct-of-arrays form.

    Gathered from (and scattered back to) per-lane boards; see
    :meth:`gather` / :meth:`scatter`.  ``powers_w`` holds the *last*
    evaluated substep's ground-truth per-resource power, which the
    sensors read; it is ``None`` until the first advance.
    """

    temps_k: np.ndarray  # (B, N) thermal node temperatures
    cooling_gain: np.ndarray  # (B,) fan multiplier on case conductance
    fan_speed: np.ndarray  # (B,) int in 0..3
    fan_enabled: np.ndarray  # (B,) bool
    time_s: np.ndarray  # (B,) simulated wall clock
    energy_j: np.ndarray  # (B,) platform meter accumulator
    meter_elapsed_s: np.ndarray  # (B,)
    last_reading_w: np.ndarray  # (B,) last noisy meter reading
    active_is_big: np.ndarray  # (B,) bool
    big_freq_hz: np.ndarray  # (B,)
    little_freq_hz: np.ndarray  # (B,)
    gpu_freq_hz: np.ndarray  # (B,)
    big_online: np.ndarray  # (B, 4) bool
    little_online: np.ndarray  # (B, 4) bool
    gpu_util: np.ndarray  # (B,)
    mem_traffic: np.ndarray  # (B,)
    powers_w: np.ndarray = None  # (B, 4) last substep's resource totals

    @property
    def batch(self) -> int:
        """Number of lanes."""
        return self.temps_k.shape[0]

    # ------------------------------------------------------------------
    @classmethod
    def gather(cls, boards: Sequence[OdroidBoard]) -> "PlantState":
        """Snapshot the boards into one SoA state, as a run or campaign starts."""
        cores = boards[0].spec.cores_per_cluster
        return cls(
            temps_k=np.stack([b.network.temperatures_k for b in boards]),
            cooling_gain=np.array([b.network.cooling_gain for b in boards]),
            fan_speed=np.array([int(b.fan.speed) for b in boards]),
            fan_enabled=np.array([b.fan.enabled for b in boards]),
            time_s=np.array([b.time_s for b in boards]),
            energy_j=np.array([b.meter.energy_j for b in boards]),
            meter_elapsed_s=np.array([b.meter.elapsed_s for b in boards]),
            last_reading_w=np.array(
                [b.meter.last_reading_w for b in boards]
            ),
            active_is_big=np.array([b.soc.big.active for b in boards]),
            big_freq_hz=np.array([b.soc.big.frequency_hz for b in boards]),
            little_freq_hz=np.array(
                [b.soc.little.frequency_hz for b in boards]
            ),
            gpu_freq_hz=np.array([b.soc.gpu.frequency_hz for b in boards]),
            big_online=np.array(
                [
                    [b.soc.big.is_online(c) for c in range(cores)]
                    for b in boards
                ]
            ),
            little_online=np.array(
                [
                    [b.soc.little.is_online(c) for c in range(cores)]
                    for b in boards
                ]
            ),
            gpu_util=np.array([b.soc.gpu.utilisation for b in boards]),
            mem_traffic=np.array([b.soc.mem.traffic for b in boards]),
        )

    def take(self, rows: Sequence[int]) -> "PlantState":
        """A new state holding only the given lanes' rows, in that order."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return PlantState(**{k: v if v is None else v[rows] for k, v in values.items()})

    def scatter(self, boards: Sequence[OdroidBoard]) -> None:
        """Write each lane's plant state back to its board, as the lane ends."""
        for i, board in enumerate(boards):  # repro-lint: disable=RPR032 -- O(B) attribute writeback into scalar boards, not a numeric kernel
            board.sync_lane(
                self.temps_k[i],
                float(self.cooling_gain[i]),
                int(self.fan_speed[i]),
                float(self.time_s[i]),
                float(self.energy_j[i]),
                float(self.meter_elapsed_s[i]),
                float(self.last_reading_w[i]),
            )


class BatchPlant:
    """Advances many identical-physics boards one control interval at a time.

    All lanes must share the platform spec, the thermal network physics
    and the fan controller parameters (per-lane *state* -- temperatures,
    fan speed, hotplug, frequencies, sensor/meter noise levels and RNG
    streams -- is free to differ).  The first board's discretisation
    cache serves the whole batch, which is safe because the quantised
    effective cooling gains form a bijection with the cache keys.
    """

    def __init__(self, boards: Sequence[OdroidBoard]) -> None:
        if not boards:
            raise ConfigurationError("a batch plant needs at least one board")
        self.boards: List[OdroidBoard] = list(boards)
        first = self.boards[0]
        for board in self.boards[1:]:  # repro-lint: disable=RPR032 -- constructor-time compatibility validation, runs once per batch
            if board.spec != first.spec:
                raise ConfigurationError(
                    "batched boards must share one platform spec"
                )
            if not board.network.physics_equal(first.network):
                raise ConfigurationError(
                    "batched boards must share thermal network physics"
                )
            if board.fan.thresholds != first.fan.thresholds:
                raise ConfigurationError(
                    "batched boards must share fan thresholds"
                )
        self.network = first.network
        self.spec = first.spec
        self.power = BatchPowerModel(self.spec)

        self._hot_idx = floorplan.hot_indices(self.network)
        self._little_idx = self.network.index(floorplan.LITTLE_NODE)
        self._gpu_idx = self.network.index(floorplan.GPU_NODE)
        self._mem_idx = self.network.index(floorplan.MEM_NODE)

        self._fan_up_k = first.fan.threshold_points_k()
        self._fan_hyst_k = first.fan.hysteresis_k
        self._fan_power_w = first.fan.power_table_w()
        self._fan_gain = first.fan.conductance_gain_table()
        self._static_w = self.spec.platform_static_power_w

    # ------------------------------------------------------------------
    def gather(self, lanes: Sequence[int]) -> PlantState:
        """:meth:`PlantState.gather` by lane index (perfbench traces it)."""
        return PlantState.gather([self.boards[i] for i in lanes])

    def scatter(self, state: PlantState, lanes: Sequence[int]) -> None:
        """Write row ``k`` of ``state`` back to board ``lanes[k]`` (traced)."""
        state.scatter([self.boards[i] for i in lanes])

    # ------------------------------------------------------------------
    def advance_interval(
        self,
        state: PlantState,
        lanes: Sequence[int],
        big_utils: np.ndarray,
        little_utils: np.ndarray,
        cpu_activity: np.ndarray,
        gpu_activity: np.ndarray,
        dt_s: float,
        substeps: int,
        power_every: Optional[int] = None,
    ) -> None:
        """Advance every lane of ``state`` by one control interval.

        ``power_every`` controls how often the ground-truth power is
        re-evaluated along the ``substeps`` thermal substeps:

        ``None`` (default)
            Zero-order hold: power is evaluated once at the
            interval-entry temperatures and held, which lets the whole
            interval integrate through the fused propagator kernels of
            :mod:`repro.thermal.kernels`.  This is the engine's control
            interval semantics.
        ``1``
            Re-evaluate before every substep and advance it through
            :func:`repro.thermal.kernels.substep_loop` -- ``substeps``
            consecutive scalar per-board steps, bit-for-bit (the
            scenario idle-gap cooldown contract).

        Either way the fan controller reacts to every substep's new
        hotspots and the platform meter samples every substep with the
        *new* fan's draw.  Meter noise is pre-drawn per lane (one array
        draw consumes the stream exactly like the serial per-substep
        scalar draws).
        """
        if power_every is None:
            power_every = substeps
        if power_every not in (1, substeps):
            raise ConfigurationError(
                "power_every must be 1 or the substep count"
            )
        batch = state.batch
        noise = np.zeros((batch, substeps))
        for i, lane in enumerate(lanes):  # repro-lint: disable=RPR032 -- per-lane RNG streams must be consumed in serial lane order for bit-parity with scalar runs
            meter = self.boards[lane].meter
            if meter.relative_noise > 0:
                noise[i] = self.boards[lane].rng.normal(
                    0.0, meter.relative_noise, size=substeps
                )

        inputs = self.power.interval_inputs(
            state.active_is_big,
            state.big_freq_hz,
            state.little_freq_hz,
            state.gpu_freq_hz,
            state.big_online,
            state.little_online,
            big_utils,
            little_utils,
            state.gpu_util,
            state.mem_traffic,
            cpu_activity,
            gpu_activity,
        )

        # one kernel call per block of substeps under held power: the
        # whole interval through the fused kernel, or one substep at a
        # time so power is re-evaluated before each
        if power_every == substeps:
            kernel = kernels.advance_held_interval
        else:
            kernel = kernels.substep_loop
        for k in range(0, substeps, power_every):
            ps, node_p = self._evaluate_power(inputs, state.temps_k)
            state.temps_k, speeds = kernel(
                self.network,
                state.temps_k,
                state.cooling_gain,
                state.fan_speed,
                state.fan_enabled,
                node_p,
                dt_s,
                power_every,
                self._fan_up_k,
                self._fan_hyst_k,
                self._fan_gain,
                self._hot_idx,
            )
            state.fan_speed = speeds[:, -1]
            state.cooling_gain = self._fan_gain[state.fan_speed]

            # the meter prices every substep at its post-update fan speed
            true_platform = (
                ps.soc_total_w[:, np.newaxis]
                + self._fan_power_w[speeds]
                + self._static_w
            )
            readings = np.maximum(
                0.0, true_platform * (1.0 + noise[:, k : k + power_every])
            )
            # einsum's reduction over the substep axis is sequential per
            # lane, so the accumulated energy is lane-independent
            state.energy_j = (
                state.energy_j + np.einsum("bk->b", readings) * dt_s
            )
            state.meter_elapsed_s = state.meter_elapsed_s + dt_s * power_every
            state.last_reading_w = readings[:, -1]
            state.time_s = state.time_s + dt_s * power_every
            state.powers_w = ps.powers_w

    # ------------------------------------------------------------------
    def _evaluate_power(self, inputs, temps: np.ndarray):
        """Ground-truth power breakdown + node heat vector at ``temps``."""
        batch = temps.shape[0]
        t_big = np.mean(temps[:, self._hot_idx], axis=1)
        ps = self.power.evaluate(
            inputs,
            t_big,
            temps[:, self._little_idx],
            temps[:, self._gpu_idx],
            temps[:, self._mem_idx],
        )
        node_p = np.zeros((batch, self.network.num_nodes))
        node_p[:, self._hot_idx] = ps.big_core_powers_w
        node_p[:, self._little_idx] = ps.powers_w[:, 1]
        node_p[:, self._gpu_idx] = ps.powers_w[:, 2]
        node_p[:, self._mem_idx] = ps.powers_w[:, 3]
        return ps, node_p

    def hotspots_k(self, state: PlantState) -> np.ndarray:
        """True hotspot (big core) temperatures of every lane, ``(B, 4)``."""
        return state.temps_k[:, self._hot_idx]
