"""The closed-loop simulation engine.

Reproduces the paper's run-time stack at a 100 ms control period: the
kernel's load balancer places threads, ondemand + idle governors propose
the next configuration, the thermal-management layer of the selected
experimental configuration (Section 6.2) may overwrite it, the actuators
apply it (with migration/hotplug stalls), and the physical plant advances.

The loop is batched: a :class:`BatchSimulator` lock-steps ``B``
independent runs -- each with its own workload, mode, governor and
controller state.  Their plant state lives in one struct-of-arrays
:class:`~repro.platform.state.PlantState` for the whole run; per control
step one kernel (:class:`~repro.platform.state.BatchPlant`) advances it,
all their sensors are read in one pass and the DTPM controller runs as
one array step over its lanes.
:class:`Simulator` is the ``B = 1`` view of that same code path, and
every batched step is elementwise over the batch axis, so a batch of
``N`` runs produces traces byte-identical to ``N`` runs executed one at
a time.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimulationConfig
from repro.core.dtpm import DtpmGovernor, DtpmOutcome
from repro.errors import ConfigurationError
from repro.governors.base import LoadSample, PlatformConfig
from repro.governors.idle import IdleGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.reactive import ReactiveThrottleGovernor
from repro.platform.board import OdroidBoard, SensorSnapshot
from repro.platform.sensors import SensorBank
from repro.platform.specs import (
    CLUSTER_MIGRATION_PENALTY_S,
    HOTPLUG_PENALTY_S,
    PlatformSpec,
    Resource,
)
from repro.platform.state import BatchPlant, PlantState
from repro.sim.consumers import ViolationCounter
from repro.sim.run_result import RUN_COLUMNS, RunResult, TraceRecorder
from repro.sim.scheduler import LoadBalancer
from repro.units import KELVIN_OFFSET, clamp
from repro.workloads.trace import WorkloadProgress, WorkloadTrace


class ThermalMode(enum.Enum):
    """The four experimental configurations of Section 6.2."""

    DEFAULT_WITH_FAN = "with_fan"
    NO_FAN = "without_fan"
    REACTIVE = "reactive"
    DTPM = "dtpm"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Simulator:
    """One benchmark run under one thermal-management configuration."""

    def __init__(
        self,
        workload: WorkloadTrace,
        mode: ThermalMode,
        dtpm: Optional[DtpmGovernor] = None,
        spec: Optional[PlatformSpec] = None,
        config: Optional[SimulationConfig] = None,
        warm_start_c: Optional[float] = 52.0,
        max_duration_s: float = 900.0,
        seed: Optional[int] = None,
    ) -> None:
        self.workload = workload
        self.mode = mode
        self.spec = spec or PlatformSpec()
        self.config = config or SimulationConfig()
        if seed is not None:
            self.config = self.config.with_(seed=seed)
        if mode is ThermalMode.DTPM and dtpm is None:
            raise ConfigurationError("DTPM mode needs a DtpmGovernor")
        self.dtpm = dtpm
        self.warm_start_c = warm_start_c
        self.max_duration_s = max_duration_s

        self.board = OdroidBoard(
            self.spec,
            self.config,
            fan_enabled=(mode is ThermalMode.DEFAULT_WITH_FAN),
        )
        self.rng = np.random.default_rng(self.config.seed + 77)
        self.scheduler = LoadBalancer(self.spec, self.rng)
        self.cpu_governors = {
            Resource.BIG: OndemandGovernor(self.spec.big_opp),
            Resource.LITTLE: OndemandGovernor(self.spec.little_opp),
        }
        self.gpu_governor = OndemandGovernor(self.spec.gpu_opp, up_threshold=0.90)
        self.idle_governor = IdleGovernor(max_cores=self.spec.cores_per_cluster)
        self.reactive = (
            ReactiveThrottleGovernor(self.spec.big_opp)
            if mode is ThermalMode.REACTIVE
            else None
        )

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the benchmark to completion (or the duration cap).

        The B=1 view of :class:`BatchSimulator`: one run goes through
        exactly the code path a batch of many does, which is what makes
        batched and serial execution byte-identical.
        """
        return BatchSimulator([self]).run()[0]

    # ------------------------------------------------------------------
    def _propose(
        self, sched, current: PlatformConfig, time_s: float
    ) -> PlatformConfig:
        """Run the default governors on the last interval's load."""
        on_big = current.cluster is Resource.BIG
        utils = sched.big_utils if on_big else sched.little_utils
        online = current.active_online
        sample = LoadSample(
            core_utilisations=utils[:online],
            current_freq_hz=current.active_freq_hz,
            time_s=time_s,
        )
        governor = self.cpu_governors[current.cluster]
        freq = governor.propose(sample)
        online_next = self.idle_governor.propose(utils, online)

        gpu_sample = LoadSample(
            core_utilisations=(sched.gpu_util,),
            current_freq_hz=current.gpu_freq_hz,
            time_s=time_s,
        )
        gpu_freq = self.gpu_governor.propose(gpu_sample)

        if on_big:
            return current.with_(
                big_freq_hz=freq, big_online=online_next, gpu_freq_hz=gpu_freq
            )
        return current.with_(
            little_freq_hz=freq, little_online=online_next, gpu_freq_hz=gpu_freq
        )


def _actuate(
    state: PlantState,
    row: int,
    final: PlatformConfig,
    prefer_off: Optional[int],
    spec: PlatformSpec,
) -> Tuple[float, bool, int]:
    """Push a configuration into lane ``row`` of the plant state.

    Returns (stall seconds, migrated?, #cores hotplugged).  Migration
    brings the incoming cluster up all online, as
    :meth:`~repro.platform.soc.ExynosSoc.switch_cluster` does; an
    off-table frequency raises ``InvalidFrequencyError``.  Hotplug
    offlines ``prefer_off`` first, else the highest online core, and
    onlines the lowest offline one.
    """
    penalty = 0.0
    to_big = final.cluster is Resource.BIG
    mask = state.big_online[row] if to_big else state.little_online[row]
    migrated = bool(state.active_is_big[row]) != to_big
    if migrated:
        state.active_is_big[row] = to_big
        mask[:] = True
        penalty += CLUSTER_MIGRATION_PENALTY_S

    state.big_freq_hz[row] = spec.big_opp.validate(final.big_freq_hz)
    state.little_freq_hz[row] = spec.little_opp.validate(final.little_freq_hz)
    state.gpu_freq_hz[row] = spec.gpu_opp.validate(final.gpu_freq_hz)

    target = final.active_online
    changes = 0
    while np.count_nonzero(mask) > target:
        online = np.flatnonzero(mask).tolist()
        victim = prefer_off if prefer_off in online else online[-1]
        mask[victim] = False
        prefer_off = None  # only for the first core taken down
        changes += 1
    while np.count_nonzero(mask) < target:
        mask[np.argmin(mask)] = True  # the lowest offline core
        changes += 1
    return penalty + changes * HOTPLUG_PENALTY_S, migrated, changes


class _Lane:
    """Per-run control state of one :class:`BatchSimulator` lane."""

    __slots__ = (
        "sim",
        "progress",
        "recorder",
        "counters",
        "current",
        "pending_freeze_s",
        "migrations",
        "offlined",
    )

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.progress = WorkloadProgress(sim.workload)
        self.recorder = TraceRecorder(RUN_COLUMNS)
        self.counters = ViolationCounter()
        self.current = PlatformConfig(
            cluster=Resource.BIG,
            big_freq_hz=sim.spec.big_opp.f_min_hz,
            little_freq_hz=sim.spec.little_opp.f_min_hz,
            gpu_freq_hz=sim.spec.gpu_opp.f_min_hz,
            big_online=sim.spec.cores_per_cluster,
            little_online=sim.spec.cores_per_cluster,
        )
        self.pending_freeze_s = 0.0
        self.migrations = 0
        self.offlined = 0

    def active(self, time_s: float) -> bool:
        """Whether this lane, its clock at ``time_s``, has work and time left."""
        return not self.progress.done and time_s < self.sim.max_duration_s

    def finish(self) -> RunResult:
        """Build the lane's result."""
        sim = self.sim
        return RunResult(
            benchmark=sim.workload.name,
            mode=sim.mode.value,
            completed=self.progress.done,
            execution_time_s=sim.board.time_s,
            average_platform_power_w=sim.board.meter.average_power_w,
            energy_j=sim.board.meter.energy_j,
            trace=self.recorder,
            interventions=self.counters.interventions,
            violations_predicted=self.counters.violations,
            cluster_migrations=self.migrations,
            cores_offlined=self.offlined,
        )


class BatchSimulator:
    """Lock-steps ``B`` independent runs through one batched plant.

    Every lane keeps its own workload, thermal mode, governor, controller
    and RNG state.  Per control step the physics of all lanes advances
    through one struct-of-arrays NumPy kernel, their sensors are read in
    one :meth:`SensorBank.read_all` over a stack of the lanes' banks, and
    the DTPM lanes' controllers run as one :meth:`DtpmGovernor.control`
    over a stack of their governors.  The scheduler, the default
    governors, actuation (:func:`_actuate`, into the lane's row of the
    run's plant state) and recording run per lane, exactly as in a
    standalone :class:`Simulator`.  The boards' plant state is gathered
    once per run; lanes that finish (or hit their duration cap) are
    written back to their boards and drop out; the rest keep stepping.

    All lanes must share the plant "shape": the platform spec, the
    thermal network physics and the control/substep timing
    (:class:`~repro.config.SimulationConfig` noise knobs, seeds, modes,
    workloads and durations are free to vary per lane).  Within that
    contract a batch of ``N`` runs is byte-identical to ``N`` serial
    runs, because every batched kernel is elementwise over the batch axis
    and per-lane RNG streams are consumed in the serial order.
    """

    def __init__(self, sims: Sequence[Simulator]) -> None:
        if not sims:
            raise ConfigurationError("a batch needs at least one simulator")
        if len({id(s) for s in sims}) != len(sims):
            raise ConfigurationError(
                "a simulator cannot ride in one batch twice"
            )
        first = sims[0]
        for sim in sims[1:]:
            if (
                sim.config.control_period_s != first.config.control_period_s
                or sim.config.thermal_substep_s
                != first.config.thermal_substep_s
            ):
                raise ConfigurationError(
                    "batched runs must share the control/substep timing"
                )
        self.sims: List[Simulator] = list(sims)
        # validates spec / thermal-network / fan compatibility
        self.plant = BatchPlant([sim.board for sim in self.sims])

    # ------------------------------------------------------------------
    def run(self) -> List[RunResult]:
        """Execute all lanes to completion; results come back in lane order."""
        dt = self.sims[0].config.control_period_s
        substeps = self.sims[0].config.substeps_per_control
        spec = self.plant.spec

        lanes: List[_Lane] = []
        for sim in self.sims:
            if sim.warm_start_c is not None:
                sim.board.warm_start(sim.warm_start_c)
            if sim.dtpm is not None:
                sim.dtpm.reset()
            lanes.append(_Lane(sim))

        # the run's one gather; the initial configuration costs no stall
        active = list(range(len(lanes)))
        state = self.plant.gather(active)
        for row, lane in enumerate(lanes):
            _actuate(state, row, lane.current, None, spec)

        results: List[Optional[RunResult]] = [None] * len(lanes)
        stacked_for: List[int] = []
        while True:
            # ended lanes go back to their boards (results, carry-over)
            clock = state.time_s.tolist()
            ended = [r for r, i in enumerate(active) if not lanes[i].active(clock[r])]
            if ended:
                self.plant.scatter(state.take(ended), [active[r] for r in ended])
                for r in ended:
                    results[active[r]] = lanes[active[r]].finish()
                rows = [r for r in range(len(active)) if r not in ended]
                state, active = state.take(rows), [active[r] for r in rows]
            if not active:
                break

            if active != stacked_for:
                # the active lanes' sensors and DTPM controllers as one
                # [B, ...] step each, re-stacked as lanes drop out
                sensors = SensorBank.stack(
                    [lanes[i].sim.board.sensors for i in active]
                )
                dtpm_pos = [
                    pos for pos, i in enumerate(active)
                    if lanes[i].sim.mode is ThermalMode.DTPM
                ]
                dtpm = (
                    DtpmGovernor.stack(
                        [lanes[active[pos]].sim.dtpm for pos in dtpm_pos]
                    )
                    if dtpm_pos
                    else None
                )
                # every lane of the batch is a DTPM lane: no row gather
                dtpm_rows = (
                    slice(None) if len(dtpm_pos) == len(active) else dtpm_pos
                )
                stacked_for = active

            # 1. place threads and account work for this interval (per lane)
            scheds = []
            for pos, i in enumerate(active):
                lane = lanes[i]
                sim = lane.sim
                frozen = min(lane.pending_freeze_s, dt)
                lane.pending_freeze_s -= frozen
                sched = sim.scheduler.assign(
                    sim.workload, lane.progress, lane.current, dt,
                    frozen_s=frozen,
                )
                scheds.append(sched)
                state.gpu_util[pos] = clamp(sched.gpu_util, 0.0, 1.0)
                state.mem_traffic[pos] = clamp(sched.mem_traffic, 0.0, 1.0)

            # 2. advance every physical plant through one batched kernel
            self.plant.advance_interval(
                state,
                active,
                np.array([s.big_utils for s in scheds]),
                np.array([s.little_utils for s in scheds]),
                np.array([s.cpu_activity for s in scheds]),
                np.array([s.gpu_activity for s in scheds]),
                self.sims[0].config.thermal_substep_s,
                substeps,
            )
            hotspots = self.plant.hotspots_k(state)
            clock = state.time_s.tolist()

            # 3. every lane's sensors in one read; the recorded values as
            # one Python list per lane
            temps_k, powers_w = sensors.read_all(hotspots, state.powers_w)
            temps_c = temps_k - KELVIN_OFFSET
            sensed = np.column_stack(
                (
                    temps_c.max(axis=1),
                    hotspots.max(axis=1) - KELVIN_OFFSET,
                    temps_c,
                    powers_w,
                )
            ).tolist()

            # 4. the default governors' proposals (per lane)
            proposals = []
            for pos, i in enumerate(active):
                lane = lanes[i]
                lane.progress.retire(scheds[pos].work_gcycles, dt)
                proposals.append(
                    lane.sim._propose(scheds[pos], lane.current, clock[pos])
                )

            # 5. the DTPM controller: one array step over its lanes
            outcomes: List[Optional[DtpmOutcome]] = [None] * len(active)
            if dtpm is not None:
                step = dtpm.control(
                    SensorSnapshot(
                        time_s=state.time_s[dtpm_rows],
                        temperatures_k=temps_k[dtpm_rows],
                        powers_w=powers_w[dtpm_rows],
                        platform_power_w=state.last_reading_w[dtpm_rows],
                    ),
                    [lanes[active[pos]].current for pos in dtpm_pos],
                    [proposals[pos] for pos in dtpm_pos],
                    [lanes[active[pos]].sim.workload.uses_gpu for pos in dtpm_pos],
                )
                for pos, outcome in zip(dtpm_pos, step):
                    outcomes[pos] = outcome

            # 6. actuation and recording -- each lane as a standalone run
            fan_speed = state.fan_speed.tolist()
            meter_w = state.last_reading_w.tolist()
            for pos, i in enumerate(active):
                lane = lanes[i]
                sim = lane.sim
                proposal = proposals[pos]
                outcome = outcomes[pos]
                if sim.mode is ThermalMode.REACTIVE:
                    final = sim.reactive.control(
                        float(np.max(temps_k[pos])), proposal
                    )
                elif outcome is not None:
                    final = outcome.config
                else:
                    final = proposal

                decision = outcome.decision if outcome is not None else None
                prefer_off = decision.core_turned_off if decision else None
                penalty, migrated, cores_changed = _actuate(
                    state, pos, final, prefer_off, spec
                )
                lane.pending_freeze_s += penalty
                lane.migrations += int(migrated)
                lane.offlined += cores_changed

                # the lane-interval's row: the recorder stores it and the
                # counter tallies its two controller-decision flags
                max_c, true_max_c, t0, t1, t2, t3, p0, p1, p2, p3 = sensed[pos]
                interval = dict(
                    time_s=clock[pos],
                    max_temp_c=max_c,
                    true_max_temp_c=true_max_c,
                    temp0_c=t0,
                    temp1_c=t1,
                    temp2_c=t2,
                    temp3_c=t3,
                    big_freq_hz=final.big_freq_hz,
                    little_freq_hz=final.little_freq_hz,
                    gpu_freq_hz=final.gpu_freq_hz,
                    cluster_is_big=float(final.cluster is Resource.BIG),
                    online_cores=float(final.active_online),
                    fan_speed=float(fan_speed[pos]),
                    platform_power_w=meter_w[pos],
                    p_big_w=p0,
                    p_little_w=p1,
                    p_gpu_w=p2,
                    p_mem_w=p3,
                    violation_predicted=float(
                        bool(outcome and outcome.violation_predicted)
                    ),
                    intervened=float(bool(outcome and outcome.intervened)),
                )
                lane.recorder.append(**interval)
                lane.counters.on_interval(interval)
                lane.current = final

        return results
