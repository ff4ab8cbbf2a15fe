"""The closed-loop simulation engine.

Reproduces the paper's run-time stack at a 100 ms control period: the
kernel's load balancer places threads, ondemand + idle governors propose
the next configuration, the thermal-management layer of the selected
experimental configuration (Section 6.2) may overwrite it, the actuators
apply it (with migration/hotplug stalls), and the physical plant advances.

The loop is batched: a :class:`BatchSimulator` lock-steps ``B``
independent runs -- each with its own workload, mode, governor and
controller state -- and per control step advances all their plants
through one struct-of-arrays kernel
(:class:`~repro.platform.state.BatchPlant`), reads all their sensors in
one pass and runs the DTPM controller as one array step over its lanes.
:class:`Simulator` is the ``B = 1`` view of that same code path, and
every batched step is elementwise over the batch axis, so a batch of
``N`` runs produces traces byte-identical to ``N`` runs executed one at
a time.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

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
    HOTPLUG_PENALTY_S,
    PlatformSpec,
    Resource,
)
from repro.platform.state import BatchPlant
from repro.sim.consumers import TraceConsumer, ViolationCounter
from repro.sim.run_result import RUN_COLUMNS, RunResult, TraceRecorder
from repro.sim.scheduler import LoadBalancer
from repro.units import KELVIN_OFFSET
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
        consumers: Optional[Sequence[TraceConsumer]] = None,
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
        #: Streaming observers notified per interval (see repro.sim.consumers).
        self.consumers = list(consumers or ())

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

    # ------------------------------------------------------------------
    def _apply(
        self,
        final: PlatformConfig,
        current: PlatformConfig,
        outcome,
    ):
        """Push a configuration into the SoC actuators.

        Returns (stall seconds, migrated?, #cores hotplugged).
        """
        soc = self.board.soc
        penalty = 0.0
        migrated = False
        cores_changed = 0

        if final.cluster is not soc.active_cluster:
            penalty += soc.switch_cluster(final.cluster)
            migrated = True

        soc.big.set_frequency(final.big_freq_hz)
        soc.little.set_frequency(final.little_freq_hz)
        soc.gpu.set_frequency(final.gpu_freq_hz)

        cluster = soc.big if final.cluster is Resource.BIG else soc.little
        target = final.active_online
        prefer_off = None
        if outcome is not None and outcome.decision is not None:
            prefer_off = outcome.decision.core_turned_off
        cores_changed = self._set_online(cluster, target, prefer_off)
        penalty += cores_changed * HOTPLUG_PENALTY_S
        return penalty, migrated, cores_changed

    @staticmethod
    def _set_online(cluster, target: int, prefer_off: Optional[int]) -> int:
        """Hotplug to ``target`` online cores, offlining ``prefer_off`` first."""
        changes = 0
        # offline preferred core first when reducing
        while cluster.num_online > target:
            candidates = cluster.online_cores
            victim = (
                prefer_off
                if prefer_off in candidates
                else candidates[-1]
            )
            cluster.set_core_online(victim, False)
            prefer_off = None
            changes += 1
        while cluster.num_online < target:
            for core in range(cluster.num_cores):
                if not cluster.is_online(core):
                    cluster.set_core_online(core, True)
                    changes += 1
                    break
        return changes


class _Lane:
    """Per-run control state of one :class:`BatchSimulator` lane."""

    __slots__ = (
        "sim",
        "progress",
        "recorder",
        "counters",
        "observers",
        "current",
        "pending_freeze_s",
        "migrations",
        "offlined",
    )

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.progress = WorkloadProgress(sim.workload)
        self.recorder = TraceRecorder(RUN_COLUMNS)
        # violation/intervention counting is a streaming consumer like any
        # other observer of the recorded trace
        self.counters = ViolationCounter()
        self.observers = [self.counters] + sim.consumers
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

    @property
    def active(self) -> bool:
        """Whether this lane still has work and time budget left."""
        return (
            not self.progress.done
            and self.sim.board.time_s < self.sim.max_duration_s
        )

    def finish(self) -> RunResult:
        """Build the lane's result and notify its consumers."""
        sim = self.sim
        result = RunResult(
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
        for consumer in sim.consumers:
            consumer.on_run_end(result)
        return result


class BatchSimulator:
    """Lock-steps ``B`` independent runs through one batched plant.

    Every lane keeps its own workload, thermal mode, governor, controller
    and RNG state.  Per control step the physics of all lanes advances
    through one struct-of-arrays NumPy kernel, their sensors are read in
    one :meth:`SensorBank.read_all` over a stack of the lanes' banks, and
    the DTPM lanes' controllers run as one :meth:`DtpmGovernor.control`
    over a stack of their governors.  The scheduler, the default
    governors, actuation and recording run per lane, exactly as in a
    standalone :class:`Simulator`.  Lanes that finish (or hit their
    duration cap) drop out of the batch; the rest keep stepping.

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

        lanes: List[_Lane] = []
        for sim in self.sims:
            if sim.warm_start_c is not None:
                sim.board.warm_start(sim.warm_start_c)
            if sim.dtpm is not None:
                sim.dtpm.reset()
            lane = _Lane(sim)
            sim._apply(lane.current, lane.current, None)
            for consumer in lane.observers:
                consumer.on_run_start(
                    sim.workload.name, sim.mode.value, RUN_COLUMNS
                )
            lanes.append(lane)

        results: List[Optional[RunResult]] = [None] * len(lanes)
        active = [i for i, lane in enumerate(lanes) if lane.active]
        for i, lane in enumerate(lanes):
            if results[i] is None and i not in active:
                results[i] = lane.finish()

        stacked_for: List[int] = []
        while active:
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
            for i in active:
                lane = lanes[i]
                sim = lane.sim
                frozen = min(lane.pending_freeze_s, dt)
                lane.pending_freeze_s -= frozen
                sched = sim.scheduler.assign(
                    sim.workload, lane.progress, lane.current, dt,
                    frozen_s=frozen,
                )
                scheds.append(sched)
                sim.board.soc.gpu.set_utilisation(sched.gpu_util)
                sim.board.soc.mem.set_traffic(sched.mem_traffic)

            # 2. advance every physical plant through one batched kernel
            state = self.plant.gather(active)
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
            self.plant.scatter(state, active)
            hotspots = self.plant.hotspots_k(state)

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
                    lane.sim._propose(
                        scheds[pos], lane.current, lane.sim.board.time_s
                    )
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
            still_active = []
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

                penalty, migrated, cores_changed = sim._apply(
                    final, lane.current, outcome
                )
                lane.pending_freeze_s += penalty
                lane.migrations += int(migrated)
                lane.offlined += cores_changed

                # published values are plain Python floats: consumers see
                # the same types live, replayed from a cache artifact, or
                # recorded (the recorder's buffer is float64 regardless)
                max_c, true_max_c, t0, t1, t2, t3, p0, p1, p2, p3 = sensed[pos]
                interval = dict(
                    time_s=sim.board.time_s,
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
                    fan_speed=float(int(sim.board.fan.speed)),
                    platform_power_w=sim.board.meter.last_reading_w,
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
                for consumer in lane.observers:
                    consumer.on_interval(interval)
                lane.current = final

                if lane.active:
                    still_active.append(i)
                else:
                    results[i] = lane.finish()
            active = still_active

        return results
