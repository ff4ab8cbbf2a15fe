"""The DTPM governor: prediction -> budget -> configuration (Fig. 3.1).

Runs once per control interval (100 ms, whenever the cpufreq driver runs).
It is deliberately *non-intrusive*: the stock governors' proposal passes
through untouched unless a thermal violation is predicted within the
1-second window, in which case the power budget machinery of Chapter 5
overwrites the proposal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.core.budget import BudgetResult, PowerBudgetComputer
from repro.core.policy import DtpmPolicy, PolicyDecision
from repro.core.predictor import ThermalForecast, ThermalPredictor
from repro.errors import BudgetError, ConfigurationError
from repro.governors.base import PlatformConfig
from repro.platform.board import SensorSnapshot
from repro.platform.specs import PlatformSpec, POWER_RESOURCES, Resource
from repro.power.model import OperatingPoint, PowerModel
from repro.thermal.state_space import DiscreteThermalModel


@dataclass
class DtpmOutcome:
    """Everything the DTPM governor did in one control interval."""

    config: PlatformConfig
    violation_predicted: bool
    forecast: ThermalForecast
    budget: Optional[BudgetResult] = None
    decision: Optional[PolicyDecision] = None

    @property
    def intervened(self) -> bool:
        """Whether the default proposal was overwritten."""
        return self.decision is not None


class DtpmGovernor:
    """Predictive dynamic thermal and power management controller.

    A governor controls one platform.  :meth:`stack` joins the governors
    of ``B`` lanes into one whose :meth:`control` runs the power-model
    update, the power prediction and the violation test as array passes
    over all of them.  The per-lane decision then stays scalar, each
    with its own governor's state, and only lanes that predict a
    violation or run on the little cluster compute a budget.
    """

    #: The lane governors of a :meth:`stack`; None for a plain governor.
    lanes: Optional[List["DtpmGovernor"]] = None

    def __init__(
        self,
        thermal_model: DiscreteThermalModel,
        power_model: PowerModel,
        spec: Optional[PlatformSpec] = None,
        config: Optional[SimulationConfig] = None,
        policy: Optional[DtpmPolicy] = None,
        guard_band_k: float = 0.75,
        observer=None,
    ) -> None:
        self.spec = spec or PlatformSpec()
        self.config = config or SimulationConfig()
        self.power_model = power_model
        #: Optional :class:`repro.thermal.observer.TemperatureObserver`.
        #: When set, sensor temperatures are Kalman-filtered through the
        #: identified model before prediction and budgeting (an extension;
        #: the paper feeds raw sensor values, which is the default here).
        self.observer = observer
        self.predictor = ThermalPredictor(
            thermal_model,
            horizon_steps=self.config.prediction_horizon_steps,
            guard_band_k=guard_band_k,
        )
        self.budget_computer = PowerBudgetComputer(
            thermal_model, horizon_steps=self.config.prediction_horizon_steps
        )
        self.policy = policy or DtpmPolicy(self.spec, self.config)

    @classmethod
    def stack(cls, governors: Sequence["DtpmGovernor"]) -> "DtpmGovernor":
        """One governor over ``B`` lanes, lane ``b`` = ``governors[b]``.

        Gathers the lanes' constraints, predictors and power models into
        ``[B, ...]`` arrays once.  Each lane's alpha*C is seated on a row
        of the stacked power model, so a lane's own governor reads the
        live value whenever its scalar budget and policy code runs.  The
        lanes must share one platform spec.
        """
        governors = list(governors)
        if len({id(g) for g in governors}) != len(governors):
            raise ConfigurationError("a governor cannot ride in one stack twice")
        spec = governors[0].spec
        if any(g.spec != spec for g in governors[1:]):
            raise ConfigurationError("stacked governors must share one spec")
        out = cls.__new__(cls)
        out.lanes = governors
        out.spec = spec
        out.power_model = PowerModel.stack([g.power_model for g in governors])
        out.predictor = ThermalPredictor.stack([g.predictor for g in governors])
        out._t_constraint_k = np.array(
            [g.config.t_constraint_k for g in governors]
        )
        out._observed = [
            b for b, g in enumerate(governors) if g.observer is not None
        ]
        return out

    def reset(self) -> None:
        """Clear run-scoped state."""
        self.policy.reset()
        if self.observer is not None:
            self.observer.reset()

    # ------------------------------------------------------------------
    def operating_point(self, config: PlatformConfig) -> OperatingPoint:
        """Voltage/frequency of each resource under a configuration."""
        points = self._operating_points([config])
        return OperatingPoint(
            *(
                (float(points.vdd[0, i]), float(points.freq[0, i]))
                if points.active[0, i]
                else None
                for i in range(len(POWER_RESOURCES))
            )
        )

    def _operating_points(self, configs: Sequence[PlatformConfig]) -> "_Points":
        """The operating point of every lane's configuration, as arrays.

        The inactive CPU cluster is gated.  Memory has no DVFS: it is
        modelled at its fixed rail with unit frequency, so its alpha*C
        tracker degenerates into a traffic tracker.
        """
        fields = np.array(
            [
                (
                    c.cluster is Resource.BIG,
                    c.big_freq_hz,
                    c.little_freq_hz,
                    c.gpu_freq_hz,
                    c.big_online,
                    c.little_online,
                )
                for c in configs
            ],
            dtype=float,
        )
        on_big = fields[:, 0].astype(bool)
        freq = np.empty((len(configs), len(POWER_RESOURCES)))
        freq[:, :3] = fields[:, 1:4]
        freq[:, 3] = 1.0
        vdd = np.empty_like(freq)
        vdd[:, 0] = self.spec.big_opp.voltage(freq[:, 0])
        vdd[:, 1] = self.spec.little_opp.voltage(freq[:, 1])
        vdd[:, 2] = self.spec.gpu_opp.voltage(freq[:, 2])
        vdd[:, 3] = self.spec.mem_vdd
        active = np.ones_like(freq, dtype=bool)
        active[:, 0] = on_big
        active[:, 1] = ~on_big
        return _Points(on_big, freq, vdd, active, fields[:, 4], fields[:, 5])

    def predicted_power_vector(
        self,
        snapshot: SensorSnapshot,
        current: PlatformConfig,
        proposal: PlatformConfig,
    ) -> np.ndarray:
        """Power vector expected if the proposal is applied.

        Resources whose operating point is unchanged keep their measured
        power (best available estimate); changed resources are re-predicted
        through the power model (Section 3: "the proposed power model uses
        the choice made by the default configuration to predict the power
        consumption before taking any action").
        """
        stacked = DtpmGovernor.stack([self])
        powers = np.atleast_2d(snapshot.powers_w).astype(float)
        return stacked._predicted_powers(
            powers,
            np.atleast_2d(snapshot.temperatures_k).max(axis=1),
            stacked._operating_points([current]),
            stacked._operating_points([proposal]),
        )[0]

    def _predicted_powers(
        self,
        powers_w: np.ndarray,
        t_hot: np.ndarray,
        ran: "_Points",
        proposed: "_Points",
    ) -> np.ndarray:
        """:meth:`predicted_power_vector` of every lane, ``(B, 4)``.

        The proposal's CPU cluster is re-predicted at its new frequency,
        with alpha*C scaled by ``online / online_now`` (the load each
        hotplug change adds or removes, as
        :meth:`DtpmPolicy.predicted_cluster_power_w` models it), and the
        other cluster drops to zero; the GPU is re-predicted when its
        frequency changes.
        """
        lanes = np.arange(powers_w.shape[0])
        on_big = proposed.on_big
        same = np.where(
            on_big,
            ran.on_big
            & (np.abs(ran.freq[:, 0] - proposed.freq[:, 0]) < 0.5)
            & (ran.big_online == proposed.big_online),
            ~ran.on_big & (np.abs(ran.freq[:, 1] - proposed.freq[:, 1]) < 0.5),
        )
        online = np.where(on_big, proposed.big_online, proposed.little_online)
        online_now = np.where(
            on_big,
            np.where(ran.on_big, ran.big_online, proposed.big_online),
            np.where(ran.on_big, proposed.little_online, ran.little_online),
        )
        dynamic, leakage = self.power_model.predict_components_w(
            t_hot, proposed.vdd, proposed.freq
        )
        cluster = np.where(on_big, 0, 1)
        predicted = (
            dynamic[lanes, cluster] * (online / np.maximum(1, online_now))
            + leakage[lanes, cluster]
        )
        out = powers_w.copy()
        out[lanes, cluster] = np.where(same, out[lanes, cluster], predicted)
        out[lanes, 1 - cluster] = np.where(same, out[lanes, 1 - cluster], 0.0)
        gpu_changed = np.abs(ran.freq[:, 2] - proposed.freq[:, 2]) >= 0.5
        out[:, 2] = np.where(gpu_changed, dynamic[:, 2] + leakage[:, 2], out[:, 2])
        return out

    # ------------------------------------------------------------------
    def control(
        self,
        snapshot: SensorSnapshot,
        current,
        proposal,
        gpu_active=False,
    ):
        """One DTPM control interval.

        Parameters
        ----------
        snapshot:
            The sensor readings of this interval.
        current:
            The configuration the platform actually ran during the interval
            (needed to attribute the measured powers to operating points).
        proposal:
            What the default governors want to run next.
        gpu_active:
            Whether the GPU is meaningfully loaded (drives the last-resort
            GPU throttle).

        A plain governor takes one lane's snapshot and configurations and
        returns its :class:`DtpmOutcome`: it runs as the one-lane stack of
        itself.  A :meth:`stack` of ``B`` lanes takes a snapshot of
        ``(B, 4)`` arrays and a sequence per other argument, and returns
        one outcome per lane.
        """
        if self.lanes is None:
            return DtpmGovernor.stack([self]).control(
                snapshot, [current], [proposal], [gpu_active]
            )[0]
        temps = np.atleast_2d(snapshot.temperatures_k)
        powers = np.atleast_2d(snapshot.powers_w).astype(float)
        t_hot = temps.max(axis=1)
        ran = self._operating_points(current)
        proposed = self._operating_points(proposal)

        # 1. feed the measurement into the power model (alpha*C tracking)
        self.power_model.observe_vector(powers, t_hot, ran.vdd, ran.freq, ran.active)

        # optional state filtering through the identified model
        temps_k = temps
        if self._observed:
            temps_k = temps.copy()
            for b in self._observed:
                temps_k[b] = self.lanes[b].observer.update(temps[b], powers[b])

        # 2. predict the thermal outcome of the default proposal
        p_vec = self._predicted_powers(powers, t_hot, ran, proposed)
        forecast = self.predictor.forecast(temps_k, p_vec, self._t_constraint_k)

        per_lane = zip(forecast.lanes(), temps_k, powers, proposal, gpu_active)
        return [lane._decide(*args) for lane, args in zip(self.lanes, per_lane)]

    def _decide(
        self,
        forecast: ThermalForecast,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        proposal: PlatformConfig,
        gpu_active: bool,
    ) -> DtpmOutcome:
        """One lane's configuration once its forecast is known."""
        if not forecast.violation:
            # non-intrusive path; possibly migrate back to big
            decision = self.policy.consider_return_to_big(
                self.budget_computer,
                self.power_model,
                temps_k,
                powers_w,
                proposal,
                self.config.t_constraint_k,
            )
            return DtpmOutcome(
                config=decision.config if decision else proposal,
                violation_predicted=False,
                forecast=forecast,
                decision=decision,
            )

        # 3. violation predicted: compute the budget and reassign
        resource = (
            Resource.BIG if proposal.cluster is Resource.BIG else Resource.LITTLE
        )
        try:
            budget = self.budget_computer.compute(
                temps_k,
                powers_w,
                self.config.t_constraint_k,
                resource=resource,
            )
        except BudgetError:
            # Unusable row: fall back to the most conservative safe config.
            fallback = proposal.with_(
                big_freq_hz=self.spec.big_opp.f_min_hz,
                little_freq_hz=self.spec.little_opp.f_min_hz,
            )
            decision = PolicyDecision(config=fallback)
            decision.actions.append("budget unsolvable; pinned f_min")
            return DtpmOutcome(
                config=fallback,
                violation_predicted=True,
                forecast=forecast,
                decision=decision,
            )

        decision = self.policy.assign(
            budget,
            self.budget_computer,
            self.power_model,
            temps_k,
            powers_w,
            proposal,
            self.config.t_constraint_k,
            gpu_active,
        )
        return DtpmOutcome(
            config=decision.config,
            violation_predicted=True,
            forecast=forecast,
            budget=budget,
            decision=decision,
        )


class _Points(NamedTuple):
    """Operating points of ``B`` lanes' configurations."""

    on_big: np.ndarray  # (B,) bool: the big cluster is the active one
    freq: np.ndarray  # (B, 4) Hz, [big, little, gpu, mem]
    vdd: np.ndarray  # (B, 4) V
    active: np.ndarray  # (B, 4) bool: resources that are not gated
    big_online: np.ndarray  # (B,)
    little_online: np.ndarray  # (B,)
