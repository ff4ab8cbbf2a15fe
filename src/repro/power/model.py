"""Combined power model: leakage + dynamic (Section 4.1, Fig. 4.7).

One :class:`ResourcePowerModel` per measurable resource (big cluster,
little cluster, GPU, memory); the :class:`PowerModel` bundle mirrors the
power vector layout of Eq. 5.3 and is the single object the DTPM stack
consumes.  :meth:`PowerModel.stack` joins the bundles of ``B`` lanes so
the controller observes and predicts all of them in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ModelError, NotFittedError
from repro.platform.specs import OppTable, POWER_RESOURCES, Resource
from repro.power.dynamic import AlphaCEstimator, DynamicPowerModel, vdd_squared
from repro.power.leakage import LeakageModel


@dataclass
class PowerDecomposition:
    """One interval's total power split into components (W)."""

    total_w: float
    leakage_w: float
    dynamic_w: float


class ResourcePowerModel:
    """Leakage + dynamic model of one resource, updated from sensors."""

    def __init__(
        self,
        resource: Resource,
        leakage: LeakageModel,
        opp_table: Optional[OppTable] = None,
        estimator: Optional[AlphaCEstimator] = None,
    ) -> None:
        self.resource = resource
        self.leakage = leakage
        self.opp_table = opp_table
        self.dynamic = DynamicPowerModel(estimator)

    # -- observation --------------------------------------------------
    def observe(
        self,
        total_power_w: float,
        temperature_k: float,
        vdd: float,
        frequency_hz: float,
    ) -> PowerDecomposition:
        """Decompose one total-power reading and update alpha*C."""
        leak = self.leakage.power_w(temperature_k, vdd)
        dynamic = self.dynamic.observe(
            total_power_w, temperature_k, vdd, frequency_hz, self.leakage
        )
        return PowerDecomposition(
            total_w=total_power_w, leakage_w=leak, dynamic_w=dynamic
        )

    # -- prediction ----------------------------------------------------
    def predict_total_w(
        self, frequency_hz: float, temperature_k: float, vdd: Optional[float] = None
    ) -> float:
        """Predicted total power at an operating point (Eq. 4.1)."""
        if vdd is None:
            if self.opp_table is None:
                raise ModelError(
                    "%s: vdd required (no OPP table attached)" % self.resource
                )
            vdd = self.opp_table.voltage(frequency_hz)
        return (
            self.dynamic.predict_w(frequency_hz, vdd)
            + self.leakage.power_w(temperature_k, vdd)
        )

    def predict_leakage_w(self, temperature_k: float, vdd: float) -> float:
        """Predicted leakage power at temperature/voltage."""
        return self.leakage.power_w(temperature_k, vdd)


class PowerModel:
    """The full per-resource power model bundle.

    Index order follows :data:`repro.platform.specs.POWER_RESOURCES`
    (big, little, gpu, mem) -- the same layout as the thermal model's
    power input vector.

    A bundle models one platform.  :meth:`stack` joins the bundles of
    ``B`` lanes into one model over ``(B, 4)`` arrays; its alpha*C state
    is one ``(B, 4, 2)`` array on whose rows the lanes' estimators are
    seated, so each lane's own bundle stays a live per-lane view of it.
    """

    #: The lane bundles of a :meth:`stack`; None for a plain bundle.
    lanes: Optional[List["PowerModel"]] = None

    def __init__(self, models: Dict[Resource, ResourcePowerModel]) -> None:
        missing = [r for r in POWER_RESOURCES if r not in models]
        if missing:
            raise NotFittedError(
                "power model missing resources: %s" % [str(m) for m in missing]
            )
        self.models = dict(models)

    def __getitem__(self, resource: Resource) -> ResourcePowerModel:
        return self.models[resource]

    @classmethod
    def stack(cls, models: Sequence["PowerModel"]) -> "PowerModel":
        """One model over the bundles of ``B`` lanes, lane ``b`` = ``models[b]``.

        Gathers the leakage fits and estimator settings once and seats
        every lane's alpha*C on a row of the stacked state (where it
        stays until the lane is stacked again).  Only
        :meth:`observe_vector` and :meth:`predict_components_w` are
        defined on the result.
        """
        models = list(models)
        if len({id(m) for m in models}) != len(models):
            raise ConfigurationError("a power model cannot ride in one stack twice")
        parts = [[m.models[r] for r in POWER_RESOURCES] for m in models]
        estimators = [[p.dynamic.estimator for p in row] for row in parts]
        out = cls.__new__(cls)
        out.lanes = models
        out._state = np.empty((len(models), len(POWER_RESOURCES), 2))
        for lane, row in enumerate(estimators):
            for i, estimator in enumerate(row):
                estimator.seat(out._state[lane, i])
        out._smoothing = np.array([[e.smoothing for e in row] for row in estimators])
        out._floor_f = np.array([[e.floor_f for e in row] for row in estimators])
        out._ceiling_f = np.array([[e.ceiling_f for e in row] for row in estimators])
        out._c1 = np.array([[p.leakage.c1 for p in row] for row in parts])
        out._c2 = np.array([[p.leakage.c2 for p in row] for row in parts])
        out._i_gate = np.array([[p.leakage.i_gate for p in row] for row in parts])
        return out

    def _leakage_current_a(self, temperature_k: np.ndarray) -> np.ndarray:
        """Eq. 4.2 leakage current of every lane's resources, ``(B, 4)``.

        One temperature per lane; the operand order is
        :meth:`LeakageModel.current_a`'s, so each element is the scalar
        model's value.
        """
        t = np.asarray(temperature_k, dtype=float)[:, np.newaxis]
        if np.any(t <= 0):
            raise ModelError("temperature must be positive Kelvin")
        return self._c1 * t ** 2 * np.exp(self._c2 / t) + self._i_gate

    def observe_vector(
        self,
        powers_w: np.ndarray,
        temperature_k,
        vdd: np.ndarray,
        frequency_hz: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Fig. 4.4 for every lane: split each measured power, update alpha*C.

        ``powers_w``, ``vdd``, ``frequency_hz`` and ``active`` are
        ``(B, 4)`` in the [big, little, gpu, mem] layout and
        ``temperature_k`` is ``(B,)``: the temperature every resource's
        leakage is evaluated at.  Only ``active`` resources learn (a
        gated cluster's sensor reads leakage only).  A plain bundle takes
        ``(4,)`` vectors and one temperature.  Leakage is evaluated once
        per resource, and each element follows
        :meth:`ResourcePowerModel.observe` bit for bit.
        """
        if self.lanes is None:
            PowerModel.stack([self]).observe_vector(
                *(np.asarray(x)[np.newaxis]
                  for x in (powers_w, temperature_k, vdd, frequency_hz, active))
            )
            return
        vdd = np.asarray(vdd, dtype=float)
        frequency_hz = np.asarray(frequency_hz, dtype=float)
        active = np.asarray(active, dtype=bool)
        if np.any(active & ((vdd <= 0) | (frequency_hz <= 0))):
            raise ModelError("vdd and frequency must be positive")
        leakage = vdd * self._leakage_current_a(temperature_k)
        raw = (powers_w - leakage) / (vdd_squared(vdd) * frequency_hz)
        raw = np.minimum(np.maximum(raw, self._floor_f), self._ceiling_f)
        alpha_c = self._state[..., 0]
        samples = self._state[..., 1]
        learnt = np.where(
            samples == 0, raw, alpha_c + self._smoothing * (raw - alpha_c)
        )
        self._state[..., 0] = np.where(active, learnt, alpha_c)
        self._state[..., 1] = samples + active

    def predict_components_w(
        self, temperature_k, vdd: np.ndarray, frequency_hz: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 4.1 terms of every lane's resources at candidate points.

        Returns ``(dynamic, leakage)``, each ``(B, 4)``: ``alpha*C *
        Vdd^2 * f`` from the current alpha*C and ``Vdd * I_leak(T)``,
        element for element what :meth:`DynamicPowerModel.predict_w` and
        :meth:`LeakageModel.power_w` compute.
        """
        vdd = np.asarray(vdd, dtype=float)
        dynamic = self._state[..., 0] * vdd_squared(vdd) * frequency_hz
        return dynamic, vdd * self._leakage_current_a(temperature_k)

    def leakage_vector_w(
        self, temperature_k: float, operating_point: "OperatingPoint"
    ) -> np.ndarray:
        """Leakage estimate for each resource at the given temperature."""
        leaks = np.zeros(len(POWER_RESOURCES))
        for i, resource in enumerate(POWER_RESOURCES):
            point = operating_point.for_resource(resource)
            if point is None:
                continue
            vdd, _ = point
            leaks[i] = self.models[resource].predict_leakage_w(temperature_k, vdd)
        return leaks


@dataclass(frozen=True)
class OperatingPoint:
    """Voltage/frequency of every resource at one control interval.

    Inactive resources carry ``None`` and are skipped by model updates.
    """

    big: Optional[tuple]  # (vdd, frequency_hz) or None when gated
    little: Optional[tuple]
    gpu: Optional[tuple]
    mem: Optional[tuple]

    def for_resource(self, resource: Resource) -> Optional[tuple]:
        """(vdd, frequency) of a resource, or None if gated."""
        return {
            Resource.BIG: self.big,
            Resource.LITTLE: self.little,
            Resource.GPU: self.gpu,
            Resource.MEM: self.mem,
        }[resource]
