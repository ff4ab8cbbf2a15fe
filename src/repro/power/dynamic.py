"""Run-time dynamic power model (Section 4.1.2, Fig. 4.4).

At every control interval the platform's sensors provide the total power
and temperature of each resource.  The leakage model converts temperature
into a leakage estimate; the remainder is dynamic power, from which the
product ``alpha * C`` (activity factor x switching capacitance) is
extracted:

    alpha*C = (P_total - P_leak(T, Vdd)) / (Vdd^2 * f)

"This computation is continuously updated and an accurate reflection of
activity factor is obtained at run-time" -- implemented here as an
exponentially weighted moving average so single-sample sensor noise does
not whipsaw the frequency decisions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError
from repro.power.leakage import LeakageModel


def vdd_squared(vdd: np.ndarray) -> np.ndarray:
    """``vdd ** 2`` elementwise, squared the way Python squares a float.

    Python's float power calls libm ``pow`` while NumPy's ``x ** 2`` is a
    plain multiply, and the two differ in the last bit for some doubles.
    The scalar model squares Python floats (:meth:`AlphaCEstimator.update`,
    :meth:`DynamicPowerModel.predict_w`), so the batched power model
    squares them the same way to stay bit-identical to it.
    """
    vdd = np.asarray(vdd, dtype=float)
    return np.array([v ** 2 for v in vdd.ravel().tolist()]).reshape(vdd.shape)


class AlphaCEstimator:
    """EWMA estimator of the alpha*C product for one resource."""

    def __init__(
        self,
        initial_alpha_c_f: float = 0.1e-9,
        smoothing: float = 0.35,
        floor_f: float = 1e-12,
        ceiling_f: float = 20e-9,
    ) -> None:
        if not 0 < smoothing <= 1:
            raise ModelError("smoothing must be in (0, 1]")
        if not floor_f < ceiling_f:
            raise ModelError("floor must be below ceiling")
        self.smoothing = smoothing
        self.floor_f = floor_f
        self.ceiling_f = ceiling_f
        # [alpha*C (F), samples absorbed]; see seat()
        self._cell = np.array(
            [min(max(initial_alpha_c_f, floor_f), ceiling_f), 0.0]
        )

    @property
    def alpha_c_f(self) -> float:
        """Current alpha*C estimate (F)."""
        return float(self._cell[0])

    @property
    def sample_count(self) -> int:
        """Number of samples absorbed so far."""
        return int(self._cell[1])

    def seat(self, cell: np.ndarray) -> None:
        """Move the estimate into ``cell``, a ``[alpha*C, samples]`` view.

        A stacked :class:`~repro.power.model.PowerModel` seats every
        lane's estimators on rows of its ``(B, 4, 2)`` state, so scalar
        code that reads a lane's estimator during a batched run sees the
        live value.
        """
        cell[:] = self._cell
        self._cell = cell

    def update(self, dynamic_power_w: float, vdd: float, frequency_hz: float) -> float:
        """Absorb one interval's dynamic-power observation.

        Returns the updated alpha*C estimate.  Non-positive dynamic power
        (leakage model overshoot at idle) clamps the raw sample to the floor
        rather than going negative.
        """
        if vdd <= 0 or frequency_hz <= 0:
            raise ModelError("vdd and frequency must be positive")
        raw = dynamic_power_w / (vdd ** 2 * frequency_hz)
        raw = min(max(raw, self.floor_f), self.ceiling_f)
        alpha_c = self.alpha_c_f
        if self.sample_count == 0:
            alpha_c = raw
        else:
            alpha_c += self.smoothing * (raw - alpha_c)
        self._cell[0] = alpha_c
        self._cell[1] += 1
        return alpha_c


class DynamicPowerModel:
    """Predicts dynamic power from the tracked alpha*C product.

    This is the model used in Eq. 5.7 to turn a dynamic power budget into a
    frequency: ``P_dyn = alpha*C * Vdd^2 * f``.
    """

    def __init__(self, estimator: Optional[AlphaCEstimator] = None) -> None:
        self.estimator = estimator or AlphaCEstimator()

    def predict_w(self, frequency_hz: float, vdd: float) -> float:
        """Dynamic power (W) at the given operating point."""
        if vdd <= 0 or frequency_hz <= 0:
            raise ModelError("vdd and frequency must be positive")
        return self.estimator.alpha_c_f * vdd ** 2 * frequency_hz

    def frequency_for_budget_hz(self, budget_w: float, vdd: float) -> float:
        """Invert Eq. 5.7: the frequency whose dynamic power equals budget.

        Note the returned frequency is continuous; the DTPM policy quantises
        it down to the OPP table.  A non-positive budget maps to 0 Hz.
        """
        if vdd <= 0:
            raise ModelError("vdd must be positive")
        if budget_w <= 0:
            return 0.0
        alpha_c = self.estimator.alpha_c_f
        if alpha_c <= 0:
            raise ModelError("alpha*C estimate is not positive")
        return budget_w / (alpha_c * vdd ** 2)

    def observe(
        self,
        total_power_w: float,
        temperature_k: float,
        vdd: float,
        frequency_hz: float,
        leakage_model: LeakageModel,
    ) -> float:
        """Fig. 4.4 pipeline: decompose a total-power reading, update alpha*C.

        Returns the dynamic component of the observation.
        """
        leak = leakage_model.power_w(temperature_k, vdd)
        dynamic = total_power_w - leak
        self.estimator.update(dynamic, vdd, frequency_hz)
        return dynamic
