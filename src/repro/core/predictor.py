"""Run-time thermal predictor (the "Temperature Prediction" block, Fig. 3.1).

Wraps the identified :class:`DiscreteThermalModel` with the operations the
DTPM loop needs every control interval: predict the temperature a horizon
ahead for a hypothetical power vector, and flag predicted violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ModelError
from repro.thermal.state_space import DiscreteThermalModel


@dataclass(frozen=True)
class ThermalForecast:
    """Prediction outcome for one candidate power vector.

    For a many-lane forecast every field carries a leading lane axis:
    ``temps_k`` is ``(B, N)`` and the other fields are ``(B,)`` arrays.
    """

    temps_k: np.ndarray
    max_temp_k: float
    hottest_core: int
    violation: bool
    margin_k: float  # constraint minus predicted max (negative = violation)

    def lanes(self) -> List["ThermalForecast"]:
        """The one-lane forecasts of a many-lane forecast, in lane order."""
        return [
            ThermalForecast(*fields)
            for fields in zip(
                self.temps_k,
                self.max_temp_k.tolist(),
                self.hottest_core.tolist(),
                self.violation.tolist(),
                self.margin_k.tolist(),
            )
        ]


class ThermalPredictor:
    """Horizon-n temperature prediction against a constraint.

    The constant-power window of Eq. 4.5, ``(A^n, M_n, S_n d)``, is
    computed once at construction.  :meth:`stack` joins the predictors of
    ``B`` lanes -- each keeping its own model, horizon and guard band --
    so :meth:`forecast` predicts all of them in one contraction.
    """

    def __init__(
        self,
        model: DiscreteThermalModel,
        horizon_steps: int = 10,
        guard_band_k: float = 0.0,
    ) -> None:
        if horizon_steps < 1:
            raise ModelError("prediction horizon must be >= 1 step")
        if guard_band_k < 0:
            raise ModelError("guard band must be >= 0")
        self.model = model
        self.horizon_steps = horizon_steps
        self.guard_band_k = guard_band_k
        a_n, m_n, s_n = model.horizon_matrices(horizon_steps)
        # one lane's matrices; the leading axis is the lane axis
        self._a_n = a_n[np.newaxis]
        self._m_n = m_n[np.newaxis]
        self._s_n_d = (s_n @ model.offset)[np.newaxis]

    @classmethod
    def stack(cls, predictors: Sequence["ThermalPredictor"]) -> "ThermalPredictor":
        """One predictor over ``B`` lanes, lane ``b`` = ``predictors[b]``.

        Only :meth:`forecast` is defined on the result; its guard band is
        the ``(B,)`` array of the lanes' guard bands.
        """
        predictors = list(predictors)
        shapes = {(p._a_n.shape, p._m_n.shape) for p in predictors}
        if len(shapes) != 1:
            raise ModelError("stacked predictors must share their model shape")
        out = cls.__new__(cls)
        out.guard_band_k = np.array([p.guard_band_k for p in predictors])
        for name in ("_a_n", "_m_n", "_s_n_d"):
            setattr(
                out,
                name,
                np.concatenate([getattr(p, name) for p in predictors]),
            )
        return out

    @property
    def horizon_s(self) -> float:
        """Prediction window in seconds."""
        return self.horizon_steps * self.model.ts_s

    def forecast(
        self,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        t_constraint_k,
    ) -> ThermalForecast:
        """Predict ``T[k+n]`` for a constant candidate power vector.

        The violation test applies the guard band: a prediction within
        ``guard_band_k`` of the constraint already counts as a violation so
        the controller acts one interval early rather than one late.

        ``(N,)`` temperatures and ``(M,)`` powers forecast one lane;
        ``(B, N)`` and ``(B, M)`` forecast ``B`` lanes (with one
        constraint each, or one for all) and return array fields.  The
        contraction runs over the fixed state/input axes only (einsum, no
        BLAS), so every lane's prediction is the same whatever the batch.
        """
        temps = np.asarray(temps_k, dtype=float)
        powers = np.asarray(powers_w, dtype=float)
        single = temps.ndim == 1
        temps = np.atleast_2d(temps)
        powers = np.atleast_2d(powers)
        if temps.shape[1] != self._a_n.shape[-1]:
            raise ModelError(
                "expected %d temperatures, got %d"
                % (self._a_n.shape[-1], temps.shape[1])
            )
        if powers.shape[1] != self._m_n.shape[-1]:
            raise ModelError(
                "expected %d powers, got %d"
                % (self._m_n.shape[-1], powers.shape[1])
            )
        pred = (
            np.einsum("...ij,...j->...i", self._a_n, temps)
            + np.einsum("...ij,...j->...i", self._m_n, powers)
            + self._s_n_d
        )
        max_t = pred.max(axis=1)
        forecast = ThermalForecast(
            temps_k=pred,
            max_temp_k=max_t,
            hottest_core=pred.argmax(axis=1),
            violation=max_t > t_constraint_k - self.guard_band_k,
            margin_k=t_constraint_k - max_t,
        )
        return forecast.lanes()[0] if single else forecast

    def forecast_trajectory(
        self, temps_k: np.ndarray, power_trajectory: np.ndarray
    ) -> np.ndarray:
        """Predicted temperatures over an explicit power trajectory."""
        return self.model.predict_horizon(temps_k, power_trajectory)
