"""Sensor models: on-die thermal sensors and INA231-style power sensors.

The DTPM stack only ever observes the platform through these sensors
(Section 6.1.2).  Both add realistic imperfections -- quantisation for the
TMU (which reports coarse steps) and relative Gaussian noise for the power
monitors -- so that the identified thermal model and the run-time alpha*C
estimate carry the same error structure as on real hardware.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError


class TemperatureSensor:
    """One on-die thermal sensor with Gaussian noise and quantisation."""

    def __init__(
        self,
        rng: np.random.Generator,
        noise_sigma_k: float = 0.15,
        quantum_k: float = 0.25,
    ) -> None:
        if noise_sigma_k < 0 or quantum_k < 0:
            raise ConfigurationError("sensor noise/quantum must be >= 0")
        self._rng = rng
        self.noise_sigma_k = noise_sigma_k
        self.quantum_k = quantum_k

    def read(self, true_temperature_k: float) -> float:
        """One noisy, quantised reading of the true temperature (K)."""
        value = true_temperature_k
        if self.noise_sigma_k > 0:
            value += self._rng.normal(0.0, self.noise_sigma_k)
        if self.quantum_k > 0:
            value = round(value / self.quantum_k) * self.quantum_k
        return value


class PowerSensor:
    """One current/voltage monitor reporting power with relative noise."""

    def __init__(
        self,
        rng: np.random.Generator,
        relative_noise: float = 0.01,
        floor_w: float = 0.001,
    ) -> None:
        if relative_noise < 0:
            raise ConfigurationError("relative noise must be >= 0")
        self._rng = rng
        self.relative_noise = relative_noise
        self.floor_w = floor_w

    def read(self, true_power_w: float) -> float:
        """One noisy reading of the true power (W); never negative."""
        value = true_power_w
        if self.relative_noise > 0:
            value *= 1.0 + self._rng.normal(0.0, self.relative_noise)
        return max(self.floor_w, value)


class SensorBank:
    """The platform's full sensor complement.

    Four thermal sensors (one per big core -- the hotspots) and four power
    sensors (big cluster, little cluster, GPU, memory), mirroring the
    Odroid-XU+E instrumentation.

    :meth:`read_all` reads every sensor in one array pass.  A board's own
    bank reads one board; :meth:`stack` joins the banks of ``B`` boards
    into one bank whose :meth:`read_all` reads them all at once, over
    ``(B, 4)`` arrays.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        num_thermal: int = 4,
        num_power: int = 4,
        temp_noise_k: float = 0.15,
        temp_quantum_k: float = 0.25,
        power_noise_rel: float = 0.01,
    ) -> None:
        self.thermal: List[TemperatureSensor] = [
            TemperatureSensor(rng, temp_noise_k, temp_quantum_k)
            for _ in range(num_thermal)
        ]
        self.power: List[PowerSensor] = [
            PowerSensor(rng, power_noise_rel) for _ in range(num_power)
        ]
        # the sensors' noise, quantum and floor as (lanes, sensors) arrays,
        # gathered once; thermal sensors first, then power sensors
        self._num_thermal = num_thermal
        self._scale = np.array(
            [[s.noise_sigma_k for s in self.thermal]
             + [s.relative_noise for s in self.power]]
        )
        # per lane: its generator, where its Gaussians go, how many
        noisy = self._scale[0] > 0
        at = slice(None) if noisy.all() else np.flatnonzero(noisy)
        self._draws = [(rng, at, int(np.count_nonzero(noisy)))]
        quantum = np.array([[s.quantum_k for s in self.thermal]])
        self._quantised = quantum > 0
        self._quantum = np.where(self._quantised, quantum, 1.0)
        self._floor = np.array([[s.floor_w for s in self.power]])

    @classmethod
    def stack(cls, banks: Sequence["SensorBank"]) -> "SensorBank":
        """One bank over the sensors of ``B`` boards, lane ``b`` = ``banks[b]``.

        Every lane keeps drawing from its own board's generator; only
        :meth:`read_all` is defined on the result.
        """
        first = banks[0]
        for bank in banks[1:]:
            if bank._scale.shape != first._scale.shape or (
                bank._num_thermal != first._num_thermal
            ):
                raise ConfigurationError(
                    "stacked sensor banks must have the same sensors"
                )
        out = cls.__new__(cls)
        out._draws = [draw for bank in banks for draw in bank._draws]
        out._num_thermal = first._num_thermal
        for name in ("_scale", "_quantised", "_quantum", "_floor"):
            setattr(
                out, name, np.concatenate([getattr(b, name) for b in banks])
            )
        return out

    def read_temperatures(self, true_temps_k: Sequence[float]) -> np.ndarray:
        """Read all thermal sensors against the true hotspot temperatures.

        Every plant reads its sensors through :meth:`read_all`.  This
        per-sensor form and :meth:`read_powers` stay as its scalar
        reference: the pair is registered in the parity manifest
        (RPR031) and pinned in ``tests/test_batch_sim.py``.
        """
        if len(true_temps_k) != len(self.thermal):
            raise ConfigurationError(
                "expected %d temperatures, got %d"
                % (len(self.thermal), len(true_temps_k))
            )
        return np.array(
            [s.read(t) for s, t in zip(self.thermal, true_temps_k)]
        )

    def read_powers(self, true_powers_w: Sequence[float]) -> np.ndarray:
        """Read all power sensors against the true per-resource powers.

        The scalar reference of :meth:`read_all`'s power half; see
        :meth:`read_temperatures`.
        """
        if len(true_powers_w) != len(self.power):
            raise ConfigurationError(
                "expected %d powers, got %d"
                % (len(self.power), len(true_powers_w))
            )
        return np.array([s.read(p) for s, p in zip(self.power, true_powers_w)])

    def read_all(self, true_temps_k, true_powers_w) -> tuple:
        """Vectorised read of every sensor in one call.

        Returns ``(temperatures_k, powers_w)`` in the shape of the inputs:
        one board's ``(4,)`` vectors, or ``(B, 4)`` arrays for a
        :meth:`stack` of ``B`` banks.  Each lane consumes its generator
        exactly like :meth:`read_temperatures` followed by
        :meth:`read_powers` -- one Gaussian per noisy sensor, in sensor
        order -- and applies the same quantisation/floor arithmetic, so
        the values are bit-identical to the scalar reads.  (``normal(0,
        sigma)`` is ``sigma * standard_normal()`` in the generator's C
        implementation, and one ``standard_normal(n)`` draw equals ``n``
        scalar ones, which is what lets one array draw per lane replace
        the per-sensor scalar draws.)
        """
        temps = np.asarray(true_temps_k, dtype=float)
        powers = np.asarray(true_powers_w, dtype=float)
        single = temps.ndim == 1
        temps = np.atleast_2d(temps)
        powers = np.atleast_2d(powers)
        lanes, sensors = self._scale.shape
        n_t = self._num_thermal
        if temps.shape != (lanes, n_t):
            raise ConfigurationError(
                "expected %d temperatures, got %d" % (n_t, temps.shape[-1])
            )
        if powers.shape != (lanes, sensors - n_t):
            raise ConfigurationError(
                "expected %d powers, got %d"
                % (sensors - n_t, powers.shape[-1])
            )

        # a noiseless sensor draws nothing and adds 0 * 0
        z = np.zeros((lanes, sensors))
        for lane, (rng, at, count) in enumerate(self._draws):
            if count:
                z[lane, at] = rng.standard_normal(count)
        noise = self._scale * z

        out_t = temps + noise[:, :n_t]
        out_t = np.where(
            self._quantised,
            np.round(out_t / self._quantum) * self._quantum,
            out_t,
        )
        out_p = np.maximum(self._floor, powers * (1.0 + noise[:, n_t:]))
        if single:
            return out_t[0], out_p[0]
        return out_t, out_p
