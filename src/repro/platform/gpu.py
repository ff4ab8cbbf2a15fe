"""GPU device model with five-level DVFS (Table 6.3)."""

from __future__ import annotations

from repro.platform.cluster import ClusterPower
from repro.platform.specs import LeakageSpec, OppTable
from repro.units import clamp


class GpuDevice:
    """The Exynos 5410's Mali-style GPU as a single DVFS domain.

    Games and video benchmarks drive the GPU; CPU-only benchmarks leave it
    near idle.  The GPU exposes the same two knobs as on the real part:
    its frequency (five OPPs) and an implicit idle state when utilisation
    is zero.
    """

    def __init__(
        self,
        opp_table: OppTable,
        capacitance_f: float,
        leakage_spec: LeakageSpec,
    ) -> None:
        self.opp_table = opp_table
        self.capacitance_f = capacitance_f
        self.leakage_spec = leakage_spec
        self._frequency_hz = opp_table.f_min_hz
        self._utilisation = 0.0

    @property
    def frequency_hz(self) -> float:
        """Current GPU frequency."""
        return self._frequency_hz

    @property
    def voltage(self) -> float:
        """Current GPU rail voltage."""
        return self.opp_table.voltage(self._frequency_hz)

    @property
    def utilisation(self) -> float:
        """Busy fraction of the GPU in the last interval."""
        return self._utilisation

    def set_frequency(self, frequency_hz: float) -> None:
        """Set the GPU to an exact OPP-table frequency."""
        self._frequency_hz = self.opp_table.validate(frequency_hz)

    def request_frequency(self, frequency_hz: float) -> float:
        """Quantise an arbitrary request down to the table and apply it."""
        resolved = self.opp_table.floor(frequency_hz)
        self._frequency_hz = resolved
        return resolved

    def set_utilisation(self, utilisation: float) -> None:
        """Record the GPU busy fraction demanded by the workload."""
        self._utilisation = clamp(utilisation, 0.0, 1.0)

    def power(self, temperature_k: float, activity: float = 1.0) -> ClusterPower:
        """Instantaneous GPU power at the given junction temperature.

        Kept as a term of the scalar reference
        :meth:`~repro.platform.soc.ExynosSoc.power_state`, which the
        batched power kernel is pinned against.
        """
        vdd = self.voltage
        dynamic = (
            activity
            * self.capacitance_f
            * vdd ** 2
            * self._frequency_hz
            * self._utilisation
        )
        # The GPU is clock- but not power-gated when idle: leakage stays.
        leakage = self.leakage_spec.power(temperature_k, vdd)
        return ClusterPower(dynamic_w=dynamic, leakage_w=leakage)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "GpuDevice(f=%.0fMHz, util=%.2f)" % (
            self._frequency_hz / 1e6,
            self._utilisation,
        )
