"""Memory subsystem (LPDDR interface + controller) power model.

Memory is the fourth entry of the power vector ``P`` (Eq. 5.3).  It has no
DVFS knob on this platform; its dynamic power tracks the traffic generated
by the CPU clusters and the GPU.
"""

from __future__ import annotations

from repro.platform.cluster import ClusterPower
from repro.platform.specs import LeakageSpec
from repro.units import clamp


class MemoryDevice:
    """Fixed-voltage memory device whose dynamic power follows traffic."""

    def __init__(
        self,
        full_traffic_power_w: float,
        vdd: float,
        leakage_spec: LeakageSpec,
    ) -> None:
        self.full_traffic_power_w = full_traffic_power_w
        self.vdd = vdd
        self.leakage_spec = leakage_spec
        self._traffic = 0.0

    @property
    def traffic(self) -> float:
        """Normalised memory traffic in [0, 1] for the last interval."""
        return self._traffic

    def set_traffic(self, traffic: float) -> None:
        """Record the normalised memory traffic demanded by the workload."""
        self._traffic = clamp(traffic, 0.0, 1.0)

    def power(self, temperature_k: float) -> ClusterPower:
        """Instantaneous memory power at the given temperature.

        Kept as a term of the scalar reference
        :meth:`~repro.platform.soc.ExynosSoc.power_state`, which the
        batched power kernel is pinned against.
        """
        dynamic = self.full_traffic_power_w * self._traffic
        leakage = self.leakage_spec.power(temperature_k, self.vdd)
        return ClusterPower(dynamic_w=dynamic, leakage_w=leakage)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "MemoryDevice(traffic=%.2f)" % self._traffic
