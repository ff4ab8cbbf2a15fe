"""CPU cluster model with symmetric DVFS and per-core hotplug.

The Exynos 5410 constraints modelled here (Section 6.1.1 of the paper):

* only one of the two clusters (big XOR little) can be active at a time;
* all cores of a cluster share one frequency/voltage (symmetric DVFS);
* individual cores can be hotplugged (offline cores are power-gated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ClusterStateError, ConfigurationError
from repro.platform.specs import CoreSpec, LeakageSpec, OppTable, Resource

#: Fraction of cluster leakage attributable to shared (uncore) logic that
#: stays powered while at least one core is online.
_UNCORE_LEAKAGE_SHARE = 0.20
#: Residual leakage of a fully power-gated (inactive) cluster.
_GATED_LEAKAGE_SHARE = 0.02


@dataclass
class ClusterPower:
    """Per-cluster instantaneous power decomposition (W)."""

    dynamic_w: float
    leakage_w: float

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w


class CpuCluster:
    """A symmetric-DVFS CPU cluster (big A15 or little A7).

    The cluster tracks its own frequency and hotplug state and evaluates its
    ground-truth power given core utilisations and a junction temperature.
    """

    def __init__(
        self,
        resource: Resource,
        opp_table: OppTable,
        core_spec: CoreSpec,
        leakage_spec: LeakageSpec,
        num_cores: int = 4,
    ) -> None:
        if num_cores < 1:
            raise ConfigurationError("a cluster needs at least one core")
        self.resource = resource
        self.opp_table = opp_table
        self.core_spec = core_spec
        self.leakage_spec = leakage_spec
        self.num_cores = num_cores
        self._active = resource is Resource.BIG
        self._online: List[bool] = [True] * num_cores
        self._frequency_hz = opp_table.f_min_hz

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the cluster is the currently powered CPU cluster."""
        return self._active

    @property
    def frequency_hz(self) -> float:
        """Current cluster frequency (all cores share it)."""
        return self._frequency_hz

    @property
    def voltage(self) -> float:
        """Current supply voltage from the V/f curve."""
        return self.opp_table.voltage(self._frequency_hz)

    @property
    def online_cores(self) -> List[int]:
        """Indices of cores currently online."""
        return [i for i, on in enumerate(self._online) if on]

    @property
    def num_online(self) -> int:
        """Number of online cores."""
        return sum(self._online)

    def is_online(self, core: int) -> bool:
        """Whether core ``core`` is online."""
        return self._online[core]

    # ------------------------------------------------------------------
    # state mutation
    # ------------------------------------------------------------------
    def set_frequency(self, frequency_hz: float) -> None:
        """Set the cluster frequency to an exact OPP-table entry."""
        self._frequency_hz = self.opp_table.validate(frequency_hz)

    def request_frequency(self, frequency_hz: float) -> float:
        """Quantise an arbitrary request down to the table and apply it."""
        resolved = self.opp_table.floor(frequency_hz)
        self._frequency_hz = resolved
        return resolved

    def set_core_online(self, core: int, online: bool) -> None:
        """Hotplug one core on or off.

        The last online core of an *active* cluster cannot be unplugged --
        the kernel keeps CPU0 (or its cluster equivalent) alive.
        """
        if not 0 <= core < self.num_cores:
            raise ClusterStateError(
                "core %d out of range for %s" % (core, self.resource)
            )
        if not online and self._active and self.num_online == 1 and self._online[core]:
            raise ClusterStateError(
                "cannot offline the last online core of the active cluster"
            )
        self._online[core] = online

    def set_num_online(self, count: int) -> None:
        """Bring exactly ``count`` cores online (lowest indices first)."""
        if not 1 <= count <= self.num_cores:
            raise ClusterStateError(
                "online core count %d outside 1..%d" % (count, self.num_cores)
            )
        self._online = [i < count for i in range(self.num_cores)]

    def activate(self) -> None:
        """Power the cluster (part of a cluster switch)."""
        self._active = True
        if self.num_online == 0:
            self._online[0] = True

    def deactivate(self) -> None:
        """Power-gate the whole cluster."""
        self._active = False

    # ------------------------------------------------------------------
    # ground-truth power
    # ------------------------------------------------------------------
    def power(
        self,
        core_utilisations: Sequence[float],
        temperature_k: float,
        activity: float = 1.0,
    ) -> ClusterPower:
        """Instantaneous cluster power.

        Parameters
        ----------
        core_utilisations:
            Busy fraction in [0, 1] for each of the cluster's cores;
            utilisation of offline cores is ignored.
        temperature_k:
            Junction temperature of the cluster (drives leakage).
        activity:
            Workload activity factor scaling the effective alpha*C.

        Kept as a term of the scalar reference
        :meth:`~repro.platform.soc.ExynosSoc.power_state`, which the
        batched power kernel is pinned against.
        """
        if len(core_utilisations) != self.num_cores:
            raise ConfigurationError(
                "expected %d utilisations, got %d"
                % (self.num_cores, len(core_utilisations))
            )
        if not self._active:
            leak = _GATED_LEAKAGE_SHARE * self.leakage_spec.power(
                temperature_k, self.opp_table.voltage(self.opp_table.f_min_hz)
            )
            return ClusterPower(dynamic_w=0.0, leakage_w=leak)

        vdd = self.voltage
        dynamic = 0.0
        for core, util in enumerate(core_utilisations):
            if self._online[core]:
                dynamic += self.core_spec.dynamic_power(
                    self._frequency_hz, vdd, util, activity
                )
        online_frac = self.num_online / float(self.num_cores)
        leak_share = _UNCORE_LEAKAGE_SHARE + (1.0 - _UNCORE_LEAKAGE_SHARE) * online_frac
        leakage = leak_share * self.leakage_spec.power(temperature_k, vdd)
        return ClusterPower(dynamic_w=dynamic, leakage_w=leakage)

    def max_dynamic_power(self, activity: float = 1.0) -> float:
        """Dynamic power with all cores online and busy at f_max (W)."""
        vdd = self.opp_table.voltage(self.opp_table.f_max_hz)
        return self.num_cores * self.core_spec.dynamic_power(
            self.opp_table.f_max_hz, vdd, 1.0, activity
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "CpuCluster(%s, f=%.0fMHz, online=%d/%d, active=%s)" % (
            self.resource,
            self._frequency_hz / 1e6,
            self.num_online,
            self.num_cores,
            self._active,
        )
