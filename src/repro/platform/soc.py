"""Composition of the heterogeneous MPSoC (Exynos 5410).

The SoC owns the two CPU clusters, the GPU and the memory device, enforces
the big-XOR-little activation rule of the Odroid platform, and evaluates the
ground-truth power breakdown used both by the thermal plant and (through
noisy sensors) by the DTPM controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ClusterStateError
from repro.platform.cluster import ClusterPower, CpuCluster
from repro.platform.gpu import GpuDevice
from repro.platform.memory import MemoryDevice
from repro.platform.specs import (
    CLUSTER_MIGRATION_PENALTY_S,
    PlatformSpec,
    Resource,
)


@dataclass
class SocPowerState:
    """Ground-truth instantaneous power of the whole SoC.

    ``per_resource`` follows the paper's power-vector layout; the per-core
    big powers (dynamic + leakage share) feed the thermal network's four
    hotspot nodes.  It is the result of the scalar reference
    :meth:`ExynosSoc.power_state`.
    """

    per_resource: Dict[Resource, ClusterPower]
    big_core_powers_w: np.ndarray

    @property
    def total_w(self) -> float:
        """Total SoC power (W)."""
        return sum(p.total_w for p in self.per_resource.values())

    def resource_vector_w(self) -> np.ndarray:
        """``[P_big, P_little, P_gpu, P_mem]`` totals (Eq. 5.3 layout)."""
        from repro.platform.specs import POWER_RESOURCES

        return np.array(
            [self.per_resource[r].total_w for r in POWER_RESOURCES]
        )

    def dynamic_vector_w(self) -> np.ndarray:
        """Dynamic components in the power-vector layout."""
        from repro.platform.specs import POWER_RESOURCES

        return np.array(
            [self.per_resource[r].dynamic_w for r in POWER_RESOURCES]
        )

    def leakage_vector_w(self) -> np.ndarray:
        """Leakage components in the power-vector layout."""
        from repro.platform.specs import POWER_RESOURCES

        return np.array(
            [self.per_resource[r].leakage_w for r in POWER_RESOURCES]
        )


class ExynosSoc:
    """The simulated Exynos 5410: big + little clusters, GPU, memory."""

    def __init__(self, spec: Optional[PlatformSpec] = None) -> None:
        self.spec = spec or PlatformSpec()
        self.big = CpuCluster(
            Resource.BIG,
            self.spec.big_opp,
            self.spec.big_core,
            self.spec.leakage[Resource.BIG],
            num_cores=self.spec.cores_per_cluster,
        )
        self.little = CpuCluster(
            Resource.LITTLE,
            self.spec.little_opp,
            self.spec.little_core,
            self.spec.leakage[Resource.LITTLE],
            num_cores=self.spec.cores_per_cluster,
        )
        self.gpu = GpuDevice(
            self.spec.gpu_opp,
            self.spec.gpu_capacitance_f,
            self.spec.leakage[Resource.GPU],
        )
        self.mem = MemoryDevice(
            self.spec.mem_full_traffic_w,
            self.spec.mem_vdd,
            self.spec.leakage[Resource.MEM],
        )
        # Odroid boots on the big cluster.
        self.big.activate()
        self.little.deactivate()

    # ------------------------------------------------------------------
    # cluster management
    # ------------------------------------------------------------------
    @property
    def active_cluster(self) -> Resource:
        """Which CPU cluster is currently powered (BIG xor LITTLE)."""
        if self.big.active == self.little.active:
            raise ClusterStateError(
                "exactly one CPU cluster must be active (big=%s little=%s)"
                % (self.big.active, self.little.active)
            )
        return Resource.BIG if self.big.active else Resource.LITTLE

    def active_cpu(self) -> CpuCluster:
        """The currently active CPU cluster object."""
        return self.big if self.active_cluster is Resource.BIG else self.little

    def switch_cluster(self, target: Resource) -> float:
        """Migrate all tasks to ``target`` cluster.

        Returns the migration penalty in seconds of lost work (zero when the
        target is already active).  Mirrors the in-kernel switcher: the
        target cluster comes up with all its cores online at its minimum
        frequency, the source cluster is power-gated.
        """
        if target not in (Resource.BIG, Resource.LITTLE):
            raise ClusterStateError("cannot switch CPU cluster to %s" % target)
        if target is self.active_cluster:
            return 0.0
        incoming = self.big if target is Resource.BIG else self.little
        outgoing = self.little if target is Resource.BIG else self.big
        incoming.activate()
        incoming.set_num_online(incoming.num_cores)
        incoming.set_frequency(incoming.opp_table.f_min_hz)
        outgoing.deactivate()
        return CLUSTER_MIGRATION_PENALTY_S

    # ------------------------------------------------------------------
    # ground-truth power
    # ------------------------------------------------------------------
    def power_state(
        self,
        temps_k: Dict[str, float],
        big_core_utils: Sequence[float],
        little_core_utils: Sequence[float],
        cpu_activity: float = 1.0,
        gpu_activity: float = 1.0,
    ) -> SocPowerState:
        """Evaluate the SoC's instantaneous ground-truth power.

        Parameters
        ----------
        temps_k:
            Block temperatures from the thermal plant, keyed by
            ``"big" / "little" / "gpu" / "mem"`` (see
            :func:`repro.thermal.floorplan.resource_temperatures_k`).
        big_core_utils / little_core_utils:
            Per-core busy fractions produced by the scheduler.
        cpu_activity / gpu_activity:
            Workload activity factors scaling effective alpha*C.

        No plant step calls this: boards advance on the batched plant,
        whose :class:`~repro.power.batch.BatchPowerModel` evaluates the
        same breakdown over a lane axis.  This one-configuration form
        stays as the scalar reference that ``BatchPowerModel.evaluate``
        is pinned against, bit for bit, in ``tests/test_batch_sim.py``.
        """
        big_power = self.big.power(big_core_utils, temps_k["big"], cpu_activity)
        little_power = self.little.power(
            little_core_utils, temps_k["little"], cpu_activity
        )
        gpu_power = self.gpu.power(temps_k["gpu"], gpu_activity)
        mem_power = self.mem.power(temps_k["mem"])

        per_core = self._big_core_powers(
            big_core_utils, big_power, cpu_activity
        )
        return SocPowerState(
            per_resource={
                Resource.BIG: big_power,
                Resource.LITTLE: little_power,
                Resource.GPU: gpu_power,
                Resource.MEM: mem_power,
            },
            big_core_powers_w=per_core,
        )

    def _big_core_powers(
        self,
        big_core_utils: Sequence[float],
        big_power: ClusterPower,
        cpu_activity: float,
    ) -> np.ndarray:
        """Split big-cluster power into per-core heat sources."""
        n = self.big.num_cores
        powers = np.zeros(n)
        if not self.big.active:
            # gated cluster: spread the residual leakage evenly
            powers[:] = big_power.leakage_w / n
            return powers
        vdd = self.big.voltage
        for core in range(n):
            if self.big.is_online(core):
                powers[core] = self.big.core_spec.dynamic_power(
                    self.big.frequency_hz, vdd, big_core_utils[core], cpu_activity
                )
        online = self.big.num_online
        leak_each = big_power.leakage_w / online if online else 0.0
        for core in range(n):
            if self.big.is_online(core):
                powers[core] += leak_each
        return powers

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "ExynosSoc(active=%s, big=%r, little=%r, gpu=%r)" % (
            self.active_cluster,
            self.big,
            self.little,
            self.gpu,
        )
