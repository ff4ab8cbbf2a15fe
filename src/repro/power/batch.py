"""Batched ground-truth SoC power evaluation.

The serial plant asks :meth:`repro.platform.soc.ExynosSoc.power_state` for
one configuration at a time; a batched plant advances ``B`` independent
runs per control step, so the same Eq. 5.3 power breakdown has to be
evaluated for ``B`` (frequency, hotplug, utilisation, temperature) tuples
at once.  :class:`BatchPowerModel` does exactly that, as a pure
struct-of-arrays computation:

* everything that is constant over a control interval (voltages, per-core
  dynamic powers, hotplug masks) is folded once into a
  :class:`BatchPowerInputs`;
* the temperature-dependent leakage terms are re-evaluated every thermal
  substep from the lane temperatures.

A substep's :class:`BatchPowerState` holds only what the plant consumes:
the per-resource totals (heat for the lumped nodes and the sensors'
input), the per-core big heat sources and the SoC total the platform
meter prices.  The dynamic/leakage split of each total is not kept.

Every operation is elementwise over the batch axis (the only reductions
run over the fixed four-core axis), so lane ``b`` of any batch computes
exactly what a batch of one would -- the property the batch/serial
byte-identity contract rests on.  ``tests/test_batch_sim.py`` pins each
term against the scalar :class:`~repro.platform.soc.ExynosSoc` path,
which stays in ``src/`` as that reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.cluster import (
    _GATED_LEAKAGE_SHARE,
    _UNCORE_LEAKAGE_SHARE,
)
from repro.platform.specs import PlatformSpec, Resource


@dataclass
class BatchPowerInputs:
    """Per-interval constants of the batched power evaluation.

    All arrays carry one row/entry per batch lane.  ``*_dyn_w`` terms do
    not depend on temperature, so they are computed once per control
    interval; only leakage varies across thermal substeps.
    """

    active_is_big: np.ndarray  # (B,) bool
    big_core_dyn_w: np.ndarray  # (B, 4) per-core dynamic power (online only)
    little_dyn_w: np.ndarray  # (B,) little-cluster dynamic total
    gpu_dyn_w: np.ndarray  # (B,)
    mem_dyn_w: np.ndarray  # (B,)
    vdd_big: np.ndarray  # (B,) active-voltage of the big cluster
    vdd_little: np.ndarray  # (B,)
    vdd_gpu: np.ndarray  # (B,)
    big_online: np.ndarray  # (B, 4) bool
    big_num_online: np.ndarray  # (B,)
    big_leak_share: np.ndarray  # (B,) uncore + per-core leakage share
    little_leak_share: np.ndarray  # (B,)


@dataclass
class BatchPowerState:
    """One substep's ground-truth power breakdown for every lane."""

    powers_w: np.ndarray  # (B, 4) totals in [big, little, gpu, mem] layout
    big_core_powers_w: np.ndarray  # (B, 4) per-core heat sources
    soc_total_w: np.ndarray  # (B,)


class BatchPowerModel:
    """Vectorised ground-truth power of one platform over a batch axis."""

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self._vdd_big_gated = spec.big_opp.voltage(spec.big_opp.f_min_hz)
        self._vdd_little_gated = spec.little_opp.voltage(
            spec.little_opp.f_min_hz
        )

    # ------------------------------------------------------------------
    def interval_inputs(
        self,
        active_is_big: np.ndarray,
        big_freq_hz: np.ndarray,
        little_freq_hz: np.ndarray,
        gpu_freq_hz: np.ndarray,
        big_online: np.ndarray,
        little_online: np.ndarray,
        big_utils: np.ndarray,
        little_utils: np.ndarray,
        gpu_util: np.ndarray,
        mem_traffic: np.ndarray,
        cpu_activity: np.ndarray,
        gpu_activity: np.ndarray,
    ) -> BatchPowerInputs:
        """Fold the temperature-independent terms of one control interval."""
        spec = self.spec
        # the V(f) curves are pure elementwise arithmetic, so the scalar
        # OPP-table accessor evaluates whole frequency arrays directly
        vdd_big = spec.big_opp.voltage(big_freq_hz)
        vdd_little = spec.little_opp.voltage(little_freq_hz)
        vdd_gpu = spec.gpu_opp.voltage(gpu_freq_hz)

        # per-core dynamic power, replicating CoreSpec.dynamic_power's
        # operand order: ((((activity * C) * vdd^2) * f) * u)
        u_big = np.clip(big_utils, 0.0, 1.0) * big_online
        big_core_dyn = (
            cpu_activity * spec.big_core.switching_capacitance_f
            * vdd_big ** 2
            * big_freq_hz
        )[:, np.newaxis] * u_big
        big_core_dyn = big_core_dyn * active_is_big[:, np.newaxis]

        u_little = np.clip(little_utils, 0.0, 1.0) * little_online
        little_core_dyn = (
            cpu_activity * spec.little_core.switching_capacitance_f
            * vdd_little ** 2
            * little_freq_hz
        )[:, np.newaxis] * u_little
        little_dyn = np.sum(little_core_dyn, axis=1) * ~active_is_big

        gpu_dyn = (
            gpu_activity * spec.gpu_capacitance_f
            * vdd_gpu ** 2
            * gpu_freq_hz
            * gpu_util
        )
        mem_dyn = spec.mem_full_traffic_w * mem_traffic

        big_num_online = np.sum(big_online, axis=1)
        little_num_online = np.sum(little_online, axis=1)
        cores = float(spec.cores_per_cluster)
        big_leak_share = _UNCORE_LEAKAGE_SHARE + (
            1.0 - _UNCORE_LEAKAGE_SHARE
        ) * (big_num_online / cores)
        little_leak_share = _UNCORE_LEAKAGE_SHARE + (
            1.0 - _UNCORE_LEAKAGE_SHARE
        ) * (little_num_online / cores)

        return BatchPowerInputs(
            active_is_big=active_is_big,
            big_core_dyn_w=big_core_dyn,
            little_dyn_w=little_dyn,
            gpu_dyn_w=gpu_dyn,
            mem_dyn_w=mem_dyn,
            vdd_big=vdd_big,
            vdd_little=vdd_little,
            vdd_gpu=vdd_gpu,
            big_online=big_online,
            big_num_online=big_num_online,
            big_leak_share=big_leak_share,
            little_leak_share=little_leak_share,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        inputs: BatchPowerInputs,
        t_big_k: np.ndarray,
        t_little_k: np.ndarray,
        t_gpu_k: np.ndarray,
        t_mem_k: np.ndarray,
    ) -> BatchPowerState:
        """One substep's power breakdown at the given lane temperatures."""
        spec = self.spec
        leak = spec.leakage
        active = inputs.active_is_big

        big_leak = np.where(
            active,
            inputs.big_leak_share
            * leak[Resource.BIG].power(t_big_k, inputs.vdd_big),
            _GATED_LEAKAGE_SHARE
            * leak[Resource.BIG].power(t_big_k, self._vdd_big_gated),
        )
        little_leak = np.where(
            active,
            _GATED_LEAKAGE_SHARE
            * leak[Resource.LITTLE].power(t_little_k, self._vdd_little_gated),
            inputs.little_leak_share
            * leak[Resource.LITTLE].power(t_little_k, inputs.vdd_little),
        )
        gpu_leak = leak[Resource.GPU].power(t_gpu_k, inputs.vdd_gpu)
        mem_leak = leak[Resource.MEM].power(t_mem_k, spec.mem_vdd)

        big_dyn = np.sum(inputs.big_core_dyn_w, axis=1)
        big_total = big_dyn + big_leak
        little_total = inputs.little_dyn_w + little_leak
        gpu_total = inputs.gpu_dyn_w + gpu_leak
        mem_total = inputs.mem_dyn_w + mem_leak

        # per-core heat sources: dynamic + an even share of cluster
        # leakage over the online cores; a gated big cluster spreads its
        # residual leakage evenly over all four cores
        leak_each = big_leak / np.maximum(inputs.big_num_online, 1)
        core_powers = np.where(
            active[:, np.newaxis],
            inputs.big_core_dyn_w
            + leak_each[:, np.newaxis] * inputs.big_online,
            (big_leak / float(spec.cores_per_cluster))[:, np.newaxis],
        )

        powers = np.stack(
            [big_total, little_total, gpu_total, mem_total], axis=1
        )
        # same association as SocPowerState.total_w's python sum:
        # (((0 + big) + little) + gpu) + mem
        total = big_total + little_total + gpu_total + mem_total
        return BatchPowerState(
            powers_w=powers,
            big_core_powers_w=core_powers,
            soc_total_w=total,
        )
