"""Fused exponential-integrator substep kernels for the batched plant.

The batched plant advances every control interval through ``K`` thermal
substeps (Eq. 4.3 of the paper, discretised exactly per substep).  Since
the node power injected into the RC network is held over the whole
interval (zero-order hold, see :mod:`repro.platform.state`), the only
quantities that can change *within* an interval are the fan speed and
the quantised nonlinear cooling factor -- and in the common case neither
does.  This module exploits that:

* :func:`advance_held_interval` first runs the **fused chain**: one
  stacked-propagator pass that applies the per-lane ``(Ad, Bd)`` pair
  ``K`` times with the interval-entry effective gains, recording the
  whole substep trajectory.  A vectorised validation pass then replays
  the fan threshold automaton and the nonlinear-factor quantisation over
  the trajectory *without stepping Python per substep*; lanes whose fan
  speed or leakage-coupled cooling gain would have changed mid-interval
  ("dirty" lanes) are re-integrated through the per-substep fallback
  from their entry state.  Clean lanes keep the fused result, which is
  byte-identical to what the fallback would have produced (the chain
  applies exactly the same gathered-stack ``einsum`` per substep, with
  ``Bd @ u`` hoisted -- the same operation on the same operands).
* The **per-substep loop** (:func:`substep_loop`) interleaves
  :meth:`~repro.thermal.rc_network.ThermalRCNetwork.step_batch` and the
  fan automaton with every substep -- the reference semantics, the path
  dirty lanes take, and the integrator of the idle-gap cooldown
  (``BatchPlant.advance_interval(power_every=1)``).  It takes the same
  arguments as :func:`advance_held_interval`, so tests can substitute it
  for the fused kernel to get the per-substep reference of a whole run.

Every kernel is elementwise over the batch axis and per-lane path
selection depends only on that lane's own trajectory, so lane ``b`` of a
batch computes exactly what a batch of one would -- the batch/serial
byte-identity contract of ``tests/test_batch_sim.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.thermal.rc_network import ThermalRCNetwork


# ---------------------------------------------------------------------------
# fan threshold automaton (vectorised over lanes)
# ---------------------------------------------------------------------------
def fan_step(
    speed: np.ndarray,
    enabled: np.ndarray,
    max_hot_k: np.ndarray,
    up_k: np.ndarray,
    hyst_k: float,
) -> np.ndarray:
    """One vectorised step of the hysteretic fan threshold controller.

    Elementwise transcription of :meth:`repro.platform.fan.Fan.update`:
    speed jumps straight up to the highest crossed threshold, steps down
    one level at a time once the temperature falls the hysteresis below
    the engaging threshold, and a disabled fan pins to OFF.  ``max_hot_k``
    may carry a leading substep axis (``(K, B)`` against ``(B,)`` speeds),
    which steps every point of a trajectory from the same speed.
    """
    target = (
        (max_hot_k > up_k[0]).astype(np.int64)
        + (max_hot_k > up_k[1])
        + (max_hot_k > up_k[2])
    )
    rising = target > speed
    engage = up_k[np.clip(speed - 1, 0, 2)]
    falling = ~rising & (target < speed) & (max_hot_k < engage - hyst_k)
    new = np.where(rising, target, np.where(falling, speed - 1, speed))
    return np.where(enabled, new, 0)


# ---------------------------------------------------------------------------
# fused chain
# ---------------------------------------------------------------------------
def fused_chain(
    ad: np.ndarray, bu: np.ndarray, temps_k: np.ndarray, substeps: int
) -> np.ndarray:
    """Apply the per-lane one-step propagator ``K`` times, keeping the
    trajectory.

    ``traj[k]`` holds the temperatures *after* substep ``k``; the loop
    body is the exact gathered-stack ``einsum`` of
    :meth:`~repro.thermal.rc_network.ThermalRCNetwork.step_batch` with
    the (constant) input contribution ``bu = Bd @ u`` hoisted, so a lane
    whose gains really stay constant gets bit-identical temperatures to
    per-substep stepping.
    """
    traj = np.empty((substeps,) + temps_k.shape)
    t = temps_k
    for k in range(substeps):
        t = np.einsum("bij,bj->bi", ad, t) + bu
        traj[k] = t
    return traj


# ---------------------------------------------------------------------------
# trajectory validation
# ---------------------------------------------------------------------------
def dirty_lanes(
    network: ThermalRCNetwork,
    traj: np.ndarray,
    nl_entry: np.ndarray,
    cooling_gain: np.ndarray,
    fan_speed: np.ndarray,
    fan_enabled: np.ndarray,
    up_k: np.ndarray,
    hyst_k: float,
    fan_gains: np.ndarray,
    hot_idx: np.ndarray,
) -> np.ndarray:
    """Which lanes' fused trajectories are invalid (``(B,)`` bool).

    A lane is dirty when per-substep stepping would have diverged from
    the constant-gain assumption the chain integrated under:

    * its entry cooling gain differs from the fan table entry for its
      speed (an externally forced gain -- the very first interval after a
      warm start can hit this when the table's OFF gain is not 1.0);
    * the quantised nonlinear cooling factor changes at any intermediate
      pre-step point of the trajectory; or
    * the fan threshold automaton would change speed at any of the ``K``
      post-substep updates (:func:`fan_step` broadcast over the ``(K, B)``
      hotspot trajectory from the entry speed, which is exact: while no
      transition has fired, the automaton's state *is* the entry speed,
      and the first firing marks the lane dirty).

    Everything is elementwise over lanes; the substep axis only ever
    reduces via ``any``.
    """
    substeps, batch, n = traj.shape
    dirty = cooling_gain != fan_gains[fan_speed]
    if substeps > 1:
        nl = network.nonlinear_factors(
            traj[:-1].reshape((substeps - 1) * batch, n)
        ).reshape(substeps - 1, batch)
        dirty |= np.any(nl != nl_entry, axis=0)
    max_hot = np.max(traj[:, :, hot_idx], axis=2)  # (K, B)
    stepped = fan_step(fan_speed, fan_enabled, max_hot, up_k, hyst_k)
    dirty |= np.any(stepped != fan_speed, axis=0)
    return dirty


# ---------------------------------------------------------------------------
# per-substep loop (reference semantics)
# ---------------------------------------------------------------------------
def substep_loop(
    network: ThermalRCNetwork,
    temps_k: np.ndarray,
    cooling_gain: np.ndarray,
    fan_speed: np.ndarray,
    fan_enabled: np.ndarray,
    power_w: np.ndarray,
    dt_s: float,
    substeps: int,
    up_k: np.ndarray,
    hyst_k: float,
    fan_gains: np.ndarray,
    hot_idx: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance lanes substep-by-substep under held node power.

    The reference interval semantics: every substep advances the RC
    network one :meth:`~repro.thermal.rc_network.ThermalRCNetwork.step_batch`
    (which regroups the lanes by effective gain, fan gain x quantised
    nonlinear factor) and runs the fan automaton on the new hotspots.
    Returns the final temperatures ``(B, N)`` and the post-update fan
    speed after every substep ``(B, K)``.
    """
    batch = temps_k.shape[0]
    speeds = np.empty((batch, substeps), dtype=np.int64)
    gain = cooling_gain
    speed = fan_speed
    t = temps_k
    for k in range(substeps):
        t = network.step_batch(t, power_w, dt_s, gain)
        max_hot = np.max(t[:, hot_idx], axis=1)
        speed = fan_step(speed, fan_enabled, max_hot, up_k, hyst_k)
        speeds[:, k] = speed
        gain = fan_gains[speed]
    return t, speeds


# ---------------------------------------------------------------------------
# the fused interval kernel
# ---------------------------------------------------------------------------
def advance_held_interval(
    network: ThermalRCNetwork,
    temps_k: np.ndarray,
    cooling_gain: np.ndarray,
    fan_speed: np.ndarray,
    fan_enabled: np.ndarray,
    power_w: np.ndarray,
    dt_s: float,
    substeps: int,
    up_k: np.ndarray,
    hyst_k: float,
    fan_gains: np.ndarray,
    hot_idx: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance ``B`` lanes through the ``K`` substeps of one interval.

    ``power_w`` is the ``(B, N)`` node power held over the whole
    interval.  Returns ``(final_temps (B, N), speeds (B, K))`` where
    ``speeds[:, k]`` is each lane's fan speed after substep ``k``'s
    controller update (the meter prices substep ``k`` at that speed).

    The fast path integrates every lane with its interval-entry
    effective gain in one chained propagator pass, then validates the
    trajectory (see :func:`dirty_lanes`); only lanes that would actually
    have switched fan speed or crossed a nonlinear-factor quantisation
    boundary re-run through :func:`substep_loop`.  Both paths execute
    the same operations on the same operands for a clean lane, so which
    path a lane takes is unobservable in the results.
    """
    batch = temps_k.shape[0]
    nl_entry = network.nonlinear_factors(temps_k)
    gains = cooling_gain * nl_entry
    ad, bd = network.discretise_stack(dt_s, gains)
    u = np.concatenate(
        [power_w, np.full((batch, 1), network.ambient_k)], axis=1
    )
    bu = np.einsum("bij,bj->bi", bd, u)
    traj = fused_chain(ad, bu, temps_k, substeps)

    dirty = dirty_lanes(
        network, traj, nl_entry, cooling_gain, fan_speed, fan_enabled,
        up_k, hyst_k, fan_gains, hot_idx,
    )

    final = traj[-1]
    speeds = np.repeat(fan_speed[:, np.newaxis], substeps, axis=1)
    if np.any(dirty):
        d_final, d_speeds = substep_loop(
            network,
            temps_k[dirty],
            cooling_gain[dirty],
            fan_speed[dirty],
            fan_enabled[dirty],
            power_w[dirty],
            dt_s,
            substeps,
            up_k,
            hyst_k,
            fan_gains,
            hot_idx,
        )
        final[dirty] = d_final
        speeds[dirty] = d_speeds
    return final, speeds
