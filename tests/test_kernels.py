"""Fused substep kernel parity: the hot loop's correctness contract.

The fused interval kernel (:mod:`repro.thermal.kernels`) must be
unobservable: fused chain == per-substep loop == scalar
``ThermalRCNetwork.step()`` + ``Fan.update`` byte-for-byte, whatever mix of fan transitions, cooldowns
and B=1 views a batch throws at it.  The per-substep reference is
:func:`kernels.substep_loop`, called directly at kernel level and
substituted for :func:`kernels.advance_held_interval` at engine level.
"""

import numpy as np

from repro.platform.fan import Fan, FanThresholds
from repro.platform.specs import PlatformSpec
from repro.runner import result_bytes
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.thermal import floorplan, kernels
from repro.units import celsius_to_kelvin
from repro.workloads.generator import synthesize

SPEC = PlatformSpec()
FAN = Fan(SPEC.fan_power_w, SPEC.fan_conductance_gain, FanThresholds())
UP_K = FAN.threshold_points_k()
HYST_K = FAN.hysteresis_k
GAINS = FAN.conductance_gain_table()
FUSED = kernels.advance_held_interval
REFERENCE = kernels.substep_loop


def _network():
    return floorplan.build_exynos_network(298.15)


def _random_states(rng, network, batch):
    """Interval-entry states straddling every fan threshold and edge case."""
    n = network.num_nodes
    # spread entry temperatures across 35..80 C so some lanes sit well
    # inside a fan band (clean) and others ride a threshold (dirty)
    base = celsius_to_kelvin(35.0 + 45.0 * rng.random((batch, 1)))
    temps = base + 4.0 * rng.random((batch, n))
    fan_speed = rng.integers(0, 4, size=batch)
    fan_enabled = rng.random(batch) < 0.8
    fan_speed[~fan_enabled] = 0
    cooling_gain = GAINS[fan_speed]
    # a couple of lanes carry an externally forced gain (warm-start case)
    forced = rng.random(batch) < 0.15
    cooling_gain = np.where(forced, 1.0, cooling_gain)
    power = 4.0 * rng.random((batch, n))
    return temps, cooling_gain, fan_speed, fan_enabled, power


def _advance(network, states, kernel, substeps=10, dt=0.01):
    temps, gain, speed, enabled, power = states
    return kernel(
        network, temps.copy(), gain.copy(), speed.copy(), enabled.copy(),
        power.copy(), dt, substeps, UP_K, HYST_K, GAINS,
        floorplan.hot_indices(network),
    )


# ---------------------------------------------------------------------------
# kernel-level parity (byte-for-byte)
# ---------------------------------------------------------------------------
def test_fused_matches_substep_loop_bitwise(rng):
    network = _network()
    states = _random_states(rng, network, batch=41)
    t_fused, s_fused = _advance(network, states, FUSED)
    t_ref, s_ref = _advance(network, states, REFERENCE)
    assert np.array_equal(t_fused, t_ref)
    assert np.array_equal(s_fused, s_ref)


def test_fused_lanes_are_batch_independent(rng):
    network = _network()
    temps, gain, speed, enabled, power = _random_states(rng, network, batch=17)
    t_full, s_full = _advance(network, (temps, gain, speed, enabled, power), FUSED)
    for b in range(temps.shape[0]):
        one = (
            temps[b : b + 1], gain[b : b + 1], speed[b : b + 1],
            enabled[b : b + 1], power[b : b + 1],
        )
        t_one, s_one = _advance(network, one, FUSED)
        assert np.array_equal(t_one[0], t_full[b])
        assert np.array_equal(s_one[0], s_full[b])


def test_substep_loop_matches_scalar_step_and_fan(rng):
    """B=1 kernel == the scalar network step()/Fan.update interleaving."""
    network = _network()
    scalar_net = _network()
    temps, gain, speed, enabled, power = _random_states(rng, network, batch=6)
    for b in range(temps.shape[0]):
        t_kernel, s_kernel = _advance(
            network,
            (
                temps[b : b + 1], gain[b : b + 1], speed[b : b + 1],
                enabled[b : b + 1], power[b : b + 1],
            ),
            REFERENCE,
            substeps=10,
        )
        fan = Fan(
            SPEC.fan_power_w, SPEC.fan_conductance_gain, FanThresholds(),
            enabled=bool(enabled[b]),
        )
        fan.restore_speed(int(speed[b]))
        scalar_net.set_temperatures_k(temps[b])
        scalar_net.set_cooling_gain(float(gain[b]))
        hot = floorplan.hot_indices(scalar_net)
        for _ in range(10):
            t = scalar_net.step(power[b], 0.01)
            fan.update(float(np.max(t[hot])))
            scalar_net.set_cooling_gain(fan.conductance_gain)
        assert np.array_equal(t_kernel[0], scalar_net.temperatures_k)
        assert int(s_kernel[0, -1]) == int(fan.speed)


def test_dirty_lane_detection_flags_transitions(rng):
    network = _network()
    n = network.num_nodes
    hot = floorplan.hot_indices(network)
    # lane 0: cold and steady (clean); lane 1: just below the first
    # threshold with enough power to cross it mid-interval (dirty)
    temps = np.full((2, n), celsius_to_kelvin(40.0))
    temps[1] = celsius_to_kelvin(56.8)
    power = np.zeros((2, n))
    power[1, hot] = 6.0
    speed = np.zeros(2, dtype=np.int64)
    enabled = np.ones(2, dtype=bool)
    gain = GAINS[speed]
    nl_entry = network.nonlinear_factors(temps)
    gains = gain * nl_entry
    ad, bd = network.discretise_stack(0.01, gains)
    u = np.concatenate([power, np.full((2, 1), network.ambient_k)], axis=1)
    bu = np.einsum("bij,bj->bi", bd, u)
    traj = kernels.fused_chain(ad, bu, temps, 10)
    dirty = kernels.dirty_lanes(
        network, traj, nl_entry, gain, speed, enabled, UP_K, HYST_K, GAINS, hot
    )
    assert not dirty[0]
    assert dirty[1]
    # and the full kernel still matches the reference on both lanes
    states = (temps, gain, speed, enabled, power)
    t_fused, s_fused = _advance(network, states, FUSED)
    t_ref, s_ref = _advance(network, states, REFERENCE)
    assert np.array_equal(t_fused, t_ref)
    assert np.array_equal(s_fused, s_ref)
    assert s_fused[1, -1] >= 1  # the dirty lane really did engage its fan


def test_disabled_fan_with_forced_speed_is_dirty(rng):
    """A disabled fan pins to OFF; entering at speed>0 must take the
    fallback so the pin happens on the first substep, not at the end."""
    network = _network()
    n = network.num_nodes
    temps = np.full((1, n), celsius_to_kelvin(50.0))
    states = (
        temps, np.array([GAINS[2]]), np.array([2], dtype=np.int64),
        np.array([False]), np.zeros((1, n)),
    )
    t_fused, s_fused = _advance(network, states, FUSED)
    t_ref, s_ref = _advance(network, states, REFERENCE)
    assert np.array_equal(t_fused, t_ref)
    assert np.array_equal(s_fused, s_ref)
    assert s_fused[0, 0] == 0


def test_cooldown_interval_parity(rng):
    """Hot lanes cooling through the hysteresis band (the gap-cooldown
    shape): step-downs mid-interval must be bit-reproduced."""
    network = _network()
    n = network.num_nodes
    batch = 12
    temps = celsius_to_kelvin(55.0) + 12.0 * rng.random((batch, n))
    speed = np.full(batch, 3, dtype=np.int64)
    enabled = np.ones(batch, dtype=bool)
    states = (temps, GAINS[speed], speed, enabled, np.zeros((batch, n)))
    t_fused, s_fused = _advance(network, states, FUSED, substeps=50, dt=0.5)
    t_ref, s_ref = _advance(network, states, REFERENCE, substeps=50, dt=0.5)
    assert np.array_equal(t_fused, t_ref)
    assert np.array_equal(s_fused, s_ref)
    assert np.any(s_fused[:, -1] < 3)  # the cooldown really stepped down


# ---------------------------------------------------------------------------
# engine-level parity (full closed loop, byte-for-byte)
# ---------------------------------------------------------------------------
def _engine_sims():
    out = []
    for seed, mode, warm in (
        (1, ThermalMode.DEFAULT_WITH_FAN, 52.0),  # crosses fan thresholds
        (2, ThermalMode.NO_FAN, 48.0),
        (3, ThermalMode.REACTIVE, None),
    ):
        out.append(
            Simulator(
                synthesize("high", 10.0, threads=2, seed=seed),
                mode,
                max_duration_s=16.0,
                seed=seed * 7,
                warm_start_c=warm,
            )
        )
    return out


def test_engine_fused_backend_byte_identical_to_substep(monkeypatch):
    fused = BatchSimulator(_engine_sims()).run()
    monkeypatch.setattr(kernels, "advance_held_interval", REFERENCE)
    reference = BatchSimulator(_engine_sims()).run()
    for one, two in zip(reference, fused):
        assert result_bytes(one) == result_bytes(two)
