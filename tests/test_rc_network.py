"""Ground-truth thermal RC network: physics sanity and exact integration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.thermal.rc_network import ThermalNode, ThermalRCNetwork, node_power_vector


def _two_node(ambient_k=300.0, nonlinear=0.0):
    nodes = [
        ThermalNode("chip", 1.0),
        ThermalNode("sink", 10.0, g_ambient_w_per_k=0.1, cooled=True),
    ]
    return ThermalRCNetwork(
        nodes, [("chip", "sink", 0.5)], ambient_k, nonlinear_cooling_coeff=nonlinear
    )


def test_starts_at_ambient():
    net = _two_node()
    assert np.allclose(net.temperatures_k, 300.0)


def test_zero_power_stays_at_ambient():
    net = _two_node()
    net.step([0.0, 0.0], 10.0)
    assert np.allclose(net.temperatures_k, 300.0, atol=1e-9)


def test_steady_state_matches_hand_calculation():
    net = _two_node()
    # 1 W into the chip: all of it crosses sink->ambient (R = 10 K/W),
    # and chip sits another 1 W * 2 K/W above the sink.
    ss = net.steady_state_k([1.0, 0.0])
    assert ss[1] == pytest.approx(300.0 + 10.0)
    assert ss[0] == pytest.approx(300.0 + 10.0 + 2.0)


def test_long_integration_converges_to_steady_state():
    net = _two_node()
    for _ in range(5000):
        net.step([1.0, 0.0], 0.5)
    assert np.allclose(net.temperatures_k, net.steady_state_k([1.0, 0.0]), atol=0.01)


def test_integration_step_size_invariance():
    """Exact ZOH discretisation: many small steps == one large step."""
    net_a, net_b = _two_node(), _two_node()
    for _ in range(100):
        net_a.step([1.0, 0.0], 0.01)
    net_b.step([1.0, 0.0], 1.0)
    assert np.allclose(net_a.temperatures_k, net_b.temperatures_k, atol=1e-9)


#: Mixed step sizes (s): the exact ZOH step must not care how time is cut.
MIXED_STEPS_S = (0.1, 1.0, 5.0, 0.1, 5.0, 1.0, 0.1, 0.1, 5.0, 1.0) * 3


def test_one_node_transient_matches_the_exponential():
    """One lump: T(t) = T_amb + P/g (1 - exp(-g t / C)) at every step."""
    c, g, p, ambient = 20.0, 0.5, 3.0, 300.0
    net = ThermalRCNetwork(
        [ThermalNode("lump", c, g_ambient_w_per_k=g)], [], ambient
    )
    t = 0.0
    for dt in MIXED_STEPS_S:
        got = net.step([p], dt)[0]
        t += dt
        want = ambient + p / g * (1.0 - np.exp(-g * t / c))
        assert abs(got - want) < 1e-9, (t, got - want)


def test_chain_transient_matches_the_eigendecomposition():
    """A 3-node chain from a non-uniform start against the closed form
    T(t) = T_ss + V exp(L t) V^-1 (T_0 - T_ss) of dT/dt = A T + b, which
    shares nothing with the augmented-matrix ``expm`` the network steps
    with."""
    caps = np.array([1.0, 5.0, 40.0])
    g_amb = np.array([0.0, 0.0, 0.2])
    ambient = 300.0
    net = ThermalRCNetwork(
        [
            ThermalNode(name, cap, g_ambient_w_per_k=g)
            for name, cap, g in zip("abc", caps, g_amb)
        ],
        [("a", "b", 0.8), ("b", "c", 0.4)],
        ambient,
    )
    conductance = np.array([
        [0.8, -0.8, 0.0],
        [-0.8, 1.2, -0.4],
        [0.0, -0.4, 0.4],
    ]) + np.diag(g_amb)
    power = np.array([2.0, 0.5, 0.0])
    t0 = np.array([330.0, 315.0, 305.0])
    t_ss = np.linalg.solve(conductance, power + g_amb * ambient)
    lam, vec = np.linalg.eig(-conductance / caps[:, None])
    coeffs = np.linalg.solve(vec, t0 - t_ss)
    net.set_temperatures_k(t0)
    t = 0.0
    for dt in MIXED_STEPS_S:
        got = net.step(power, dt)
        t += dt
        want = t_ss + (vec @ (np.exp(lam * t) * coeffs)).real
        assert np.max(np.abs(got - want)) < 1e-9, (t, got - want)


def test_cooling_gain_lowers_steady_state():
    net = _two_node()
    ss_slow = net.steady_state_k([1.0, 0.0])
    net.set_cooling_gain(2.0)
    ss_fast = net.steady_state_k([1.0, 0.0])
    assert ss_fast[1] < ss_slow[1]


def test_nonlinear_cooling_reduces_hot_steady_state():
    lin = _two_node()
    nonlin = _two_node(nonlinear=0.01)
    ss_lin = lin.steady_state_k([3.0, 0.0])
    ss_non = nonlin.steady_state_k([3.0, 0.0])
    assert ss_non[1] < ss_lin[1]
    # but at zero power both sit at ambient
    assert np.allclose(nonlin.steady_state_k([0.0, 0.0]), 300.0)


def test_monotone_heating_no_oscillation():
    net = _two_node()
    prev = net.temperatures_k
    for _ in range(200):
        cur = net.step([2.0, 0.0], 0.2)
        assert np.all(cur >= prev - 1e-9)
        prev = cur


def test_time_constants_sorted_positive():
    net = _two_node()
    taus = net.dominant_time_constants_s()
    assert taus.shape == (2,)
    assert taus[0] >= taus[1] > 0


def test_temperature_accessors():
    net = _two_node()
    net.set_uniform_temperature_k(320.0)
    assert net.temperature_k("chip") == pytest.approx(320.0)
    net.set_temperatures_k([325.0, 315.0])
    assert net.temperature_k("chip") == pytest.approx(325.0)
    with pytest.raises(ConfigurationError):
        net.temperature_k("nope")


def test_node_power_vector_helper():
    net = _two_node()
    vec = node_power_vector(net, {"chip": 1.5})
    assert vec[net.index("chip")] == 1.5
    assert vec[net.index("sink")] == 0.0
    with pytest.raises(ConfigurationError):
        node_power_vector(net, {"nope": 1.0})


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        ThermalRCNetwork([], [], 300.0)
    nodes = [ThermalNode("a", 1.0), ThermalNode("b", 1.0, g_ambient_w_per_k=0.1)]
    with pytest.raises(ConfigurationError):
        ThermalRCNetwork(nodes, [("a", "b", -0.5)], 300.0)
    with pytest.raises(ConfigurationError):
        ThermalRCNetwork(nodes, [("a", "a", 0.5)], 300.0)
    # no path to ambient anywhere
    iso = [ThermalNode("a", 1.0), ThermalNode("b", 1.0)]
    with pytest.raises(ConfigurationError):
        ThermalRCNetwork(iso, [("a", "b", 0.5)], 300.0)


def test_step_input_validation():
    net = _two_node()
    with pytest.raises(SimulationError):
        net.step([1.0], 0.1)
    with pytest.raises(SimulationError):
        net.step([1.0, 0.0], -0.1)


def test_discretisation_cache_stays_bounded():
    """Long varying-gain runs (continuous effective gains from the
    temperature-dependent nonlinear factor) must not grow the
    ``(dt, gain)`` cache without limit."""
    from repro.thermal.rc_network import DISC_CACHE_SIZE

    net = _two_node()
    for i in range(3 * DISC_CACHE_SIZE):
        net.set_cooling_gain(1.0 + 1e-4 * i)  # every step a fresh key
        net.step([1.0, 0.0], 0.1)
        assert len(net._disc_cache) <= DISC_CACHE_SIZE
    assert len(net._disc_cache) == DISC_CACHE_SIZE
    # eviction is least-recently-used: the hottest key survives a miss
    hot_key = next(reversed(net._disc_cache))
    net.set_cooling_gain(99.0)
    net.step([1.0, 0.0], 0.1)
    assert hot_key in net._disc_cache


def test_node_validation():
    with pytest.raises(ConfigurationError):
        ThermalNode("bad", -1.0)
    with pytest.raises(ConfigurationError):
        ThermalNode("bad", 1.0, g_ambient_w_per_k=-0.1)


def test_physics_equal_instances_discretise_bit_identically():
    """BatchPlant lets the first board's network serve every lane, so two
    physics-equal instances must hand back the same matrices bit-for-bit
    (each from its own per-instance cache)."""
    net, clone = _two_node(), _two_node()
    assert clone.physics_equal(net)
    gains = np.array([1.0, 2.5, 1.3, 1.0])
    direct_a, direct_b = net.discretise_stack(0.05, gains)
    clone_a, clone_b = clone.discretise_stack(0.05, gains)
    assert np.array_equal(direct_a, clone_a)
    assert np.array_equal(direct_b, clone_b)
    # stepping through the cached matrices is bit-identical too
    t = np.array([[310.0, 305.0]])
    p = np.array([[2.0, 0.0]])
    g = np.array([1.3])
    assert np.array_equal(
        net.step_batch(t, p, 0.05, g), clone.step_batch(t, p, 0.05, g)
    )


def test_gathered_stacks_are_copies():
    net = _two_node()
    a, _ = net.discretise_stack(0.05, np.array([1.0]))
    a[0, 0, 0] = 1e9  # mutating the gathered stack must not poison the cache
    again, _ = net.discretise_stack(0.05, np.array([1.0]))
    assert again[0, 0, 0] != 1e9
