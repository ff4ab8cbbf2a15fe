"""System identification: estimators and the PRBS experiment protocol."""

import zlib

import numpy as np
import pytest
from scalar_board import ScalarBoard

from repro.errors import IdentificationError
from repro.platform.board import OdroidBoard
from repro.platform.specs import POWER_RESOURCES, Resource
from repro.thermal.prbs import PrbsSignal
from repro.thermal.state_space import DiscreteThermalModel
from repro.thermal.sysid import (
    IdentificationSession,
    PrbsExperiment,
    SystemIdentifier,
)


def _synthetic_sessions(rng, steps=800):
    """Sessions generated from a known LTI system (no plant, no noise)."""
    a_true = np.array(
        [
            [0.80, 0.05, 0.05, 0.02],
            [0.05, 0.80, 0.02, 0.05],
            [0.05, 0.02, 0.80, 0.05],
            [0.02, 0.05, 0.05, 0.80],
        ]
    )
    # like the real platform, every input heats every sensed core
    b_true = np.array(
        [
            [0.60, 0.10, 0.20, 0.15],
            [0.50, 0.12, 0.18, 0.16],
            [0.55, 0.11, 0.22, 0.14],
            [0.45, 0.13, 0.19, 0.17],
        ]
    )
    d_true = np.full(4, 24.0)
    sessions = []
    for j, resource in enumerate(POWER_RESOURCES):
        t = np.full(4, 300.0)
        temps, powers = [], []
        p = np.full(4, 0.2)
        for k in range(steps):
            if k % 30 == 0:
                p = np.full(4, 0.2)
                p[j] = rng.choice([0.2, 2.0])
            temps.append(t.copy())
            powers.append(p.copy())
            # small independent per-core disturbance decorrelates the
            # states so A is identifiable (persistent excitation)
            t = a_true @ t + b_true @ p + d_true + rng.normal(0, 0.05, 4)
        sessions.append(
            IdentificationSession(
                resource=resource,
                temps_k=np.stack(temps),
                powers_w=np.stack(powers),
                ts_s=0.1,
            )
        )
    return a_true, b_true, d_true, sessions


def test_joint_identification_recovers_synthetic_system(rng):
    a, b, d, sessions = _synthetic_sessions(rng, steps=3000)
    model = SystemIdentifier(ridge=1e-10).identify(sessions)
    assert np.allclose(model.a, a, atol=0.03)
    assert np.allclose(model.b, b, atol=0.06)
    assert np.allclose(model.offset, d, atol=6.0)  # absorbed constants


def test_staged_identification_recovers_synthetic_system(rng):
    a, b, d, sessions = _synthetic_sessions(rng, steps=3000)
    model = SystemIdentifier(ridge=1e-10).identify_staged(sessions)
    assert np.allclose(model.a, a, atol=0.03)
    # each excited column must be recovered
    for j in range(4):
        assert np.allclose(model.b[:, j], b[:, j], atol=0.10)


def test_identifier_rejects_empty_and_mixed_ts():
    ident = SystemIdentifier()
    with pytest.raises(IdentificationError):
        ident.identify([])
    rng = np.random.default_rng(0)
    _, _, _, sessions = _synthetic_sessions(rng, steps=100)
    object.__setattr__
    sessions[1].ts_s = 0.2
    with pytest.raises(IdentificationError):
        ident.identify(sessions)


def test_staged_requires_big_session(rng):
    _, _, _, sessions = _synthetic_sessions(rng, steps=100)
    without_big = [s for s in sessions if s.resource is not Resource.BIG]
    with pytest.raises(IdentificationError):
        SystemIdentifier().identify_staged(without_big)


def test_session_validation():
    with pytest.raises(IdentificationError):
        IdentificationSession(
            Resource.BIG, np.zeros((10, 4)), np.zeros((10, 4)), 0.1
        )  # too short
    with pytest.raises(IdentificationError):
        IdentificationSession(
            Resource.BIG, np.zeros((100, 4)), np.zeros((90, 4)), 0.1
        )  # misaligned


# ---- the full simulated campaign (slower, module-scoped) -------------------
@pytest.fixture(scope="module")
def campaign():
    exp = PrbsExperiment(duration_s=300.0)
    return exp.run_all()


def test_campaign_covers_all_resources(campaign):
    assert [s.resource for s in campaign] == list(POWER_RESOURCES)


def test_campaign_excites_target_resource(campaign):
    idx = {r: i for i, r in enumerate(POWER_RESOURCES)}
    for session in campaign:
        j = idx[session.resource]
        own_std = session.powers_w[:, j].std()
        others = [
            session.powers_w[:, k].std()
            for k in range(4)
            if k != j
        ]
        assert own_std > 2.0 * max(others), (
            "%s session does not dominate the excitation" % session.resource
        )


def test_identified_models_are_stable(campaign):
    ident = SystemIdentifier()
    for estimate in (ident.identify, ident.identify_staged, ident.identify_structured):
        model = estimate(campaign)
        assert isinstance(model, DiscreteThermalModel)
        assert model.is_stable()
        assert model.num_states == 4 and model.num_inputs == 4


def test_structured_model_preserves_spread(campaign):
    """The hottest-core persistence the budget equation relies on."""
    model = SystemIdentifier().identify_structured(campaign)
    t = np.array([340.0, 330.0, 330.0, 330.0])
    p = np.full(4, 0.5)
    pred = model.predict_n_constant(t, p, 10)
    # after 1 s the formerly-hot core must still be clearly the hottest
    assert pred[0] - pred[1:].max() > 4.0


def test_structured_requires_big_session(campaign):
    without_big = [s for s in campaign if s.resource is not Resource.BIG]
    with pytest.raises(IdentificationError):
        SystemIdentifier().identify_structured(without_big)


# ---- the lock-step against the scalar per-session loop ---------------------
def _scalar_session(exp, resource):
    """One session as a lone board stepped and read by the scalar plant
    (``tests/scalar_board.py``) -- a transcription of the per-session loop
    that ``PrbsExperiment`` ran before its sessions became one lock-step."""
    config = exp.config.with_(
        seed=exp.seed + zlib.crc32(resource.value.encode("ascii")) % 1000
    )
    board = OdroidBoard(exp.spec, config, fan_enabled=False)
    board.warm_start(hotspot_c=config.ambient_c + 12.0)
    scalar = ScalarBoard(board)

    gpu_util, mem_traffic = 0.05, 0.15
    big_utils = (1.0, 1.0, 1.0, 1.0)
    little_utils = (0.0,) * 4
    board.soc.gpu.set_frequency(exp.spec.gpu_opp.f_min_hz)
    core_signals = [
        PrbsSignal(0.25, 1.0, exp.chip_s * 5.0, exp.prbs_order, seed=17 + i)
        for i in range(4)
    ]
    if resource is Resource.BIG:
        opp = exp.spec.big_opp
        signal = PrbsSignal(opp.f_min_hz, opp.f_max_hz, exp.chip_s,
                            exp.prbs_order, seed=3)
    elif resource is Resource.LITTLE:
        board.soc.switch_cluster(Resource.LITTLE)
        big_utils, little_utils = (0.0,) * 4, (1.0, 1.0, 1.0, 1.0)
        opp = exp.spec.little_opp
        signal = PrbsSignal(opp.f_min_hz, opp.f_max_hz, exp.chip_s,
                            exp.prbs_order, seed=5)
    elif resource is Resource.GPU:
        board.soc.big.set_frequency(exp.spec.big_opp.f_min_hz)
        big_utils = (0.2, 0.05, 0.05, 0.05)
        gpu_util = 0.85
        opp = exp.spec.gpu_opp
        signal = PrbsSignal(opp.f_min_hz, opp.f_max_hz, exp.chip_s,
                            exp.prbs_order, seed=11)
    else:
        board.soc.big.set_frequency(exp.spec.big_opp.f_min_hz)
        big_utils = (0.2, 0.05, 0.05, 0.05)
        signal = PrbsSignal(0.05, 0.95, exp.chip_s, exp.prbs_order, seed=13)

    dt = exp.config.control_period_s
    temps, powers = [], []
    for step in range(int(round(exp.duration_s / dt))):
        level = signal.value_at(step * dt)
        hot_c = float(np.max(board.true_hotspots_k())) - 273.15
        throttled = hot_c > exp.safety_temp_c
        if resource in (Resource.BIG, Resource.LITTLE):
            utils = tuple(s.value_at(step * dt) for s in core_signals)
            if resource is Resource.BIG:
                big_utils = utils
            else:
                little_utils = utils
        level = signal.low if throttled else level
        if resource is Resource.BIG:
            board.soc.big.set_frequency(level)
        elif resource is Resource.LITTLE:
            board.soc.little.set_frequency(level)
        elif resource is Resource.GPU:
            board.soc.gpu.set_frequency(level)
        else:
            mem_traffic = level
        scalar.step(big_utils, little_utils, gpu_utilisation=gpu_util,
                    mem_traffic=mem_traffic, dt_s=dt)
        snap = scalar.read_sensors()
        temps.append(snap.temperatures_k)
        powers.append(snap.powers_w)
    return np.stack(temps), np.stack(powers)


@pytest.fixture(scope="module")
def throttled():
    """A short campaign whose safety throttle fires in every session."""
    exp = PrbsExperiment(duration_s=60.0, safety_temp_c=36.0)
    return exp, exp.run_all()


def test_lock_step_matches_the_scalar_loop(throttled):
    exp, sessions = throttled
    assert [s.resource for s in sessions] == list(POWER_RESOURCES)
    for session in sessions:
        temps, powers = _scalar_session(exp, session.resource)
        np.testing.assert_array_equal(session.temps_k, temps)
        np.testing.assert_array_equal(session.powers_w, powers)


def test_throttle_changes_every_session(throttled):
    _, sessions = throttled
    free = PrbsExperiment(duration_s=60.0).run_all()
    for hot, cool in zip(sessions, free):
        assert not np.array_equal(hot.powers_w, cool.powers_w), hot.resource


def test_run_session_is_one_lane_of_run_all(throttled):
    exp, sessions = throttled
    for session in sessions:
        alone = exp.run_session(session.resource)
        np.testing.assert_array_equal(alone.temps_k, session.temps_k)
        np.testing.assert_array_equal(alone.powers_w, session.powers_w)
