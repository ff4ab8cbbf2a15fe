"""Engine edge paths: row actuation (hotplug victim selection, cluster
migration, OPP checks), lane-end write-back, penalties, idle governor."""

import numpy as np
import pytest

from repro.errors import InvalidFrequencyError
from repro.governors.base import PlatformConfig
from repro.platform.board import OdroidBoard
from repro.platform.specs import (
    CLUSTER_MIGRATION_PENALTY_S,
    HOTPLUG_PENALTY_S,
    PlatformSpec,
    Resource,
)
from repro.platform.state import PlantState
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode, _actuate
from repro.workloads.generator import synthesize

SPEC = PlatformSpec()


def _state():
    """One fresh board's plant state: big cluster, every core online."""
    return PlantState.gather([OdroidBoard(SPEC)])


def _config(cluster=Resource.BIG, big_online=4, little_online=4, **freqs):
    return PlatformConfig(
        cluster=cluster,
        big_freq_hz=freqs.get("big_freq_hz", SPEC.big_opp.f_min_hz),
        little_freq_hz=freqs.get("little_freq_hz", SPEC.little_opp.f_min_hz),
        gpu_freq_hz=freqs.get("gpu_freq_hz", SPEC.gpu_opp.f_min_hz),
        big_online=big_online,
        little_online=little_online,
    )


def _set_online(state, target, prefer_off):
    """Hotplug the big cluster of lane 0 to ``target`` cores."""
    _, migrated, changed = _actuate(
        state, 0, _config(big_online=target), prefer_off, SPEC
    )
    assert not migrated
    return changed


def test_set_online_prefers_requested_victim():
    state = _state()
    changed = _set_online(state, 3, prefer_off=1)
    assert changed == 1
    assert state.big_online[0].tolist() == [True, False, True, True]
    # a preferred victim that is already offline falls back to the highest
    assert _set_online(state, 2, prefer_off=1) == 1
    assert state.big_online[0].tolist() == [True, False, True, False]


def test_set_online_falls_back_to_highest_index():
    state = _state()
    changed = _set_online(state, 2, prefer_off=None)
    assert changed == 2
    assert state.big_online[0].tolist() == [True, True, False, False]


def test_set_online_restores_lowest_first():
    state = _state()
    # the preferred victim goes first, the highest online core next
    assert _set_online(state, 2, prefer_off=1) == 2
    assert state.big_online[0].tolist() == [True, False, True, False]
    assert _set_online(state, 3, prefer_off=None) == 1
    assert state.big_online[0].tolist() == [True, True, True, False]
    changed = _set_online(state, 4, prefer_off=None)
    assert changed == 1
    assert state.big_online[0].all()


def test_set_online_noop():
    state = _state()
    penalty, migrated, changed = _actuate(state, 0, _config(), None, SPEC)
    assert (penalty, migrated, changed) == (0.0, False, 0)
    assert state.big_online[0].all()


def test_migration_brings_the_incoming_cluster_up_all_online():
    state = _state()
    _set_online(state, 3, prefer_off=None)
    state.little_online[0] = [True, False, False, False]
    penalty, migrated, changed = _actuate(
        state, 0, _config(Resource.LITTLE, big_online=3, little_online=2),
        None, SPEC,
    )
    assert migrated
    assert not state.active_is_big[0]
    # all four little cores came up, then two went down again
    assert changed == 2
    assert state.little_online[0].tolist() == [True, True, False, False]
    assert penalty == CLUSTER_MIGRATION_PENALTY_S + 2 * HOTPLUG_PENALTY_S
    # the outgoing cluster's mask is left as it was
    assert state.big_online[0].tolist() == [True, True, True, False]


def test_actuation_writes_table_frequencies_and_rejects_others():
    state = _state()
    freqs = dict(
        big_freq_hz=SPEC.big_opp.f_max_hz,
        little_freq_hz=SPEC.little_opp.f_max_hz,
        gpu_freq_hz=SPEC.gpu_opp.f_max_hz,
    )
    _actuate(state, 0, _config(**freqs), None, SPEC)
    assert state.big_freq_hz[0] == SPEC.big_opp.f_max_hz
    assert state.little_freq_hz[0] == SPEC.little_opp.f_max_hz
    assert state.gpu_freq_hz[0] == SPEC.gpu_opp.f_max_hz
    off_table = SPEC.big_opp.f_min_hz + 1e6
    with pytest.raises(InvalidFrequencyError):
        _actuate(state, 0, _config(big_freq_hz=off_table), None, SPEC)


def _board_after(sim):
    board = sim.board
    return (
        board.time_s,
        board.meter.energy_j,
        board.fan.speed,
        board.network.temperatures_k,
    )


def test_lanes_ending_at_different_intervals_leave_their_boards_as_alone():
    """Each lane's board is written back when that lane ends, and holds
    exactly what the same run leaves when it runs by itself."""

    def sims():
        return [
            Simulator(
                synthesize("high", 2.0, threads=4, seed=1),
                ThermalMode.DEFAULT_WITH_FAN, seed=1,
            ),
            Simulator(
                synthesize("medium", 6.0, threads=2, seed=2),
                ThermalMode.NO_FAN, seed=2,
            ),
            Simulator(
                synthesize("high", 20.0, threads=4, seed=3),
                ThermalMode.DEFAULT_WITH_FAN, seed=3, max_duration_s=4.0,
            ),
        ]

    batched = sims()
    results = BatchSimulator(batched).run()
    rows = [len(r.trace) for r in results]
    assert len(set(rows)) == len(rows), rows  # three different lane ends
    for sim, result in zip(batched, results):
        # the board's clock is the lane's last recorded interval
        assert sim.board.time_s == result.trace.column("time_s")[-1]
    for sim, alone in zip(batched, sims()):
        alone.run()
        got, want = _board_after(sim), _board_after(alone)
        assert got[:3] == want[:3]
        assert np.array_equal(got[3], want[3])


def test_idle_governor_downsizes_light_load():
    """A near-idle workload sheds cores through the idle governor."""
    workload = synthesize(
        "low", 40.0, threads=1, seed=2, num_phases=0
    )
    object.__setattr__(workload, "background_util", 0.02)
    object.__setattr__(workload, "thread_demand", 0.05)
    sim = Simulator(workload, ThermalMode.DEFAULT_WITH_FAN, max_duration_s=600.0)
    result = sim.run()
    online = result.trace.column("online_cores")
    assert online.min() < 4  # hotplug actually engaged
    assert online.min() >= 1


def test_migration_penalty_costs_work(models):
    """A run with forced migrations takes longer than its nominal time."""
    from repro.config import SimulationConfig
    from repro.sim.experiment import make_dtpm_governor

    config = SimulationConfig(t_constraint_c=42.0)
    workload = synthesize("high", 20.0, threads=4, seed=3)
    sim = Simulator(
        workload,
        ThermalMode.DTPM,
        dtpm=make_dtpm_governor(models, config=config),
        config=config,
        warm_start_c=38.0,
        max_duration_s=600.0,
    )
    result = sim.run()
    assert result.completed
    assert result.execution_time_s > workload.nominal_duration_s() * 1.1
