"""Scenario runner: consecutive benchmarks on one warm device.

Includes the batched-chain contract: a :class:`BatchScenarioRunner` over
mixed schedules must produce chains byte-identical to the same schedules
executed one at a time, and the serial runner itself must match a
reference transcription of the pre-batching per-board idle loop.
"""

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.runner import result_bytes
from repro.sim.engine import Simulator, ThermalMode
from repro.sim.experiment import make_dtpm_governor
from repro.sim.scenario import BatchScenarioRunner, ScenarioRunner, diurnal
from repro.workloads.generator import synthesize


@pytest.fixture()
def workloads():
    return [
        synthesize("medium", 20.0, threads=2, seed=1),
        synthesize("high", 20.0, threads=4, seed=2),
    ]


def test_sequence_carries_heat(workloads):
    runner = ScenarioRunner(ThermalMode.NO_FAN, initial_temp_c=30.0)
    first, second = runner.run(workloads)
    # the second run starts where the first ended, so it begins hotter
    assert second.max_temps_c()[0] > first.max_temps_c()[0] + 3.0
    assert runner.device_temps_k is not None


def test_sequence_vs_cold_runs(workloads):
    warm = ScenarioRunner(ThermalMode.NO_FAN, initial_temp_c=30.0).run(workloads)
    cold = [
        ScenarioRunner(ThermalMode.NO_FAN, initial_temp_c=30.0).run([w])[0]
        for w in workloads
    ]
    # back-to-back execution makes the later run peak hotter
    assert warm[1].peak_temp_c() > cold[1].peak_temp_c() + 1.0


def test_idle_gap_cools_between_runs(workloads):
    packed = ScenarioRunner(ThermalMode.NO_FAN, initial_temp_c=30.0)
    gapped = ScenarioRunner(
        ThermalMode.NO_FAN, initial_temp_c=30.0, idle_gap_s=60.0
    )
    packed_results = packed.run(workloads)
    gapped_results = gapped.run(workloads)
    assert (
        gapped_results[1].max_temps_c()[0]
        < packed_results[1].max_temps_c()[0] - 1.0
    )


def test_dtpm_scenario_regulates_sustained_use(models):
    config = SimulationConfig()
    heavy = [synthesize("high", 25.0, threads=4, seed=s) for s in (1, 2, 3)]
    runner = ScenarioRunner(
        ThermalMode.DTPM,
        dtpm=make_dtpm_governor(models),
        config=config,
        initial_temp_c=40.0,
    )
    results = runner.run(heavy)
    # even the third consecutive heavy run stays regulated
    assert all(r.completed for r in results)
    assert results[-1].peak_temp_c() < config.t_constraint_c + 2.7
    # and the controller worked progressively harder as the device warmed
    assert results[-1].interventions >= results[0].interventions


def test_notes_record_position(workloads):
    results = ScenarioRunner(ThermalMode.NO_FAN).run(workloads)
    assert results[0].notes == ["scenario position 0"]
    assert results[1].notes == ["scenario position 1"]


def test_annotate_false_leaves_notes_empty(workloads):
    results = ScenarioRunner(ThermalMode.NO_FAN, annotate=False).run(workloads)
    assert all(r.notes == [] for r in results)


def test_base_seed_overrides_config_seed(workloads):
    a = ScenarioRunner(ThermalMode.NO_FAN, base_seed=1234).run(workloads)
    b = ScenarioRunner(ThermalMode.NO_FAN, base_seed=1234).run(workloads)
    c = ScenarioRunner(ThermalMode.NO_FAN, base_seed=999).run(workloads)
    from repro.runner import result_bytes

    assert [result_bytes(r) for r in a] == [result_bytes(r) for r in b]
    assert result_bytes(a[0]) != result_bytes(c[0])


def test_validation(workloads):
    with pytest.raises(ConfigurationError):
        ScenarioRunner(ThermalMode.DTPM)  # needs a governor
    with pytest.raises(ConfigurationError):
        ScenarioRunner(ThermalMode.NO_FAN, idle_gap_s=-1.0)
    with pytest.raises(ConfigurationError):
        ScenarioRunner(ThermalMode.NO_FAN).run([])


# ---------------------------------------------------------------------------
# batched scenario chains
# ---------------------------------------------------------------------------
def _reference_chain(
    mode, workloads, initial_temp_c, idle_gap_s=0.0, base_seed=None, dtpm=None
):
    """The pre-batching serial semantics, transcribed: one Simulator per
    position, carried temperatures, and a per-board scalar ``step`` idle
    loop (``tests/scalar_board.py``)."""
    from scalar_board import ScalarBoard

    from repro.platform.specs import PlatformSpec

    spec, config = PlatformSpec(), SimulationConfig()
    seed0 = base_seed if base_seed is not None else config.seed
    carry, results = None, []
    for i, workload in enumerate(workloads):
        sim = Simulator(
            workload, mode, dtpm=dtpm, spec=spec, config=config,
            warm_start_c=None if carry is not None else initial_temp_c,
            max_duration_s=900.0, seed=seed0 + i,
        )
        if carry is not None:
            sim.board.network.set_temperatures_k(carry)
            if idle_gap_s > 0:
                sim.board.soc.big.set_frequency(spec.big_opp.f_min_hz)
                scalar = ScalarBoard(sim.board)
                for _ in range(int(round(idle_gap_s / 0.1))):
                    scalar.step(
                        (0.03, 0.02, 0.02, 0.02), (0.0,) * 4, 0.0, 0.03, 0.1
                    )
                sim.board.meter.reset()
        result = sim.run()
        result.notes.append("scenario position %d" % i)
        results.append(result)
        carry = sim.board.network.temperatures_k
    return results


@pytest.mark.parametrize(
    "mode, initial_temp_c",
    [
        (ThermalMode.NO_FAN, 30.0),
        # the carried heat engages the fan (0 -> 1) during the gap
        (ThermalMode.DEFAULT_WITH_FAN, 60.0),
    ],
    ids=["no_fan", "fan_engages"],
)
def test_serial_runner_matches_per_board_idle_loop(
    workloads, mode, initial_temp_c
):
    """The batched idle-gap integration is bit-equal to scalar step loops."""
    reference = _reference_chain(
        mode, workloads, initial_temp_c=initial_temp_c, idle_gap_s=7.0
    )
    runner = ScenarioRunner(
        mode, initial_temp_c=initial_temp_c, idle_gap_s=7.0
    )
    results = runner.run(workloads)
    assert [result_bytes(r) for r in reference] == [
        result_bytes(r) for r in results
    ]


def _lane_recipes(models):
    """Heterogeneous scenario lanes: modes, gaps, seeds, chain lengths."""
    a = synthesize("medium", 12.0, threads=2, seed=21)
    b = synthesize("high", 12.0, threads=4, seed=22)
    recipes = [
        (dict(mode=ThermalMode.NO_FAN, initial_temp_c=30.0, idle_gap_s=6.0,
              base_seed=10), [a, b]),
        (dict(mode=ThermalMode.DEFAULT_WITH_FAN, initial_temp_c=45.0,
              base_seed=20), [b, a]),
        (dict(mode=ThermalMode.DTPM, initial_temp_c=50.0, idle_gap_s=3.0,
              base_seed=30), [b, b, a]),  # longer chain drops in later
        (dict(mode=ThermalMode.REACTIVE, initial_temp_c=35.0, base_seed=40),
         [a]),
    ]

    def runners():
        out = []
        for kwargs, _ in recipes:
            kwargs = dict(kwargs)
            if kwargs["mode"] is ThermalMode.DTPM:
                kwargs["dtpm"] = make_dtpm_governor(models)
            out.append(ScenarioRunner(**kwargs))
        return out

    return runners, [schedule for _, schedule in recipes]


def test_batch_of_schedules_byte_identical_to_serial(models):
    runners, schedules = _lane_recipes(models)
    serial = [
        runner.run(schedule)
        for runner, schedule in zip(runners(), schedules)
    ]
    batched = BatchScenarioRunner(runners()).run(schedules)
    assert len(serial) == len(batched)
    for one, many in zip(serial, batched):
        assert [result_bytes(r) for r in one] == [
            result_bytes(r) for r in many
        ]


def test_per_position_modes(workloads, models):
    mixed = [ThermalMode.NO_FAN, ThermalMode.DTPM]
    runner = ScenarioRunner(
        ThermalMode.NO_FAN,
        dtpm=make_dtpm_governor(models),
        initial_temp_c=40.0,
    )
    results = runner.run(workloads, modes=mixed)
    assert [r.mode for r in results] == ["without_fan", "dtpm"]
    # the DTPM-managed second position matches the same mixed chain run
    # under a default mode of DTPM with the first position pinned instead
    other = ScenarioRunner(
        ThermalMode.DTPM,
        dtpm=make_dtpm_governor(models),
        initial_temp_c=40.0,
    ).run(workloads, modes=mixed)
    assert [result_bytes(r) for r in results] == [
        result_bytes(r) for r in other
    ]


def test_batch_scenario_validation(workloads):
    runner = ScenarioRunner(ThermalMode.NO_FAN)
    with pytest.raises(ConfigurationError):
        BatchScenarioRunner([])
    with pytest.raises(ConfigurationError):
        BatchScenarioRunner([runner, runner])
    with pytest.raises(ConfigurationError):
        BatchScenarioRunner([runner]).run([])  # lane-count mismatch
    with pytest.raises(ConfigurationError):
        BatchScenarioRunner([runner]).run([[]])  # empty schedule
    with pytest.raises(ConfigurationError):
        runner.run(workloads, modes=[ThermalMode.NO_FAN])  # wrong length
    with pytest.raises(ConfigurationError):
        # DTPM position without a governor
        runner.run(workloads, modes=[ThermalMode.NO_FAN, ThermalMode.DTPM])


# ---------------------------------------------------------------------------
# schedule generators
# ---------------------------------------------------------------------------
def test_diurnal_repeats_days_with_overnight(workloads):
    schedule = diurnal(workloads, days=3)
    assert len(schedule) == 3 * len(workloads) + 2
    overnight = schedule[len(workloads)]
    assert overnight.name == "overnight" and overnight.category == "low"
    assert schedule[: len(workloads)] == tuple(workloads)
    # names resolve and per-position modes attach
    tagged = diurnal(
        [("dijkstra", "dtpm")], days=2, night_mode=ThermalMode.NO_FAN
    )
    workload, mode = tagged[0]
    assert workload.name == "dijkstra" and mode is ThermalMode.DTPM
    assert tagged[1][1] is ThermalMode.NO_FAN
    with pytest.raises(ConfigurationError):
        diurnal([], days=2)
    with pytest.raises(ConfigurationError):
        diurnal(workloads, days=0)
    with pytest.raises(ConfigurationError):
        diurnal([("dijkstra", "warp-speed")])
