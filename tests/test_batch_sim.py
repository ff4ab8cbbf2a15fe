"""Batch/serial equivalence: the batched plant's core contract.

A :class:`BatchSimulator` over a mixed batch of modes, workloads, seeds
and durations must produce traces *byte-identical* to the same runs
executed one at a time -- which also keeps cache content byte-identical,
so batching can never change what lands in (or comes out of) the
content-addressed store.  These tests pin that contract end-to-end and
per kernel (thermal step, power evaluation, fan controller, sensors).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.platform.fan import Fan, FanSpeed, FanThresholds
from repro.platform.soc import ExynosSoc
from repro.platform.specs import PlatformSpec, Resource
from repro.platform.state import BatchPlant, PlantState
from repro.power.batch import BatchPowerModel
from repro.runner import (
    ExperimentMatrix,
    ParallelRunner,
    ResultCache,
    execute_batch,
    plan_batches,
    result_bytes,
)
from repro.runner.execute import default_batch
from repro.runner.spec import RunSpec
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.thermal import floorplan, kernels
from repro.units import celsius_to_kelvin
from repro.workloads.generator import synthesize


def _mixed_sims():
    """A deliberately heterogeneous batch: modes, seeds, durations, warm
    starts -- including a lane that hits its duration cap early."""
    recipes = [
        ("high", ThermalMode.DEFAULT_WITH_FAN, 1, 40.0, None),
        ("high", ThermalMode.NO_FAN, 2, 30.0, 48.0),
        ("medium", ThermalMode.REACTIVE, 3, 25.0, 52.0),
        ("low", ThermalMode.DEFAULT_WITH_FAN, 4, 35.0, 52.0),
        ("high", ThermalMode.NO_FAN, 5, 8.0, 60.0),  # duration-capped
    ]
    sims = []
    for category, mode, seed, duration, warm in recipes:
        workload = synthesize(category, 18.0, threads=2, seed=seed)
        sims.append(
            Simulator(
                workload,
                mode,
                max_duration_s=duration,
                seed=seed * 11,
                warm_start_c=warm,
            )
        )
    return sims


def test_mixed_batch_byte_identical_to_serial_runs():
    serial = [sim.run() for sim in _mixed_sims()]
    batched = BatchSimulator(_mixed_sims()).run()
    assert len(serial) == len(batched)
    for one, many in zip(serial, batched):
        assert result_bytes(one) == result_bytes(many)


def test_dtpm_lane_in_batch_byte_identical(models):
    from repro.runner import make_dtpm_governor

    def sims():
        out = []
        for seed in (1, 2):
            workload = synthesize("high", 12.0, threads=2, seed=seed)
            out.append(
                Simulator(
                    workload,
                    ThermalMode.DTPM,
                    dtpm=make_dtpm_governor(models),
                    max_duration_s=20.0,
                    seed=seed,
                )
            )
        out.append(
            Simulator(
                synthesize("medium", 12.0, threads=2, seed=9),
                ThermalMode.NO_FAN,
                max_duration_s=20.0,
                seed=9,
            )
        )
        return out

    serial = [sim.run() for sim in sims()]
    batched = BatchSimulator(sims()).run()
    for one, many in zip(serial, batched):
        assert result_bytes(one) == result_bytes(many)


def test_batch_validation_errors():
    sims = _mixed_sims()
    with pytest.raises(ConfigurationError):
        BatchSimulator([])
    with pytest.raises(ConfigurationError):
        BatchSimulator([sims[0], sims[0]])  # one sim, twice
    slower = Simulator(
        synthesize("high", 10.0, seed=1),
        ThermalMode.NO_FAN,
        config=sims[0].config.with_(control_period_s=0.2),
    )
    with pytest.raises(ConfigurationError):
        BatchSimulator([sims[0], slower])


# ---------------------------------------------------------------------------
# kernels, lane for lane
# ---------------------------------------------------------------------------
def test_thermal_step_batch_is_lane_independent(rng):
    network = floorplan.build_exynos_network(298.15)
    n = network.num_nodes
    batch = 13
    temps = 295.0 + 60.0 * rng.random((batch, n))
    powers = 3.0 * rng.random((batch, n))
    gains = np.array([1.0, 1.15, 2.6, 3.6])[rng.integers(0, 4, size=batch)]
    full = network.step_batch(temps, powers, 0.01, gains)
    for lane in range(batch):
        alone = network.step_batch(
            temps[lane : lane + 1],
            powers[lane : lane + 1],
            0.01,
            gains[lane : lane + 1],
        )
        assert np.array_equal(alone[0], full[lane])


def test_scalar_network_step_is_b1_view(rng):
    a = floorplan.build_exynos_network(298.15)
    b = floorplan.build_exynos_network(298.15)
    temps = 295.0 + 60.0 * rng.random(a.num_nodes)
    a.set_temperatures_k(temps)
    powers = 3.0 * rng.random(a.num_nodes)
    stepped = a.step(powers, 0.01)
    batched = b.step_batch(
        temps[np.newaxis, :], powers[np.newaxis, :], 0.01, np.array([1.0])
    )
    assert np.array_equal(stepped, batched[0])


def test_batch_power_matches_scalar_soc(rng):
    spec = PlatformSpec()
    model = BatchPowerModel(spec)
    lanes = []
    for _ in range(10):
        soc = ExynosSoc(spec)
        if rng.integers(0, 2):
            soc.switch_cluster(Resource.LITTLE)
        cluster = soc.active_cpu()
        cluster.set_num_online(int(rng.integers(1, 5)))
        soc.big.set_frequency(float(rng.choice(spec.big_opp.frequencies_hz)))
        soc.little.set_frequency(
            float(rng.choice(spec.little_opp.frequencies_hz))
        )
        soc.gpu.set_frequency(float(rng.choice(spec.gpu_opp.frequencies_hz)))
        soc.gpu.set_utilisation(float(rng.random()))
        soc.mem.set_traffic(float(rng.random()))
        lanes.append(
            (soc, rng.random(4), rng.random(4), 0.5 + float(rng.random()),
             0.5 + float(rng.random()))
        )
    temps = {k: 300.0 + 60.0 * rng.random(len(lanes))
             for k in ("big", "little", "gpu", "mem")}
    cores = spec.cores_per_cluster
    inputs = model.interval_inputs(
        np.array([soc.big.active for soc, *_ in lanes]),
        np.array([soc.big.frequency_hz for soc, *_ in lanes]),
        np.array([soc.little.frequency_hz for soc, *_ in lanes]),
        np.array([soc.gpu.frequency_hz for soc, *_ in lanes]),
        np.array([[soc.big.is_online(c) for c in range(cores)]
                  for soc, *_ in lanes]),
        np.array([[soc.little.is_online(c) for c in range(cores)]
                  for soc, *_ in lanes]),
        np.array([bu for _, bu, *_ in lanes]),
        np.array([lu for _, _, lu, *_ in lanes]),
        np.array([soc.gpu.utilisation for soc, *_ in lanes]),
        np.array([soc.mem.traffic for soc, *_ in lanes]),
        np.array([ca for *_, ca, _ in lanes]),
        np.array([ga for *_, ga in lanes]),
    )
    out = model.evaluate(
        inputs, temps["big"], temps["little"], temps["gpu"], temps["mem"]
    )
    for b, (soc, big_u, little_u, cpu_act, gpu_act) in enumerate(lanes):
        ref = soc.power_state(
            {k: float(v[b]) for k, v in temps.items()},
            tuple(big_u),
            tuple(little_u),
            cpu_act,
            gpu_act,
        )
        assert np.array_equal(ref.resource_vector_w(), out.powers_w[b])
        assert np.array_equal(
            ref.big_core_powers_w, out.big_core_powers_w[b]
        )
        assert ref.total_w == out.soc_total_w[b]


def test_batched_fan_controller_matches_scalar(rng):
    spec = PlatformSpec()
    batch = 8
    fans = [
        Fan(spec.fan_power_w, spec.fan_conductance_gain, FanThresholds(),
            enabled=(lane % 4 != 3))
        for lane in range(batch)
    ]

    from repro.platform.board import OdroidBoard

    boards = [OdroidBoard(spec) for _ in range(batch)]
    plant = BatchPlant(boards)
    state = PlantState.gather(boards)
    state.fan_enabled = np.array([f.enabled for f in fans])
    state.fan_speed = np.array([int(f.speed) for f in fans])
    # a hot ramp up and back down sweeps every threshold + hysteresis edge
    ramp_c = np.concatenate([np.linspace(40, 80, 30), np.linspace(80, 40, 30)])
    for base_c in ramp_c:
        max_hot_k = celsius_to_kelvin(base_c) + 3.0 * rng.random(batch)
        expected = [f.update(float(t)) for f, t in zip(fans, max_hot_k)]
        state.fan_speed = kernels.fan_step(
            state.fan_speed, state.fan_enabled, max_hot_k,
            plant._fan_up_k, plant._fan_hyst_k,
        )
        assert [FanSpeed(int(s)) for s in state.fan_speed] == expected


def test_idle_path_matches_per_board_step_loops():
    """``advance_interval(power_every=1)`` == per-board scalar ``step``
    loops (``tests/scalar_board.py``), meter accounting included (the
    scenario cooldown resets the meter after every gap, so only this test
    pins it)."""
    from scalar_board import ScalarBoard

    from repro.platform.board import OdroidBoard

    spec = PlatformSpec()
    big = (0.03, 0.02, 0.02, 0.02)
    little = (0.0,) * 4
    lanes_recipe = [  # (warm start C, fan enabled): 60 and 63 C engage
        (48.0, True), (51.0, False), (54.0, True),
        (57.0, False), (60.0, True), (63.0, True),
    ]

    def boards():
        out = []
        for lane, (warm_c, fan) in enumerate(lanes_recipe):
            board = OdroidBoard(
                spec, rng=np.random.default_rng(300 + lane), fan_enabled=fan
            )
            board.warm_start(warm_c)
            out.append(board)
        return out

    serial = boards()
    engaged = 0
    for board in serial:
        fan_on = False
        scalar = ScalarBoard(board)
        for _ in range(400):
            scalar.step(big, little, 0.0, 0.03, 0.1)
            fan_on |= board.fan.speed != FanSpeed.OFF
        engaged += fan_on
    assert engaged == 2

    batched = boards()
    for board in batched:
        board.soc.gpu.set_utilisation(0.0)
        board.soc.mem.set_traffic(0.03)
    plant = BatchPlant(batched)
    lanes = range(len(batched))
    state = plant.gather(lanes)
    batch = len(batched)
    plant.advance_interval(
        state, lanes, np.tile(big, (batch, 1)), np.zeros((batch, 4)),
        np.ones(batch), np.ones(batch), 0.1, 400, power_every=1,
    )
    plant.scatter(state, lanes)
    for one, many in zip(serial, batched):
        assert np.array_equal(
            one.network.temperatures_k, many.network.temperatures_k
        )
        assert one.fan.speed == many.fan.speed
        assert one.meter.energy_j == many.meter.energy_j
        assert one.meter.elapsed_s == many.meter.elapsed_s
        assert one.meter.last_reading_w == many.meter.last_reading_w
        assert one.time_s == many.time_s


def test_sensor_read_all_matches_scalar_reads(rng):
    from repro.platform.sensors import SensorBank

    for sigma, quantum, rel in [(0.15, 0.25, 0.01), (0.0, 0.25, 0.0),
                                (0.15, 0.0, 0.01), (0.0, 0.0, 0.0)]:
        scalar_bank = SensorBank(
            np.random.default_rng(42), temp_noise_k=sigma,
            temp_quantum_k=quantum, power_noise_rel=rel,
        )
        vector_bank = SensorBank(
            np.random.default_rng(42), temp_noise_k=sigma,
            temp_quantum_k=quantum, power_noise_rel=rel,
        )
        for _ in range(20):
            temps = 300.0 + 50.0 * rng.random(4)
            powers = 4.0 * rng.random(4)
            expected_t = scalar_bank.read_temperatures(temps)
            expected_p = scalar_bank.read_powers(powers)
            got_t, got_p = vector_bank.read_all(temps, powers)
            assert np.array_equal(expected_t, got_t)
            assert np.array_equal(expected_p, got_p)


def test_stacked_sensor_banks_match_scalar_reads(rng):
    """SensorBank.stack reads B boards in one pass, each from its own
    generator, exactly as each board's scalar reads would."""
    from repro.platform.sensors import SensorBank

    settings = [(0.15, 0.25, 0.01), (0.0, 0.25, 0.02), (0.3, 0.0, 0.0)]

    def banks():
        return [
            SensorBank(
                np.random.default_rng(seed), temp_noise_k=sigma,
                temp_quantum_k=quantum, power_noise_rel=rel,
            )
            for seed, (sigma, quantum, rel) in enumerate(settings)
        ]

    scalar = banks()
    stacked = SensorBank.stack(banks())
    for _ in range(20):
        temps = 300.0 + 50.0 * rng.random((3, 4))
        powers = 4.0 * rng.random((3, 4))
        got_t, got_p = stacked.read_all(temps, powers)
        for lane, bank in enumerate(scalar):
            assert np.array_equal(bank.read_temperatures(temps[lane]), got_t[lane])
            assert np.array_equal(bank.read_powers(powers[lane]), got_p[lane])
    with pytest.raises(ConfigurationError):
        stacked.read_all(temps[:2], powers[:2])


def test_state_space_batched_prediction_matches_scalar(models, rng):
    thermal = models.thermal
    temps = 300.0 + 40.0 * rng.random((7, thermal.num_states))
    powers = 4.0 * rng.random((7, thermal.num_inputs))
    batched = thermal.predict_next_batch(temps, powers)
    for lane in range(temps.shape[0]):
        assert np.array_equal(
            thermal.predict_next(temps[lane], powers[lane]), batched[lane]
        )


# ---------------------------------------------------------------------------
# runner-level packing
# ---------------------------------------------------------------------------
def _grid_specs():
    workloads = [synthesize(c, 15.0, threads=2, seed=s)
                 for s, c in enumerate(("high", "medium", "low"))]
    matrix = ExperimentMatrix(
        workloads=tuple(workloads),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
        max_duration_s=25.0,
        base_seed=100,
    )
    return matrix.specs()


def test_execute_batch_byte_identical_to_unbatched():
    specs = _grid_specs()
    unbatched = execute_batch(specs, batch_size=1)
    batched = execute_batch(specs, batch_size=4)
    assert len(unbatched) == len(batched) == len(specs)
    for one, many in zip(unbatched, batched):
        assert [result_bytes(r) for r in one] == [result_bytes(r) for r in many]


def test_batched_runner_fills_cache_identically(tmp_path):
    specs = _grid_specs()
    cache = ResultCache(root=str(tmp_path))
    batched = ParallelRunner(cache=cache, batch=4)
    batched_results = batched.run(specs)
    assert batched.last_stats.executed == len(specs)

    # a serial, unbatched runner answers the same grid entirely from the
    # cache the batched one filled: batching changed no content keys
    serial = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=1)
    cached_results = serial.run(specs)
    assert serial.last_stats.executed == 0
    assert serial.last_stats.cache_hits == len(specs)
    for fresh, cached in zip(batched_results, cached_results):
        assert result_bytes(fresh) == result_bytes(cached)


def test_plan_batches_groups_only_compatible_specs():
    workload = synthesize("high", 10.0, seed=1)
    other = synthesize("medium", 10.0, seed=2)
    plain = [
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=i)
        for i in range(3)
    ]
    scheduled = [
        RunSpec(
            workload=other, mode=ThermalMode.NO_FAN, history=(workload,),
            seed=i,
        )
        for i in range(2)
    ]
    longer = RunSpec(
        workload=other,
        mode=ThermalMode.NO_FAN,
        history=(workload, workload),
    )
    from repro.config import SimulationConfig

    different_shape = RunSpec(
        workload=other,
        mode=ThermalMode.NO_FAN,
        config=SimulationConfig(ambient_c=30.0),
    )
    specs = [
        plain[0], scheduled[0], plain[1], different_shape, plain[2],
        scheduled[1], longer,
    ]
    jobs = plan_batches(specs, batch_size=8)
    assert [0, 2, 4] in jobs  # compatible plain specs pack together
    assert [1, 5] in jobs  # same-shape same-length schedules lock-step
    assert [3] in jobs  # a different plant shape cannot lock-step
    assert [6] in jobs  # a different chain length keeps positions aligned
    # chunking respects the batch width
    jobs = plan_batches([plain[0], plain[1], plain[2]], batch_size=2)
    assert jobs == [[0, 1], [2]]
    # batch_size=1 disables packing entirely (the pre-batching behaviour)
    assert plan_batches(specs, batch_size=1) == [[i] for i in range(len(specs))]


def _scheduled_matrix():
    a = synthesize("medium", 10.0, threads=2, seed=31)
    b = synthesize("high", 10.0, threads=4, seed=32)
    return ExperimentMatrix(
        schedules=((a, b), (b, a)),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
        idle_gap_s=3.0,
        max_duration_s=20.0,
        base_seed=500,
    )


def test_scheduled_matrix_batched_equals_serial_with_dtpm(models):
    """Mixed chain positions with DTPM lanes: batch width changes nothing."""
    a = synthesize("medium", 10.0, threads=2, seed=31)
    b = synthesize("high", 10.0, threads=4, seed=32)
    specs = [
        RunSpec(workload=b, mode=ThermalMode.DTPM, history=(a,),
                idle_gap_s=4.0, seed=61, max_duration_s=20.0),
        RunSpec(workload=a, mode=ThermalMode.DTPM, history=(b,),
                seed=62, max_duration_s=20.0),
        RunSpec(workload=a, mode=ThermalMode.NO_FAN, history=(a,),
                idle_gap_s=4.0, seed=63, max_duration_s=20.0),
        # a mixed-mode chain: stock governor first, DTPM-managed second
        RunSpec(workload=b, mode=ThermalMode.DTPM, history=(a,),
                history_modes=(ThermalMode.NO_FAN,), seed=64,
                max_duration_s=20.0),
    ]
    serial = execute_batch(specs, models=models, batch_size=1)
    batched = execute_batch(specs, models=models, batch_size=8)
    for one, many in zip(serial, batched):
        assert [result_bytes(r) for r in one] == [
            result_bytes(r) for r in many
        ]


def test_warm_batched_scheduled_matrix_executes_zero_sims(tmp_path):
    matrix = _scheduled_matrix()
    cold = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=4)
    cold_results = cold.run(matrix)
    assert cold.last_stats.executed == len(matrix)

    warm = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=4)
    warm_results = warm.run(matrix)
    assert warm.last_stats.executed == 0
    assert warm.last_stats.cache_hits == len(matrix)

    # the serial, unbatched chain path reads the very same entries back:
    # scheduled batching changed no content keys
    serial = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=1)
    serial_results = serial.run(matrix)
    assert serial.last_stats.executed == 0
    for fresh, cached, lone in zip(
        cold_results, warm_results, serial_results
    ):
        assert result_bytes(fresh) == result_bytes(cached)
        assert result_bytes(fresh) == result_bytes(lone)


def test_pool_path_caps_batch_to_keep_workers_busy(monkeypatch):
    import repro.runner.runner as runner_mod

    captured = {}
    real_plan = runner_mod.plan_batches

    def spy(specs, batch_size):
        captured["batch"] = batch_size
        return real_plan(specs, batch_size)

    monkeypatch.setattr(runner_mod, "plan_batches", spy)
    workload = synthesize("low", 8.0, threads=1, seed=5)
    specs = [
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=s,
                max_duration_s=12.0)
        for s in range(4)
    ]
    pooled = ParallelRunner(workers=2, batch=8)
    pooled_results = pooled.run(specs)
    # 4 specs over 2 workers: the plan must hand each worker work
    assert captured["batch"] == 2
    serial = ParallelRunner(batch=1)
    for fresh, lone in zip(pooled_results, serial.run(specs)):
        assert result_bytes(fresh) == result_bytes(lone)


def test_default_batch_env_knob(monkeypatch):
    from repro.runner.execute import BATCH_ENV, DEFAULT_BATCH

    monkeypatch.delenv(BATCH_ENV, raising=False)
    assert default_batch() == DEFAULT_BATCH
    monkeypatch.setenv(BATCH_ENV, "3")
    assert default_batch() == 3
    assert ParallelRunner().batch == 3
    monkeypatch.setenv(BATCH_ENV, "zero")
    with pytest.raises(ConfigurationError):
        default_batch()
    monkeypatch.setenv(BATCH_ENV, "0")
    with pytest.raises(ConfigurationError):
        default_batch()
