"""OdroidBoard: plant integration, warm start, sensor view, power meter.

Boards advance on a one-lane :class:`~repro.platform.state.BatchPlant`,
the only way a board advances, and are read through its sensor bank.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.platform.board import OdroidBoard
from repro.platform.state import BatchPlant
from repro.units import KELVIN_OFFSET


@pytest.fixture()
def board():
    return OdroidBoard(config=SimulationConfig(), fan_enabled=False)


def _run(board, seconds, utils=(1.0,) * 4, freq=1.6e9, gpu=0.05, mem=0.3):
    """Hold one load for ``seconds`` in 0.1 s intervals; returns the
    plant and its state, already written back to the board."""
    board.soc.big.set_frequency(freq)
    board.soc.gpu.set_utilisation(gpu)
    board.soc.mem.set_traffic(mem)
    plant = BatchPlant([board])
    state = plant.gather([0])
    big, little, one = np.array([utils]), np.zeros((1, 4)), np.ones(1)
    for _ in range(int(seconds * 10)):
        plant.advance_interval(
            state, [0], big, little, one, one, dt_s=0.1, substeps=1
        )
    plant.scatter(state, [0])
    return plant, state


def test_warm_start_sets_hotspots(board):
    board.warm_start(50.0)
    temps = board.true_hotspots_k() - KELVIN_OFFSET
    assert np.allclose(temps, 50.0, atol=0.01)


def test_time_advances(board):
    _run(board, 2.0)
    assert board.time_s == pytest.approx(2.0)


def test_full_load_heats_up(board):
    board.warm_start(40.0)
    t0 = board.true_hotspots_k().max()
    _run(board, 30.0)
    assert board.true_hotspots_k().max() > t0 + 8.0


def test_idle_cools_down(board):
    board.warm_start(70.0)
    _run(board, 30.0, utils=(0.05,) * 4, freq=8e8, gpu=0.0, mem=0.05)
    assert board.true_hotspots_k().max() < 70.0 + KELVIN_OFFSET


def test_fan_limits_temperature():
    hot = OdroidBoard(config=SimulationConfig(), fan_enabled=False)
    cooled = OdroidBoard(config=SimulationConfig(), fan_enabled=True)
    for b in (hot, cooled):
        b.warm_start(50.0)
        _run(b, 120.0)
    assert cooled.true_hotspots_k().max() < hot.true_hotspots_k().max() - 1.0
    assert cooled.fan.speed > 0


def test_sensor_snapshot_contents(board):
    board.warm_start(45.0)
    plant, state = _run(board, 1.0)
    temps_k, powers_w = board.sensors.read_all(
        plant.hotspots_k(state)[0], state.powers_w[0]
    )
    assert temps_k.shape == (4,)
    assert powers_w.shape == (4,)
    # sensors should be near ground truth
    assert np.allclose(temps_k, board.true_hotspots_k(), atol=1.0)
    # (the gated little cluster draws less than the sensors' 1 mW floor)
    assert np.allclose(powers_w, state.powers_w[0], rtol=0.05, atol=1e-3)


def test_platform_power_includes_static_floor(board):
    _run(board, 1.0, utils=(0.0,) * 4, freq=8e8, gpu=0.0, mem=0.0)
    assert board.meter.average_power_w > board.spec.platform_static_power_w


def test_meter_accumulates_energy(board):
    _run(board, 5.0)
    assert board.meter.energy_j > 0
    assert board.meter.average_power_w == pytest.approx(
        board.meter.energy_j / 5.0, rel=0.01
    )


def test_loaded_board_draws_more_power(board):
    b_idle = OdroidBoard(config=SimulationConfig(), fan_enabled=False)
    _run(b_idle, 5.0, utils=(0.05,) * 4, freq=8e8, gpu=0.0, mem=0.05)
    _run(board, 5.0)
    assert (
        board.meter.average_power_w > b_idle.meter.average_power_w + 1.0
    )
