"""Perf: fused interval kernels vs the per-substep batched loop.

Tracks the wall-clock win of the fused exponential-integrator kernels
(:mod:`repro.thermal.kernels`): one zero-order-hold power evaluation and
one propagator chain per control interval, against the previous batched
hot loop that re-evaluated power, regrouped discretisations and stepped
the fan automaton at every thermal substep (still reachable as
``advance_interval(power_every=1)``, where it remains the pinned
idle-cooldown semantics).  The floor is a >= 3x kernel-level win on a
16-lane plant; the artifact records the measured numbers so the perf
trajectory stays visible across PRs.

The benchmark also re-asserts the fused path's parity contract (fused ==
per-substep reference ``kernels.substep_loop``, byte-for-byte) on the
exact states it times, so the perf number can never drift away from
correctness.
"""

import time

import numpy as np
from conftest import save_timing

from repro.platform.board import OdroidBoard
from repro.platform.specs import PlatformSpec
from repro.platform.state import BatchPlant
from repro.thermal import kernels
from repro.units import celsius_to_kelvin

#: Lanes in the batched plant (matches the perf_batch sweep width).
BATCH = 16
#: Control intervals advanced per timed leg (x10 substeps each).
INTERVALS = 400


def _plant():
    spec = PlatformSpec()
    boards = [
        OdroidBoard(spec, rng=np.random.default_rng(100 + b))
        for b in range(BATCH)
    ]
    for b, board in enumerate(boards):
        board.warm_start(40.0 + 2.0 * b)  # spread across the fan bands
    return BatchPlant(boards), boards


def _advance(plant, intervals, power_every=None):
    state = plant.gather(range(BATCH))
    rng = np.random.default_rng(7)
    big = 0.5 + 0.5 * rng.random((BATCH, 4))
    little = np.zeros((BATCH, 4))
    ones = np.ones(BATCH)
    for _ in range(intervals):
        plant.advance_interval(
            state, range(BATCH), big, little, ones, ones, 0.01, 10,
            power_every=power_every,
        )
    return state


def test_fused_kernels_are_3x_faster_than_substep_loop(monkeypatch):
    # parity on the timed configuration: fused == per-substep reference
    # (fresh plants per leg so the meter-noise RNG streams line up)
    fused = _advance(_plant()[0], 50)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "advance_held_interval", kernels.substep_loop)
        reference = _advance(_plant()[0], 50)
    assert np.array_equal(fused.temps_k, reference.temps_k)
    assert np.array_equal(fused.energy_j, reference.energy_j)
    assert np.array_equal(fused.fan_speed, reference.fan_speed)

    plant, _ = _plant()
    # warm both paths (discretisation caches, allocator) before timing
    _advance(plant, 10)
    _advance(plant, 10, power_every=1)

    t0 = time.perf_counter()
    _advance(plant, INTERVALS, power_every=1)
    legacy_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fused_state = _advance(plant, INTERVALS)
    fused_s = time.perf_counter() - t0
    assert np.all(fused_state.temps_k > celsius_to_kelvin(25.0))

    speedup = legacy_s / fused_s
    save_timing(
        "perf_kernels.txt",
        "fused interval kernels, %d-lane plant x %d control intervals\n"
        "per-substep batched loop (power_every=1): %8.3f s\n"
        "fused ZOH propagator chain (default):     %8.3f s\n"
        "speedup: %.1fx (fused == per-substep reference, byte-identical)"
        % (BATCH, INTERVALS, legacy_s, fused_s, speedup),
    )
    assert speedup >= 3.0, "fused kernels only %.1fx faster" % speedup
