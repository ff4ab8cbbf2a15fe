"""Perf: batched plant core vs the serial per-run loop.

Tracks the wall-clock advantage of advancing a whole sweep's plants
through one struct-of-arrays NumPy kernel per control step
(:class:`~repro.sim.engine.BatchSimulator` via
:func:`~repro.runner.execute.execute_batch`) over stepping the same runs
one at a time.  The acceptance bar of the batching refactor is a >= 3x
end-to-end win on a 16-run sweep -- with byte-identical results, which
this benchmark also re-asserts so the perf number can never drift away
from the equivalence contract.  The artifact records the measured
numbers so the perf trajectory stays visible across PRs.
"""

import time

from conftest import save_timing
from repro.runner import execute_batch, result_bytes
from repro.runner.spec import RunSpec
from repro.sim.engine import ThermalMode
from repro.workloads.generator import synthesize

#: The sweep: 4 synthetic workloads x 2 cooling modes x 2 seeds.
N_RUNS = 16
#: Simulated seconds per run (~200 control intervals each).
DURATION_S = 20.0


def _sweep_specs():
    specs = []
    for index in range(N_RUNS):
        category = ("high", "medium")[index % 2]
        mode = (ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN)[
            (index // 2) % 2
        ]
        workload = synthesize(
            category, DURATION_S, threads=2, seed=index % 4
        )
        specs.append(
            RunSpec(
                workload=workload,
                mode=mode,
                max_duration_s=2.0 * DURATION_S,
                seed=1000 + index,
            )
        )
    return specs


def test_batched_sweep_is_3x_faster_than_serial_loop():
    specs = _sweep_specs()

    t0 = time.perf_counter()
    serial = execute_batch(specs, batch_size=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = execute_batch(specs, batch_size=N_RUNS)
    batched_s = time.perf_counter() - t0

    # the speedup must never buy a different answer
    for one, many in zip(serial, batched):
        assert [result_bytes(r) for r in one] == [
            result_bytes(r) for r in many
        ]

    speedup = serial_s / batched_s
    save_timing(
        "perf_batch.txt",
        "batched plant core, %d-run sweep x %.0f simulated seconds\n"
        "serial per-run loop (batch=1):  %8.2f s\n"
        "batched lock-step (batch=%d):   %8.2f s\n"
        "speedup: %.1fx (results byte-identical)"
        % (N_RUNS, DURATION_S, serial_s, N_RUNS, batched_s, speedup),
    )
    assert speedup >= 3.0, "batched sweep only %.1fx faster" % speedup
