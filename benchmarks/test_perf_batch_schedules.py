"""Perf: batched scenario chains vs the serial per-chain loop.

Tracks the wall-clock advantage of lock-stepping a sweep's scenario
schedules through one batched plant -- aligned chain positions through
:class:`~repro.sim.engine.BatchSimulator`, idle-gap cooldowns as one
batched RC integration
(:func:`~repro.runner.execute.execute_schedules` via
:func:`~repro.runner.execute.execute_batch`) -- over running the same
chains one :class:`~repro.sim.scenario.ScenarioRunner` at a time.  The
acceptance bar is a >= 2x end-to-end win on a 16-chain sweep -- with
byte-identical chains, which this benchmark also re-asserts so the perf
number can never drift away from the equivalence contract.  The artifact
records the measured numbers so the perf trajectory stays visible across
PRs.
"""

import time

from conftest import save_timing
from repro.runner import execute_batch, result_bytes
from repro.runner.spec import RunSpec
from repro.sim.engine import ThermalMode
from repro.workloads.generator import synthesize

#: The sweep: 16 two-position schedules x 2 cooling modes x varied seeds.
N_CHAINS = 16
#: Simulated seconds per chain position (~100 control intervals each).
DURATION_S = 10.0
#: Near-idle pocket time before each carried position.
IDLE_GAP_S = 5.0


def _chain_specs():
    specs = []
    for index in range(N_CHAINS):
        first = synthesize(
            ("medium", "high")[index % 2], DURATION_S, threads=2,
            seed=index % 4,
        )
        second = synthesize(
            ("high", "low")[index % 2], DURATION_S, threads=2,
            seed=4 + index % 4,
        )
        mode = (ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN)[
            (index // 2) % 2
        ]
        specs.append(
            RunSpec(
                workload=second,
                mode=mode,
                max_duration_s=2.0 * DURATION_S,
                seed=2000 + index,
                history=(first,),
                idle_gap_s=IDLE_GAP_S,
            )
        )
    return specs


def test_batched_schedule_sweep_is_2x_faster_than_serial_chains():
    specs = _chain_specs()

    t0 = time.perf_counter()
    serial = execute_batch(specs, batch_size=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = execute_batch(specs, batch_size=N_CHAINS)
    batched_s = time.perf_counter() - t0

    # the speedup must never buy a different answer, at any position
    for one, many in zip(serial, batched):
        assert [result_bytes(r) for r in one] == [
            result_bytes(r) for r in many
        ]

    speedup = serial_s / batched_s
    save_timing(
        "perf_batch_schedules.txt",
        "batched scenario chains, %d chains x 2 positions x %.0f simulated "
        "seconds (+%.0f s idle gaps)\n"
        "serial per-chain loop (batch=1):  %8.2f s\n"
        "batched lock-step (batch=%d):     %8.2f s\n"
        "speedup: %.1fx (chains byte-identical)"
        % (N_CHAINS, DURATION_S, IDLE_GAP_S, serial_s, N_CHAINS, batched_s,
           speedup),
    )
    assert speedup >= 2.0, "batched schedule sweep only %.1fx faster" % speedup
