"""Host speed reference: every timing is rescaled to one nominal speed.

The machines this benchmark runs on share their CPUs with other tenants.
On the 2-core host the figures in BENCHMARK.json were tuned on, CPU speed
alternates between a fast phase and one about 40 % slower, in episodes
of seconds. How much of a run falls into slow episodes varies from run
to run, so a raw median swings by 20-30 % with no code change.

So each timed operation is bracketed by two runs of :func:`reference_s`.
That is a fixed pure-Python kernel that calls no program code. The
operation's time is rescaled by ``NOMINAL_S / mean(reference)``, which
gives the time the operation would take on a host that runs the kernel
in exactly ``NOMINAL_S``. A change to the program moves the rescaled
time as it moves the raw one. A change in host speed between two
operations cancels out.

Needs only NumPy: ``loadgen.py`` imports this too.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on the reference host (2 cores, py3.11) in its fast phase.
NOMINAL_S = 0.009


def reference_s() -> float:
    """Host seconds for a fixed kernel that calls no program code (~10 ms).

    The mix is that of the simulator's control layer: small NumPy array
    operations interleaved with float arithmetic and dict and list
    traffic in the interpreter.
    """
    t0 = time.perf_counter()
    temps = np.linspace(40.0, 70.0, 8)
    gains = np.linspace(0.9, 1.1, 8)
    table: dict = {}
    acc = 0.0
    for i in range(2500):
        x = (i * 0.37) % 11.0
        temps = np.maximum(temps * 0.999 + gains * (x * 1e-3), 20.0)
        acc += float(np.dot(temps, gains)) * 1e-6 + _step(x, acc)
        table[i & 255] = x
        acc += table.get((i * 7) & 255, 0.0) * 1e-9
    if acc != acc:  # keep the work observable
        raise AssertionError("reference kernel misbehaved")
    return time.perf_counter() - t0


def _step(x: float, acc: float) -> float:
    return x * 0.5 - acc * 1e-9


def scale(before_s: float, after_s: float) -> float:
    """Factor from raw host time to time at the nominal host speed."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
