"""The benchmark's traced layer boundaries still fire.

``perfbench/tracing.py`` wraps program functions by name -- a method on
its class, a function where its caller looks it up.  A boundary that is
renamed, or that the closed loop stops calling, would read 0 calls and
silently drop out of the per-layer numbers.  These tests install the
tracer, unmodified, around two small batches and assert that every
closed-loop span fires where it should.

``sim.record`` wraps two calls per recorded row: ``TraceRecorder.append``
and the engine's ``ViolationCounter.on_interval``.  Pinning that count
means a change that stops calling the counter fails here instead of
showing up as a faster ``sim.record``.
"""

import importlib.util
import os

import pytest

from repro.runner import make_dtpm_governor
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.workloads.generator import synthesize

_TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracing.py",
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calls(tracing, sims):
    tracer = tracing.Tracer()
    with tracer:
        results = BatchSimulator(sims).run()
    stats = tracer.layer_stats()
    calls = {name: stats.get(name, {"calls": 0})["calls"]
             for name in tracing.SPAN_NAMES}
    # one recorder append and one counter call per recorded row
    assert calls["sim.record"] == 2 * sum(len(r.trace) for r in results)
    return results, calls


def test_dtpm_batch_fires_every_control_span(tracing, models):
    sims = [
        Simulator(
            synthesize("high", 8.0, threads=2, seed=seed),
            ThermalMode.DTPM,
            dtpm=make_dtpm_governor(models),
            warm_start_c=60.0,
            max_duration_s=12.0,
            seed=seed,
        )
        for seed in range(4)
    ]
    results, calls = _calls(tracing, sims)
    assert sum(r.interventions for r in results) > 0
    for span in (
        "core.dtpm",
        "power.observe",
        "core.forecast",
        "platform.sensors",
        "core.budget",
        "core.policy",
        "governors.propose",
    ):
        assert calls[span] >= 1, span


def test_fan_batch_fires_sensors_and_governors_only(tracing):
    sims = [
        Simulator(
            synthesize("medium", 6.0, threads=2, seed=seed),
            ThermalMode.DEFAULT_WITH_FAN,
            max_duration_s=8.0,
            seed=seed,
        )
        for seed in (7, 8)
    ]
    _, calls = _calls(tracing, sims)
    assert calls["platform.sensors"] >= 1
    assert calls["governors.propose"] >= 1
    assert calls["core.dtpm"] == 0
