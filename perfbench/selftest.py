"""The benchmark's own tests (not part of the repository's test suite).

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/selftest.py

They pin that tracing never changes a result, that self time is
computed as documented, and that the metric names the benchmark prints
are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children():
    # outer [0, 100] holds a [10, 40] (which holds b [20, 30]) and c [50, 60]
    spans = [
        [0, 0, 100, -1],
        [1, 10, 40, 0],
        [2, 20, 30, 1],
        [3, 50, 60, 0],
    ]
    assert tracing.self_times(spans) == [(0, 60), (1, 20), (2, 10), (3, 10)]


def test_install_wraps_and_uninstall_restores():
    from repro.runner.cache import ResultCache
    from repro.runner import runner as runner_module

    original_get = ResultCache.get
    original_key = runner_module.spec_key
    tracer = tracing.Tracer()
    with tracer:
        assert ResultCache.get is not original_get
        assert runner_module.spec_key.__wrapped__ is original_key
    assert ResultCache.get is original_get
    assert runner_module.spec_key is original_key


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.mark.parametrize("cls", [workloads.ColdDtpm, workloads.ColdFan])
def test_tracing_never_changes_a_result(cls, work_dir):
    wl = cls(seed=5, work_dir=work_dir)
    if cls is workloads.ColdDtpm:
        wl.setup()
    _, _, _, untraced_failed, untraced_counts = wl.run_matrix()
    tracer = tracing.Tracer()
    with tracer:
        _, _, _, traced_failed, traced_counts = wl.run_matrix()
    # both runs match the recorded per-lane digests, so they match each other
    assert untraced_failed == traced_failed == 0
    assert wl.problems == []
    assert untraced_counts == traced_counts
    stats = tracer.layer_stats()
    assert stats["sim.scheduler"]["calls"] == traced_counts["sim.lane_intervals"]
    if cls is workloads.ColdDtpm:
        assert traced_counts["core.interventions"] > 0
        assert stats["core.budget"]["calls"] > 0
        assert stats["core.policy"]["calls"] > 0
    else:
        assert stats["platform.idle_gap"]["calls"] > 0
        assert stats["core.dtpm"]["calls"] == 0


def test_declared_metrics_match_printed_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.UNITS)
    for metric in declared["end_to_end"]:
        assert metric["unit"] == run.UNITS[metric["name"]]

    class _Rate:
        ops_per_s = 1.0

    printed = run.per_layer(tracing.Tracer(), {}, _Rate(), _Rate())
    assert [m["name"] for m in declared["per_layer"]] == list(printed)
    for metric in declared["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"], {})
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


def test_every_variant_is_recorded():
    recorded = workloads.load_digests()
    for name in workloads.WORKLOADS:
        assert sorted(recorded[name], key=int) == [
            str(v) for v in range(workloads.VARIANTS)
        ]
