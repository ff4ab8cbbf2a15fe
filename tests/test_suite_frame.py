"""Suite analytics core: columnar frames over many (cached) runs."""

import json
import os

import numpy as np
import pytest

from repro.analysis.stats import (
    frequency_residency,
    frequency_residency_batch,
    regulation_quality,
    regulation_quality_batch,
    stability_stats,
    stability_stats_batch,
)
from repro.analysis.suite import SuiteFrame, summarize_dir
from repro.errors import SimulationError
from repro.runner import ParallelRunner, ResultCache, RunSpec, spec_key
from repro.runner.cache import result_to_payload
from repro.sim.engine import ThermalMode
from repro.sim.metrics import performance_loss_pct, power_savings_pct
from repro.workloads.generator import synthesize


def _specs(n=4, duration_s=10.0):
    """A small two-mode grid of short synthetic runs."""
    specs = []
    for i in range(n):
        workload = synthesize(
            "medium", duration_s, threads=1, seed=i // 2, name="syn%d" % (i // 2)
        )
        mode = (ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN)[i % 2]
        specs.append(
            RunSpec(
                workload=workload,
                mode=mode,
                max_duration_s=4 * duration_s,
                seed=500 + i,
            )
        )
    return specs


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """(cache root, specs, results) with every run persisted as v2."""
    root = tmp_path_factory.mktemp("suite-cache")
    specs = _specs()
    runner = ParallelRunner(cache=ResultCache(root=str(root)))
    results = runner.run(specs)
    return str(root), specs, results


def test_from_results_gathers_struct_of_arrays(populated):
    _, specs, results = populated
    frame = SuiteFrame.from_results(results, specs=specs)
    assert len(frame) == len(results)
    assert frame.benchmark == [r.benchmark for r in results]
    assert frame.mode == [r.mode for r in results]
    np.testing.assert_array_equal(
        frame.column("execution_time_s"),
        np.array([r.execution_time_s for r in results]),
    )
    np.testing.assert_array_equal(
        frame.column("interventions"),
        np.array([r.interventions for r in results]),
    )
    assert frame.column("completed").dtype == bool
    with pytest.raises(SimulationError):
        frame.column("no_such_field")


def test_batch_reductions_pin_scalar_functions_as_b1_views(populated):
    _, _, results = populated
    frame = SuiteFrame.from_results(results)
    stab = frame.stability()
    reg = frame.regulation(63.0)
    for i, result in enumerate(results):
        scalar = stability_stats(result)
        assert stab["average_temp_c"][i] == scalar.average_temp_c
        assert stab["max_min_c"][i] == scalar.max_min_c
        assert stab["variance_c2"][i] == scalar.variance_c2
        assert stab["peak_c"][i] == scalar.peak_c
        scalar_reg = regulation_quality(result, 63.0)
        for field, values in reg.items():
            assert values[i] == scalar_reg[field]


def test_residency_batch_and_aggregate(populated):
    _, _, results = populated
    frame = SuiteFrame.from_results(results)
    per_run = frame.residency()
    for i, result in enumerate(results):
        scalar = frequency_residency(result)
        visited = {f: v[i] for f, v in per_run.items() if v[i] > 0}
        assert visited == scalar
    pooled = frame.residency(aggregate=True)
    assert sum(pooled.values()) == pytest.approx(1.0)


def test_batch_kernels_validate_input():
    with pytest.raises(SimulationError):
        stability_stats_batch([np.arange(3.0)], [])
    with pytest.raises(SimulationError):
        stability_stats_batch([np.arange(3.0)], [np.arange(3.0)], skip_s=None)
    with pytest.raises(SimulationError):
        regulation_quality_batch([], [np.arange(3.0)], 63.0)
    with pytest.raises(SimulationError):
        frequency_residency_batch([np.array([])])


def test_open_dir_matches_in_memory_results(populated):
    root, specs, results = populated
    frame = SuiteFrame.open_dir(root)
    assert len(frame) == len(results)
    by_key = {spec_key(s): r for s, r in zip(specs, results)}
    for i, key in enumerate(frame.keys):
        result = by_key[key]
        assert frame.benchmark[i] == result.benchmark
        assert frame.mode[i] == result.mode
        assert frame.column("energy_j")[i] == result.energy_j
        np.testing.assert_array_equal(
            frame.trace_column(i, "max_temp_c"),
            result.trace.column("max_temp_c"),
        )


def test_open_dir_never_loads_blobs_eagerly(populated, monkeypatch):
    root, _, results = populated
    # the eager fallback is np.load; a memmap-only read path never calls it
    import repro.runner.cache as cache_mod

    def _forbid(*args, **kwargs):
        raise AssertionError("suite reduction loaded a trace blob eagerly")

    monkeypatch.setattr(cache_mod.np, "load", _forbid)
    frame = SuiteFrame.open_dir(root)
    # summary-only access touches no blob at all
    assert frame.column("average_platform_power_w").shape == (len(results),)
    assert all(t is None for t in frame._traces)
    # reductions pull the trace in as a memory map, not an eager read
    stab = frame.stability()
    assert stab["peak_c"].shape == (len(results),)
    assert isinstance(frame.trace(0), np.memmap)


def test_select_and_groupby(populated):
    _, specs, results = populated
    frame = SuiteFrame.from_results(results, specs=specs)
    by_mode = frame.groupby("mode")
    assert set(by_mode) == {"with_fan", "without_fan"}
    sub = frame.select(by_mode["with_fan"])
    assert set(sub.mode) == {"with_fan"}
    assert len(sub) == len(by_mode["with_fan"])
    by_cat = frame.groupby("category")
    assert set(by_cat) == {"medium"}
    # positions need spec metadata
    bare = SuiteFrame.from_results(results)
    with pytest.raises(SimulationError):
        bare.groupby("position")
    with pytest.raises(SimulationError):
        frame.groupby("seed")


def test_savings_pairs_modes_via_batch_metrics(populated):
    _, specs, results = populated
    frame = SuiteFrame.from_results(results, specs=specs)
    sav = frame.savings(
        baseline_mode="with_fan", candidate_mode="without_fan"
    )
    assert sav["baseline"].size == 2  # one pair per distinct benchmark
    for j in range(sav["baseline"].size):
        base = results[int(sav["baseline"][j])]
        cand = results[int(sav["candidate"][j])]
        assert sav["power_savings_pct"][j] == power_savings_pct(base, cand)
        assert sav["performance_loss_pct"][j] == performance_loss_pct(
            base, cand
        )


def test_savings_pairs_repeated_names_positionally(populated):
    _, specs, results = populated
    # duplicate the whole grid: same-named rows must pair k-th with k-th
    frame = SuiteFrame.from_results(
        list(results) + list(results), specs=list(specs) + list(specs)
    )
    sav = frame.savings(
        baseline_mode="with_fan", candidate_mode="without_fan"
    )
    assert sav["baseline"].size == 4
    np.testing.assert_array_equal(
        sav["power_savings_pct"][:2], sav["power_savings_pct"][2:]
    )
    # an unpaired baseline still raises
    with pytest.raises(SimulationError):
        SuiteFrame.from_results(results[:1]).savings(
            baseline_mode="with_fan", candidate_mode="without_fan"
        )


def test_cache_root_expands_user_home(monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = ResultCache(root="~/suite-cache")
    assert cache.root == str(tmp_path / "suite-cache")


def test_format1_entries_are_skipped_or_rejected(populated, tmp_path):
    """A trace-rows-inline summary left by cache format 1 is no row."""
    _, _, results = populated
    cache = ResultCache(root=str(tmp_path), memory=False)
    current = "ab" + "1" * 62
    cache.put(current, results[0])
    legacy = "ab" + "0" * 62
    (tmp_path / legacy[:2] / (legacy + ".json")).write_text(
        json.dumps(result_to_payload(results[0]))
    )
    frame = SuiteFrame.open_dir(str(tmp_path))
    assert frame.keys == [current]
    np.testing.assert_array_equal(
        frame.trace(0), results[0].trace.array()
    )
    with pytest.raises(SimulationError):
        SuiteFrame.from_cache(cache, keys=[legacy])


def test_from_cache_explicit_keys_raise_on_miss(populated):
    root, specs, results = populated
    cache = ResultCache(root=root, memory=False)
    keys = [spec_key(specs[0])]
    frame = SuiteFrame.from_cache(cache, keys=keys)
    assert len(frame) == 1
    with pytest.raises(SimulationError):
        SuiteFrame.from_cache(cache, keys=["f" * 64])


def test_summarize_dir_renders_per_mode_rows(populated, tmp_path):
    root, _, _ = populated
    text = summarize_dir(root)
    assert "Suite summary" in text
    assert "with_fan" in text and "without_fan" in text
    assert "big-cluster residency" in text
    assert "no readable run entries" in summarize_dir(str(tmp_path))


def test_cache_summary_iteration_api(populated):
    root, specs, results = populated
    cache = ResultCache(root=root, memory=False)
    keys = cache.keys()
    assert sorted(keys) == sorted(spec_key(s) for s in specs)
    summaries = dict(cache.iter_summaries())
    assert set(summaries) == set(keys)
    for key, payload in summaries.items():
        assert payload["artifact"] == 2
        assert "rows" not in payload["trace"]  # summaries carry no trace
        assert os.path.exists(cache.trace_path(key))
    assert cache.load_summary("e" * 64) is None
    blob = cache.open_trace(keys[0], mmap=True)
    assert isinstance(blob, np.memmap)
