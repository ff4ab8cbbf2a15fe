"""Simulation engine: the closed loop on short synthetic workloads."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.sim.models import build_models
from repro.sim.experiment import make_dtpm_governor
from repro.workloads.generator import synthesize


def _short_workload(seed=1, threads=2, category="high", duration=20.0):
    return synthesize(category, duration, threads=threads, seed=seed)


def test_default_run_completes():
    sim = Simulator(_short_workload(), ThermalMode.DEFAULT_WITH_FAN)
    result = sim.run()
    assert result.completed
    assert result.execution_time_s > 0
    assert len(result.trace) > 100
    assert result.mode == "with_fan"


def test_time_axis_is_uniform():
    sim = Simulator(_short_workload(), ThermalMode.NO_FAN)
    result = sim.run()
    t = result.times_s()
    assert np.allclose(np.diff(t), 0.1, atol=1e-9)


def test_execution_time_close_to_nominal():
    wl = _short_workload(duration=20.0)
    sim = Simulator(wl, ThermalMode.DEFAULT_WITH_FAN, warm_start_c=40.0)
    result = sim.run()
    # governor ramp adds a little; throttling none at these temps
    assert wl.nominal_duration_s() <= result.execution_time_s < 2.0 * wl.nominal_duration_s()


def test_ondemand_reaches_fmax_for_cpu_bound():
    sim = Simulator(_short_workload(), ThermalMode.DEFAULT_WITH_FAN)
    result = sim.run()
    assert result.big_freqs_ghz().max() == pytest.approx(1.6)


def test_duration_cap_interrupts():
    wl = _short_workload(duration=60.0)
    sim = Simulator(wl, ThermalMode.NO_FAN, max_duration_s=5.0)
    result = sim.run()
    assert not result.completed
    assert result.execution_time_s == pytest.approx(5.0, abs=0.2)


def test_fan_disabled_outside_default_mode():
    for mode in (ThermalMode.NO_FAN, ThermalMode.REACTIVE):
        sim = Simulator(_short_workload(), mode)
        assert not sim.board.fan.enabled
    sim = Simulator(_short_workload(), ThermalMode.DEFAULT_WITH_FAN)
    assert sim.board.fan.enabled


def test_dtpm_mode_requires_governor():
    with pytest.raises(ConfigurationError):
        Simulator(_short_workload(), ThermalMode.DTPM)


def test_seed_reproducibility():
    a = Simulator(_short_workload(), ThermalMode.NO_FAN, seed=9).run()
    b = Simulator(_short_workload(), ThermalMode.NO_FAN, seed=9).run()
    assert a.execution_time_s == b.execution_time_s
    assert np.allclose(a.max_temps_c(), b.max_temps_c())


def test_different_seeds_differ_slightly():
    a = Simulator(_short_workload(), ThermalMode.NO_FAN, seed=9).run()
    b = Simulator(_short_workload(), ThermalMode.NO_FAN, seed=10).run()
    assert not np.allclose(a.max_temps_c(), b.max_temps_c())


def test_trace_records_power_columns():
    sim = Simulator(_short_workload(), ThermalMode.DEFAULT_WITH_FAN)
    result = sim.run()
    assert result.trace.column("p_big_w").max() > 0.5
    assert result.trace.column("platform_power_w").min() > 1.0
    assert np.all(result.trace.column("cluster_is_big") == 1.0)


def test_energy_consistency():
    sim = Simulator(_short_workload(), ThermalMode.DEFAULT_WITH_FAN)
    result = sim.run()
    assert result.energy_j == pytest.approx(
        result.average_platform_power_w * result.execution_time_s, rel=0.02
    )


def test_meter_energy_is_integrated_platform_power():
    """With meter noise off, a lane's energy is the recorded platform
    power integrated over its control periods.

    Fan lanes are left out: each recorded ``platform_power_w`` is the
    interval's last meter reading, while the meter prices every substep
    at that substep's fan speed, so a fan step inside an interval makes
    the sum differ from ``energy_j`` (~1e-4 relative, by design).
    """
    sims = [
        Simulator(
            _short_workload(seed=seed, duration=10.0),
            ThermalMode.NO_FAN,
            seed=seed,
        )
        for seed in (1, 2, 3)
    ]
    for sim in sims:
        sim.board.meter.relative_noise = 0.0
    for sim, result in zip(sims, BatchSimulator(sims).run()):
        power_w = result.trace.column("platform_power_w")
        assert power_w.size > 0
        assert result.energy_j == pytest.approx(
            float(np.sum(power_w * sim.config.control_period_s)), rel=1e-12
        )


@pytest.fixture(scope="module")
def quick_models():
    return build_models(prbs_duration_s=300.0)


def test_dtpm_engine_runs_and_counts(quick_models):
    wl = synthesize("high", 40.0, threads=4, seed=3)
    dtpm = make_dtpm_governor(quick_models)
    sim = Simulator(wl, ThermalMode.DTPM, dtpm=dtpm, warm_start_c=58.0)
    result = sim.run()
    assert result.completed
    assert result.violations_predicted > 0
    assert result.interventions > 0
    assert result.trace.column("intervened").sum() == result.interventions
    assert (
        result.trace.column("violation_predicted").sum()
        == result.violations_predicted
    )
