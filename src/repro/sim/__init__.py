"""Closed-loop simulation engine and experiment harness."""

from repro.sim.consumers import ViolationCounter
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.sim.experiment import (
    compare_modes,
    dtpm_vs_default,
    make_dtpm_governor,
    run_benchmark,
)
from repro.sim.metrics import (
    ComparisonRow,
    overall_summary,
    performance_loss_pct,
    power_savings_pct,
    summarize_categories,
    variance_reduction_factor,
)
from repro.sim.models import ModelBundle, build_models, default_models
from repro.sim.run_result import RunResult, TraceRecorder
from repro.sim.sweep import (
    SweepPoint,
    sweep_constraint,
    sweep_days,
    sweep_guard_band,
    sweep_horizon,
    sweep_idle_gap,
    sweep_sensor_noise,
)
from repro.sim.scenario import BatchScenarioRunner, ScenarioRunner, diurnal
from repro.sim.scheduler import LoadBalancer, SchedulerOutput

__all__ = [
    "ViolationCounter",
    "BatchSimulator",
    "Simulator",
    "ThermalMode",
    "compare_modes",
    "dtpm_vs_default",
    "make_dtpm_governor",
    "run_benchmark",
    "ComparisonRow",
    "overall_summary",
    "performance_loss_pct",
    "power_savings_pct",
    "summarize_categories",
    "variance_reduction_factor",
    "ModelBundle",
    "build_models",
    "default_models",
    "RunResult",
    "TraceRecorder",
    "SweepPoint",
    "sweep_constraint",
    "sweep_days",
    "sweep_guard_band",
    "sweep_horizon",
    "sweep_idle_gap",
    "sweep_sensor_noise",
    "BatchScenarioRunner",
    "ScenarioRunner",
    "diurnal",
    "LoadBalancer",
    "SchedulerOutput",
]
