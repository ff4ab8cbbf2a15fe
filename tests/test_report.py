"""Evaluation report generator (cached, batched, SuiteFrame-rendered)."""

import numpy as np
import pytest

from repro.analysis.report import generate_report
from repro.runner import ParallelRunner, ResultCache
from repro.sim.engine import Simulator, ThermalMode
from repro.sim.experiment import dtpm_vs_default, run_benchmark
from repro.sim.metrics import overall_summary, summarize_categories
from repro.thermal.validation import prediction_error_report
from repro.workloads.benchmarks import get_benchmark


@pytest.fixture(scope="module")
def quick_report(models):
    workloads = [get_benchmark("dijkstra"), get_benchmark("matrix_mult")]
    return generate_report(models=models, workloads=workloads)


def test_report_has_all_sections(quick_report):
    assert "# DTPM evaluation report" in quick_report
    assert "## Temperature prediction accuracy" in quick_report
    assert "## Regulation quality" in quick_report
    assert "## DTPM vs fan-cooled default" in quick_report
    assert "**Overall**" in quick_report


def test_report_covers_requested_benchmarks(quick_report):
    assert "dijkstra" in quick_report
    assert "matrix_mult" in quick_report
    assert "templerun" not in quick_report


def test_report_sections_toggle(models):
    text = generate_report(
        models=models,
        workloads=[get_benchmark("dijkstra")],
        include_prediction=False,
        include_regulation=False,
    )
    assert "prediction accuracy" not in text
    assert "Fig. 6.9" in text


def test_report_is_markdown_table_shaped(quick_report):
    lines = [l for l in quick_report.splitlines() if l.startswith("|")]
    assert len(lines) > 6
    widths = {l.count("|") for l in lines if "category" in l or "---" in l}
    assert widths  # header + separator rows present


# ---------------------------------------------------------------------------
# byte-parity with the pre-SuiteFrame direct-simulation implementation
# ---------------------------------------------------------------------------
def _seed_path_report(models, workloads):
    """Transcription of the historical report generator (PRs 1-4 era).

    Constructs ``Simulator``/``run_benchmark``/``dtpm_vs_default``
    directly, one serial uncached run at a time, and renders the same
    markdown -- the reference the refactored, runner-routed,
    SuiteFrame-rendered ``generate_report`` must reproduce byte for byte.
    """
    lines = [
        "# DTPM evaluation report",
        "",
        "Reproduction of Singla et al., DATE 2015 -- generated by "
        "`repro.analysis.report`.",
        "",
        "Thermal model spectral radius: %.4f; %d benchmarks evaluated."
        % (models.thermal.spectral_radius(), len(workloads)),
        "",
    ]
    # prediction section
    lines += ["## Temperature prediction accuracy (1 s horizon)", ""]
    lines.append("| benchmark | mean error (degC) | mean error (%) |")
    lines.append("|---|---|---|")
    errors_c, errors_pct = [], []
    for workload in workloads:
        sim = Simulator(workload, ThermalMode.NO_FAN, max_duration_s=150.0)
        result = sim.run()
        temps = np.stack(
            [result.trace.column("temp%d_c" % i) for i in range(4)], axis=1
        ) + 273.15
        powers = np.stack(
            [
                result.trace.column("p_big_w"),
                result.trace.column("p_little_w"),
                result.trace.column("p_gpu_w"),
                result.trace.column("p_mem_w"),
            ],
            axis=1,
        )
        report = prediction_error_report(models.thermal, temps, powers, 10)
        errors_c.append(report.mean_abs_c)
        errors_pct.append(report.mean_pct)
        lines.append(
            "| %s | %.2f | %.2f |"
            % (workload.name, report.mean_abs_c, report.mean_pct)
        )
    lines.append(
        "| **average** | **%.2f** | **%.2f** |"
        % (float(np.mean(errors_c)), float(np.mean(errors_pct)))
    )
    lines.append("")
    # regulation section
    representative = [w for w in workloads if w.category == "high"][:2]
    if representative:
        lines += ["## Regulation quality (63 degC constraint)", ""]
        lines.append(
            "| benchmark | config | peak (degC) | avg (degC) | band (degC) |"
        )
        lines.append("|---|---|---|---|---|")
        for workload in representative:
            for mode in (
                ThermalMode.NO_FAN,
                ThermalMode.DEFAULT_WITH_FAN,
                ThermalMode.DTPM,
            ):
                result = run_benchmark(workload, mode, models=models)
                skip = 0.4 * result.execution_time_s
                lines.append(
                    "| %s | %s | %.1f | %.1f | %.1f |"
                    % (
                        workload.name,
                        mode.value,
                        result.peak_temp_c(),
                        result.average_temp_c(skip),
                        result.temp_max_min_c(skip),
                    )
                )
        lines.append("")
    # savings section
    rows = dtpm_vs_default(workloads, models=models)
    lines += ["## DTPM vs fan-cooled default (Fig. 6.9)", ""]
    lines.append("| benchmark | category | savings (%) | perf loss (%) |")
    lines.append("|---|---|---|---|")
    for row in rows:
        lines.append(
            "| %s | %s | %.1f | %.1f |"
            % (
                row.benchmark,
                row.category,
                row.power_savings_pct,
                row.performance_loss_pct,
            )
        )
    lines.append("")
    lines.append("### Per category")
    lines.append("")
    for category, stats in sorted(summarize_categories(rows).items()):
        lines.append(
            "- **%s** (%d benchmarks): %.1f %% savings, %.1f %% loss"
            % (
                category,
                int(stats["count"]),
                stats["power_savings_pct"],
                stats["performance_loss_pct"],
            )
        )
    summary = overall_summary(rows)
    lines.append("")
    lines.append(
        "**Overall**: %.1f %% average savings (max %.1f %%), "
        "%.1f %% average performance loss (max %.1f %%)."
        % (
            summary["power_savings_pct"],
            summary["max_power_savings_pct"],
            summary["performance_loss_pct"],
            summary["max_performance_loss_pct"],
        )
    )
    lines.append("")
    return "\n".join(lines)


def test_report_matches_seed_direct_simulation_path(models):
    workloads = [get_benchmark("matrix_mult")]
    assert generate_report(
        models=models, workloads=workloads
    ) == _seed_path_report(models, workloads)


# ---------------------------------------------------------------------------
# cached execution: a warm report executes zero simulations
# ---------------------------------------------------------------------------
def test_warm_report_executes_zero_simulations(models, tmp_path):
    workloads = [get_benchmark("dijkstra")]
    scenario = ("dijkstra",)
    kwargs = dict(
        models=models,
        workloads=workloads,
        include_prediction=False,
        scenario=scenario,
        scenario_days=2,
        scenario_mode=ThermalMode.NO_FAN,
        scenario_idle_gap_s=5.0,
    )
    cold = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
    text_cold = generate_report(runner=cold, **kwargs)
    assert cold.stats.executed > 0
    warm = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
    text_warm = generate_report(runner=warm, **kwargs)
    assert warm.stats.executed == 0, "warm report re-ran simulations"
    assert warm.stats.cache_hits == cold.stats.executed + cold.stats.cache_hits
    assert text_warm == text_cold


def test_scenario_section_reports_per_position_deltas(models, tmp_path):
    runner = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
    text = generate_report(
        models=models,
        workloads=[get_benchmark("dijkstra")],
        include_prediction=False,
        include_regulation=False,
        include_savings=False,
        runner=runner,
        scenario=("dijkstra",),
        scenario_days=2,
        scenario_mode=ThermalMode.NO_FAN,
        scenario_idle_gap_s=5.0,
    )
    assert "## Scenario: diurnal chain (2 days)" in text
    assert "overnight" in text
    assert "d avg (degC)" in text
    # day-1 rows have no baseline to diff against; day-2 rows do
    chain_rows = [
        l for l in text.splitlines()
        if l.startswith("|") and "dijkstra" in l
    ]
    assert len(chain_rows) == 2
    assert "--" in chain_rows[0]
    assert "--" not in chain_rows[1]
    assert "Settled temperature along the chain" in text
