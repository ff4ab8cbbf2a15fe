"""Result analysis: suite analytics, statistics, table and figure renderers."""

from repro.analysis.report import generate_report
from repro.analysis.figures import (
    ascii_bars,
    ascii_grouped_bars,
    ascii_timeseries,
    sparkline,
)
from repro.analysis.stats import (
    StabilityStats,
    average_fan_power_w,
    fan_duty,
    frequency_residency,
    frequency_residency_batch,
    regulation_quality,
    regulation_quality_batch,
    stability_stats,
    stability_stats_batch,
)
from repro.analysis.suite import SuiteFrame, summarize_dir
from repro.analysis.tables import (
    benchmark_table,
    frequency_table,
    markdown_table,
    render_table,
)

__all__ = [
    "generate_report",
    "ascii_bars",
    "ascii_grouped_bars",
    "ascii_timeseries",
    "sparkline",
    "StabilityStats",
    "SuiteFrame",
    "average_fan_power_w",
    "fan_duty",
    "frequency_residency",
    "frequency_residency_batch",
    "regulation_quality",
    "regulation_quality_batch",
    "stability_stats",
    "stability_stats_batch",
    "summarize_dir",
    "benchmark_table",
    "frequency_table",
    "markdown_table",
    "render_table",
]
