"""Cross-run comparison metrics (Section 6.3's reported quantities)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.errors import SimulationError
from repro.sim.run_result import RunResult


def power_savings_pct_batch(
    baseline_w: np.ndarray, candidate_w: np.ndarray
) -> np.ndarray:
    """Per-pair platform power savings (%), array-in/array-out.

    Elementwise over aligned (baseline, candidate) power columns -- the
    suite-scale form of :func:`power_savings_pct`, which is its B=1 view.
    """
    baseline_w = np.asarray(baseline_w, dtype=float)
    candidate_w = np.asarray(candidate_w, dtype=float)
    if np.any(baseline_w <= 0):
        raise SimulationError("baseline has no recorded power")
    return 100.0 * ((baseline_w - candidate_w) / baseline_w)


def power_savings_pct(baseline: RunResult, candidate: RunResult) -> float:
    """Platform power saved by ``candidate`` relative to ``baseline`` (%).

    The paper's savings numbers compare average *platform* power (external
    meter) of the DTPM configuration against the fan-cooled default.
    """
    return float(
        power_savings_pct_batch(
            np.array([baseline.average_platform_power_w]),
            np.array([candidate.average_platform_power_w]),
        )[0]
    )


def performance_loss_pct_batch(
    baseline_s: np.ndarray, candidate_s: np.ndarray
) -> np.ndarray:
    """Per-pair execution-time increase (%), array-in/array-out."""
    baseline_s = np.asarray(baseline_s, dtype=float)
    candidate_s = np.asarray(candidate_s, dtype=float)
    if np.any(baseline_s <= 0):
        raise SimulationError("baseline has no execution time")
    return 100.0 * ((candidate_s - baseline_s) / baseline_s)


def performance_loss_pct(baseline: RunResult, candidate: RunResult) -> float:
    """Execution-time increase of ``candidate`` over ``baseline`` (%)."""
    return float(
        performance_loss_pct_batch(
            np.array([baseline.execution_time_s]),
            np.array([candidate.execution_time_s]),
        )[0]
    )


def variance_reduction_factor(
    baseline: RunResult, candidate: RunResult, skip_s: float = 15.0
) -> float:
    """Ratio of temperature variances (Fig. 6.5's ~6x claim)."""
    cand = candidate.temp_variance(skip_s)
    if cand <= 0:
        return float("inf")
    return baseline.temp_variance(skip_s) / cand


@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark's DTPM-vs-baseline numbers (a bar of Fig. 6.9)."""

    benchmark: str
    category: str
    power_savings_pct: float
    performance_loss_pct: float
    baseline_power_w: float
    dtpm_power_w: float
    baseline_time_s: float
    dtpm_time_s: float


def summarize_categories(
    rows: Iterable[ComparisonRow],
) -> Dict[str, Dict[str, float]]:
    """Average savings/loss per power category (the paper's 3/8/14 % story)."""
    buckets: Dict[str, List[ComparisonRow]] = {}
    for row in rows:
        buckets.setdefault(row.category, []).append(row)
    out: Dict[str, Dict[str, float]] = {}
    for category, members in buckets.items():
        out[category] = {
            "power_savings_pct": float(
                np.mean([m.power_savings_pct for m in members])
            ),
            "performance_loss_pct": float(
                np.mean([m.performance_loss_pct for m in members])
            ),
            "count": float(len(members)),
        }
    return out


def overall_summary(rows: Iterable[ComparisonRow]) -> Dict[str, float]:
    """Whole-suite averages (the conclusion's ~10 % / ~3.3 % numbers)."""
    rows = list(rows)
    if not rows:
        raise SimulationError("no comparison rows")
    return {
        "power_savings_pct": float(np.mean([r.power_savings_pct for r in rows])),
        "performance_loss_pct": float(
            np.mean([r.performance_loss_pct for r in rows])
        ),
        "max_power_savings_pct": float(
            np.max([r.power_savings_pct for r in rows])
        ),
        "max_performance_loss_pct": float(
            np.max([r.performance_loss_pct for r in rows])
        ),
    }
