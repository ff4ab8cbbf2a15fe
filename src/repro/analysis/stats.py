"""Summary statistics over run results (feeding the paper's tables/figures).

Every statistic exists at two altitudes, the same refactor discipline as
the batched plant (``step_batch``/``BatchSimulator``):

* **batch variants** (``*_batch``) take *sequences of column arrays* --
  one (possibly memory-mapped) 1-D array per run, ragged lengths allowed
  -- and return struct-of-arrays dictionaries, one value per run.  They
  never materialise per-row Python dicts; the per-interval dimension
  stays inside NumPy reductions.  :class:`repro.analysis.suite.SuiteFrame`
  funnels whole cached suite directories through them.
* the original **scalar functions** are pinned as the B=1 views of their
  batch variants, so the two altitudes can never drift numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.sim.run_result import RunResult, settle_start

#: One column per run: ragged sequences of 1-D arrays (views or memmaps).
ColumnBatch = Sequence[np.ndarray]
#: A per-run skip window: one scalar for all runs or one value per run.
SkipLike = Union[float, Sequence[float], np.ndarray, None]


@dataclass(frozen=True)
class StabilityStats:
    """Fig. 6.5's two panels for one run: average temp and max-min band."""

    mode: str
    average_temp_c: float
    max_min_c: float
    variance_c2: float
    peak_c: float


def _resolve_skip(
    skip_s: SkipLike,
    batch: int,
    execution_times_s: Optional[Sequence[float]],
) -> np.ndarray:
    """Per-run skip windows; ``None`` means 40 % of each run's duration."""
    if skip_s is None:
        if execution_times_s is None:
            raise SimulationError(
                "skip_s=None needs execution_times_s for the 40 % default"
            )
        return 0.4 * np.asarray(execution_times_s, dtype=float)
    skips = np.asarray(skip_s, dtype=float)
    if skips.ndim == 0:
        skips = np.full(batch, float(skips))
    if skips.shape != (batch,):
        raise SimulationError(
            "skip_s names %s windows for %d runs" % (skips.shape, batch)
        )
    return skips


def _settled(times: np.ndarray, temps: np.ndarray, skip: float) -> np.ndarray:
    """One run's settled-region temperatures (empty trace -> empty)."""
    if times.size == 0:
        return temps[:0]
    return temps[settle_start(times, skip) :]


def stability_stats_batch(
    times: ColumnBatch,
    temps: ColumnBatch,
    skip_s: SkipLike = None,
    execution_times_s: Optional[Sequence[float]] = None,
) -> Dict[str, np.ndarray]:
    """Regulation-quality statistics of B runs, array-in/array-out.

    ``times``/``temps`` hold one column array per run (ragged lengths
    fine; memory-mapped cache views welcome -- only the settled slice of
    each is ever touched).  Returns ``average_temp_c`` / ``max_min_c`` /
    ``variance_c2`` / ``peak_c`` arrays of shape ``(B,)``, each lane
    bit-equal to :func:`stability_stats` on the same run.
    """
    if len(times) != len(temps):
        raise SimulationError(
            "%d time axes for %d temperature columns" % (len(times), len(temps))
        )
    batch = len(times)
    skips = _resolve_skip(skip_s, batch, execution_times_s)
    out = {
        name: np.empty(batch, dtype=float)
        for name in ("average_temp_c", "max_min_c", "variance_c2", "peak_c")
    }
    for i in range(batch):
        settled = _settled(times[i], temps[i], skips[i])
        if settled.size == 0:
            raise SimulationError("run trace too short for stability metrics")
        out["average_temp_c"][i] = np.mean(settled)
        out["max_min_c"][i] = np.max(settled) - np.min(settled)
        out["variance_c2"][i] = np.var(settled)
        out["peak_c"][i] = np.max(temps[i])
    return out


def stability_stats(
    result: RunResult, skip_s: Optional[float] = None
) -> StabilityStats:
    """Regulation-quality statistics of one run.

    The B=1 view of :func:`stability_stats_batch`.  ``skip_s`` defaults
    to 40 % of the run (excludes the warm-up climb the paper's stability
    figures also ignore).
    """
    stats = stability_stats_batch(
        [result.times_s()],
        [result.max_temps_c()],
        skip_s=skip_s,
        execution_times_s=[result.execution_time_s],
    )
    return StabilityStats(
        mode=result.mode,
        average_temp_c=float(stats["average_temp_c"][0]),
        max_min_c=float(stats["max_min_c"][0]),
        variance_c2=float(stats["variance_c2"][0]),
        peak_c=float(stats["peak_c"][0]),
    )


def regulation_quality_batch(
    times: ColumnBatch,
    temps: ColumnBatch,
    constraint_c: float,
    skip_s: SkipLike = None,
    execution_times_s: Optional[Sequence[float]] = None,
) -> Dict[str, np.ndarray]:
    """Constraint-respect statistics of B runs, array-in/array-out.

    Per-lane bit-equal to :func:`regulation_quality`; see
    :func:`stability_stats_batch` for the input conventions.
    """
    if len(times) != len(temps):
        raise SimulationError(
            "%d time axes for %d temperature columns" % (len(times), len(temps))
        )
    batch = len(times)
    skips = _resolve_skip(skip_s, batch, execution_times_s)
    out = {
        name: np.empty(batch, dtype=float)
        for name in (
            "peak_exceedance_c",
            "mean_exceedance_c",
            "fraction_over",
            "fraction_over_1c",
        )
    }
    for i in range(batch):
        settled = _settled(times[i], temps[i], skips[i])
        if settled.size == 0:
            raise SimulationError("trace too short")
        over = np.maximum(0.0, settled - constraint_c)
        out["peak_exceedance_c"][i] = np.max(over)
        out["mean_exceedance_c"][i] = np.mean(over)
        out["fraction_over"][i] = np.mean(over > 0)
        out["fraction_over_1c"][i] = np.mean(over > 1.0)
    return out


def regulation_quality(
    result: RunResult, constraint_c: float, skip_s: Optional[float] = None
) -> Dict[str, float]:
    """How well a run respected the thermal constraint (B=1 view)."""
    stats = regulation_quality_batch(
        [result.times_s()],
        [result.max_temps_c()],
        constraint_c,
        skip_s=skip_s,
        execution_times_s=[result.execution_time_s],
    )
    return {name: float(values[0]) for name, values in stats.items()}


def frequency_residency_batch(
    freqs_ghz: ColumnBatch,
) -> Dict[float, np.ndarray]:
    """Per-run residency at each distinct frequency, array-in/array-out.

    One ``np.unique`` pass over the concatenated (rounded) frequency
    columns; the returned mapping unions every frequency seen anywhere in
    the batch, each with a ``(B,)`` array of per-run interval fractions
    (0.0 where a run never visited it).  Lane ``i`` restricted to its
    non-zero keys equals :func:`frequency_residency` on run ``i``.
    """
    if any(f.size == 0 for f in freqs_ghz):
        raise SimulationError("empty trace")
    batch = len(freqs_ghz)
    lengths = np.array([f.size for f in freqs_ghz], dtype=np.intp)
    flat = np.round(np.concatenate(list(freqs_ghz)), 3)
    values, inverse = np.unique(flat, return_inverse=True)
    run_ids = np.repeat(np.arange(batch, dtype=np.intp), lengths)
    counts = np.zeros((batch, values.size), dtype=np.intp)
    np.add.at(counts, (run_ids, inverse), 1)
    fractions = counts / lengths[:, None]
    return {
        float(v): fractions[:, j] for j, v in enumerate(values.tolist())
    }


def frequency_residency(result: RunResult) -> Dict[float, float]:
    """Fraction of intervals spent at each big-cluster frequency (GHz).

    The B=1 view of :func:`frequency_residency_batch`, restricted to the
    frequencies this run actually visited -- one vectorised
    ``np.unique(..., return_counts=True)`` pass instead of re-scanning
    the trace per distinct frequency.
    """
    resid = frequency_residency_batch([result.big_freqs_ghz()])
    return {
        f: float(fractions[0])
        for f, fractions in resid.items()
        if fractions[0] > 0.0
    }


def fan_duty(result: RunResult) -> Dict[int, float]:
    """Fraction of intervals at each fan speed (0=off..3=high)."""
    speeds = result.trace.column("fan_speed").astype(int)
    if speeds.size == 0:
        raise SimulationError("empty trace")
    return {s: float(np.mean(speeds == s)) for s in range(4)}


def average_fan_power_w(result: RunResult, fan_power_w: Sequence[float]) -> float:
    """Mean fan motor power over a run given the per-speed power table."""
    duty = fan_duty(result)
    return float(sum(duty[s] * fan_power_w[s] for s in duty))
