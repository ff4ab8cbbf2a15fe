"""Suite analytics core: many runs as one columnar frame.

A :class:`SuiteFrame` gathers the *summaries* of many runs into
struct-of-arrays columns (one NumPy array per scalar field, one list per
string field) and keeps every *trace* as a lazy handle: in-memory results
contribute zero-copy views of their recorders, cached entries contribute
their trace blob, decoded and CRC-checked on first touch -- a frame over
a whole :class:`~repro.runner.ResultCache` directory opens from the
summaries alone, and each trace is read once, when a reduction first
needs it.  A missing or damaged blob raises
:class:`~repro.errors.SimulationError` naming its key.

Reductions (:meth:`stability`, :meth:`regulation`, :meth:`savings`,
:meth:`residency`, :meth:`groupby`) are array-in/array-out: they funnel
the per-run column batches through the ``*_batch`` kernels of
:mod:`repro.analysis.stats` / :mod:`repro.sim.metrics` and never
materialise per-row dicts.  The report generator renders every section
from these reductions; ``repro-dtpm suite summarize`` points them at an
existing cache directory.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import (
    frequency_residency_batch,
    regulation_quality_batch,
    stability_stats_batch,
)
from repro.errors import SimulationError
from repro.runner.cache import (
    SUMMARY_COUNT_FIELDS,
    SUMMARY_FLOAT_FIELDS,
    ResultCache,
    summary_frame,
    summary_row,
)
from repro.runner.spec import RunSpec
from repro.sim.metrics import (
    performance_loss_pct_batch,
    power_savings_pct_batch,
)
from repro.sim.run_result import RunResult

#: Scalar summary fields gathered into float64 columns.
FLOAT_FIELDS = SUMMARY_FLOAT_FIELDS

#: Counter summary fields gathered into int64 columns.
COUNT_FIELDS = SUMMARY_COUNT_FIELDS

#: A zero-argument callable producing one run's (rows, columns) matrix.
TraceLoader = Callable[[], np.ndarray]


class SuiteFrame:
    """Columnar view over many runs: summaries eager, traces lazy.

    Construct with :meth:`from_results` (in-memory results, e.g. straight
    out of a :class:`~repro.runner.ParallelRunner`), :meth:`from_cache`
    (selected keys of a result cache) or :meth:`open_dir` (every entry of
    a cache directory).  Rows keep the order they were given in; when
    ``specs`` accompany the rows, per-spec metadata (chain position,
    workload category, seed) becomes available to :meth:`groupby`.
    """

    def __init__(
        self,
        benchmarks: Sequence[str],
        modes: Sequence[str],
        scalars: Dict[str, np.ndarray],
        trace_columns: Sequence[Sequence[str]],
        trace_loaders: Sequence[TraceLoader],
        keys: Optional[Sequence[str]] = None,
        specs: Optional[Sequence[RunSpec]] = None,
    ) -> None:
        n = len(benchmarks)
        for name, label in (
            (modes, "modes"),
            (trace_columns, "trace_columns"),
            (trace_loaders, "trace_loaders"),
        ):
            if len(name) != n:
                raise SimulationError(
                    "frame %s holds %d entries for %d rows"
                    % (label, len(name), n)
                )
        if keys is not None and len(keys) != n:
            raise SimulationError(
                "frame keys hold %d entries for %d rows" % (len(keys), n)
            )
        if specs is not None and len(specs) != n:
            raise SimulationError(
                "frame specs hold %d entries for %d rows" % (len(specs), n)
            )
        self.benchmark = list(benchmarks)
        self.mode = list(modes)
        self._scalars = {k: np.asarray(v) for k, v in scalars.items()}
        for field, values in self._scalars.items():
            if values.shape != (n,):
                raise SimulationError(
                    "summary column %r has shape %s for %d rows"
                    % (field, values.shape, n)
                )
        self._trace_columns = [list(c) for c in trace_columns]
        self._trace_loaders = list(trace_loaders)
        self._traces: List[Optional[np.ndarray]] = [None] * n
        self.keys = list(keys) if keys is not None else None
        self.specs = list(specs) if specs is not None else None

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def from_results(
        cls,
        results: Sequence[RunResult],
        specs: Optional[Sequence[RunSpec]] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> "SuiteFrame":
        """Frame over in-memory results (recorder views, zero copies)."""
        results = list(results)
        scalars = {
            field: np.array(
                [getattr(r, field) for r in results], dtype=float
            )
            for field in FLOAT_FIELDS
        }
        scalars.update(
            {
                field: np.array(
                    [getattr(r, field) for r in results], dtype=np.int64
                )
                for field in COUNT_FIELDS
            }
        )
        scalars["completed"] = np.array(
            [r.completed for r in results], dtype=bool
        )
        return cls(
            benchmarks=[r.benchmark for r in results],
            modes=[r.mode for r in results],
            scalars=scalars,
            trace_columns=[r.trace.columns for r in results],
            trace_loaders=[r.trace.array for r in results],
            keys=keys,
            specs=specs,
        )

    @classmethod
    def from_cache(
        cls,
        cache: ResultCache,
        keys: Optional[Sequence[str]] = None,
        specs: Optional[Sequence[RunSpec]] = None,
    ) -> "SuiteFrame":
        """Frame over cached entries; traces stay on disk until touched.

        ``keys=None`` opens every well-formed entry of the cache
        directory, in key order, through the per-shard columnar index
        (:meth:`~repro.runner.ResultCache.frame_chunks`): a warm
        100k-entry store opens with a few hundred reads and no
        per-entry work at all, and unreadable or malformed summaries
        are skipped.  Explicit ``keys`` are read entry by entry, and a
        missing, unreadable or malformed entry raises.  Either way every
        row's trace blob is read on first touch
        (:meth:`~repro.runner.ResultCache.open_trace`).
        """
        if keys is None:
            frames = cache.frame_chunks()
        else:
            frames = [summary_frame(_summary_rows(cache, keys))]
        benchmarks: List[str] = []
        modes: List[str] = []
        rows: Dict[str, List] = {
            field: [] for field in FLOAT_FIELDS + COUNT_FIELDS
        }
        completed: List[bool] = []
        trace_columns: List[List[str]] = []
        kept: List[str] = []
        for frame in frames:
            kept.extend(frame["keys"])
            benchmarks.extend(frame["benchmark"])
            modes.extend(frame["mode"])
            completed.extend(frame["completed"])
            for field in FLOAT_FIELDS + COUNT_FIELDS:
                rows[field].extend(frame[field])
            tables = frame["trace_columns"]
            trace_columns.extend(tables[i] for i in frame["trace_col_idx"])
        open_trace = cache.open_trace  # one bound method shared by all rows
        return cls(
            benchmarks=benchmarks,
            modes=modes,
            scalars=_scalar_columns(rows, completed),
            trace_columns=trace_columns,
            trace_loaders=[partial(open_trace, key) for key in kept],
            keys=kept,
            specs=specs,
        )

    @classmethod
    def open_dir(cls, root: str) -> "SuiteFrame":
        """Frame over every entry of an on-disk cache directory."""
        return cls.from_cache(ResultCache(root=root, memory=False))

    # ------------------------------------------------------------------
    # columnar access
    def __len__(self) -> int:
        return len(self.benchmark)

    def column(self, field: str) -> np.ndarray:
        """One summary field as a struct-of-arrays column."""
        try:
            return self._scalars[field]
        except KeyError:
            raise SimulationError(
                "unknown summary column %r (have %s)"
                % (field, sorted(self._scalars))
            ) from None

    @property
    def positions(self) -> np.ndarray:
        """Chain position of every row (requires spec metadata)."""
        if self.specs is None:
            raise SimulationError(
                "frame carries no specs; chain positions unknown"
            )
        return np.array([s.position for s in self.specs], dtype=np.int64)

    @property
    def categories(self) -> List[str]:
        """Workload power category of every row (requires spec metadata)."""
        if self.specs is None:
            raise SimulationError(
                "frame carries no specs; workload categories unknown"
            )
        return [s.workload.category for s in self.specs]

    def trace(self, i: int) -> np.ndarray:
        """Row ``i``'s full trace matrix (memoised lazy load)."""
        cached = self._traces[i]
        if cached is None:
            cached = self._trace_loaders[i]()
            self._traces[i] = cached
        return cached

    def trace_column(self, i: int, name: str) -> np.ndarray:
        """One column of row ``i``'s trace (a view of the memoised matrix)."""
        try:
            idx = self._trace_columns[i].index(name)
        except ValueError:
            raise SimulationError(
                "run %d has no trace column %r" % (i, name)
            ) from None
        return self.trace(i)[:, idx]

    def trace_matrix(self, i: int, names: Sequence[str]) -> np.ndarray:
        """Named columns of row ``i``'s trace, stacked ``(rows, len(names))``."""
        return np.stack([self.trace_column(i, n) for n in names], axis=1)

    def column_batch(self, name: str) -> List[np.ndarray]:
        """One trace column across every row (the ``*_batch`` kernel feed)."""
        return [self.trace_column(i, name) for i in range(len(self))]

    def select(self, indices: Sequence[int]) -> "SuiteFrame":
        """A sub-frame of the given rows (shares loaded trace memos)."""
        indices = [int(i) for i in indices]
        frame = SuiteFrame(
            benchmarks=[self.benchmark[i] for i in indices],
            modes=[self.mode[i] for i in indices],
            scalars={k: v[indices] for k, v in self._scalars.items()},
            trace_columns=[self._trace_columns[i] for i in indices],
            trace_loaders=[self._trace_loaders[i] for i in indices],
            keys=(
                [self.keys[i] for i in indices]
                if self.keys is not None
                else None
            ),
            specs=(
                [self.specs[i] for i in indices]
                if self.specs is not None
                else None
            ),
        )
        frame._traces = [self._traces[i] for i in indices]
        return frame

    # ------------------------------------------------------------------
    # reductions
    def stability(self, skip_s=None) -> Dict[str, np.ndarray]:
        """Per-run regulation-quality arrays (see ``stability_stats_batch``)."""
        return stability_stats_batch(
            self.column_batch("time_s"),
            self.column_batch("max_temp_c"),
            skip_s=skip_s,
            execution_times_s=self.column("execution_time_s"),
        )

    def regulation(self, constraint_c: float, skip_s=None) -> Dict[str, np.ndarray]:
        """Per-run constraint-exceedance arrays over the settled regions."""
        return regulation_quality_batch(
            self.column_batch("time_s"),
            self.column_batch("max_temp_c"),
            constraint_c,
            skip_s=skip_s,
            execution_times_s=self.column("execution_time_s"),
        )

    def residency(self, aggregate: bool = False):
        """Big-cluster frequency residency across the frame.

        Per-run arrays keyed by frequency (GHz) by default; with
        ``aggregate=True`` one interval-weighted mapping for the whole
        frame (every run's intervals pooled).
        """
        freqs = [
            self.trace_column(i, "big_freq_hz") / 1e9
            for i in range(len(self))
        ]
        per_run = frequency_residency_batch(freqs)
        if not aggregate:
            return per_run
        lengths = np.array([f.size for f in freqs], dtype=float)
        total = float(lengths.sum())
        return {
            f: float(np.dot(fractions, lengths) / total)
            for f, fractions in per_run.items()
        }

    def groupby(self, field: str) -> Dict[object, np.ndarray]:
        """Row indices grouped by a metadata column, first-seen order.

        ``field`` is ``"benchmark"``, ``"mode"``, ``"position"`` or
        ``"category"`` (the latter two need spec metadata).  Values map to
        index arrays usable with :meth:`select` or any reduction output.
        """
        if field == "benchmark":
            labels: Sequence = self.benchmark
        elif field == "mode":
            labels = self.mode
        elif field == "position":
            labels = self.positions.tolist()
        elif field == "category":
            labels = self.categories
        else:
            raise SimulationError("cannot group by %r" % field)
        groups: Dict[object, List[int]] = {}
        for i, label in enumerate(labels):
            groups.setdefault(label, []).append(i)
        return {
            label: np.array(indices, dtype=np.intp)
            for label, indices in groups.items()
        }

    def savings(
        self,
        baseline_mode: str = "with_fan",
        candidate_mode: str = "dtpm",
    ) -> Dict[str, np.ndarray]:
        """Vectorised baseline-vs-candidate comparison per benchmark.

        Pairs each benchmark's ``baseline_mode`` row with its
        ``candidate_mode`` row (scheduled rows additionally match on
        chain position; repeated same-named rows pair positionally --
        the k-th baseline with the k-th candidate, matching the
        workload-major grid order of ``comparison_specs``) and reduces
        the gathered power/time columns through the metrics batch
        kernels.  Returns index arrays (``baseline``/``candidate``) plus
        ``power_savings_pct`` / ``performance_loss_pct`` columns, rows
        ordered by each pair's first appearance.
        """
        pos = (
            self.positions
            if self.specs is not None
            else np.zeros(len(self), dtype=np.int64)
        )
        pairs: Dict[Tuple[str, int, int], List[Optional[int]]] = {}
        order: List[Tuple[str, int, int]] = []
        seen: Dict[Tuple[str, int, int], int] = {}
        for i in range(len(self)):
            slot = (
                0
                if self.mode[i] == baseline_mode
                else 1
                if self.mode[i] == candidate_mode
                else None
            )
            if slot is None:
                continue  # rows in neither mode (e.g. no_fan) drop out
            # occurrence counter per (benchmark, position, slot): the
            # k-th repeat opens (or joins) the k-th pair of that name
            name_pos = (self.benchmark[i], int(pos[i]), slot)
            k = seen.get(name_pos, 0)
            seen[name_pos] = k + 1
            ident = (self.benchmark[i], int(pos[i]), k)
            if ident not in pairs:
                pairs[ident] = [None, None]
                order.append(ident)
            pairs[ident][slot] = i
        base_idx: List[int] = []
        cand_idx: List[int] = []
        for ident in order:
            base, cand = pairs[ident]
            if base is None or cand is None:
                raise SimulationError(
                    "benchmark %r lacks its %r/%r pair"
                    % (ident[0], baseline_mode, candidate_mode)
                )
            base_idx.append(base)
            cand_idx.append(cand)
        baseline = np.array(base_idx, dtype=np.intp)
        candidate = np.array(cand_idx, dtype=np.intp)
        power = self.column("average_platform_power_w")
        times = self.column("execution_time_s")
        return {
            "baseline": baseline,
            "candidate": candidate,
            "power_savings_pct": power_savings_pct_batch(
                power[baseline], power[candidate]
            ),
            "performance_loss_pct": performance_loss_pct_batch(
                times[baseline], times[candidate]
            ),
        }


def _scalar_columns(
    rows: Dict[str, List], completed: Sequence[bool]
) -> Dict[str, np.ndarray]:
    """Materialise accumulated per-field lists as frame column arrays."""
    scalars = {
        field: np.array(rows[field], dtype=float)
        for field in FLOAT_FIELDS
    }
    scalars.update(
        {
            field: np.array(rows[field], dtype=np.int64)
            for field in COUNT_FIELDS
        }
    )
    scalars["completed"] = np.array(completed, dtype=bool)
    return scalars


def _summary_rows(
    cache: ResultCache, keys: Sequence[str]
) -> Iterator[Tuple[str, tuple]]:
    """``(key, summary_row)`` of each explicit key; a bad entry raises."""
    for key in keys:
        payload = cache.load_summary(key)
        if payload is None:
            raise SimulationError(
                "cache entry %s is missing or unreadable" % key
            )
        row = summary_row(payload)
        if row is None:
            raise SimulationError(
                "cache entry %s has a malformed summary" % key
            )
        yield key, row


def summarize_dir(root: str) -> str:
    """Human-readable digest of a cache directory's suite of runs.

    The ``repro-dtpm suite summarize`` body: opens the directory as a
    :class:`SuiteFrame` and renders per-mode aggregate rows from its
    reductions.  A damaged trace blob raises
    :class:`~repro.errors.SimulationError`.
    """
    frame = SuiteFrame.open_dir(root)
    if len(frame) == 0:
        return "cache at %s holds no readable run entries" % root
    from repro.analysis.tables import render_table

    stab = frame.stability()
    power = frame.column("average_platform_power_w")
    times = frame.column("execution_time_s")
    rows = []
    for mode, idx in sorted(frame.groupby("mode").items()):
        rows.append(
            [
                mode,
                "%d" % idx.size,
                "%d" % len({frame.benchmark[i] for i in idx.tolist()}),
                "%.1f" % float(np.mean(times[idx])),
                "%.2f" % float(np.mean(power[idx])),
                "%.1f" % float(np.mean(stab["average_temp_c"][idx])),
                "%.1f" % float(np.max(stab["peak_c"][idx])),
            ]
        )
    table = render_table(
        ["mode", "runs", "benchmarks", "avg time (s)", "avg power (W)",
         "avg settled (C)", "peak (C)"],
        rows,
        title="Suite summary: %d cached runs at %s" % (len(frame), root),
    )
    residency = frame.residency(aggregate=True)
    top = sorted(residency.items(), key=lambda kv: -kv[1])[:4]
    lines = [
        table,
        "",
        "big-cluster residency (suite-wide): "
        + ", ".join("%.1f GHz %.0f%%" % (f, 100.0 * frac) for f, frac in top),
    ]
    return "\n".join(lines)


__all__ = [
    "COUNT_FIELDS",
    "FLOAT_FIELDS",
    "SuiteFrame",
    "summarize_dir",
]
