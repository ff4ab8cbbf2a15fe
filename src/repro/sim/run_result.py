"""Run results: the time series and summary of one simulated benchmark run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import SimulationError


def settle_start(times: np.ndarray, skip_s: float) -> int:
    """First index of the settled region of a trace's time axis.

    The one copy of the settle-window arithmetic shared by
    :meth:`RunResult.settle_slice` and the suite-scale batch reductions
    (:mod:`repro.analysis.stats`), so every metrics path skips an
    identical warm-up region: samples before ``times[0] + skip_s`` are
    excluded, but the region is widened to at least the trace's last two
    samples (the short-trace clamp).  Returns 0 for an empty axis.
    """
    if times.size == 0:
        return 0
    start = int(np.searchsorted(times, times[0] + skip_s))
    return min(start, max(0, times.size - 2))


class TraceRecorder:
    """Append-only columnar recorder for per-interval observations.

    Rows land in one preallocated ``float64`` buffer that grows
    geometrically, so recording is amortised O(1) per interval and the
    accessors (:meth:`column`, :meth:`as_dict`, :meth:`array`) return
    **zero-copy views** into the live buffer rather than re-materialising
    Python lists on every call.

    Mutability contract: returned views are read-only snapshots
    (``writeable`` flag cleared) of the first ``len(self)`` rows; copy
    before editing.  A later :meth:`append` that triggers a buffer
    reallocation leaves previously handed-out views pointing at the old
    storage -- call the accessor again after recording more rows.
    """

    #: Rows preallocated up front; ~25 s of simulated time at the 100 ms
    #: control period, so short runs never reallocate.
    INITIAL_CAPACITY = 256

    __slots__ = ("_columns", "_index", "_data", "_size")

    def __init__(self, columns: List[str]) -> None:
        if not columns:
            raise SimulationError("recorder needs at least one column")
        self._columns = list(columns)
        self._index = {c: i for i, c in enumerate(self._columns)}
        if len(self._index) != len(self._columns):
            raise SimulationError("duplicate column names: %s" % self._columns)
        self._data = np.empty(
            (self.INITIAL_CAPACITY, len(self._columns)), dtype=np.float64
        )
        self._size = 0

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def capacity(self) -> int:
        """Currently allocated row slots (>= ``len(self)``)."""
        return self._data.shape[0]

    @classmethod
    def from_array(cls, columns: List[str], data: np.ndarray) -> "TraceRecorder":
        """Adopt a ``(rows, columns)`` array (binary cache artifacts).

        The array is adopted without copying when it is already a
        contiguous ``float64`` matrix (e.g. straight out of an ``.npz``
        blob); the recorder then shares storage with it.
        """
        recorder = cls(columns)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != len(recorder._columns):
            raise SimulationError(
                "trace array shape %s does not match %d columns"
                % (data.shape, len(recorder._columns))
            )
        if data.shape[0]:
            recorder._data = data
            recorder._size = data.shape[0]
        return recorder

    def _grow(self) -> None:
        grown = np.empty(
            (max(2 * self._data.shape[0], self.INITIAL_CAPACITY),
             len(self._columns)),
            dtype=np.float64,
        )
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, **values: float) -> None:
        """Record one row; every declared column must be present."""
        if self._size == self._data.shape[0]:
            self._grow()
        row = self._data[self._size]
        try:
            for name, i in self._index.items():
                row[i] = values[name]
        except KeyError:
            missing = set(self._columns) - set(values)
            raise SimulationError(
                "missing columns: %s" % sorted(missing)
            ) from None
        self._size += 1

    def __len__(self) -> int:
        return self._size

    def _view(self, view: np.ndarray) -> np.ndarray:
        # enforce the read-only contract: an in-place edit through a view
        # would corrupt the recorder (and any cache sharing the result)
        view.flags.writeable = False
        return view

    def array(self) -> np.ndarray:
        """The whole trace as a zero-copy ``(rows, columns)`` view."""
        return self._view(self._data[: self._size])

    def column(self, name: str) -> np.ndarray:
        """One column as a zero-copy array view."""
        try:
            idx = self._index[name]
        except KeyError:
            raise SimulationError("unknown column %r" % name) from None
        return self._view(self._data[: self._size, idx])

    def as_dict(self) -> Dict[str, np.ndarray]:
        """All columns as zero-copy array views."""
        data = self._data[: self._size]
        return {
            c: self._view(data[:, i]) for i, c in enumerate(self._columns)
        }


#: Columns every simulation run records.
RUN_COLUMNS = [
    "time_s",
    "max_temp_c",  # sensed (what the paper plots)
    "true_max_temp_c",
    "temp0_c",
    "temp1_c",
    "temp2_c",
    "temp3_c",
    "big_freq_hz",
    "little_freq_hz",
    "gpu_freq_hz",
    "cluster_is_big",
    "online_cores",
    "fan_speed",
    "platform_power_w",
    "p_big_w",
    "p_little_w",
    "p_gpu_w",
    "p_mem_w",
    "violation_predicted",
    "intervened",
]


@dataclass
class RunResult:
    """Everything produced by one benchmark run under one configuration."""

    benchmark: str
    mode: str
    completed: bool
    execution_time_s: float
    average_platform_power_w: float
    energy_j: float
    trace: TraceRecorder
    interventions: int = 0
    violations_predicted: int = 0
    cluster_migrations: int = 0
    cores_offlined: int = 0
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Trace accessors return zero-copy views into the recorder's buffer
    # (see TraceRecorder's mutability contract); treat them as read-only.
    def times_s(self) -> np.ndarray:
        """Time axis of the recorded trace (view)."""
        return self.trace.column("time_s")

    def max_temps_c(self) -> np.ndarray:
        """Sensed maximum core temperature over time (view)."""
        return self.trace.column("max_temp_c")

    def big_freqs_ghz(self) -> np.ndarray:
        """Big-cluster frequency over time (GHz)."""
        return self.trace.column("big_freq_hz") / 1e9

    def settle_slice(self, skip_s: float = 15.0) -> slice:
        """Index slice skipping the initial transient.

        The paper's stability numbers describe regulation quality, so the
        warm-up climb from the start temperature is excluded.
        """
        t = self.times_s()
        if t.size == 0:
            return slice(0, 0)
        return slice(settle_start(t, skip_s), t.size)

    # -- stability metrics (Fig. 6.5) -----------------------------------
    def temp_max_min_c(self, skip_s: float = 15.0) -> float:
        """Max-min band of the sensed max core temperature."""
        temps = self.max_temps_c()[self.settle_slice(skip_s)]
        if temps.size == 0:
            raise SimulationError("run trace too short for stability metrics")
        return float(np.max(temps) - np.min(temps))

    def temp_variance(self, skip_s: float = 15.0) -> float:
        """Variance of the sensed max core temperature (degC^2)."""
        temps = self.max_temps_c()[self.settle_slice(skip_s)]
        if temps.size == 0:
            raise SimulationError("run trace too short for stability metrics")
        return float(np.var(temps))

    def average_temp_c(self, skip_s: float = 15.0) -> float:
        """Mean sensed max core temperature after settling."""
        temps = self.max_temps_c()[self.settle_slice(skip_s)]
        if temps.size == 0:
            raise SimulationError("run trace too short for stability metrics")
        return float(np.mean(temps))

    def peak_temp_c(self) -> float:
        """Highest sensed max core temperature over the whole run."""
        return float(np.max(self.max_temps_c()))

    def constraint_exceedance_c(self, constraint_c: float) -> float:
        """How far above the constraint the run went (0 if never)."""
        return max(0.0, self.peak_temp_c() - constraint_c)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            "%s/%s: %s in %.1f s, %.2f W avg, peak %.1f degC"
            % (
                self.benchmark,
                self.mode,
                "completed" if self.completed else "DID NOT FINISH",
                self.execution_time_s,
                self.average_platform_power_w,
                self.peak_temp_c(),
            )
        )
