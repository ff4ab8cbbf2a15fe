"""Workload trace primitives.

A benchmark couples to the power/thermal control stack through a small set
of behavioural quantities: how many CPU threads it keeps busy, how much
work (in reference big-core gigacycles) it must retire before finishing,
its switching-activity factor (the ``alpha`` of Eq. 4.1), the GPU load and
memory traffic it generates, and the background load the Android stack adds
("while running each benchmark all background processes were allowed to
run", Section 6.1.3).  Phases modulate these over time so the traces have
the burst structure real applications show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import WorkloadError

#: Category labels used by Table 6.4.
CATEGORY_LOW = "low"
CATEGORY_MEDIUM = "medium"
CATEGORY_HIGH = "high"
CATEGORIES = (CATEGORY_LOW, CATEGORY_MEDIUM, CATEGORY_HIGH)


@dataclass(frozen=True)
class WorkloadPhase:
    """A stretch of a workload with its own intensity multipliers.

    ``duration_s`` is measured in wall-clock benchmark time; the phase list
    repeats cyclically until the workload's total work is retired.
    """

    duration_s: float
    demand: float = 1.0  # CPU thread demand multiplier (0..1]
    gpu: float = 1.0  # GPU demand multiplier
    mem: float = 1.0  # memory traffic multiplier

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise WorkloadError("phase duration must be positive")
        if not 0.0 <= self.demand <= 1.0:
            raise WorkloadError("phase demand must be in [0, 1]")
        if self.gpu < 0 or self.mem < 0:
            raise WorkloadError("phase multipliers must be >= 0")


@dataclass(frozen=True)
class WorkloadTrace:
    """Static description of one benchmark."""

    name: str
    category: str
    benchmark_type: str  # Table 6.4 "Types" column
    threads: int
    total_work_gcycles: float
    #: Per-thread demand as a fraction of a big core's maximum speed.
    #: 1.0 = CPU-bound; < 1.0 = rate-limited (games, codecs).
    thread_demand: float = 1.0
    activity: float = 1.0  # alpha*C multiplier vs. the nominal core spec
    gpu_demand: float = 0.0  # GPU busy fraction demanded at max GPU freq
    gpu_activity: float = 1.0
    mem_traffic: float = 0.2  # normalised memory traffic at full speed
    background_util: float = 0.18  # Android stack load on every online core
    phases: Tuple[WorkloadPhase, ...] = field(default_factory=tuple)
    demand_jitter: float = 0.03  # seeded multiplicative jitter sigma

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise WorkloadError(
                "unknown category %r (want one of %s)" % (self.category, CATEGORIES)
            )
        if self.threads < 1:
            raise WorkloadError("a workload needs at least one thread")
        if self.total_work_gcycles <= 0:
            raise WorkloadError("total work must be positive")
        if not 0.0 < self.thread_demand <= 1.0:
            raise WorkloadError("thread_demand must be in (0, 1]")
        if not 0.0 <= self.gpu_demand <= 1.0:
            raise WorkloadError("gpu_demand must be in [0, 1]")
        if not 0.0 <= self.background_util < 1.0:
            raise WorkloadError("background_util must be in [0, 1)")
        # negative activity runs to negative power; negative traffic or
        # jitter would run as 0 under another content key
        for name in ("activity", "gpu_activity", "mem_traffic", "demand_jitter"):
            if not getattr(self, name) >= 0.0:
                raise WorkloadError("%s must be >= 0" % name)

    @property
    def uses_gpu(self) -> bool:
        """Whether this workload meaningfully loads the GPU."""
        return self.gpu_demand > 0.05

    def phase_at(self, elapsed_s: float) -> WorkloadPhase:
        """The phase active at ``elapsed_s`` (phases repeat cyclically)."""
        if not self.phases:
            return WorkloadPhase(duration_s=1.0)
        cycle = sum(p.duration_s for p in self.phases)
        t = elapsed_s % cycle
        for phase in self.phases:
            if t < phase.duration_s:
                return phase
            t -= phase.duration_s
        return self.phases[-1]

    def nominal_duration_s(self, reference_freq_hz: float = 1.6e9) -> float:
        """Run time at full speed, accounting for the demand ceiling.

        Ignores phases/jitter; used to size benchmarks against the paper's
        reported run lengths.
        """
        per_thread = self.total_work_gcycles / self.threads
        return per_thread * 1e9 / (reference_freq_hz * self.thread_demand)


class WorkloadProgress:
    """Mutable run-time progress of one workload instance."""

    def __init__(self, trace: WorkloadTrace) -> None:
        self.trace = trace
        self._retired_gcycles = 0.0
        self._elapsed_s = 0.0

    @property
    def retired_gcycles(self) -> float:
        """Work retired so far."""
        return self._retired_gcycles

    @property
    def elapsed_s(self) -> float:
        """Wall-clock time the workload has been running."""
        return self._elapsed_s

    @property
    def fraction_done(self) -> float:
        """Completed fraction in [0, 1]."""
        return min(1.0, self._retired_gcycles / self.trace.total_work_gcycles)

    @property
    def done(self) -> bool:
        """Whether all work has been retired."""
        return self._retired_gcycles >= self.trace.total_work_gcycles

    def retire(self, gcycles: float, dt_s: float) -> None:
        """Account ``gcycles`` of completed work over ``dt_s`` seconds."""
        if gcycles < 0 or dt_s < 0:
            raise WorkloadError("work and time must be non-negative")
        self._retired_gcycles += gcycles
        self._elapsed_s += dt_s
