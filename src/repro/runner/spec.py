"""Declarative experiment descriptions and their stable identities.

A :class:`RunSpec` is everything needed to reproduce one closed-loop
simulation: the workload, the Section-6.2 thermal configuration, the
simulation knobs and the platform.  An :class:`ExperimentMatrix` is a
declarative grid over those axes -- the shape behind every figure, table
and ablation of the paper's evaluation -- and expands to an ordered list
of specs with deterministic per-spec seeds.

Both are frozen and hashable into a *stable content key* (:func:`spec_key`)
so results can be cached on disk across processes: two specs with the same
key describe byte-identical experiments, and the key additionally folds in
a fingerprint of the controller's identified models
(:func:`model_fingerprint`) because a DTPM run is only reproducible given
the same (A, B) matrices and leakage fits.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.platform.specs import PlatformSpec
from repro.sim.engine import ThermalMode
from repro.sim.models import ModelBundle
from repro.sim.scenario import resolve_schedule_entry
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.trace import WorkloadTrace

#: Bumped whenever the simulation semantics behind a cached result change
#: in a way the spec itself cannot express (trace columns, engine fixes).
#: 2: the plant went batch-vectorised (einsum/ufunc evaluation replaced
#: per-run BLAS/scalar calls), which moves results by ~1 ulp.
#: 3: control intervals hold ground-truth power for their whole duration
#: (zero-order hold at the interval-entry temperatures) so the fused
#: substep kernels can integrate a whole interval per propagator pass;
#: per-substep power re-evaluation survives only on the scenario
#: idle-cooldown path.
CACHE_FORMAT = 3


def _canonical(obj: Any) -> Any:
    """Convert a spec-graph object to a canonical JSON-able structure.

    Dataclasses become ``{"__class__": name, **fields}``, enums their value,
    numpy scalars/arrays plain python, and dict keys are stringified so the
    final ``json.dumps(..., sort_keys=True)`` is deterministic.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, enum.Enum):
        return str(obj.value)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        # fields introduced after entries were already cached on disk are
        # omitted at their default value, so pre-existing keys (and the v1
        # artifacts stored under them) stay reachable
        for name, default in getattr(
            type(obj), "CANONICAL_OMIT_DEFAULTS", {}
        ).items():
            if name in out and out[name] == _canonical(default):
                del out[name]
        return out
    if isinstance(obj, dict):
        return {str(_canonical(k)): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    raise ConfigurationError(
        "cannot canonicalise %r for hashing" % type(obj).__name__
    )


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering of a canonicalised object graph."""
    return json.dumps(
        _canonical(obj), sort_keys=True, separators=(",", ":")
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_fingerprint(models: Optional[ModelBundle]) -> Optional[str]:
    """Stable hash of the identified models a DTPM run depends on.

    Covers the thermal state-space matrices and the characterized leakage
    fits.  The dynamic alpha*C estimators are excluded deliberately: the
    governor re-instantiates them fresh for every run, so they are part of
    the execution, not of the inputs.
    """
    if models is None:
        return None
    thermal = models.thermal
    material = {
        "a": thermal.a,
        "b": thermal.b,
        "offset": thermal.offset,
        "ts_s": thermal.ts_s,
        "leakage": {
            str(resource.value): model.leakage
            for resource, model in models.power.models.items()
        },
    }
    return _digest(canonical_json(material))


@dataclass(frozen=True)
class RunSpec:
    """Complete, immutable description of one closed-loop simulation.

    Every field feeds the execution; nothing presentational lives here, so
    equal specs always produce byte-identical :class:`RunResult` payloads
    (given the same models) and may share one cache entry.

    A spec with a non-empty ``history`` describes one position of a
    *scenario schedule*: ``workload`` runs on a device that just executed
    the ``history`` workloads back to back (thermal state carried across
    runs by :class:`~repro.sim.scenario.ScenarioRunner`, with
    ``idle_gap_s`` of near-idle cooling before each carried run).  The
    spec's result is that of the **final** workload; :meth:`chain` names
    the per-position specs of the whole sequence.  ``warm_start_c`` is
    the device state before the first run of the sequence, and ``seed``
    is the scenario's base seed (position ``i`` runs with ``seed + i``).

    ``history_modes`` optionally gives each history position its own
    thermal configuration (a day under the stock governor before a
    DTPM-managed app); empty means every position runs under ``mode``.
    A ``history_modes`` equal to ``mode`` everywhere normalises to empty,
    so uniform schedules keep one canonical identity (and their
    pre-existing cache keys).
    """

    workload: WorkloadTrace
    mode: ThermalMode
    config: Optional[SimulationConfig] = None
    platform: Optional[PlatformSpec] = None
    #: Override of the DTPM predictor's act-early margin (DTPM mode only).
    guard_band_k: Optional[float] = None
    warm_start_c: Optional[float] = 52.0
    max_duration_s: float = 900.0
    #: Overrides ``config.seed`` when set (the matrix derives these).
    seed: Optional[int] = None
    #: Workloads that ran before this one on the same device (a scenario).
    history: Tuple[WorkloadTrace, ...] = ()
    #: Near-idle cooling gap before each carried run of a scenario.
    idle_gap_s: float = 0.0
    #: Per-position thermal modes of ``history`` (empty: all run ``mode``).
    history_modes: Tuple[ThermalMode, ...] = ()

    #: Omitted from the content key at their defaults so keys (and cached
    #: artifacts) from before the scenario fields existed stay valid.
    CANONICAL_OMIT_DEFAULTS = {
        "history": (),
        "idle_gap_s": 0.0,
        "history_modes": (),
    }

    def __post_init__(self) -> None:
        if not isinstance(self.workload, WorkloadTrace):
            raise ConfigurationError(
                "workload must be a WorkloadTrace (got %r)"
                % type(self.workload).__name__
            )
        if not isinstance(self.mode, ThermalMode):
            raise ConfigurationError(
                "mode must be a ThermalMode (got %r)" % (self.mode,)
            )
        if self.max_duration_s <= 0:
            raise ConfigurationError("max_duration_s must be positive")
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError("seed must be >= 0, got %r" % self.seed)
        object.__setattr__(self, "history", tuple(self.history))
        for w in self.history:
            if not isinstance(w, WorkloadTrace):
                raise ConfigurationError(
                    "history entries must be WorkloadTraces (got %r)"
                    % type(w).__name__
                )
        object.__setattr__(self, "history_modes", tuple(self.history_modes))
        for m in self.history_modes:
            if not isinstance(m, ThermalMode):
                raise ConfigurationError(
                    "history_modes entries must be ThermalModes (got %r)"
                    % (m,)
                )
        if self.history_modes:
            if len(self.history_modes) != len(self.history):
                raise ConfigurationError(
                    "history_modes names %d modes for %d history workloads"
                    % (len(self.history_modes), len(self.history))
                )
            # a uniform schedule has one canonical identity: no mode list
            if all(m is self.mode for m in self.history_modes):
                object.__setattr__(self, "history_modes", ())
        if self.guard_band_k is not None and not (
            self.mode is ThermalMode.DTPM
            or ThermalMode.DTPM in self.history_modes
        ):
            raise ConfigurationError(
                "guard_band_k only applies to DTPM runs (mode is %s)"
                % self.mode
            )
        if self.idle_gap_s < 0:
            raise ConfigurationError("idle_gap_s must be >= 0")
        if self.idle_gap_s and not self.history:
            raise ConfigurationError(
                "idle_gap_s only applies to scenario specs "
                "(this spec has an empty history)"
            )

    @classmethod
    def for_benchmark(cls, name: str, mode: ThermalMode, **kwargs: Any) -> "RunSpec":
        """Spec for a Table-6.4 benchmark looked up by name."""
        return cls(workload=get_benchmark(name), mode=mode, **kwargs)

    def to_dict(self) -> dict:
        """Canonical versioned (``"schema": 1``) JSON-able rendering.

        The wire contract of the evaluation service and the CLI:
        ``RunSpec.from_dict(spec.to_dict())`` reconstructs an equal spec,
        so :func:`spec_key` -- and therefore every cached artifact --
        survives the round trip unchanged.  See :mod:`repro.runner.wire`.
        """
        from repro.runner.wire import spec_to_wire

        return spec_to_wire(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        """Decode a :meth:`to_dict` payload (strict; versioned).

        Raises :class:`~repro.errors.WireError` on structural problems
        (unknown fields, missing ``schema``) and
        :class:`ConfigurationError` on domain violations.
        """
        from repro.runner.wire import spec_from_wire

        return spec_from_wire(payload)

    @property
    def needs_models(self) -> bool:
        """Whether executing this spec requires an identified ModelBundle."""
        return (
            self.mode is ThermalMode.DTPM
            or ThermalMode.DTPM in self.history_modes
        )

    @property
    def position(self) -> int:
        """This spec's 0-based position along its scenario chain.

        0 for plain specs; scheduled specs sit ``len(history)`` runs into
        their sequence.  The suite analytics layer groups per-position
        reductions (stability/power deltas along a diurnal chain) by this
        value.
        """
        return len(self.history)

    @property
    def schedule(self) -> Tuple[WorkloadTrace, ...]:
        """The full workload sequence this spec's execution simulates."""
        return self.history + (self.workload,)

    @property
    def schedule_modes(self) -> Tuple[ThermalMode, ...]:
        """Per-position thermal modes of the full schedule."""
        if self.history_modes:
            return self.history_modes + (self.mode,)
        return (self.mode,) * (len(self.history) + 1)

    def chain(self) -> List["RunSpec"]:
        """Per-position specs of the schedule, last one being ``self``.

        Executing the last position simulates every earlier one on the
        way, so a runner that executes ``chain()[-1]`` can harvest (and
        cache) all intermediate positions for free.  A guard band rides
        only on positions whose sub-chain involves DTPM (it cannot
        affect a DTPM-free prefix, and specs reject the combination).
        """
        sequence = self.schedule
        modes = self.schedule_modes
        out = []
        for i, w in enumerate(sequence):
            guard = (
                self.guard_band_k
                if ThermalMode.DTPM in modes[: i + 1]
                else None
            )
            out.append(
                dataclasses.replace(
                    self,
                    workload=w,
                    mode=modes[i],
                    history=sequence[:i],
                    history_modes=modes[:i],
                    guard_band_k=guard,
                    idle_gap_s=self.idle_gap_s if i else 0.0,
                )
            )
        return out

    def describe(self) -> str:
        """Short human-readable tag (for logs and progress lines)."""
        extras = []
        if self.history:
            if self.history_modes:
                tags = [
                    "%s:%s" % (w.name, m.value)
                    for w, m in zip(self.history, self.history_modes)
                ]
            else:
                tags = [w.name for w in self.history]
            extras.append("after %s" % "+".join(tags))
        if self.idle_gap_s:
            extras.append("gap=%gs" % self.idle_gap_s)
        if self.guard_band_k is not None:
            extras.append("gb=%.2fK" % self.guard_band_k)
        if self.seed is not None:
            extras.append("seed=%d" % self.seed)
        suffix = (" [%s]" % ", ".join(extras)) if extras else ""
        return "%s/%s%s" % (self.workload.name, self.mode.value, suffix)


def spec_key(spec: RunSpec, models: Optional[ModelBundle] = None) -> str:
    """Content-addressed identity of (spec, models, cache format).

    The model fingerprint participates only when the spec actually consumes
    the models, so fan-cooled baseline runs stay cache-valid across model
    re-identification.
    """
    material = {
        "format": CACHE_FORMAT,
        "spec": spec,
        "models": model_fingerprint(models) if spec.needs_models else None,
    }
    return _digest(canonical_json(material))


WorkloadLike = Union[WorkloadTrace, str]
#: One matrix schedule position: a workload, or a (workload, mode) pair
#: pinning that position to a thermal mode regardless of the modes axis.
ScheduleEntryLike = Union[WorkloadLike, Tuple[WorkloadLike, Union[ThermalMode, str]]]


def _resolve_workloads(
    workloads: Sequence[WorkloadLike],
) -> Tuple[WorkloadTrace, ...]:
    resolved = []
    for w in workloads:
        resolved.append(get_benchmark(w) if isinstance(w, str) else w)
    return tuple(resolved)


def _resolve_schedule(
    entries: Sequence[ScheduleEntryLike],
) -> Tuple[object, ...]:
    """Normalise schedule entries: names resolve, pairs keep their mode."""
    return tuple(resolve_schedule_entry(entry) for entry in entries)


def _entry_workload(entry: Any) -> WorkloadTrace:
    return entry[0] if isinstance(entry, tuple) else entry


def _entry_mode(entry: Any, default: ThermalMode) -> ThermalMode:
    return entry[1] if isinstance(entry, tuple) else default


@dataclass(frozen=True)
class ExperimentMatrix:
    """A declarative grid of simulations: the cartesian product of axes.

    Expansion order is workload-major, then mode, config, guard band --
    stable by construction, so per-spec seeds derived from ``base_seed``
    are deterministic and independent of how the runner schedules work.

    Beyond single workloads, the grid can carry *scenario schedules*:
    back-to-back workload sequences executed on one warm device
    (``schedules`` axis).  Each schedule expands to one spec **per
    position** (so results come back per app, individually cached), and
    all positions of a schedule share one derived seed -- the scenario's
    base seed -- because they are one physical experiment.

    Schedule positions are workloads (or benchmark names), or
    ``(workload, mode)`` pairs that pin the position to a thermal mode:
    pinned positions keep their mode while the rest of the schedule
    follows the ``modes`` axis, which is how mixed chains like "a stock
    governor all day, then one DTPM-managed app" enter the grid (see
    also :func:`repro.sim.scenario.diurnal`).
    """

    workloads: Tuple[WorkloadTrace, ...] = ()
    modes: Tuple[ThermalMode, ...] = (ThermalMode.DTPM,)
    configs: Tuple[Optional[SimulationConfig], ...] = (None,)
    guard_bands_k: Tuple[Optional[float], ...] = (None,)
    platform: Optional[PlatformSpec] = None
    warm_start_c: Optional[float] = 52.0
    max_duration_s: float = 900.0
    #: When set, atom ``i`` of the expansion runs with seed ``base_seed + i``
    #: (an atom is one workload or one whole schedule); when None every run
    #: uses its config's seed (the paper's default).
    base_seed: Optional[int] = None
    #: Back-to-back workload sequences (thermal state carried across runs).
    schedules: Tuple[Tuple[WorkloadTrace, ...], ...] = ()
    #: Near-idle cooling gap between consecutive runs of each schedule.
    idle_gap_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workloads", _resolve_workloads(tuple(self.workloads))
        )
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "guard_bands_k", tuple(self.guard_bands_k))
        object.__setattr__(
            self,
            "schedules",
            tuple(
                _resolve_schedule(tuple(schedule))
                for schedule in self.schedules
            ),
        )
        if any(not schedule for schedule in self.schedules):
            raise ConfigurationError("schedules must not be empty sequences")
        if self.idle_gap_s < 0:
            raise ConfigurationError("idle_gap_s must be >= 0")
        if self.base_seed is not None and self.base_seed < 0:
            raise ConfigurationError(
                "base_seed must be >= 0, got %r" % self.base_seed
            )
        if not self.workloads and not self.schedules:
            raise ConfigurationError("matrix axis 'workloads' is empty")
        for name in ("modes", "configs", "guard_bands_k"):
            if not getattr(self, name):
                raise ConfigurationError("matrix axis %r is empty" % name)
        if any(
            gb is not None and m is not ThermalMode.DTPM
            for gb in self.guard_bands_k
            for m in self.modes
        ):
            raise ConfigurationError(
                "guard-band axis requires all modes to be DTPM"
            )

    def to_dict(self) -> dict:
        """Canonical versioned (``"schema": 1``) JSON-able rendering.

        ``ExperimentMatrix.from_dict(m.to_dict())`` expands to the same
        ordered spec list with identical content keys; see
        :mod:`repro.runner.wire`.
        """
        from repro.runner.wire import matrix_to_wire

        return matrix_to_wire(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentMatrix":
        """Decode a :meth:`to_dict` payload (strict; versioned)."""
        from repro.runner.wire import matrix_from_wire

        return matrix_from_wire(payload)

    def _atoms(self) -> List[Tuple[WorkloadTrace, ...]]:
        """Single workloads and schedules, uniformly as sequences."""
        return [(w,) for w in self.workloads] + list(self.schedules)

    def __len__(self) -> int:
        positions = sum(len(atom) for atom in self._atoms())
        return (
            positions
            * len(self.modes)
            * len(self.configs)
            * len(self.guard_bands_k)
        )

    def specs(self) -> List[RunSpec]:
        """Expand the grid into its ordered list of run specs."""
        out: List[RunSpec] = []
        index = 0
        for atom in self._atoms():
            for mode in self.modes:
                for config in self.configs:
                    for guard in self.guard_bands_k:
                        seed = (
                            None
                            if self.base_seed is None
                            else self.base_seed + index
                        )
                        workloads = tuple(
                            _entry_workload(e) for e in atom
                        )
                        pos_modes = tuple(
                            _entry_mode(e, mode) for e in atom
                        )
                        for k in range(len(atom)):
                            guard_k = (
                                guard
                                if ThermalMode.DTPM in pos_modes[: k + 1]
                                else None
                            )
                            out.append(
                                RunSpec(
                                    workload=workloads[k],
                                    mode=pos_modes[k],
                                    config=config,
                                    platform=self.platform,
                                    guard_band_k=guard_k,
                                    warm_start_c=self.warm_start_c,
                                    max_duration_s=self.max_duration_s,
                                    seed=seed,
                                    history=workloads[:k],
                                    history_modes=pos_modes[:k],
                                    idle_gap_s=(
                                        self.idle_gap_s if k else 0.0
                                    ),
                                )
                            )
                        index += 1
        return out

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs())
