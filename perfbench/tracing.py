"""In-memory span tracing around the program's public layer boundaries.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces each traced callable *where its caller looks it
up* -- a method on its class, a function in the namespace of the module
that calls it -- with a thin wrapper that records one span per call:
its name, start, end and the span that was open on the same thread
when it began (its parent).  :meth:`Tracer.uninstall` puts every
original back.

Spans stay in per-thread lists in memory and are written out once, when
the run ends.  A span's *self time* is its duration minus the part of it
covered by its child spans; calls on one thread nest strictly, so that
part is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

# One traced boundary: (module, attribute path, span name).  A dotted
# attribute path ("Class.method") wraps a method on its class; a plain
# name wraps a function in that module's namespace, i.e. where the
# module's own code looks it up.
Boundary = Tuple[str, str, str]

#: Every traced boundary, one span name per layer.  Names match the
#: per-layer metrics (``<span>_s`` self seconds, ``<span>_calls``).
BOUNDARIES: Tuple[Boundary, ...] = (
    ("repro.sim.scheduler", "LoadBalancer.assign", "sim.scheduler"),
    ("repro.platform.state", "BatchPlant.gather", "platform.gather_scatter"),
    ("repro.platform.state", "BatchPlant.scatter", "platform.gather_scatter"),
    ("repro.platform.state", "BatchPlant.hotspots_k", "platform.gather_scatter"),
    # split into platform.advance / platform.idle_gap by power_every
    ("repro.platform.state", "BatchPlant.advance_interval", "platform.advance"),
    ("repro.platform.sensors", "SensorBank.read_all", "platform.sensors"),
    ("repro.governors.ondemand", "OndemandGovernor.propose", "governors.propose"),
    ("repro.governors.idle", "IdleGovernor.propose", "governors.propose"),
    ("repro.governors.reactive", "ReactiveThrottleGovernor.control",
     "governors.propose"),
    ("repro.core.dtpm", "DtpmGovernor.control", "core.dtpm"),
    ("repro.power.model", "PowerModel.observe_vector", "power.observe"),
    ("repro.core.predictor", "ThermalPredictor.forecast", "core.forecast"),
    ("repro.core.budget", "PowerBudgetComputer.compute", "core.budget"),
    ("repro.core.policy", "DtpmPolicy.assign", "core.policy"),
    ("repro.core.policy", "DtpmPolicy.consider_return_to_big", "core.policy"),
    ("repro.sim.run_result", "TraceRecorder.append", "sim.record"),
    ("repro.sim.consumers", "ViolationCounter.on_interval", "sim.record"),
    ("repro.runner.cache", "ResultCache.put", "runner.cache_put"),
    ("repro.runner.cache", "ResultCache.get", "runner.cache_get"),
    ("repro.runner.cache", "ResultCache.frame_chunks", "runner.frame_chunks"),
    ("repro.runner.cache", "ResultCache.open_trace", "runner.open_trace"),
    ("repro.runner.runner", "spec_key", "runner.spec_key"),
    ("repro.service.http", "spec_key", "runner.spec_key"),
    ("repro.thermal.sysid", "PrbsExperiment.run_all", "thermal.prbs"),
    ("repro.thermal.sysid", "SystemIdentifier.identify_structured",
     "thermal.sysid"),
    ("repro.service.http", "spec_from_wire", "runner.wire_decode"),
    ("repro.service.http", "matrix_from_wire", "runner.wire_decode"),
    ("repro.service.http", "result_to_summary", "service.summary"),
    ("repro.service.http", "EvaluationService.memo_get", "service.memo"),
    ("repro.analysis.suite", "stability_stats_batch", "analysis.stability"),
    ("repro.analysis.suite", "frequency_residency_batch",
     "analysis.residency"),
)

#: Span names in metric order (first appearance in BOUNDARIES).
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [name for _, _, name in BOUNDARIES] + ["platform.idle_gap"]
    )
)

#: Boundaries whose result the tracer also counts: span name -> counter
#: incremented when the call returns ``None`` (a miss) or not (a hit).
_HIT_COUNTED = ("runner.cache_get", "service.memo")


class _ThreadState:
    __slots__ = ("spans", "stack", "hits", "misses")

    def __init__(self) -> None:
        # one [name id, start ns, end ns, parent index] per span
        self.spans: List[List[int]] = []
        self.stack: List[int] = []
        self.hits: Dict[int, int] = defaultdict(int)
        self.misses: Dict[int, int] = defaultdict(int)


class Tracer:
    """Records spans around the :data:`BOUNDARIES` while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call."""
        nid = self._id(name)
        idle_id = self._id("platform.idle_gap")
        split_idle = name == "platform.advance"
        count_hits = name in _HIT_COUNTED
        clock = time.perf_counter_ns
        state_of = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            spans = state.spans
            stack = state.stack
            span_id = nid
            # advance_interval(..., power_every=1) is the idle-gap cooldown
            if split_idle and (
                kwargs.get("power_every", args[9] if len(args) > 9 else None)
                == 1
            ):
                span_id = idle_id
            record = [span_id, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count_hits:
                if result is None:
                    state.misses[nid] += 1
                else:
                    state.hits[nid] += 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> "Tracer":
        """Wrap every boundary in place (undo with :meth:`uninstall`)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in BOUNDARIES:
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = vars(owner)[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: self seconds, calls, and hit/miss counts."""
        out = {
            name: {"self_s": 0.0, "calls": 0, "hits": 0, "misses": 0}
            for name in self.names
        }
        for state in list(self._threads):
            for nid, self_ns, calls in _per_name(state.spans):
                entry = out[self.names[nid]]
                entry["self_s"] += self_ns / 1e9
                entry["calls"] += calls
            for nid, n in state.hits.items():
                out[self.names[nid]]["hits"] += n
            for nid, n in state.misses.items():
                out[self.names[nid]]["misses"] += n
        return out

    def span_count(self) -> int:
        return sum(len(state.spans) for state in list(self._threads))

    def write(self, path: str) -> None:
        """Write every span (per thread: name id, start, end, parent)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "clock": "perf_counter_ns",
                    "names": self.names,
                    "threads": [state.spans for state in list(self._threads)],
                },
                fh,
                separators=(",", ":"),
            )


def self_times(spans: List[List[int]]) -> List[Tuple[int, int]]:
    """``(name id, self ns)`` per span of one thread, in span order.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest strictly, so children never
    overlap one another.
    """
    child_ns = [0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [
        (span[0], span[2] - span[1] - child_ns[i])
        for i, span in enumerate(spans)
    ]


def _per_name(spans: List[List[int]]) -> List[Tuple[int, int, int]]:
    totals: Dict[int, List[int]] = {}
    for name_id, self_ns in self_times(spans):
        entry = totals.setdefault(name_id, [0, 0])
        entry[0] += self_ns
        entry[1] += 1
    return [(nid, v[0], v[1]) for nid, v in totals.items()]
