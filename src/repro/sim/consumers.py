"""The engine's per-interval counter of controller decisions.

Every run statistic is a reduction of the recorded trace columns
(:mod:`repro.analysis.stats`); this module holds the one exception.
``BatchSimulator.run`` builds one :class:`ViolationCounter` per lane and
calls :meth:`ViolationCounter.on_interval` with each interval's row, the
mapping it also unpacks into ``TraceRecorder.append``, so
``RunResult.interventions`` and ``RunResult.violations_predicted`` equal
the sums of the recorded ``intervened`` and ``violation_predicted``
columns.

The counter stays a separate call, rather than a sum over those columns
in ``_Lane.finish``, because the benchmark's tracer wraps
``ViolationCounter.on_interval`` by name as part of its ``sim.record``
boundary; counting from the columns has to wait for a benchmark change
that drops that boundary.
"""

from __future__ import annotations

from typing import Mapping


class ViolationCounter:
    """Counts predicted violations and controller interventions."""

    def __init__(self) -> None:
        self.violations = 0
        self.interventions = 0

    def on_interval(self, values: Mapping[str, float]) -> None:
        if values["violation_predicted"] > 0.5:
            self.violations += 1
        if values["intervened"] > 0.5:
            self.interventions += 1
