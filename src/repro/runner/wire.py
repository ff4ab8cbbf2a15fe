"""Versioned JSON wire schema for :class:`RunSpec` and :class:`ExperimentMatrix`.

Specs and grids travel as plain JSON in a canonical, versioned rendering
(``"schema": 1``): the contract of the evaluation service
(:mod:`repro.service`), the distributed runner, the CLI's grid
construction and any out-of-process client.

One field walk, :func:`_to_wire` and :func:`_from_wire`, carries every
dataclass on the wire through its fields in declaration order, so no
field can be left out.  A field travels as its value unless its class's
table in :data:`_CODECS` names it: a registered benchmark as its name, a
mode as its ``.value``, a tuple as an array, a nested dataclass as an
object, the leakage map keyed by resource value and a ``(workload,
mode)`` schedule pair as ``{"workload", "mode"}``.  Every other field is
a scalar, checked against its declared type.

The round trip is **lossless by value**: ``spec_from_wire(spec_to_wire(s))``
compares equal to ``s``, so its content key
(:func:`repro.runner.spec.spec_key`) is *identical* -- wire transport
never invalidates a cache entry.

Decoding is strict.  Unknown keys, missing required fields, malformed
structures and ill-typed scalars (``int`` takes a JSON integer,
``float`` a finite number -- an integer stays an integer -- ``str`` a
string, ``Optional`` also ``null``, and ``bool`` is never a number)
raise :class:`~repro.errors.WireError` naming the path, e.g.
``spec.config.seed``, so the service answers a structured 400.  Domain
validation stays in the dataclasses' ``__post_init__`` and surfaces as
:class:`ConfigurationError`.
"""

from __future__ import annotations

import dataclasses
import operator
import typing
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.errors import WireError, WorkloadError
from repro.platform.specs import (
    CoreSpec,
    LeakageSpec,
    OppTable,
    PlatformSpec,
    Resource,
    VoltageCurve,
)
from repro.runner.cache import is_finite_number
from repro.runner.spec import ExperimentMatrix, RunSpec
from repro.sim.engine import ThermalMode
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.trace import WorkloadPhase, WorkloadTrace

#: Version of the wire rendering this module reads and writes.  Bump it
#: when a field changes meaning; decoding rejects any other value, so a
#: client and server never silently disagree about a payload's shape.
WIRE_SCHEMA = 1

#: How one field (or array element) travels: ``encode(value)`` gives its
#: JSON form, ``decode(obj, where)`` checks ``obj`` and rebuilds the value
#: (``where`` is the path named in a :class:`WireError`).
Codec = Tuple[Callable[[Any], Any], Callable[[Any, str], Any]]

_MODES: Dict[str, ThermalMode] = {m.value: m for m in ThermalMode}
_RESOURCES: Dict[str, Resource] = {r.value: r for r in Resource}


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise WireError(
            "%s must be a JSON object, got %s" % (where, type(obj).__name__)
        )
    return obj


def _require_list(obj: Any, where: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise WireError(
            "%s must be a JSON array, got %s" % (where, type(obj).__name__)
        )
    return list(obj)


# ---------------------------------------------------------------------------
# the field walk
# ---------------------------------------------------------------------------
class _Walk:
    """One wire dataclass's fields and codecs, resolved once at import.

    ``fields`` holds ``(name, encode, decode, accepts)`` in declaration
    order.  A scalar field's ``accepts`` is its type check, and its
    ``decode`` runs only to report a value that fails it; every other
    field has ``accepts`` None and decodes through its codec.
    """

    def __init__(self, cls: type, table: Dict[str, Codec]) -> None:
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        walk: List[Tuple[Any, ...]] = []
        for f in fields:
            if f.name in table:
                walk.append((f.name,) + table[f.name] + (None,))
                continue
            try:
                accepts, _ = _scalar_accepts(hints[f.name])
            except (KeyError, ValueError):
                raise TypeError(
                    "%s.%s is not an int, float or str; give it a wire "
                    "codec in _CODECS" % (cls.__name__, f.name)
                ) from None
            walk.append((f.name,) + _scalar(hints[f.name]) + (accepts,))
        self.fields: Tuple[Tuple[Any, ...], ...] = tuple(walk)
        self.names: FrozenSet[str] = frozenset(f.name for f in fields)
        self.required: FrozenSet[str] = frozenset(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )


#: Filled from :data:`_CODECS` below.
_WALKS: Dict[type, _Walk] = {}


def _to_wire(obj: Any) -> dict:
    """A wire dataclass as a JSON object, fields in declaration order."""
    return {
        name: encode(getattr(obj, name))
        for name, encode, _, _ in _WALKS[type(obj)].fields
    }


def _from_wire(cls: type, obj: Any, where: str) -> Any:
    """A ``cls`` from its checked wire object; omitted fields default."""
    payload = _require_mapping(obj, where)
    walk = _WALKS[cls]
    if not walk.names.issuperset(payload):
        raise WireError(
            "%s has unknown field(s) %s (schema %d knows %s)"
            % (where, ", ".join(sorted(payload.keys() - walk.names)),
               WIRE_SCHEMA, ", ".join(sorted(walk.names)))
        )
    if not payload.keys() >= walk.required:
        raise WireError(
            "%s is missing required field(s) %s"
            % (where, ", ".join(sorted(walk.required - payload.keys())))
        )
    kwargs: Dict[str, Any] = {}
    for name, _, decode, accepts in walk.fields:
        if name in payload:
            value = payload[name]
            if accepts is None or not accepts(value):
                value = decode(value, where + "." + name)
            kwargs[name] = value
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------
def _plain(value: Any) -> Any:
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


#: The JSON values a scalar of each declared type takes.
_SCALAR_CHECKS: Dict[Any, Tuple[Callable[[Any], bool], str]] = {
    int: (_is_int, "an integer"),
    float: (is_finite_number, "a finite number"),
    str: (_is_str, "a string"),
}


def _scalar_accepts(hint: Any) -> Tuple[Callable[[Any], bool], str]:
    """The check of a scalar of declared type ``hint``, and its wording."""
    if typing.get_origin(hint) is not typing.Union:
        return _SCALAR_CHECKS[hint]
    (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    accepts, what = _SCALAR_CHECKS[hint]

    def accepts_optional(obj: Any) -> bool:
        return obj is None or accepts(obj)

    return accepts_optional, what + " or null"


def _scalar(hint: Any) -> Codec:
    """The codec of a scalar of declared type ``hint`` (``Optional`` ok)."""
    accepts, what = _scalar_accepts(hint)

    def decode(obj: Any, where: str) -> Any:
        if accepts(obj):
            return obj
        raise WireError("%s must be %s, got %r" % (where, what, obj))

    return _plain, decode


def _optional(codec: Codec) -> Codec:
    encode, decode = codec

    def encode_optional(value: Any) -> Any:
        return None if value is None else encode(value)

    def decode_optional(obj: Any, where: str) -> Any:
        return None if obj is None else decode(obj, where)

    return encode_optional, decode_optional


def _array(item: Codec) -> Codec:
    """A tuple as a JSON array of ``item``-coded elements."""
    encode, decode = item

    def encode_array(values: Any) -> list:
        return [encode(v) for v in values]

    def decode_array(obj: Any, where: str) -> tuple:
        return tuple(
            decode(v, "%s[%d]" % (where, i))
            for i, v in enumerate(_require_list(obj, where))
        )

    return encode_array, decode_array


def _record(cls: type) -> Codec:
    """A nested wire dataclass as a JSON object (the field walk)."""

    def decode(obj: Any, where: str) -> Any:
        return _from_wire(cls, obj, where)

    return _to_wire, decode


def _mode_from_wire(obj: Any, where: str) -> ThermalMode:
    try:
        return _MODES[obj]
    except (KeyError, TypeError):
        raise WireError(
            "%s must be one of %s, got %r"
            % (where, ", ".join(sorted(_MODES)), obj)
        ) from None


def workload_to_wire(workload: WorkloadTrace) -> Any:
    """A workload as wire JSON: its name when it *is* that benchmark.

    Registered benchmarks compress to their name (resolved back through
    :func:`get_benchmark`, which returns an equal trace, so content keys
    survive the round trip); anything else travels inline.
    """
    try:
        if get_benchmark(workload.name) == workload:
            return workload.name
    except WorkloadError:
        pass
    return _to_wire(workload)


def workload_from_wire(obj: Any, where: str = "workload") -> WorkloadTrace:
    """Resolve a wire workload: a benchmark name or an inline trace."""
    if isinstance(obj, str):
        try:
            return get_benchmark(obj)
        except WorkloadError as exc:
            raise WireError("%s: %s" % (where, exc)) from None
    return _from_wire(WorkloadTrace, obj, where)


def _leakage_to_wire(leakage: Dict[Resource, LeakageSpec]) -> dict:
    return {
        resource.value: _to_wire(spec)
        for resource, spec in sorted(
            leakage.items(), key=lambda kv: kv[0].value
        )
    }


def _leakage_from_wire(obj: Any, where: str) -> Dict[Resource, LeakageSpec]:
    leakage: Dict[Resource, LeakageSpec] = {}
    for key, value in _require_mapping(obj, where).items():
        if key not in _RESOURCES:
            raise WireError(
                "%s key must be one of %s, got %r"
                % (where, ", ".join(sorted(_RESOURCES)), key)
            )
        leakage[_RESOURCES[key]] = _from_wire(
            LeakageSpec, value, "%s[%s]" % (where, key)
        )
    return leakage


def _schedule_entry_to_wire(entry: Any) -> Any:
    if isinstance(entry, tuple):
        workload, mode = entry
        return {"workload": workload_to_wire(workload), "mode": mode.value}
    return workload_to_wire(entry)


def _schedule_entry_from_wire(obj: Any, where: str) -> Any:
    if isinstance(obj, dict) and set(obj) == {"workload", "mode"}:
        return (
            workload_from_wire(obj["workload"], where + ".workload"),
            _mode_from_wire(obj["mode"], where + ".mode"),
        )
    return workload_from_wire(obj, where)


_WORKLOAD: Codec = (workload_to_wire, workload_from_wire)
_MODE: Codec = (operator.attrgetter("value"), _mode_from_wire)
_FLOATS = _array(_scalar(float))
_CONFIG = _optional(_record(SimulationConfig))
_PLATFORM = _optional(_record(PlatformSpec))

#: Per wire dataclass, the fields whose JSON form differs from their
#: value.  Explicit on purpose: ``ExperimentMatrix.schedules`` holds
#: ``(workload, mode)`` pairs that its type hint does not describe.
_CODECS: Dict[type, Dict[str, Codec]] = {
    WorkloadPhase: {},
    WorkloadTrace: {"phases": _array(_record(WorkloadPhase))},
    SimulationConfig: {},
    VoltageCurve: {},
    OppTable: {
        "frequencies_hz": _FLOATS,
        "voltage_curve": _record(VoltageCurve),
    },
    CoreSpec: {},
    LeakageSpec: {},
    PlatformSpec: {
        "big_opp": _record(OppTable),
        "little_opp": _record(OppTable),
        "gpu_opp": _record(OppTable),
        "big_core": _record(CoreSpec),
        "little_core": _record(CoreSpec),
        "leakage": (_leakage_to_wire, _leakage_from_wire),
        "fan_power_w": _FLOATS,
        "fan_conductance_gain": _FLOATS,
    },
    RunSpec: {
        "workload": _WORKLOAD,
        "mode": _MODE,
        "config": _CONFIG,
        "platform": _PLATFORM,
        "history": _array(_WORKLOAD),
        "history_modes": _array(_MODE),
    },
    ExperimentMatrix: {
        "workloads": _array(_WORKLOAD),
        "modes": _array(_MODE),
        "configs": _array(_CONFIG),
        "guard_bands_k": _array(_scalar(Optional[float])),
        "platform": _PLATFORM,
        "schedules": _array(
            _array((_schedule_entry_to_wire, _schedule_entry_from_wire))
        ),
    },
}
_WALKS.update((cls, _Walk(cls, table)) for cls, table in _CODECS.items())


# ---------------------------------------------------------------------------
# versioned specs and grids
# ---------------------------------------------------------------------------
def is_wire_schema(value: Any) -> bool:
    """Whether ``value`` names :data:`WIRE_SCHEMA` as a JSON integer.

    The check of every versioned payload -- specs, grids and the
    distributed ``hello`` frame.  Like an ``int`` field of the walk,
    ``true`` and ``1.0`` are not the integer 1.
    """
    return _is_int(value) and value == WIRE_SCHEMA


def _versioned_from_wire(cls: type, obj: Any, where: str) -> Any:
    payload = dict(_require_mapping(obj, where))
    if "schema" not in payload:
        raise WireError(
            '%s is missing the "schema" version field (current: %d)'
            % (where, WIRE_SCHEMA)
        )
    schema = payload.pop("schema")
    if not is_wire_schema(schema):
        raise WireError(
            "%s has unsupported schema %r (this build speaks %d)"
            % (where, schema, WIRE_SCHEMA)
        )
    return _from_wire(cls, payload, where)


def spec_to_wire(spec: RunSpec) -> dict:
    """The canonical ``"schema": 1`` JSON rendering of one spec."""
    return {"schema": WIRE_SCHEMA, **_to_wire(spec)}


def spec_from_wire(obj: Any, where: str = "spec") -> RunSpec:
    """Decode one wire spec; the inverse of :func:`spec_to_wire`.

    Only ``workload`` and ``mode`` are required beyond ``schema``; every
    omitted field takes the :class:`RunSpec` default, so hand-written
    payloads stay small.
    """
    return _versioned_from_wire(RunSpec, obj, where)


def matrix_to_wire(matrix: ExperimentMatrix) -> dict:
    """The canonical ``"schema": 1`` JSON rendering of one grid."""
    return {"schema": WIRE_SCHEMA, **_to_wire(matrix)}


def matrix_from_wire(obj: Any, where: str = "matrix") -> ExperimentMatrix:
    """Decode one wire grid; the inverse of :func:`matrix_to_wire`."""
    return _versioned_from_wire(ExperimentMatrix, obj, where)
