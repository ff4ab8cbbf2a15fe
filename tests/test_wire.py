"""The versioned wire schema: lossless round trips, key identity, strictness."""

import dataclasses
import json
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, WireError
from repro.platform.specs import (
    LEAKAGE_SPECS,
    CoreSpec,
    LeakageSpec,
    OppTable,
    PlatformSpec,
    Resource,
    VoltageCurve,
)
from repro.runner import (
    ExperimentMatrix,
    RunSpec,
    WIRE_SCHEMA,
    matrix_from_wire,
    matrix_to_wire,
    spec_from_wire,
    spec_key,
    spec_to_wire,
    workload_to_wire,
)
from repro.runner import wire
from repro.sim.engine import ThermalMode
from repro.workloads import benchmark_names, get_benchmark, synthesize
from repro.workloads.trace import WorkloadPhase, WorkloadTrace


def _specs_under_test():
    custom = synthesize("high", duration_s=4.0, threads=2, seed=11,
                        name="wire-custom")
    return [
        RunSpec(workload=get_benchmark("dijkstra"),
                mode=ThermalMode.DEFAULT_WITH_FAN),
        RunSpec(
            workload=get_benchmark("templerun"),
            mode=ThermalMode.DTPM,
            config=SimulationConfig(t_constraint_c=61.0),
            guard_band_k=1.5,
            seed=7,
        ),
        RunSpec(
            workload=custom,
            mode=ThermalMode.NO_FAN,
            platform=PlatformSpec(),
            warm_start_c=None,
            max_duration_s=30.0,
        ),
        RunSpec(
            workload=get_benchmark("patricia"),
            mode=ThermalMode.REACTIVE,
            history=(get_benchmark("dijkstra"), custom),
            history_modes=(ThermalMode.NO_FAN, ThermalMode.REACTIVE),
            idle_gap_s=5.0,
        ),
    ]


@pytest.mark.parametrize("index", range(4))
def test_spec_round_trip_is_lossless(index):
    spec = _specs_under_test()[index]
    decoded = spec_from_wire(spec_to_wire(spec))
    assert decoded == spec


@pytest.mark.parametrize("index", range(4))
def test_spec_round_trip_preserves_content_key(index):
    """from_dict(to_dict(s)) files under the *identical* cache key."""
    spec = _specs_under_test()[index]
    assert spec_key(spec_from_wire(spec_to_wire(spec))) == spec_key(spec)


def test_wire_payload_is_plain_json():
    for spec in _specs_under_test():
        payload = spec_to_wire(spec)
        assert payload["schema"] == WIRE_SCHEMA
        rehydrated = json.loads(json.dumps(payload))
        assert spec_from_wire(rehydrated) == spec


def test_registered_benchmark_compresses_to_name():
    assert workload_to_wire(get_benchmark("dijkstra")) == "dijkstra"
    inline = workload_to_wire(
        synthesize("low", duration_s=3.0, seed=3, name="not-registered")
    )
    assert isinstance(inline, dict) and inline["name"] == "not-registered"


def test_dataclass_methods_delegate_to_wire():
    spec = RunSpec(workload=get_benchmark("dijkstra"),
                   mode=ThermalMode.DTPM)
    assert RunSpec.from_dict(spec.to_dict()) == spec
    assert spec.to_dict() == spec_to_wire(spec)


def test_minimal_payload_takes_defaults():
    spec = spec_from_wire(
        {"schema": 1, "workload": "dijkstra", "mode": "dtpm"}
    )
    assert spec == RunSpec(workload=get_benchmark("dijkstra"),
                           mode=ThermalMode.DTPM)


def test_matrix_round_trip_preserves_every_spec_key():
    custom = synthesize("medium", duration_s=4.0, seed=5, name="wire-m")
    matrix = ExperimentMatrix(
        workloads=(get_benchmark("dijkstra"), custom),
        modes=(ThermalMode.DTPM,),
        guard_bands_k=(None, 1.0),
        base_seed=100,
        schedules=(
            (get_benchmark("dijkstra"),
             (get_benchmark("patricia"), ThermalMode.NO_FAN)),
        ),
        idle_gap_s=2.0,
    )
    decoded = matrix_from_wire(matrix_to_wire(matrix))
    assert decoded == matrix
    assert decoded.to_dict() == matrix.to_dict()
    ours, theirs = matrix.specs(), decoded.specs()
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert spec_key(a) == spec_key(b)
    assert ExperimentMatrix.from_dict(matrix.to_dict()) == matrix


def test_missing_schema_is_rejected():
    with pytest.raises(WireError, match="schema"):
        spec_from_wire({"workload": "dijkstra", "mode": "dtpm"})


def test_wrong_schema_version_is_rejected():
    with pytest.raises(WireError, match="unsupported schema"):
        spec_from_wire({"schema": 99, "workload": "dijkstra", "mode": "dtpm"})


@pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize("decode, payload", [
    (spec_from_wire, {"workload": "dijkstra", "mode": "dtpm"}),
    (matrix_from_wire, {"workloads": ["dijkstra"]}),
], ids=["spec", "matrix"])
def test_ill_typed_schema_version_is_rejected(decode, payload, schema):
    """The version is a JSON integer: ``true == 1`` and ``1.0 == 1`` in
    Python, but neither names schema 1."""
    with pytest.raises(WireError, match="unsupported schema"):
        decode(dict(payload, schema=schema))


def test_unknown_field_is_rejected_with_its_name():
    with pytest.raises(WireError, match="bogus"):
        spec_from_wire(
            {"schema": 1, "workload": "dijkstra", "mode": "dtpm",
             "bogus": True}
        )


def test_unknown_mode_names_the_choices():
    with pytest.raises(WireError, match="with_fan"):
        spec_from_wire(
            {"schema": 1, "workload": "dijkstra", "mode": "warp-drive"}
        )


def test_unknown_benchmark_name_is_rejected():
    with pytest.raises(WireError, match="workload"):
        spec_from_wire(
            {"schema": 1, "workload": "no-such-bench", "mode": "dtpm"}
        )


def test_inline_workload_missing_fields_names_the_path():
    with pytest.raises(WireError, match="workload"):
        spec_from_wire(
            {"schema": 1, "workload": {"name": "partial"}, "mode": "dtpm"}
        )


def test_domain_validation_still_applies_after_decode():
    # an explicitly empty axis is a domain error, not silently defaulted
    with pytest.raises(ConfigurationError):
        matrix_from_wire({"schema": 1, "workloads": ["dijkstra"], "modes": []})


# ---------------------------------------------------------------------------
# the field walk: every field travels, and only fields do
# ---------------------------------------------------------------------------
def _opp(name, low, high):
    return OppTable(name=name, frequencies_hz=(low, high),
                    voltage_curve=VoltageCurve(f_low_hz=low, v_low=0.9,
                                               f_high_hz=high, v_high=1.2))


def _everything_set_spec():
    """A spec with every field away from its default."""
    app = WorkloadTrace(
        name="pin-app", category="high", benchmark_type="synthetic",
        threads=2, total_work_gcycles=12.5, thread_demand=0.75,
        activity=1.25, gpu_demand=0.5, gpu_activity=0.75, mem_traffic=0.25,
        background_util=0.125,
        phases=(WorkloadPhase(duration_s=2.0, demand=0.5, gpu=0.25, mem=1.5),),
        demand_jitter=0.0,
    )
    platform = PlatformSpec(
        big_opp=_opp("big-pin", 8e8, 1.6e9),
        little_opp=_opp("little-pin", 2.5e8, 6e8),
        gpu_opp=_opp("gpu-pin", 1.77e8, 5.33e8),
        big_core=CoreSpec(switching_capacitance_f=3e-10, ipc_factor=1.0),
        little_core=CoreSpec(switching_capacitance_f=9e-11, ipc_factor=0.5),
        gpu_capacitance_f=2.5e-9,
        mem_full_traffic_w=0.5,
        mem_vdd=1.25,
        # inserted out of order: the wire sorts by resource value
        leakage={
            Resource.GPU: LeakageSpec(c1=0.5, c2=-1500.0, i_gate=0.01),
            Resource.BIG: LeakageSpec(c1=2.0, c2=-1800.0, i_gate=0.02),
        },
        platform_static_power_w=2.5,
        fan_power_w=(0.0, 0.5),
        fan_conductance_gain=(1.0, 2.0),
        cores_per_cluster=2,
    )
    return RunSpec(
        workload=app,
        mode=ThermalMode.DTPM,
        config=SimulationConfig(
            control_period_s=0.2, thermal_substep_s=0.02, ambient_c=30.0,
            t_constraint_c=61.5, prediction_horizon_steps=5,
            hotspot_delta_c=3.0, min_big_cores=2, temp_sensor_noise_c=0.0,
            temp_sensor_quantum_c=0.5, power_sensor_noise_rel=0.0, seed=7,
        ),
        platform=platform,
        guard_band_k=1.25,
        warm_start_c=48,  # an int in a float field stays an int
        max_duration_s=120.0,
        seed=42,
        history=(get_benchmark("dijkstra"), app),
        idle_gap_s=7.5,
        history_modes=(ThermalMode.NO_FAN, ThermalMode.REACTIVE),
    )


def _pair_schedule_matrix():
    return ExperimentMatrix(
        workloads=(get_benchmark("crc32"),),
        modes=(ThermalMode.DTPM,),
        configs=(None, SimulationConfig(seed=3)),
        guard_bands_k=(None, 0.5),
        warm_start_c=None,
        max_duration_s=60.0,
        base_seed=11,
        schedules=(
            (get_benchmark("dijkstra"),
             (get_benchmark("patricia"), ThermalMode.NO_FAN)),
        ),
        idle_gap_s=2.5,
    )


#: ``json.dumps`` of the two payloads above: what clients and stored
#: payloads of schema 1 hold, so changing it needs a ``WIRE_SCHEMA`` bump.
_EVERYTHING_SET_WIRE = (
    '{"schema": 1, "workload": {"name": "pin-app", '
    '"category": "high", "benchmark_type": "synthetic", '
    '"threads": 2, "total_work_gcycles": 12.5, '
    '"thread_demand": 0.75, "activity": 1.25, "gpu_demand": 0.5, '
    '"gpu_activity": 0.75, "mem_traffic": 0.25, '
    '"background_util": 0.125, "phases": [{"duration_s": 2.0, '
    '"demand": 0.5, "gpu": 0.25, "mem": 1.5}], '
    '"demand_jitter": 0.0}, "mode": "dtpm", '
    '"config": {"control_period_s": 0.2, "thermal_substep_s": 0.02, '
    '"ambient_c": 30.0, "t_constraint_c": 61.5, '
    '"prediction_horizon_steps": 5, "hotspot_delta_c": 3.0, '
    '"min_big_cores": 2, "temp_sensor_noise_c": 0.0, '
    '"temp_sensor_quantum_c": 0.5, "power_sensor_noise_rel": 0.0, '
    '"seed": 7}, "platform": {"big_opp": {"name": "big-pin", '
    '"frequencies_hz": [800000000.0, 1600000000.0], '
    '"voltage_curve": {"f_low_hz": 800000000.0, "v_low": 0.9, '
    '"f_high_hz": 1600000000.0, "v_high": 1.2}}, '
    '"little_opp": {"name": "little-pin", '
    '"frequencies_hz": [250000000.0, 600000000.0], '
    '"voltage_curve": {"f_low_hz": 250000000.0, "v_low": 0.9, '
    '"f_high_hz": 600000000.0, "v_high": 1.2}}, '
    '"gpu_opp": {"name": "gpu-pin", "frequencies_hz": [177000000.0, '
    '533000000.0], "voltage_curve": {"f_low_hz": 177000000.0, '
    '"v_low": 0.9, "f_high_hz": 533000000.0, "v_high": 1.2}}, '
    '"big_core": {"switching_capacitance_f": 3e-10, '
    '"ipc_factor": 1.0}, '
    '"little_core": {"switching_capacitance_f": 9e-11, '
    '"ipc_factor": 0.5}, "gpu_capacitance_f": 2.5e-09, '
    '"mem_full_traffic_w": 0.5, "mem_vdd": 1.25, '
    '"leakage": {"big": {"c1": 2.0, "c2": -1800.0, "i_gate": 0.02}, '
    '"gpu": {"c1": 0.5, "c2": -1500.0, "i_gate": 0.01}}, '
    '"platform_static_power_w": 2.5, "fan_power_w": [0.0, 0.5], '
    '"fan_conductance_gain": [1.0, 2.0], "cores_per_cluster": 2}, '
    '"guard_band_k": 1.25, "warm_start_c": 48, '
    '"max_duration_s": 120.0, "seed": 42, "history": ["dijkstra", '
    '{"name": "pin-app", "category": "high", '
    '"benchmark_type": "synthetic", "threads": 2, '
    '"total_work_gcycles": 12.5, "thread_demand": 0.75, '
    '"activity": 1.25, "gpu_demand": 0.5, "gpu_activity": 0.75, '
    '"mem_traffic": 0.25, "background_util": 0.125, '
    '"phases": [{"duration_s": 2.0, "demand": 0.5, "gpu": 0.25, '
    '"mem": 1.5}], "demand_jitter": 0.0}], "idle_gap_s": 7.5, '
    '"history_modes": ["without_fan", "reactive"]}'
)
_PAIR_SCHEDULE_WIRE = (
    '{"schema": 1, "workloads": ["crc32"], "modes": ["dtpm"], '
    '"configs": [null, {"control_period_s": 0.1, '
    '"thermal_substep_s": 0.01, "ambient_c": 25.0, '
    '"t_constraint_c": 63.0, "prediction_horizon_steps": 10, '
    '"hotspot_delta_c": 4.0, "min_big_cores": 3, '
    '"temp_sensor_noise_c": 0.15, "temp_sensor_quantum_c": 0.25, '
    '"power_sensor_noise_rel": 0.01, "seed": 3}], '
    '"guard_bands_k": [null, 0.5], "platform": null, '
    '"warm_start_c": null, "max_duration_s": 60.0, "base_seed": 11, '
    '"schedules": [["dijkstra", {"workload": "patricia", '
    '"mode": "without_fan"}]], "idle_gap_s": 2.5}'
)


def test_every_field_away_from_its_default_round_trips():
    spec = _everything_set_spec()
    for f in dataclasses.fields(RunSpec):
        assert getattr(spec, f.name) != f.default, f.name
    decoded = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
    assert decoded == spec
    assert spec_key(decoded) == spec_key(spec)


def test_schema_1_bytes_are_pinned():
    assert json.dumps(spec_to_wire(_everything_set_spec())) == (
        _EVERYTHING_SET_WIRE
    )
    assert json.dumps(matrix_to_wire(_pair_schedule_matrix())) == (
        _PAIR_SCHEDULE_WIRE
    )


def test_wire_dict_holds_schema_and_exactly_the_fields():
    for obj in (
        _everything_set_spec(),
        RunSpec(workload=get_benchmark("dijkstra"), mode=ThermalMode.NO_FAN),
        _pair_schedule_matrix(),
    ):
        fields = [f.name for f in dataclasses.fields(obj)]
        assert list(obj.to_dict()) == ["schema"] + fields


def test_codec_tables_name_only_fields_of_their_class():
    for cls, table in wire._CODECS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(table) <= fields, (cls.__name__, set(table) - fields)


def test_canonical_omit_defaults_names_only_spec_fields():
    fields = {f.name for f in dataclasses.fields(RunSpec)}
    assert set(RunSpec.CANONICAL_OMIT_DEFAULTS) <= fields


def test_a_field_the_walk_cannot_carry_fails_at_import():
    """A new field is either a checked scalar or names its codec."""

    @dataclasses.dataclass(frozen=True)
    class Grown:
        seed: int = 0
        history: Tuple[WorkloadTrace, ...] = ()

    with pytest.raises(TypeError, match="Grown.history"):
        wire._Walk(Grown, {})
    walk = wire._Walk(Grown, {"history": wire._array(wire._WORKLOAD)})
    assert [entry[0] for entry in walk.fields] == ["seed", "history"]


def _with(payload, path, value):
    """``payload`` with the value at ``path`` (keys and indexes) set."""
    out = json.loads(json.dumps(payload))
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("path, value, where", [
    (("seed",), "abc", "spec.seed"),
    (("seed",), 1.5, "spec.seed"),
    (("seed",), True, "spec.seed"),
    (("warm_start_c",), "hot", "spec.warm_start_c"),
    (("max_duration_s",), float("nan"), "spec.max_duration_s"),
    (("max_duration_s",), None, "spec.max_duration_s"),
    (("guard_band_k",), False, "spec.guard_band_k"),
    (("config", "seed"), "x", "spec.config.seed"),
    (("config", "prediction_horizon_steps"), 2.0,
     "spec.config.prediction_horizon_steps"),
    (("workload", "threads"), "2", "spec.workload.threads"),
    (("workload", "name"), 7, "spec.workload.name"),
    (("workload", "phases", 0, "demand"), None,
     "spec.workload.phases[0].demand"),
    (("platform", "big_opp", "frequencies_hz", 1), "x",
     "spec.platform.big_opp.frequencies_hz[1]"),
    (("platform", "fan_power_w", 0), True, "spec.platform.fan_power_w[0]"),
    (("platform", "fan_conductance_gain", 1), float("inf"),
     "spec.platform.fan_conductance_gain[1]"),
    (("platform", "leakage", "gpu", "c1"), "0.5",
     "spec.platform.leakage[gpu].c1"),
    (("platform", "cores_per_cluster"), 2.0,
     "spec.platform.cores_per_cluster"),
])
def test_ill_typed_scalar_is_a_wire_error_naming_its_path(path, value, where):
    payload = _with(spec_to_wire(_everything_set_spec()), path, value)
    with pytest.raises(WireError) as err:
        spec_from_wire(payload)
    assert str(err.value).startswith(where + " must be")


@pytest.mark.parametrize("field, value, where", [
    ("guard_bands_k", ["x"], "matrix.guard_bands_k[0]"),
    ("guard_bands_k", [None, True], "matrix.guard_bands_k[1]"),
    ("base_seed", "1", "matrix.base_seed"),
    ("warm_start_c", [], "matrix.warm_start_c"),
])
def test_ill_typed_matrix_scalar_names_its_path(field, value, where):
    payload = dict(matrix_to_wire(_pair_schedule_matrix()), **{field: value})
    with pytest.raises(WireError) as err:
        matrix_from_wire(payload)
    assert str(err.value).startswith(where + " must be")


# ---------------------------------------------------------------------------
# property: generated specs and grids keep their bytes and content keys
# ---------------------------------------------------------------------------
_ALL_MODES = list(ThermalMode)


def _number(low, high):
    """A finite float, or an int: an int in a float field stays an int."""
    return st.one_of(
        st.floats(min_value=low, max_value=high, allow_nan=False),
        st.integers(min_value=int(low), max_value=int(high)),
    )


@st.composite
def _workloads(draw):
    if draw(st.booleans()):
        return get_benchmark(draw(st.sampled_from(benchmark_names())))
    return synthesize(
        draw(st.sampled_from(["low", "medium", "high"])),
        duration_s=draw(st.floats(min_value=0.5, max_value=60.0)),
        threads=draw(st.integers(min_value=1, max_value=4)),
        gpu_demand=draw(st.sampled_from([0.0, 0.4])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        # a custom trace under a registered name still travels inline
        name=draw(st.sampled_from(["gen-app", "dijkstra"])),
        num_phases=draw(st.integers(min_value=0, max_value=3)),
    )


@st.composite
def _configs(draw):
    period, substep = draw(st.sampled_from([(0.1, 0.01), (0.2, 0.05)]))
    return SimulationConfig(
        control_period_s=period,
        thermal_substep_s=substep,
        ambient_c=draw(_number(10, 40)),
        t_constraint_c=draw(_number(50, 90)),
        prediction_horizon_steps=draw(st.integers(min_value=1, max_value=30)),
        min_big_cores=draw(st.integers(min_value=1, max_value=4)),
        temp_sensor_noise_c=draw(_number(0, 1)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )


@st.composite
def _platforms(draw):
    changes = {}
    if draw(st.booleans()):
        freqs = tuple(sorted(draw(st.lists(
            st.floats(min_value=1e8, max_value=3e9), min_size=2, max_size=6,
            unique=True,
        ))))
        changes["big_opp"] = OppTable(
            name="gen-big", frequencies_hz=freqs,
            voltage_curve=VoltageCurve(
                f_low_hz=freqs[0], v_low=0.9, f_high_hz=freqs[-1],
                v_high=draw(st.floats(min_value=0.9, max_value=1.5)),
            ),
        )
    if draw(st.booleans()):
        leakage = dict(LEAKAGE_SPECS)
        leakage[draw(st.sampled_from(list(Resource)))] = LeakageSpec(
            c1=draw(_number(0, 5)), c2=-draw(_number(500, 3000)),
            i_gate=draw(_number(0, 1)),
        )
        if draw(st.booleans()):
            del leakage[Resource.MEM]
        changes["leakage"] = leakage
    if draw(st.booleans()):
        fans = st.lists(_number(0, 4), min_size=1, max_size=4).map(tuple)
        changes["fan_power_w"] = draw(fans)
        changes["fan_conductance_gain"] = draw(fans)
    if draw(st.booleans()):
        changes["cores_per_cluster"] = draw(st.integers(1, 8))
        changes["mem_vdd"] = draw(_number(1, 2))
    return PlatformSpec(**changes)


@st.composite
def _run_specs(draw):
    history = tuple(draw(st.lists(_workloads(), max_size=3)))
    mode = draw(st.sampled_from(_ALL_MODES))
    history_modes = draw(st.one_of(
        st.just(()),
        st.tuples(*[st.sampled_from(_ALL_MODES)] * len(history)),
    ))
    dtpm = mode is ThermalMode.DTPM or ThermalMode.DTPM in history_modes
    return RunSpec(
        workload=draw(_workloads()),
        mode=mode,
        config=draw(st.none() | _configs()),
        platform=draw(st.none() | _platforms()),
        guard_band_k=draw(st.none() | _number(0, 5)) if dtpm else None,
        warm_start_c=draw(st.none() | _number(20, 90)),
        max_duration_s=draw(_number(1, 3600)),
        seed=draw(st.none() | st.integers(min_value=0, max_value=2**32)),
        history=history,
        idle_gap_s=draw(_number(0, 600)) if history else 0.0,
        history_modes=history_modes,
    )


@st.composite
def _matrices(draw):
    modes = tuple(draw(st.lists(
        st.sampled_from(_ALL_MODES), min_size=1, max_size=4, unique=True,
    )))
    guard_bands = (None,)
    if modes == (ThermalMode.DTPM,):
        guard_bands = tuple(draw(st.lists(
            st.none() | _number(0, 5), min_size=1, max_size=3,
        )))
    entry = st.one_of(
        _workloads(), st.tuples(_workloads(), st.sampled_from(_ALL_MODES)),
    )
    schedules = tuple(
        tuple(schedule)
        for schedule in draw(st.lists(
            st.lists(entry, min_size=1, max_size=3), max_size=2,
        ))
    )
    return ExperimentMatrix(
        workloads=tuple(draw(st.lists(
            _workloads(), min_size=0 if schedules else 1, max_size=3,
        ))),
        modes=modes,
        configs=tuple(draw(st.lists(
            st.none() | _configs(), min_size=1, max_size=2,
        ))),
        guard_bands_k=guard_bands,
        platform=draw(st.none() | _platforms()),
        warm_start_c=draw(st.none() | _number(20, 90)),
        max_duration_s=draw(_number(1, 3600)),
        base_seed=draw(st.none() | st.integers(min_value=0, max_value=2**20)),
        schedules=schedules,
        idle_gap_s=draw(_number(0, 120)),
    )


def _json_round_trip(value, to_wire, from_wire):
    """Decode ``value``'s wire JSON; equal, and re-encodes to its bytes."""
    text = json.dumps(to_wire(value))
    decoded = from_wire(json.loads(text))
    assert decoded == value
    assert json.dumps(to_wire(decoded)) == text
    return decoded


@settings(max_examples=150, deadline=None)
@given(_run_specs())
def test_generated_spec_round_trip_keeps_bytes_and_key(spec):
    decoded = _json_round_trip(spec, spec_to_wire, spec_from_wire)
    assert spec_key(decoded) == spec_key(spec)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_generated_matrix_round_trip_keeps_every_spec_key(matrix):
    decoded = _json_round_trip(matrix, matrix_to_wire, matrix_from_wire)
    assert [spec_key(s) for s in decoded.specs()] == [
        spec_key(s) for s in matrix.specs()
    ]
