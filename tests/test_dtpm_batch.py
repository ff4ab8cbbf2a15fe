"""The batched DTPM step: a stack of B governors equals B one-lane runs.

:meth:`DtpmGovernor.stack` joins the governors of ``B`` lanes into one
controller whose :meth:`~DtpmGovernor.control` updates alpha*C, predicts
power and tests for violations as array passes over all lanes.  A plain
governor runs as the one-lane stack of itself, so these tests pin that
the lane axis never mixes lanes: every lane of a stack produces exactly
the bytes, decisions and alpha*C state it produces alone.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.dtpm import DtpmGovernor
from repro.errors import ConfigurationError
from repro.governors.base import PlatformConfig
from repro.platform.board import SensorSnapshot
from repro.platform.specs import POWER_RESOURCES, PlatformSpec, Resource
from repro.runner import make_dtpm_governor, result_bytes
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.units import celsius_to_kelvin, mhz
from repro.workloads.generator import synthesize

#: Per lane: (category, threads, seed, constraint C, guard band K, warm C).
#: Lane 0's constraint is out of reach: it offlines cores, migrates to
#: the little cluster and comes back.  Lane 3 never predicts a violation.
LANES = (
    ("high", 4, 3, 42.0, 0.75, 38.0),
    ("high", 2, 5, 63.0, 0.0, 60.0),
    ("medium", 2, 7, 58.0, 1.5, 55.0),
    ("high", 2, 9, 61.0, 0.3, 52.0),
)


def _alpha_c_state(governor):
    return [
        (
            governor.power_model[r].dynamic.estimator.alpha_c_f,
            governor.power_model[r].dynamic.estimator.sample_count,
        )
        for r in POWER_RESOURCES
    ]


def _sims(models):
    sims = []
    for category, threads, seed, t_c, guard, warm in LANES:
        config = SimulationConfig(t_constraint_c=t_c)
        sims.append(
            Simulator(
                synthesize(category, 30.0, threads=threads, seed=seed),
                ThermalMode.DTPM,
                dtpm=make_dtpm_governor(models, config=config, guard_band_k=guard),
                config=config,
                warm_start_c=warm,
                max_duration_s=60.0,
                seed=seed,
            )
        )
    return sims


def test_stacked_control_equals_one_lane_runs(models):
    serial_sims = _sims(models)
    serial = [sim.run() for sim in serial_sims]
    batch_sims = _sims(models)
    batched = BatchSimulator(batch_sims).run()

    assert min(len(r.trace) for r in serial) >= 300
    assert serial[0].cluster_migrations >= 2 and serial[0].cores_offlined > 0
    assert [r.violations_predicted > 0 for r in serial] == [True] * 3 + [False]
    for one, many, sim_one, sim_many in zip(
        serial, batched, serial_sims, batch_sims
    ):
        assert result_bytes(one) == result_bytes(many)
        assert _alpha_c_state(sim_one.dtpm) == _alpha_c_state(sim_many.dtpm)


def test_alpha_c_carries_into_the_next_run(models):
    """A governor re-stacked for a second run continues from its alpha*C,
    whether its first run was alone or in a batch."""
    alone, together = _sims(models)[:2], _sims(models)[:2]
    for sim in alone:
        sim.run()
    BatchSimulator(together).run()

    def rerun(sims):
        return [
            Simulator(
                synthesize("medium", 10.0, threads=2, seed=31 + k),
                ThermalMode.DTPM,
                dtpm=sim.dtpm,
                config=sim.config,
                warm_start_c=None,
                max_duration_s=20.0,
                seed=31 + k,
            )
            for k, sim in enumerate(sims)
        ]

    second_alone = [sim.run() for sim in rerun(alone)]
    second_together = BatchSimulator(rerun(together)).run()
    for one, many, sim_one, sim_many in zip(
        second_alone, second_together, alone, together
    ):
        assert result_bytes(one) == result_bytes(many)
        assert _alpha_c_state(sim_one.dtpm) == _alpha_c_state(sim_many.dtpm)


def _snapshot(temps_c, powers):
    return SensorSnapshot(
        time_s=1.0,
        temperatures_k=celsius_to_kelvin(np.asarray(temps_c, dtype=float)),
        powers_w=np.asarray(powers, dtype=float),
        platform_power_w=5.0,
    )


def test_stacked_lanes_read_live_alpha_c(models):
    """A lane's own power model is a view of its stacked row."""
    governors = [make_dtpm_governor(models) for _ in range(3)]
    stacked = DtpmGovernor.stack(governors)
    config = PlatformConfig(
        cluster=Resource.BIG,
        big_freq_hz=mhz(1600),
        little_freq_hz=mhz(1200),
        gpu_freq_hz=mhz(177),
        big_online=4,
        little_online=4,
    )
    powers = np.array([[2.3, 0.01, 0.2, 0.25], [1.1, 0.01, 0.4, 0.3],
                       [0.6, 0.01, 0.1, 0.2]])
    stacked.control(
        _snapshot(np.full((3, 4), 50.0), powers),
        [config] * 3,
        [config] * 3,
        [False] * 3,
    )
    alone = make_dtpm_governor(models)
    alone.control(_snapshot(np.full(4, 50.0), powers[1]), config, config)
    assert _alpha_c_state(governors[1]) == _alpha_c_state(alone)
    assert governors[0].power_model[Resource.BIG].dynamic.estimator.sample_count == 1


def test_stack_rejects_repeated_governors_and_mixed_specs(models):
    governor = make_dtpm_governor(models)
    with pytest.raises(ConfigurationError):
        DtpmGovernor.stack([governor, governor])
    other_spec = make_dtpm_governor(
        models, spec=PlatformSpec(mem_vdd=1.3)
    )
    with pytest.raises(ConfigurationError):
        DtpmGovernor.stack([governor, other_spec])
