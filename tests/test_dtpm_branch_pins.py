"""Pinned result digests of DTPM branches the benchmark digests never reach.

``perfbench/digests.json`` pins the ``cold_dtpm`` lanes, but none of them
offlines a core or migrates to the little cluster, and the benchmark runs
no DTPM scenario chain.  These three runs cover what it cannot see; each
digest is the SHA-256 of :func:`~repro.runner.result_bytes` recorded
before the controller was batched over the lane axis, so any parity slip
in those branches fails here.

* the aggressive-constraint run of ``tests/test_cluster_migration.py``:
  cores go offline, the run migrates to the little cluster and back
  (the policy's return path and the little-cluster budget);
* a two-position DTPM ``diurnal`` chain: alpha*C carries across the
  positions through the per-lane governor;
* one lane with ``guard_band_k=0`` under a non-default constraint.
"""

import hashlib

from repro.config import SimulationConfig
from repro.runner import ExperimentMatrix, RunSpec, result_bytes
from repro.runner.execute import execute_schedule, execute_spec
from repro.sim.engine import Simulator, ThermalMode
from repro.sim.experiment import make_dtpm_governor
from repro.sim.scenario import diurnal
from repro.workloads.generator import synthesize

AGGRESSIVE_SHA256 = (
    "d453b8a024fd7c887c3ad7457172e39cb36eccd4914f8f9c2ccad49186ca656c"
)
CHAIN_SHA256 = (
    "43da2e3041870f181341cc6915012b0bed5a92869a1644ad6a4be4d0186c5f87",
    "5f8478373e12c3e111adf147aa16e0247d34dc353fab3e926f048baeeb5750fd",
)
NO_GUARD_SHA256 = (
    "6966b13fbda0ea3447f492f4ce0f453cf9e222096c6f5e2ca9bcab8ea1468e4b"
)


def _sha(result) -> str:
    return hashlib.sha256(result_bytes(result)).hexdigest()


def test_migrating_run_is_pinned(models):
    config = SimulationConfig(t_constraint_c=42.0)
    result = Simulator(
        synthesize("high", 30.0, threads=4, seed=3),
        ThermalMode.DTPM,
        dtpm=make_dtpm_governor(models, config=config),
        config=config,
        warm_start_c=38.0,
        max_duration_s=400.0,
    ).run()
    assert result.cluster_migrations >= 2 and result.cores_offlined > 0
    assert _sha(result) == AGGRESSIVE_SHA256


def test_dtpm_chain_carrying_alpha_c_is_pinned(models):
    day = [
        synthesize("high", 12.0, threads=2, seed=21),
        synthesize("medium", 12.0, threads=2, seed=22),
    ]
    specs = ExperimentMatrix(
        schedules=(diurnal(day, days=1),),
        modes=(ThermalMode.DTPM,),
        warm_start_c=60.0,
        idle_gap_s=5.0,
        base_seed=40,
    ).specs()
    assert len(specs) == 2
    chain = execute_schedule(specs[-1], models)
    assert tuple(_sha(r) for r in chain) == CHAIN_SHA256


def test_unguarded_lane_under_custom_constraint_is_pinned(models):
    result = execute_spec(
        RunSpec(
            workload=synthesize("high", 15.0, threads=2, seed=7),
            mode=ThermalMode.DTPM,
            config=SimulationConfig(t_constraint_c=58.0),
            guard_band_k=0.0,
            warm_start_c=56.0,
            seed=11,
        ),
        models,
    )
    assert result.interventions > 0
    assert _sha(result) == NO_GUARD_SHA256
