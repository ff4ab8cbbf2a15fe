"""On-disk store for identified model bundles.

Building a :class:`~repro.sim.models.ModelBundle` means running the whole
Chapter-4 methodology (furnace characterization + PRBS campaign + system
identification) -- about 3.5 s of wall clock for the default 1050 s
campaign on a 2-core x86 host, plus about 1.5 s when the furnace runs
too; by far the most expensive step of a warm-cache sweep.  The outcome
is tiny (a 4x4 state space plus four leakage fits), so the store keeps it
as canonical JSON next to the run results, keyed by a stable hash of the
build inputs.

:func:`cached_build_models` is the drop-in replacement for
:func:`repro.sim.models.build_models` used by the CLI and the benchmark
harness whenever a cache directory is configured.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from repro.config import SimulationConfig
from repro.errors import ModelError
from repro.platform.specs import (
    NUM_THERMAL_SENSORS,
    POWER_RESOURCES,
    PlatformSpec,
)
from repro.power.characterization import default_power_model
from repro.power.leakage import LeakageModel
from repro.runner.cache import atomic_write, default_cache_dir, loads_json
from repro.runner.spec import _digest, canonical_json
from repro.sim.models import ModelBundle, build_models
from repro.thermal.state_space import DiscreteThermalModel

#: Bumped when the identification pipeline changes behaviourally.
MODELS_FORMAT = 1


def models_key(
    spec: Optional[PlatformSpec] = None,
    config: Optional[SimulationConfig] = None,
    prbs_duration_s: float = 1050.0,
    run_furnace: bool = False,
    method: str = "structured",
) -> str:
    """Stable identity of one ``build_models`` invocation."""
    material = {
        "format": MODELS_FORMAT,
        "spec": spec,
        "config": config,
        "prbs_duration_s": prbs_duration_s,
        "run_furnace": run_furnace,
        "method": method,
    }
    return _digest(canonical_json(material))


def models_to_payload(models: ModelBundle) -> dict:
    """Serialise the identified models (thermal state space + leakage)."""
    thermal = models.thermal
    return {
        "thermal": {
            "a": thermal.a.tolist(),
            "b": thermal.b.tolist(),
            "offset": thermal.offset.tolist(),
            "ts_s": thermal.ts_s,
        },
        "leakage": {
            str(r.value): {
                "c1": models.power.models[r].leakage.c1,
                "c2": models.power.models[r].leakage.c2,
                "i_gate": models.power.models[r].leakage.i_gate,
            }
            for r in POWER_RESOURCES
        },
    }


def payload_to_models(
    payload: dict, spec: Optional[PlatformSpec] = None
) -> ModelBundle:
    """Rebuild a ModelBundle from :func:`models_to_payload` output.

    The power model is re-assembled from the platform's OPP tables with
    the stored leakage fits -- the same recipe ``make_dtpm_governor``
    applies per run, so a stored bundle behaves exactly like a fresh one.
    A thermal model that does not map the platform's power inputs onto
    its hotspots raises :class:`ModelError`.
    """
    t = payload["thermal"]
    thermal = DiscreteThermalModel(
        a=np.array(t["a"], dtype=float),
        b=np.array(t["b"], dtype=float),
        offset=np.array(t["offset"], dtype=float),
        ts_s=float(t["ts_s"]),
    )
    n, m = NUM_THERMAL_SENSORS, len(POWER_RESOURCES)
    if thermal.a.shape != (n, n) or thermal.b.shape != (n, m):
        raise ModelError(
            "stored thermal model has A %s and B %s; the platform needs "
            "A (%d, %d) and B (%d, %d)"
            % (thermal.a.shape, thermal.b.shape, n, n, n, m)
        )
    power = default_power_model(spec or PlatformSpec())
    for resource in POWER_RESOURCES:
        fit = payload["leakage"][str(resource.value)]
        power.models[resource].leakage = LeakageModel(
            c1=float(fit["c1"]), c2=float(fit["c2"]), i_gate=float(fit["i_gate"])
        )
    return ModelBundle(thermal=thermal, power=power)


def _store_path(root: str, key: str) -> str:
    return os.path.join(root, "models", key + ".json")


def cached_build_models(
    root: Optional[str] = None,
    spec: Optional[PlatformSpec] = None,
    config: Optional[SimulationConfig] = None,
    prbs_duration_s: float = 1050.0,
    run_furnace: bool = False,
    method: str = "structured",
) -> ModelBundle:
    """``build_models`` with an on-disk memo under ``root``.

    Without a root (and with ``REPRO_CACHE_DIR`` unset) this degrades to a
    plain build.
    """
    root = root or default_cache_dir()
    if root is None:
        return build_models(
            spec=spec,
            config=config,
            prbs_duration_s=prbs_duration_s,
            run_furnace=run_furnace,
            method=method,
        )
    key = models_key(
        spec=spec,
        config=config,
        prbs_duration_s=prbs_duration_s,
        run_furnace=run_furnace,
        method=method,
    )
    path = _store_path(os.path.abspath(root), key)
    try:
        with open(path, "rb") as fh:
            return payload_to_models(loads_json(fh.read()), spec=spec)
    except (
        OSError, ValueError, KeyError, TypeError, OverflowError, ModelError
    ):
        pass  # no entry, or one that does not rebuild: build and overwrite
    models = build_models(
        spec=spec,
        config=config,
        prbs_duration_s=prbs_duration_s,
        run_furnace=run_furnace,
        method=method,
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write(path, json.dumps(models_to_payload(models)).encode("utf-8"))
    return models
