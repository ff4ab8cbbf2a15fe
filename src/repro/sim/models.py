"""Model construction and process-wide caching.

Building the controller's models means running the whole Chapter-4
methodology: the furnace characterization for the leakage curves and the
PRBS campaign + system identification for the thermal model.  That costs a
couple of wall-clock seconds, so the default bundle is built once per
process and shared by tests, examples and benchmarks.
"""

from __future__ import annotations

from typing import Optional

from dataclasses import dataclass
from functools import lru_cache

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.platform.specs import PlatformSpec
from repro.power.characterization import FurnaceRig, default_power_model
from repro.power.model import PowerModel
from repro.thermal.state_space import DiscreteThermalModel
from repro.thermal.sysid import PrbsExperiment, SystemIdentifier


@dataclass(frozen=True)
class ModelBundle:
    """The two fitted models the DTPM controller runs on."""

    thermal: DiscreteThermalModel
    power: PowerModel


def build_models(
    spec: Optional[PlatformSpec] = None,
    config: Optional[SimulationConfig] = None,
    prbs_duration_s: float = 1050.0,
    run_furnace: bool = False,
    method: str = "structured",
) -> ModelBundle:
    """Run the Chapter-4 methodology end to end and return the models.

    Parameters
    ----------
    run_furnace:
        When true, the leakage models come from an actual simulated furnace
        characterization; otherwise the cached default fits are used (same
        procedure, run ahead of time -- see
        :func:`repro.power.characterization.default_power_model`).
    method:
        Which estimator turns the PRBS sessions into (A, B): "structured"
        (default -- symmetric-layout estimator, best hottest-core
        predictions), "staged" (the paper's per-resource protocol) or
        "joint" (single pooled least-squares solve).
    """
    identifier = SystemIdentifier()
    estimators = {
        "structured": identifier.identify_structured,
        "staged": identifier.identify_staged,
        "joint": identifier.identify,
    }
    # reject a bad name before the (seconds-long) campaign, not after it
    if method not in estimators:
        raise ConfigurationError(
            "unknown identification method %r (want one of %s)"
            % (method, sorted(estimators))
        )
    spec = spec or PlatformSpec()
    config = config or SimulationConfig()

    if run_furnace:
        rig = FurnaceRig(spec, config)
        power = rig.build_power_model()
    else:
        power = default_power_model(spec)

    experiment = PrbsExperiment(spec, config, duration_s=prbs_duration_s)
    thermal = estimators[method](experiment.run_all())
    return ModelBundle(thermal=thermal, power=power)


@lru_cache(maxsize=1)
def default_models() -> ModelBundle:
    """The default platform's model bundle, built once per process."""
    return build_models()
