"""Model construction and process-wide caching.

Building the controller's models means running the whole Chapter-4
methodology: the furnace characterization for the leakage curves and the
PRBS campaign + system identification for the thermal model.  The default
bundle (the 1050 s campaign, default leakage fits) costs about 3.5 s of
wall clock on a 2-core x86 host, nearly all of it the campaign, so it is
built once per process and shared by tests, examples and benchmarks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from dataclasses import dataclass
from functools import lru_cache

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.platform.specs import PlatformSpec
from repro.power.characterization import FurnaceRig, default_power_model
from repro.power.model import PowerModel
from repro.thermal.state_space import DiscreteThermalModel
from repro.thermal.sysid import (
    IdentificationSession,
    PrbsExperiment,
    SystemIdentifier,
)


@dataclass(frozen=True)
class ModelBundle:
    """The two fitted models the DTPM controller runs on."""

    thermal: DiscreteThermalModel
    power: PowerModel


#: Identification method -> the :class:`SystemIdentifier` estimator that
#: turns the PRBS sessions into (A, B).  Looked up by name on every call,
#: so a wrapped estimator (a profiler's, say) is the one that runs.
ESTIMATORS = {
    "structured": "identify_structured",
    "staged": "identify_staged",
    "joint": "identify",
}


def _check_method(method: str) -> None:
    if method not in ESTIMATORS:
        raise ConfigurationError(
            "unknown identification method %r (want one of %s)"
            % (method, sorted(ESTIMATORS))
        )


def identify_thermal(
    sessions: Sequence[IdentificationSession], method: str = "structured"
) -> DiscreteThermalModel:
    """Identify the thermal model from PRBS sessions with one estimator.

    ``method`` is "structured" (default -- symmetric-layout estimator,
    best hottest-core predictions), "staged" (the paper's per-resource
    protocol) or "joint" (single pooled least-squares solve).  One
    campaign can serve every method.
    """
    _check_method(method)
    return getattr(SystemIdentifier(), ESTIMATORS[method])(sessions)


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
        Which estimator turns the PRBS sessions into (A, B); see
        :func:`identify_thermal`.
    """
    # reject a bad name before the (seconds-long) campaign, not after it
    _check_method(method)
    spec = spec or PlatformSpec()
    config = config or SimulationConfig()

    if run_furnace:
        rig = FurnaceRig(spec, config)
        power = rig.build_power_model()
    else:
        power = default_power_model(spec)

    experiment = PrbsExperiment(spec, config, duration_s=prbs_duration_s)
    thermal = identify_thermal(experiment.run_all(), method)
    return ModelBundle(thermal=thermal, power=power)


@lru_cache(maxsize=1)
def default_models() -> ModelBundle:
    """The default platform's model bundle, built once per process."""
    return build_models()
