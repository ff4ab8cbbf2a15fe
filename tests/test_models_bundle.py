"""Model-bundle construction (the Chapter-4 pipeline end to end)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.platform.specs import Resource
from repro.power.characterization import default_power_model
from repro.runner import model_fingerprint
from repro.sim.models import (
    ModelBundle,
    build_models,
    default_models,
    identify_thermal,
)
from repro.thermal.sysid import PrbsExperiment

#: ``model_fingerprint(build_models(prbs_duration_s=..., method=...))``
#: with the default leakage fits.  The 300 s structured one is also
#: perfbench's ``digests.json["models"]``.
FINGERPRINTS = {
    (1050.0, "structured"):
        "65d5df9a421528968b17e9b3804606de89a3192639bbe8122426baf4856fdacb",
    (300.0, "structured"):
        "511204fc793614bac4e0af4bc93ae9bd9cf853f7d1cabe9efcedf0745af8cd90",
    (300.0, "staged"):
        "34ffff9e921c9a5a956f455fc0928bc7611906c6a2c75af5f92d30511ec2a513",
    (300.0, "joint"):
        "03e03a41ea14ac5efd74963eb57598a1c35761ed4716e30fedb7b3ee647ac401",
}

#: ``model_fingerprint(build_models(prbs_duration_s=300.0,
#: run_furnace=True))``: the 300 s structured campaign with the fits of a
#: default :class:`~repro.power.characterization.FurnaceRig`.
FURNACE_FINGERPRINT = (
    "52ce67b274c5a5a6ba703459dbe0dd336bae7fcb03ba366c36b3f99dea758c99"
)


def test_default_models_cached():
    a = default_models()
    b = default_models()
    assert a is b


def test_bundle_contents(models):
    assert models.thermal.num_states == 4
    assert models.thermal.num_inputs == 4
    assert models.thermal.is_stable()
    for resource in Resource:
        assert models.power[resource] is not None
    assert model_fingerprint(models) == FINGERPRINTS[1050.0, "structured"]


def test_identification_method_selection():
    """One 300 s campaign serves every estimator."""
    sessions = PrbsExperiment(duration_s=300.0).run_all()
    bundles = {
        method: ModelBundle(
            thermal=identify_thermal(sessions, method),
            power=default_power_model(),
        )
        for method in ("joint", "staged", "structured")
    }
    for method, bundle in bundles.items():
        assert bundle.thermal.is_stable()
        assert model_fingerprint(bundle) == FINGERPRINTS[300.0, method]

    # the structured estimator retains the spread mode the others lose
    def spread_retention(model):
        t = np.array([340.0, 330.0, 330.0, 330.0])
        pred = model.predict_n_constant(t, np.full(4, 0.5), 10)
        return pred[0] - pred[1:].max()

    assert spread_retention(bundles["structured"].thermal) > spread_retention(
        bundles["joint"].thermal
    )


def test_unknown_method_rejected(monkeypatch):
    def no_campaign(self):
        raise AssertionError("the campaign ran before the name was checked")

    monkeypatch.setattr(PrbsExperiment, "run_all", no_campaign)
    with pytest.raises(ConfigurationError):
        build_models(prbs_duration_s=300.0, method="magic")
    with pytest.raises(ConfigurationError):
        identify_thermal([], "magic")


def test_furnace_backed_build():
    bundle = build_models(prbs_duration_s=300.0, run_furnace=True)
    assert bundle.thermal.is_stable()
    assert model_fingerprint(bundle) == FURNACE_FINGERPRINT
    # furnace-fitted big leakage close to the cached default fit
    cached = default_models()
    t, vdd = 330.0, 1.0
    assert bundle.power[Resource.BIG].leakage.power_w(t, vdd) == pytest.approx(
        cached.power[Resource.BIG].leakage.power_w(t, vdd), rel=0.2
    )
