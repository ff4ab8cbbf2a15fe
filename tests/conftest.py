"""Shared fixtures of the unit tests (``models`` lives in the root
``conftest.py``, shared with the benchmark harness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.platform.specs import PlatformSpec


@pytest.fixture(scope="session")
def spec() -> PlatformSpec:
    """The default (paper-calibrated) platform spec."""
    return PlatformSpec()


@pytest.fixture(scope="session")
def config() -> SimulationConfig:
    """The default simulation configuration."""
    return SimulationConfig()


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(1234)
