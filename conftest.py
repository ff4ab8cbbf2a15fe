"""Fixtures shared by ``tests/`` and the ``benchmarks/`` harness.

The identified model bundle is the most expensive input of both suites.
Defining its fixture once here means one tier-1 session identifies the
default models once.  Set ``REPRO_CACHE_DIR`` to persist them across
sessions (and CI jobs) through the on-disk model store.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def models():
    """Characterized + identified model bundle (built once per session).

    Without a cache directory this is the process-wide
    :func:`~repro.sim.models.default_models` bundle, which the runner's
    default paths share; with one, the on-disk model store serves it.
    """
    from repro.runner import cached_build_models, default_cache_dir
    from repro.sim.models import default_models

    if default_cache_dir() is None:
        return default_models()
    return cached_build_models()
