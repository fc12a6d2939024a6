"""Shared fixtures for the test suite.

Expensive fixtures (the small study trace, the full fleet) are session-scoped
so the suite stays fast while still exercising realistic data volumes.
"""

from __future__ import annotations

import pytest

from repro.devices import build_backend, fleet_in_study
from repro.runner import run_study
from repro.workloads import TraceGeneratorConfig


@pytest.fixture(scope="session")
def fleet():
    """The full study fleet (28 backends including the hosted simulator)."""
    return fleet_in_study(seed=3)


@pytest.fixture(scope="session")
def casablanca():
    """A small privileged 7-qubit machine used by many unit tests."""
    return build_backend("ibmq_casablanca", seed=3)


@pytest.fixture(scope="session")
def athens():
    """A popular public 5-qubit machine."""
    return build_backend("ibmq_athens", seed=3)


@pytest.fixture(scope="session")
def manhattan():
    """The 65-qubit machine (largest in the study)."""
    return build_backend("ibmq_manhattan", seed=3)


@pytest.fixture(scope="session")
def small_trace():
    """A reduced study trace: 400 jobs over 12 months (fast to generate)."""
    config = TraceGeneratorConfig(total_jobs=400, months=12, seed=11)
    return run_study(config=config, workers=1, use_cache=False).trace


@pytest.fixture(scope="session")
def medium_trace():
    """A medium trace used by analysis/prediction tests (700 jobs, 20 months)."""
    config = TraceGeneratorConfig(total_jobs=700, months=20, seed=5)
    return run_study(config=config, workers=1, use_cache=False).trace
