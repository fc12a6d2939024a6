"""Shared fixtures for the figure-reproduction benchmark harness.

The harness regenerates the data series behind every figure of the paper's
evaluation.  A single full-scale synthetic study trace (about 6000 jobs over
28 months, matching the paper's dataset size) is produced once per session
through the parallel sharded study runner (:mod:`repro.runner`) and shared
by all benches.  Scale and execution knobs come from the environment:

``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_MONTHS`` / ``REPRO_BENCH_SEED``
    trace scale (defaults: 6000 jobs, 28 months, seed 7),
``REPRO_BENCH_WORKERS``
    worker processes for trace generation (default: one per core),
``REPRO_BENCH_CACHE``
    trace-cache directory (default ``.repro-cache``; set to an empty string
    to disable caching and regenerate every session).

Each bench prints the reproduced series/rows (via the ``emit`` fixture,
which bypasses pytest's output capture so the tables appear in the console
and in any ``tee`` log) and records timings through pytest-benchmark.
"""

from __future__ import annotations

import os

import pytest

from repro.core.env import env_int
from repro.devices import fleet_in_study
from repro.runner import default_workers, run_study
from repro.workloads import TraceGeneratorConfig

BENCH_JOBS = env_int("REPRO_BENCH_JOBS", 6000)
BENCH_MONTHS = env_int("REPRO_BENCH_MONTHS", 28)
BENCH_SEED = env_int("REPRO_BENCH_SEED", 7)
BENCH_WORKERS = env_int("REPRO_BENCH_WORKERS", default_workers())
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", ".repro-cache")

#: The paper-shape assertions (growth ratios, distribution medians, machine
#: coverage) only hold once the trace approaches the paper's scale, which is
#: where CI runs them.  Reduced runs (say 200 jobs / 2 months) still
#: exercise and time every analysis but skip those final assertions.
FULL_SCALE = BENCH_JOBS >= 2000 and BENCH_MONTHS >= 20


@pytest.fixture(scope="session")
def study_config():
    """The generator config every figure bench reproduces from."""
    return TraceGeneratorConfig(total_jobs=BENCH_JOBS, months=BENCH_MONTHS,
                                seed=BENCH_SEED)


@pytest.fixture(scope="session")
def study_trace(study_config):
    """The full-scale synthetic study trace shared by every figure bench."""
    result = run_study(config=study_config, workers=BENCH_WORKERS,
                       cache_dir=BENCH_CACHE or None)
    return result.trace


@pytest.fixture(scope="session")
def full_scale():
    """Whether the trace is big enough for the paper-shape assertions."""
    return FULL_SCALE


@pytest.fixture(scope="session")
def study_fleet():
    """The machine fleet of the study."""
    return fleet_in_study(seed=BENCH_SEED)


@pytest.fixture
def emit(capsys):
    """Print text to the real terminal, bypassing pytest capture."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _emit
