"""Golden byte-equivalence of the batched simulation engine.

The contract of :mod:`repro.cloud.fastsim` is *byte-identical traces*: for
every scenario perturbation and any worker/shard count, a study simulated
through the batched engine produces the same ``.npz`` bytes as the
reference discrete-event loop.  These tests pin that contract at three
levels — the raw engine (terminal job states for any pre-draw block size),
the sharded runner (npz file bytes against the event loop, for one and
several workers and shards) and the scenario layer (every builtin catalog
perturbation).
"""

import pytest

from repro.cloud.fastsim import simulate_fleet
from repro.cloud.service import QuantumCloudService
from repro.core.types import JobStatus
from repro.runner import run_study
from repro.scenarios import builtin_scenarios, expand_sweeps
from repro.workloads.generator import (
    JobSynthesizer,
    TraceGeneratorConfig,
    plan_submissions,
    record_for,
)
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset

CONFIG = dict(total_jobs=90, months=3, seed=23)

#: Job fields that define a terminal simulation outcome.
_FIELDS = ("job_id", "status", "queue_enter_time", "start_time",
           "end_time", "pending_ahead")


def _synthesise(config):
    """A fresh, independent job list for one engine run.

    Simulation mutates jobs in place, so each engine must get its own
    copy; synthesis is deterministic, so two passes yield identical jobs.
    """
    fleet = config.build_fleet()
    synthesizer = JobSynthesizer(config, fleet)
    jobs = [synthesizer.synthesise(planned)
            for planned in plan_submissions(config)]
    return fleet, [job for job in jobs if job is not None]


def _event_loop(config):
    """(fleet, jobs) after the reference event loop ran every job through
    one QuantumCloudService; jobs in submission order."""
    fleet, jobs = _synthesise(config)
    service = QuantumCloudService(fleet, seed=config.seed,
                                  failure_model=config.build_failure_model())
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    for job in ordered:
        service.submit(job)
    service.drain()
    return fleet, ordered


def _event_outcomes(config):
    return _outcomes(_event_loop(config)[1])


def _batched_outcomes(config, block_size):
    fleet, jobs = _synthesise(config)
    simulate_fleet(fleet, jobs, seed=config.seed,
                   failure_model=config.build_failure_model(),
                   block_size=block_size)
    return _outcomes(jobs)


def _outcomes(jobs):
    return sorted(tuple(getattr(job, field) for field in _FIELDS)
                  for job in jobs)


# -- the raw engine ------------------------------------------------------------------


def test_engine_equality_across_block_sizes():
    """Terminal states match the event loop for any pre-draw block size.

    numpy generators are chunking-invariant, so the block size must be a
    pure performance knob — block 1 (draw-at-a-time) through block 1024
    all replay the exact draw sequence of the event loop's BufferedDraws.
    """
    config = TraceGeneratorConfig(**CONFIG)
    reference = _event_outcomes(config)
    statuses = {outcome[1] for outcome in reference}
    assert JobStatus.CANCELLED in statuses, \
        "fixture too small to exercise the cancel path"
    assert JobStatus.ERROR in statuses, \
        "fixture too small to exercise the error path"
    for block_size in (1, 7, 64, 1024):
        assert _batched_outcomes(config, block_size) == reference, \
            f"batched engine diverged at block_size={block_size}"


def test_engine_equality_other_seed_and_scale():
    config = TraceGeneratorConfig(total_jobs=140, months=4, seed=7)
    assert _batched_outcomes(config, 1024) == _event_outcomes(config)


# -- the sharded runner --------------------------------------------------------------


@pytest.fixture(scope="module")
def runner_config():
    return TraceGeneratorConfig(**CONFIG)


def _event_loop_trace(config):
    """The study trace the event loop yields in one process: its rows via
    record_for, with the metadata the runner's merge step writes."""
    fleet, jobs = _event_loop(config)
    return TraceDataset.from_records(
        [record_for(job, fleet) for job in jobs],
        metadata={"seed": config.seed, "total_jobs": len(jobs),
                  "months": config.months,
                  "trace_schema": TRACE_SCHEMA_VERSION})


def _assert_runner_matches_event_loop(config, tmp_path, workers, shards):
    result = run_study(config=config, workers=workers, num_shards=shards)
    assert "simulation" in result.metadata["phase_seconds"]
    runner_path = tmp_path / "runner.npz"
    reference_path = tmp_path / "event-loop.npz"
    result.trace.save(runner_path)
    _event_loop_trace(config).save(reference_path)
    assert runner_path.read_bytes() == reference_path.read_bytes()


def test_run_study_npz_bytes_identical(runner_config, tmp_path):
    """One worker, one shard: the runner's npz bytes equal the event loop's."""
    _assert_runner_matches_event_loop(runner_config, tmp_path, 1, 1)


def test_worker_and_shard_counts_do_not_change_bytes(runner_config,
                                                     tmp_path):
    """Two workers, three shards: still the event loop's bytes."""
    _assert_runner_matches_event_loop(runner_config, tmp_path, 2, 3)


# -- every builtin scenario perturbation ---------------------------------------------


def _catalog_variants():
    base = TraceGeneratorConfig(total_jobs=60, months=2, seed=11)
    variants = []
    for scenario in expand_sweeps(list(builtin_scenarios().values())):
        variants.append(pytest.param(scenario.apply_to(base),
                                     id=scenario.name))
    return variants


@pytest.mark.parametrize("config", _catalog_variants())
def test_catalog_scenarios_byte_identical(config):
    """Every catalog perturbation replays identically on both engines.

    Scenario perturbations reshape the fleet, the failure model and the
    demand curve — exactly the knobs whose draw sequences the batched
    engine inlines — so each one is a distinct equivalence fixture.
    """
    assert _batched_outcomes(config, 1024) == _event_outcomes(config)
