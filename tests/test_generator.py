"""Tests for the synthetic trace generator (repro.workloads.generator)."""

import dataclasses

import numpy as np
import pytest

from repro.cloud.job import CircuitBatch, Job
from repro.core.exceptions import WorkloadError
from repro.core.rng import RandomSource
from repro.core.types import JobStatus
from repro.runner import run_study
from repro.runner.sharding import plan_shards
from repro.workloads.generator import (
    MONTH_SECONDS,
    SYNTHESIS_CHUNK,
    JobSynthesizer,
    TraceGeneratorConfig,
    plan_submissions,
)
from repro.workloads.transpile_classes import ClassRankTable
from repro.workloads.users import MachineSelectionPolicy, UserProfile
from rowpath import RowPathSynthesizer


def _trace(**knobs):
    config = TraceGeneratorConfig(**knobs)
    return run_study(config=config, workers=1).trace


class TestConfig:
    def test_monthly_counts_sum_to_total(self):
        # The last three overshoot by more than the last month holds.
        for total_jobs, months, growth_ratio in [
                (500, 10, 8.0), (42, 28, 1.0), (3, 5, 1.0), (6, 8, 2.0)]:
            config = TraceGeneratorConfig(total_jobs=total_jobs, months=months,
                                          growth_ratio=growth_ratio)
            counts = config.jobs_per_month()
            assert sum(counts) == total_jobs, counts
            assert len(counts) == months
            assert min(counts) >= 0, counts

    def test_monthly_counts_grow(self):
        config = TraceGeneratorConfig(total_jobs=2000, months=12, growth_ratio=10.0)
        counts = config.jobs_per_month()
        assert counts[-1] > 3 * max(counts[0], 1)

    def test_invalid_config_rejected(self):
        with pytest.raises(WorkloadError):
            TraceGeneratorConfig(total_jobs=0)
        with pytest.raises(WorkloadError):
            TraceGeneratorConfig(months=0)
        with pytest.raises(WorkloadError):
            TraceGeneratorConfig(growth_ratio=0)
        # Seeds and sizes the streams cannot be seeded from, or that would
        # be truncated there but fingerprinted as given.
        for knobs in ({"seed": -1}, {"seed": -2}, {"seed": "abc"},
                      {"seed": 1.5}, {"seed": True}, {"seed": None},
                      {"total_jobs": 10.5}, {"total_jobs": "10"},
                      {"months": 2.5}, {"months": False}):
            with pytest.raises(WorkloadError):
                TraceGeneratorConfig(**knobs)

    def test_numpy_integers_are_integers(self):
        config = TraceGeneratorConfig(total_jobs=np.int64(20),
                                      months=np.int32(2), seed=np.int64(0))
        assert config.jobs_per_month() == TraceGeneratorConfig(
            total_jobs=20, months=2, seed=0).jobs_per_month()


def _metric_rows(specs):
    return np.array([[getattr(spec, name)
                      for name in CircuitBatch.METRIC_FIELDS]
                     for spec in specs], dtype=np.int64).reshape(-1, 5)


def _assert_same_jobs(batched, reference):
    """Every Job field equal; batches equal in base row and variants,
    or, against the row path, circuit for circuit."""
    assert len(batched) == len(reference)
    assert any(job is not None for job in batched)
    for new, old in zip(batched, reference):
        assert (new is None) == (old is None)
        if new is None:
            continue
        for field in dataclasses.fields(Job):
            if field.name != "circuits":
                assert getattr(new, field.name) == getattr(old, field.name), \
                    (new.job_id, field.name)
        batch = new.circuits
        assert isinstance(batch, CircuitBatch)
        if isinstance(old.circuits, CircuitBatch):
            assert batch.base == old.circuits.base
            assert batch.variants.dtype == old.circuits.variants.dtype
            assert np.array_equal(batch.variants, old.circuits.variants)
            assert batch == old.circuits
            continue
        assert len(batch) == len(old.circuits)
        rows = _metric_rows(old.circuits)
        assert np.array_equal(batch.variants, rows[:batch.num_variants])
        assert (rows[batch.num_variants:] == batch.base).all()
        assert list(batch) == old.circuits


class TestSynthesiseMany:
    """The chunked, vectorised path equals per-job synthesis and the
    row-path reference job for job."""

    def test_every_shard_matches_per_job_and_row_path(self):
        config = TraceGeneratorConfig(total_jobs=200, months=2, seed=7)
        fleet = config.build_fleet()
        synthesizer = JobSynthesizer(config, fleet)
        rowpath = RowPathSynthesizer(config, fleet)
        shards = plan_shards(config, plan_submissions(config), 2)
        for shard in shards:
            batched = synthesizer.synthesise_many(shard.submissions)
            _assert_same_jobs(batched, [synthesizer.synthesise(planned)
                                        for planned in shard.submissions])
            _assert_same_jobs(batched, [rowpath.synthesise(planned)
                                        for planned in shard.submissions])

    def test_a_call_across_the_chunk_boundary(self):
        config = TraceGeneratorConfig(total_jobs=1100, months=6, seed=7)
        fleet = config.build_fleet()
        plan = plan_submissions(config)
        assert len(plan) > SYNTHESIS_CHUNK
        synthesizer = JobSynthesizer(config, fleet)
        batched = synthesizer.synthesise_many(plan)
        _assert_same_jobs(batched, [synthesizer.synthesise(planned)
                                    for planned in plan])
        # The row path is ~10x slower: check the jobs around the boundary.
        window = slice(SYNTHESIS_CHUNK - 40, SYNTHESIS_CHUNK + 40)
        rowpath = RowPathSynthesizer(config, fleet)
        _assert_same_jobs(batched[window], [rowpath.synthesise(planned)
                                            for planned in plan[window]])

    def test_only_the_job_streams_are_random_sources(self, monkeypatch):
        config = TraceGeneratorConfig(total_jobs=300, months=3, seed=7)
        plan = plan_submissions(config)
        synthesizer = JobSynthesizer(config, config.build_fleet())
        synthesizer.synthesise_many(plan)  # warms the memo caches
        constructed = []
        original = RandomSource.__init__

        def counting(self, *args, **kwargs):
            constructed.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RandomSource, "__init__", counting)
        jobs = synthesizer.synthesise_many(plan)
        # One spawned stream per job; the jittered circuits (the per-job
        # path built one stream each) build none.
        assert sum(min(len(job.circuits), 16) for job in jobs) > len(plan)
        assert len(constructed) == len(plan)


class _FirstMachineTable(ClassRankTable):
    """A rank table that picks the first eligible machine, transpiling
    nothing, and keeps every pending estimate it is given."""

    def __init__(self):
        super().__init__()
        self.estimates = []

    def select(self, family, width, eligible, pending_estimate=None):
        self.estimates.append(pending_estimate)
        return eligible[0]


class TestPendingEstimate:
    """Synthesis computes the expected pending load only for the
    selections that read it."""

    CONFIG = TraceGeneratorConfig(
        total_jobs=150, months=2, seed=7,
        users=[UserProfile(policy.value, policy)
               for policy in MachineSelectionPolicy])

    @staticmethod
    def _probes_per_job(synthesizer):
        """Synthesise every planned job; map each to its estimator calls."""
        calls = []
        estimator = synthesizer._pending

        def counting(backend, timestamp):
            calls.append(backend.name)
            return estimator(backend, timestamp)

        synthesizer._pending = counting
        probes = {}
        for planned in plan_submissions(synthesizer.config):
            calls.clear()
            job = synthesizer.synthesise(planned)
            probes[job.job_id] = (job, len(calls))
        return probes

    def test_only_queue_sensitive_policies_run_the_estimator(self):
        config = self.CONFIG
        probes = self._probes_per_job(
            JobSynthesizer(config, config.build_fleet()))
        readers = {MachineSelectionPolicy.LEAST_QUEUE,
                   MachineSelectionPolicy.BALANCED}
        seen = set()
        for job, count in probes.values():
            policy = MachineSelectionPolicy(job.metadata["user_policy"])
            seen.add(policy)
            assert (count > 0) == (policy in readers), (job.job_id, policy)
        assert seen == set(MachineSelectionPolicy)

    def test_rank_mode_runs_the_estimator_for_every_job(self):
        config = self.CONFIG
        table = _FirstMachineTable()
        probes = self._probes_per_job(
            JobSynthesizer(config, config.build_fleet(), rank_table=table))
        assert len(table.estimates) == len(probes)
        for (_, count), estimate in zip(probes.values(), table.estimates):
            assert count == len(estimate) > 0


class TestGeneratedTrace:
    def test_job_count_matches_config(self, small_trace):
        assert 380 <= len(small_trace) <= 400

    def test_every_job_reaches_a_terminal_state(self, small_trace):
        terminal = {JobStatus.DONE.value, JobStatus.ERROR.value,
                    JobStatus.CANCELLED.value}
        assert set(small_trace.column("status")) <= terminal

    def test_most_jobs_succeed(self, small_trace):
        """Fig. 2b: around 95 % of jobs execute to completion."""
        statuses = small_trace.status_counts()
        done_fraction = statuses.get("DONE", 0) / len(small_trace)
        assert done_fraction > 0.9

    def test_timestamps_are_ordered(self, small_trace):
        for record in small_trace:
            if record.start_time is not None:
                assert record.start_time >= record.submit_time
            if record.end_time is not None and record.start_time is not None:
                assert record.end_time >= record.start_time

    def test_submit_times_fall_in_study_window(self, small_trace):
        months = 12
        for record in small_trace:
            assert 0 <= record.submit_time <= months * MONTH_SECONDS * 1.01
            assert 0 <= record.month_index < months

    def test_batch_and_shots_within_ibm_limits(self, small_trace):
        assert max(small_trace.column("batch_size")) <= 900
        assert max(small_trace.column("shots")) <= 8192

    def test_circuits_fit_their_machines(self, small_trace):
        for record in small_trace:
            assert record.circuit_width <= record.machine_qubits

    def test_job_volume_grows_over_time(self, medium_trace):
        """Fig. 2a: usage accelerates over the study period."""
        by_month = medium_trace.group_by_month()
        months = sorted(by_month)
        first_half = sum(len(by_month[m]) for m in months[: len(months) // 2])
        second_half = sum(len(by_month[m]) for m in months[len(months) // 2:])
        assert second_half > 2 * first_half

    def test_public_machines_receive_more_jobs(self, medium_trace):
        """Fig. 9: load concentrates on public machines."""
        public_jobs = len(medium_trace.filter(lambda r: r.access == "public"))
        privileged_jobs = len(medium_trace) - public_jobs
        assert public_jobs > 0 and privileged_jobs > 0

    def test_queue_times_dominate_run_times(self, medium_trace):
        """Insight 7: execution is ~0.1x of queuing on average."""
        ratios = medium_trace.numeric_column("queue_to_run_ratio")
        assert np.median(ratios) > 2.0

    def test_utilization_lower_on_larger_machines(self, medium_trace):
        small_machines = medium_trace.filter(lambda r: r.machine_qubits <= 7)
        large_machines = medium_trace.filter(lambda r: r.machine_qubits >= 27)
        if len(small_machines) and len(large_machines):
            small_util = np.median(small_machines.numeric_column("utilization"))
            large_util = np.median(large_machines.numeric_column("utilization"))
            assert small_util > large_util

    def test_reproducible_for_a_seed(self):
        first = _trace(total_jobs=60, months=6, seed=21)
        second = _trace(total_jobs=60, months=6, seed=21)
        assert len(first) == len(second)
        assert first.column("machine") == second.column("machine")
        assert np.allclose(first.numeric_column("queue_seconds"),
                           second.numeric_column("queue_seconds"))

    def test_different_seeds_differ(self):
        a = _trace(total_jobs=60, months=6, seed=1)
        b = _trace(total_jobs=60, months=6, seed=2)
        assert a.column("machine") != b.column("machine") or \
            not np.allclose(a.numeric_column("queue_seconds"),
                            b.numeric_column("queue_seconds"))
