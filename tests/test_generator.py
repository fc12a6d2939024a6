"""Tests for the synthetic trace generator (repro.workloads.generator)."""

import numpy as np
import pytest

from repro.core.exceptions import WorkloadError
from repro.core.types import JobStatus
from repro.runner import run_study
from repro.workloads.generator import (
    MONTH_SECONDS,
    JobSynthesizer,
    TraceGeneratorConfig,
    plan_submissions,
)
from repro.workloads.transpile_classes import ClassRankTable
from repro.workloads.users import MachineSelectionPolicy, UserProfile


def _trace(**knobs):
    config = TraceGeneratorConfig(**knobs)
    return run_study(config=config, workers=1, use_cache=False).trace


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
