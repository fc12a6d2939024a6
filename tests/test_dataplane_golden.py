"""Golden-equivalence tests for the columnar data plane.

The columnar pipeline (CircuitBatch synthesis, vectorised execution-time
aggregation, columnar TraceDataset, npz cache) must be *value-identical* to
the row-at-a-time reference path (`rowpath.py` beside these tests) for the
same seed — same random draws, same floats, same records, same figure data.
"""

import numpy as np
import pytest

from repro.cloud.job import CircuitBatch
from repro.runner.cache import TraceCache, config_fingerprint
from repro.workloads.generator import (
    JobSynthesizer,
    TraceGeneratorConfig,
    plan_submissions,
    record_for,
)
from repro.workloads.trace import TraceDataset
from eventloop import EventLoopService as QuantumCloudService
from figure_suite import trace_figure_suite
from rowpath import (
    RowPathSynthesizer,
    figure_suite_rowpath,
    record_for_rowpath,
)

CONFIG = dict(total_jobs=90, months=5, seed=23)


@pytest.fixture(scope="module")
def config():
    return TraceGeneratorConfig(**CONFIG)


@pytest.fixture(scope="module")
def fleet(config):
    return config.build_fleet()


@pytest.fixture(scope="module")
def golden_jobs(config, fleet):
    """(columnar jobs, rowpath jobs, whole-plan batched jobs) synthesised
    from the same plan."""
    plan = plan_submissions(config)
    columnar = JobSynthesizer(config, fleet)
    rowpath = RowPathSynthesizer(config, fleet)
    return ([columnar.synthesise(p) for p in plan],
            [rowpath.synthesise(p) for p in plan],
            JobSynthesizer(config, fleet).synthesise_many(plan))


def _simulate(config, fleet, jobs):
    service = QuantumCloudService(fleet, seed=config.seed)
    submitted = [job for job in jobs if job is not None]
    for job in submitted:
        service.submit(job)
    service.drain()
    return submitted


@pytest.fixture(scope="module")
def golden_records(config, fleet, golden_jobs):
    """(columnar records, rowpath records) after full simulation."""
    columnar_jobs, rowpath_jobs, _ = golden_jobs
    columnar = [record_for(job, fleet)
                for job in _simulate(config, fleet, columnar_jobs)]
    rowpath = [record_for_rowpath(job, fleet)
               for job in _simulate(config, fleet, rowpath_jobs)]
    return columnar, rowpath


class TestSynthesisEquivalence:
    def test_same_jobs_synthesised(self, golden_jobs):
        columnar_jobs, rowpath_jobs, batched_jobs = golden_jobs
        for jobs in (columnar_jobs, batched_jobs):
            assert len(jobs) == len(rowpath_jobs)
            assert any(job is not None for job in jobs)
            for new, old in zip(jobs, rowpath_jobs):
                assert (new is None) == (old is None)
                if new is None:
                    continue
                assert new.job_id == old.job_id
                assert new.backend_name == old.backend_name
                assert new.provider == old.provider
                assert new.shots == old.shots
                assert new.compile_seconds == old.compile_seconds
                assert new.metadata == old.metadata

    def test_circuit_batches_match_spec_lists_exactly(self, golden_jobs):
        columnar_jobs, rowpath_jobs, batched_jobs = golden_jobs
        for jobs in (columnar_jobs, batched_jobs):
            checked = 0
            for new, old in zip(jobs, rowpath_jobs):
                if new is None:
                    continue
                assert isinstance(new.circuits, CircuitBatch)
                assert isinstance(old.circuits, list)
                assert len(new.circuits) == len(old.circuits)
                assert list(new.circuits) == old.circuits
                checked += 1
            assert checked > 0

    def test_batch_aggregates_match_loops(self, golden_jobs):
        columnar_jobs = golden_jobs[0]
        for job in columnar_jobs:
            if job is None:
                continue
            specs = list(job.circuits)
            assert job.max_width == max(s.width for s in specs)
            assert job.total_gates == sum(s.num_gates for s in specs)
            assert job.total_cx == sum(s.cx_count for s in specs)
            assert job.mean_depth == sum(s.depth for s in specs) / len(specs)


class TestSimulationEquivalence:
    def test_records_value_identical(self, golden_records):
        columnar, rowpath = golden_records
        assert len(columnar) == len(rowpath)
        assert columnar == rowpath  # exact float equality via dataclass eq

    def test_run_times_bit_exact(self, golden_records):
        columnar, rowpath = golden_records
        for new, old in zip(columnar, rowpath):
            assert new.run_seconds == old.run_seconds
            assert new.queue_seconds == old.queue_seconds


class TestDatasetAndCacheEquivalence:
    def test_columnar_dataset_round_trips_records(self, golden_records):
        columnar, _ = golden_records
        trace = TraceDataset.from_records(columnar,
                                          metadata={"seed": CONFIG["seed"]})
        assert trace.records == columnar
        assert [trace[i] for i in range(len(trace))] == columnar

    def test_npz_round_trip_identical_to_json_path(self, golden_records,
                                                   tmp_path):
        columnar, _ = golden_records
        trace = TraceDataset.from_records(columnar,
                                          metadata={"seed": CONFIG["seed"]})
        json_path = tmp_path / "trace.json"
        npz_path = tmp_path / "trace.npz"
        trace.to_json(json_path)
        trace.to_npz(npz_path)
        from_json = TraceDataset.from_json(json_path)
        from_npz = TraceDataset.from_npz(npz_path)
        assert from_npz.records == columnar
        assert from_npz.records == from_json.records
        assert from_npz.metadata == from_json.metadata

    def test_npz_bytes_deterministic(self, golden_records, tmp_path):
        columnar, _ = golden_records
        trace = TraceDataset.from_records(columnar,
                                          metadata={"seed": CONFIG["seed"]})
        first = tmp_path / "a.npz"
        second = tmp_path / "b.npz"
        trace.to_npz(first)
        trace.to_npz(second)
        assert first.read_bytes() == second.read_bytes()

    def test_trace_cache_serves_npz_and_legacy_json(self, golden_records,
                                                    config, tmp_path):
        """The cache serves its npz entry; a JSON-format trace under the
        same key (the pre-columnar layout) is no longer read or listed."""
        columnar, _ = golden_records
        trace = TraceDataset.from_records(columnar,
                                          metadata={"seed": CONFIG["seed"]})
        cache = TraceCache(tmp_path / "cache")
        key = config_fingerprint(config)
        path = cache.put(key, trace)
        assert path.suffix == ".npz"
        assert cache.get(key).records == columnar

        legacy = TraceCache(tmp_path / "legacy")
        legacy.root.mkdir(parents=True)
        trace.to_json(legacy.root / f"trace-{key}.json")
        assert legacy.get(key) is None
        assert legacy.get_bytes(key) is None
        assert legacy.cache_root.entries() == []

    def test_trace_cache_treats_corrupt_entries_as_misses(self, config,
                                                          tmp_path):
        cache = TraceCache(tmp_path / "cache")
        key = config_fingerprint(config)
        cache.root.mkdir(parents=True)
        # Not a zip at all, and a valid zip header with garbage after it:
        # both must miss, not raise.
        cache.path_for(key).write_bytes(b"not an npz")
        assert cache.get(key) is None
        cache.path_for(key).write_bytes(b"PK\x03\x04truncated-garbage")
        assert cache.get(key) is None
        assert cache.stats()["misses"] == 2


class TestAnalysisEquivalence:
    def test_figure_suites_value_identical(self, golden_records):
        columnar, _ = golden_records
        trace = TraceDataset.from_records(columnar)
        new_suite = trace_figure_suite(trace)
        old_suite = figure_suite_rowpath(columnar)
        assert set(new_suite) == set(old_suite)
        for key in old_suite:
            new_value, old_value = new_suite[key], old_suite[key]
            if key == "fig15_features":
                assert np.array_equal(new_value[0], old_value[0])
                assert np.array_equal(new_value[1], old_value[1])
            elif isinstance(old_value, np.ndarray):
                assert np.array_equal(new_value, old_value), key
            else:
                assert new_value == old_value, key
