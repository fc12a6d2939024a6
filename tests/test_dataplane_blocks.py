"""The out-of-core chunked data plane: blocks, budgets, spills, manifests.

The golden anchor mirrors ``test_dataplane_golden``: a chunked dataset —
any block size, spilled or resident — must be *value-identical* to the
plain in-RAM dataset for every analysis surface, and its ``.npz`` dump
must be *byte-identical*.  On top of that the spill tests drive the full
``report`` / ``compare-scenarios`` paths under a resident-bytes budget far
smaller than the column bytes and assert (via the governor's spill
counter) that the run actually went out of core.
"""

import io
import json
import warnings

import numpy as np
import pytest

from repro.analysis import reproduce_all
from repro.analysis.compare import compare_suite
from repro.core.exceptions import TraceSchemaError, WorkloadError
from repro.runner.cache import TraceCache, config_fingerprint
from repro.runner.executor import run_study
from repro.scenarios import resolve_scenarios, run_scenarios
from repro.service.client import StudyServiceClient
from repro.workloads.blocks import (
    ResidencyGovernor,
    get_memory_budget,
    parse_byte_size,
    set_memory_budget,
)
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TraceDataset

CONFIG = dict(total_jobs=120, months=2, seed=19)


@pytest.fixture(autouse=True)
def no_leaked_budget():
    """Every test starts and ends with no process-wide memory budget."""
    before = get_memory_budget()
    set_memory_budget(None)
    yield
    set_memory_budget(before)


@pytest.fixture(scope="module")
def plain_trace():
    return run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                     use_cache=False).trace


def _records(trace):
    return [record.as_dict() for record in trace.records]


def _chunked_copy(trace, block_rows, budget=None):
    """An independent chunked rebuild of ``trace`` (own governor)."""
    dataset = TraceDataset.from_records(list(trace.records),
                                        metadata=dict(trace.metadata))
    dataset._chunk_in_place(block_rows=block_rows,
                            governor=ResidencyGovernor(budget))
    return dataset


# -- golden value identity across block sizes ------------------------------------------


@pytest.mark.parametrize("block_rows", [1, 7, 10_000])
class TestBlockwiseIdentity:
    def test_records_and_values_identical(self, plain_trace, block_rows):
        chunked = _chunked_copy(plain_trace, block_rows)
        assert chunked.is_chunked
        assert len(chunked) == len(plain_trace)
        assert _records(chunked) == _records(plain_trace)
        for name in ("submit_time", "queue_minutes", "utilization",
                     "machine", "status", "batch_size"):
            a = plain_trace.values(name)
            b = chunked.values(name)
            if a.dtype.kind == "f":
                np.testing.assert_array_equal(a, b)
            else:
                assert a.tolist() == b.tolist()

    def test_group_by_and_grouped_values_identical(self, plain_trace,
                                                   block_rows):
        chunked = _chunked_copy(plain_trace, block_rows)
        plain_groups = plain_trace.group_by_machine()
        chunked_groups = chunked.group_by_machine()
        assert sorted(plain_groups) == sorted(chunked_groups)
        for machine, subset in plain_groups.items():
            assert _records(chunked_groups[machine]) == _records(subset)
        plain_values = plain_trace.grouped_values("machine", "queue_minutes")
        chunked_values = chunked.grouped_values("machine", "queue_minutes")
        assert sorted(plain_values) == sorted(chunked_values)
        for machine, values in plain_values.items():
            np.testing.assert_array_equal(values, chunked_values[machine])

    def test_figures_identical(self, plain_trace, block_rows):
        fleet = TraceGeneratorConfig(**CONFIG).build_fleet()
        plain = reproduce_all(plain_trace, fleet=fleet).as_dict()
        chunked = reproduce_all(_chunked_copy(plain_trace, block_rows),
                                fleet=fleet).as_dict()
        assert json.dumps(plain, sort_keys=True) \
            == json.dumps(chunked, sort_keys=True)

    def test_npz_bytes_identical(self, plain_trace, block_rows, tmp_path):
        plain_path = tmp_path / "plain.npz"
        chunked_path = tmp_path / "chunked.npz"
        plain_trace.to_npz(plain_path)
        _chunked_copy(plain_trace, block_rows).to_npz(chunked_path)
        assert plain_path.read_bytes() == chunked_path.read_bytes()

    def test_iter_blocks_covers_every_row_once(self, plain_trace, block_rows):
        chunked = _chunked_copy(plain_trace, block_rows)
        sizes = [len(block) for block in chunked.iter_blocks()]
        assert sum(sizes) == len(plain_trace)
        assert all(size <= block_rows for size in sizes)
        totals = chunked.map_blocks(lambda block: block.values("batch_size").sum(),
                                    columns=["batch_size"])
        assert int(sum(totals)) == int(plain_trace.values("batch_size").sum())


# -- spilling under a tiny budget ------------------------------------------------------


class TestSpillUnderBudget:
    def test_budget_forces_spills_with_identical_values(self, plain_trace):
        budget = 2048
        assert budget < plain_trace.column_nbytes()
        chunked = _chunked_copy(plain_trace, block_rows=16, budget=budget)
        assert chunked.is_out_of_core
        for name in ("queue_minutes", "machine", "utilization"):
            a = plain_trace.values(name)
            b = chunked.values(name)
            if a.dtype.kind == "f":
                np.testing.assert_array_equal(a, b)
            else:
                assert a.tolist() == b.tolist()
        stats = chunked.data_plane_stats()
        assert stats["chunked"] is True
        assert stats["spills"] > 0

    def test_report_under_budget_spills_and_matches(self, tmp_path):
        """`run-study --report` under a budget smaller than the columns."""
        config = TraceGeneratorConfig(**CONFIG)
        plain = run_study(config=config, workers=1,
                          cache_dir=tmp_path / "cache-plain")
        fleet = plain.config.build_fleet()
        baseline = reproduce_all(plain.trace, fleet=fleet).as_dict()

        set_memory_budget(2048)
        budgeted = run_study(config=config, workers=1,
                             cache_dir=tmp_path / "cache-budget")
        trace = budgeted.dataset
        assert trace.is_out_of_core
        assert trace.column_nbytes() > 2048
        report = reproduce_all(trace, fleet=fleet).as_dict()
        stats = trace.data_plane_stats()
        assert stats["spills"] > 0
        assert json.dumps(report, sort_keys=True) \
            == json.dumps(baseline, sort_keys=True)

    def test_compare_scenarios_under_budget_spills_and_matches(self,
                                                               tmp_path):
        """`compare-scenarios` end-to-end under a tiny resident budget."""
        config = TraceGeneratorConfig(**CONFIG)
        scenarios = resolve_scenarios(("baseline", "calibration-drift"))

        plain = run_scenarios(scenarios, config, workers=1,
                              cache_dir=tmp_path / "cache-plain")
        baseline = compare_suite(plain).as_dict()

        set_memory_budget(2048)
        budgeted = run_scenarios(scenarios, config, workers=1,
                                 cache_dir=tmp_path / "cache-budget")
        spilled = [run.dataset for run in budgeted
                   if run.dataset.is_out_of_core]
        assert spilled, "no scenario dataset went out of core"
        comparison = compare_suite(budgeted).as_dict()
        assert any(run.dataset.data_plane_stats()["spills"] > 0
                   for run in budgeted)
        assert json.dumps(comparison, sort_keys=True) \
            == json.dumps(baseline, sort_keys=True)


# -- cache manifests -------------------------------------------------------------------


class TestCacheManifests:
    def test_out_of_core_put_writes_manifest_and_round_trips(self, tmp_path,
                                                             plain_trace):
        cache = TraceCache(tmp_path)
        key = "a" * 24
        chunked = _chunked_copy(plain_trace, block_rows=16, budget=2048)
        path = cache.put(key, chunked)
        assert path == cache.manifest_dir_for(key)
        assert (path / "manifest.json").is_file()
        assert not cache.path_for(key).exists()

        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.is_chunked
        assert _records(loaded) == _records(plain_trace)
        # No single-file byte representation for a manifest entry.
        assert cache.get_bytes(key) is None

    def test_in_ram_put_stays_single_npz(self, tmp_path, plain_trace):
        cache = TraceCache(tmp_path)
        key = "b" * 24
        path = cache.put(key, plain_trace)
        assert path == cache.path_for(key)
        assert not cache.manifest_dir_for(key).exists()
        assert cache.get_bytes(key) == path.read_bytes()

    def test_put_replaces_other_format(self, tmp_path, plain_trace):
        cache = TraceCache(tmp_path)
        key = "c" * 24
        chunked = _chunked_copy(plain_trace, block_rows=16, budget=2048)
        cache.put(key, chunked)
        assert cache.manifest_dir_for(key).is_dir()
        cache.put(key, plain_trace)
        assert not cache.manifest_dir_for(key).exists()
        assert cache.path_for(key).is_file()

    def test_entries_evict_and_prune_handle_manifest_dirs(self, tmp_path,
                                                          plain_trace):
        cache = TraceCache(tmp_path)
        key = "d" * 24
        chunked = _chunked_copy(plain_trace, block_rows=16, budget=2048)
        cache.put(key, chunked)
        entries = cache.entries()
        assert [entry.key for entry in entries] == [key]
        assert entries[0].size_bytes > 0
        assert cache.evict(key) is True
        assert not cache.manifest_dir_for(key).exists()

        cache.put(key, chunked)
        evicted = cache.prune(0)
        assert [entry.key for entry in evicted] == [key]
        assert cache.entries() == []

    def test_manifest_schema_mismatch_raises(self, tmp_path, plain_trace):
        chunked = _chunked_copy(plain_trace, block_rows=16, budget=2048)
        directory = chunked.to_block_manifest(tmp_path / "manifest")
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["schema"] = -1
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TraceSchemaError):
            TraceDataset.from_block_manifest(directory)

    def test_manifest_round_trip_without_cache(self, tmp_path, plain_trace):
        chunked = _chunked_copy(plain_trace, block_rows=16, budget=2048)
        directory = chunked.to_block_manifest(tmp_path / "manifest")
        loaded = TraceDataset.from_block_manifest(directory, budget=2048)
        assert loaded.is_chunked
        assert _records(loaded) == _records(plain_trace)
        assert dict(loaded.metadata) == dict(plain_trace.metadata)


# -- the construction API redesign -----------------------------------------------------


class TestConstructionSurface:
    def test_from_records_does_not_warn(self, plain_trace):
        records = list(plain_trace.records)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            built = TraceDataset.from_records(records)
        assert _records(built) == _records(plain_trace)

    def test_from_blocks_builds_chunked_dataset(self, plain_trace):
        blocks = [{name: block._columns[name] for name in block._columns}
                  for block in plain_trace.iter_blocks(block_rows=32)]
        dataset = TraceDataset.from_blocks(
            blocks, dict(plain_trace._vocabs),
            metadata=dict(plain_trace.metadata))
        assert dataset.is_chunked
        assert _records(dataset) == _records(plain_trace)

    def test_parse_byte_size(self):
        assert parse_byte_size(None) is None
        assert parse_byte_size("none") is None
        assert parse_byte_size("1024") == 1024
        assert parse_byte_size("4K") == 4096
        assert parse_byte_size("2m") == 2 * 1024 * 1024
        assert parse_byte_size("1G") == 1024 ** 3
        with pytest.raises(WorkloadError):
            parse_byte_size("lots")
        with pytest.raises(WorkloadError):
            parse_byte_size(-1)

    def test_study_result_handle_surface(self, tmp_path):
        result = run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                           cache_dir=tmp_path)
        assert result.dataset is result.trace
        assert result.fingerprint == result.cache_key
        assert result.fingerprint \
            == config_fingerprint(TraceGeneratorConfig(**CONFIG))
        assert result.metadata["fingerprint"] == result.fingerprint
        assert result.summary()["fingerprint"] == result.fingerprint

    def test_suite_result_handle_surface(self, tmp_path):
        scenarios = resolve_scenarios(("baseline",))
        suite = run_scenarios(scenarios, TraceGeneratorConfig(**CONFIG),
                              workers=1, cache_dir=tmp_path)
        assert sorted(suite.results) == suite.names()
        run = suite.runs[0]
        assert suite.result_for(run.name) is run.result
        assert suite.fingerprints()[run.name] == run.fingerprint
        assert run.dataset is run.result.trace


# -- streaming fetch -------------------------------------------------------------------


class _FakeResponse(io.BytesIO):
    """A context-managed chunked body, recording the read sizes."""

    def __init__(self, payload):
        super().__init__(payload)
        self.read_sizes = []

    def read(self, size=-1):
        self.read_sizes.append(size)
        return super().read(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class TestStreamingFetch:
    def test_fetch_trace_to_streams_chunks(self, tmp_path, monkeypatch):
        payload = bytes(range(256)) * 1024  # 256 KiB body
        response = _FakeResponse(payload)
        client = StudyServiceClient("http://example.invalid")
        monkeypatch.setattr(client, "_request",
                            lambda *args, **kwargs: response)
        out = tmp_path / "trace.npz"
        written = client.fetch_trace_to("f" * 24, out, chunk_size=4096)
        assert written == len(payload)
        assert out.read_bytes() == payload
        # Never asked for more than one chunk at a time.
        assert set(response.read_sizes) == {4096}


# -- Arrow / Parquet export ------------------------------------------------------------


class TestArrowExport:
    def test_missing_pyarrow_raises_actionable_error(self, plain_trace,
                                                     tmp_path):
        try:
            import pyarrow  # noqa: F401
            pytest.skip("pyarrow installed; the missing-dependency path "
                        "is exercised elsewhere")
        except ImportError:
            pass
        with pytest.raises(WorkloadError, match="pyarrow"):
            plain_trace.to_parquet(tmp_path / "trace.parquet")

    def test_round_trip_through_arrow(self, plain_trace, tmp_path):
        pa = pytest.importorskip("pyarrow")
        table = plain_trace.to_arrow()
        assert table.num_rows == len(plain_trace)
        machine = table.column("machine").to_pylist()
        assert machine == plain_trace.values("machine").tolist()
        parquet = pytest.importorskip("pyarrow.parquet")
        path = tmp_path / "trace.parquet"
        plain_trace.to_parquet(path)
        back = parquet.read_table(path)
        assert back.num_rows == len(plain_trace)
