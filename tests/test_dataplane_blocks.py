"""The out-of-core chunked data plane: blocks, budgets, spills, the cache.

The golden anchor mirrors ``test_dataplane_golden``: a chunked dataset —
any block size, spilled or resident — must be *value-identical* to the
plain in-RAM dataset for every analysis surface, and its ``.npz`` dump
must be *byte-identical*.  On top of that the spill tests drive the full
``report`` / ``compare-scenarios`` paths under a resident-bytes budget far
smaller than the column bytes and assert (via the governor's spill
counter) that the run actually went out of core, and the bound test
checks that a budgeted cache put and get of a trace of more than 30 MB
stay within a small multiple of the budget.
"""

import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.analysis import reproduce_all
from repro.analysis.compare import compare_suite
from repro.core.exceptions import WorkloadError
from repro.runner.cache import TraceCache, config_fingerprint
from repro.runner.executor import run_study
from repro.scenarios import resolve_scenarios, run_scenarios
from repro.service.client import StudyServiceClient
from repro.workloads.blocks import (
    get_memory_budget,
    parse_byte_size,
    set_memory_budget,
)
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import (
    ShardColumns,
    TraceDataset,
    merge_shard_columns,
)
from blockcut import chunked_copy, stored_columns

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
    return run_study(config=TraceGeneratorConfig(**CONFIG), workers=1).trace


def _records(trace):
    return [record.as_dict() for record in trace.records]


# -- golden value identity across block sizes ------------------------------------------


@pytest.mark.parametrize("block_rows", [1, 7, 10_000])
class TestBlockwiseIdentity:
    def test_records_and_values_identical(self, plain_trace, block_rows):
        chunked = chunked_copy(plain_trace, block_rows)
        assert chunked.data_plane_stats()["blocks"] \
            == -(-len(plain_trace) // block_rows)
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
        chunked = chunked_copy(plain_trace, block_rows)
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
        chunked = reproduce_all(chunked_copy(plain_trace, block_rows),
                                fleet=fleet).as_dict()
        assert json.dumps(plain, sort_keys=True) \
            == json.dumps(chunked, sort_keys=True)

    def test_npz_bytes_identical(self, plain_trace, block_rows, tmp_path):
        plain_path = tmp_path / "plain.npz"
        chunked_path = tmp_path / "chunked.npz"
        plain_trace.to_npz(plain_path)
        chunked_copy(plain_trace, block_rows).to_npz(chunked_path)
        assert plain_path.read_bytes() == chunked_path.read_bytes()

    def test_iter_blocks_covers_every_row_once(self, plain_trace, block_rows):
        chunked = chunked_copy(plain_trace, block_rows)
        sizes = [len(block) for block in chunked.iter_blocks()]
        assert sum(sizes) == len(plain_trace)
        assert all(size <= block_rows for size in sizes)
        total = sum(int(block.values("batch_size").sum())
                    for block in chunked.iter_blocks(columns=["batch_size"]))
        assert total == int(plain_trace.values("batch_size").sum())


def _block_rows(trace):
    return [block.rows for block in trace._store.blocks]


class TestBlockLayout:
    """One block layout per budget: with none, every way of building a
    dataset gives one resident block; under one, equal columns are cut
    into equal blocks whichever way they arrive."""

    def test_one_block_without_a_budget(self, plain_trace, tmp_path):
        records = list(plain_trace.records)
        half = len(records) // 2
        path = tmp_path / "trace.npz"
        plain_trace.to_npz(path)
        extended = TraceDataset.from_records(records[:half])
        extended.extend(records[half:])
        built = {
            "from_records": TraceDataset.from_records(records),
            "from_columns": TraceDataset.from_columns(
                stored_columns(plain_trace), dict(plain_trace._vocabs)),
            "merge_shard_columns": merge_shard_columns([
                ShardColumns.from_records(records[:half]),
                ShardColumns.from_records(records[half:])]),
            "from_npz": TraceDataset.from_npz(path),
            "extend": extended,
            "where": plain_trace.successful(),
            "take": plain_trace.take([5, 1, 3]),
        }
        for machine, group in plain_trace.group_by("machine").items():
            built[f"group_by {machine}"] = group
        for how, dataset in built.items():
            assert _block_rows(dataset) == [len(dataset)], how
            assert not dataset.is_out_of_core, how
        assert _records(built["extend"]) == _records(plain_trace)

    def test_values_are_cached_without_a_budget(self, plain_trace):
        for name in ("queue_minutes", "machine"):
            assert plain_trace.values(name) is plain_trace.values(name)

    def test_equal_columns_cut_equal_blocks_under_a_budget(self,
                                                           plain_trace,
                                                           tmp_path):
        records = list(plain_trace.records)
        path = tmp_path / "trace.npz"
        plain_trace.to_npz(path)
        set_memory_budget(4096)
        from_columns = TraceDataset.from_columns(
            stored_columns(plain_trace), dict(plain_trace._vocabs))
        extended = TraceDataset.from_records(records[:10])
        extended.extend(records[10:])
        layout = _block_rows(from_columns)
        assert len(layout) > 1
        assert _block_rows(TraceDataset.from_npz(path)) == layout
        assert _block_rows(extended) == layout


# -- spilling under a tiny budget ------------------------------------------------------


class TestSpillUnderBudget:
    def test_budget_forces_spills_with_identical_values(self, plain_trace):
        budget = 2048
        assert budget < plain_trace.column_nbytes()
        chunked = chunked_copy(plain_trace, block_rows=16, budget=budget)
        assert chunked.is_out_of_core
        for name in ("queue_minutes", "machine", "utilization"):
            a = plain_trace.values(name)
            b = chunked.values(name)
            if a.dtype.kind == "f":
                np.testing.assert_array_equal(a, b)
            else:
                assert a.tolist() == b.tolist()
        stats = chunked.data_plane_stats()
        assert stats["spills"] > 0

    def test_damaged_spill_file_raises(self, plain_trace):
        chunked = chunked_copy(plain_trace, block_rows=16, budget=2048)
        block = next(block for block in chunked._store.blocks
                     if not block.resident)
        original = block.path.read_bytes()
        flipped = bytearray(original)
        flipped[0] ^= 0x01
        block.path.write_bytes(bytes(flipped))
        with pytest.raises(WorkloadError, match="spill file"):
            block.column(block.names[0])
        with pytest.raises(WorkloadError, match="spill file"):
            chunked.values(block.names[0])
        block.path.write_bytes(original[:-1])
        with pytest.raises(WorkloadError, match="spill file"):
            block.arrays()
        block.path.write_bytes(original)
        assert _records(chunked) == _records(plain_trace)

    def test_dropped_subsets_leave_no_spill_files(self, plain_trace):
        chunked = chunked_copy(plain_trace, block_rows=16, budget=2048)
        for _ in range(2):
            chunked.group_by("machine")
            chunked.successful()
        paths = {block.path for block in chunked._store.blocks
                 if block.path is not None}
        assert paths
        assert set(next(iter(paths)).parent.iterdir()) == paths

    def test_extend_keeps_a_budgeted_dataset_in_its_budget(self):
        """``extend`` re-cuts the rows under the dataset's own governor
        instead of dropping it for plain resident columns."""
        budget = 4096
        trace = run_study(config=TraceGeneratorConfig(
            total_jobs=200, months=2, seed=7), workers=1).trace
        records = list(trace.records)
        set_memory_budget(budget)
        dataset = TraceDataset.from_records(records[:150])
        assert dataset.is_out_of_core
        assert dataset.data_plane_stats()["resident_bytes"] <= budget
        dataset.extend(records[150:])
        assert dataset.is_out_of_core
        stats = dataset.data_plane_stats()
        assert stats["total_bytes"] == trace.column_nbytes()
        assert stats["resident_bytes"] <= budget
        assert _records(dataset) == _records(trace)

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
        trace = budgeted.trace
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
        spilled = [run.trace for run in budgeted
                   if run.trace.is_out_of_core]
        assert spilled, "no scenario dataset went out of core"
        comparison = compare_suite(budgeted).as_dict()
        assert any(run.trace.data_plane_stats()["spills"] > 0
                   for run in budgeted)
        assert json.dumps(comparison, sort_keys=True) \
            == json.dumps(baseline, sort_keys=True)


# -- the one cache format -------------------------------------------------------------


class TestCacheManifests:
    """Every trace is cached as the same ``.npz``, budgeted or not."""

    def test_out_of_core_put_writes_the_plain_npz(self, tmp_path,
                                                   plain_trace):
        cache = TraceCache(tmp_path)
        cache.put("p" * 24, plain_trace)
        key = "a" * 24
        chunked = chunked_copy(plain_trace, block_rows=16, budget=2048)
        assert chunked.is_out_of_core
        path = cache.put(key, chunked)
        assert path == cache.path_for(key)
        assert [entry.path for entry in cache.cache_root.entries()
                if entry.key == key] == [path]
        assert path.read_bytes() == cache.path_for("p" * 24).read_bytes()
        assert cache.get_bytes(key) == path.read_bytes()

        budget = 2048
        set_memory_budget(budget)
        loaded = cache.get(key)
        assert loaded is not None and loaded.is_out_of_core
        assert _records(loaded) == _records(plain_trace)
        layout = TraceDataset.from_columns(
            stored_columns(plain_trace), dict(plain_trace._vocabs))
        assert [block.rows for block in loaded._store.blocks] \
            == [block.rows for block in layout._store.blocks]
        assert loaded.data_plane_stats()["resident_bytes"] <= budget

    def test_in_ram_put_stays_single_npz(self, tmp_path, plain_trace):
        cache = TraceCache(tmp_path)
        key = "b" * 24
        path = cache.put(key, plain_trace)
        assert path == cache.path_for(key)
        assert cache.get_bytes(key) == path.read_bytes()


# -- the budget as a bound on load and put ---------------------------------------------


class TestBudgetBound:
    """Under a 1 MiB budget, a cache get and put of a trace of more than
    30 MB peak below 6 MiB: the budget, the blocks in flight and the
    member readers' inflate state.  An unbudgeted get holds the columns
    once, plus one read buffer."""

    BUDGET = 1 << 20
    BOUND = 6 << 20

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_put_and_get_peaks(self, tmp_path, plain_trace):
        reps = -(-30_000_000 // plain_trace.column_nbytes())
        tiled = TraceDataset.from_columns(
            {name: np.tile(column, reps)
             for name, column in stored_columns(plain_trace).items()},
            dict(plain_trace._vocabs), dict(plain_trace.metadata))
        nbytes = tiled.column_nbytes()
        assert nbytes >= 30_000_000
        cache = TraceCache(tmp_path)
        plain_path = cache.put("p" * 24, tiled)
        del tiled

        loaded, peak = self._peak(lambda: cache.get("p" * 24))
        assert len(loaded) == reps * len(plain_trace)
        assert peak < 1.1 * nbytes, peak
        del loaded

        set_memory_budget(self.BUDGET)
        loaded, peak = self._peak(lambda: cache.get("p" * 24))
        assert loaded.is_out_of_core
        assert peak < self.BOUND, peak
        path, peak = self._peak(lambda: cache.put("b" * 24, loaded))
        assert peak < self.BOUND, peak
        assert path.read_bytes() == plain_path.read_bytes()


# -- the construction API redesign -----------------------------------------------------


class TestConstructionSurface:
    def test_from_records_does_not_warn(self, plain_trace):
        records = list(plain_trace.records)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            built = TraceDataset.from_records(records)
        assert _records(built) == _records(plain_trace)

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
