"""Tests for the data-plane satellites: the npz column load, actionable
schema-mismatch errors in the trace cache, and the buffered backlog draw
streams."""

import numpy as np
import pytest

import repro.workloads.trace as trace_module
from repro.core.exceptions import TraceSchemaError, WorkloadError
from repro.core.rng import BufferedDraws, RandomSource
from repro.runner import TraceCache, run_study
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset

CONFIG = dict(total_jobs=50, months=3, seed=17)


@pytest.fixture(scope="module")
def study_trace():
    return run_study(config=TraceGeneratorConfig(**CONFIG), workers=1).trace


class TestLazyNpz:
    """The one ``.npz`` load: every column is read whole."""

    def test_lazy_trace_resaves_byte_identically(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        resaved = tmp_path / "resaved.npz"
        TraceDataset.from_npz(path).to_npz(resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_lazy_group_by_and_where_force_loads(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        loaded = TraceDataset.from_npz(path)
        machines = loaded.group_by_machine()
        assert set(machines) == set(study_trace.machines())
        done = loaded.successful()
        assert len(done) == len(study_trace.successful())

    def test_load_dispatch_accepts_lazy(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.save(path)
        loaded = TraceDataset.load(path)
        assert len(loaded) == len(study_trace)
        assert loaded.records == study_trace.records

    def test_unknown_lazy_column_rejected(self, study_trace, tmp_path):
        path = tmp_path / "trace.npz"
        study_trace.to_npz(path)
        loaded = TraceDataset.from_npz(path)
        with pytest.raises(WorkloadError):
            loaded.values("no_such_column")


class TestSchemaMismatch:
    def test_npz_layout_mismatch_names_versions_and_path(
            self, study_trace, tmp_path, monkeypatch):
        path = tmp_path / "trace.npz"
        monkeypatch.setattr(trace_module, "NPZ_SCHEMA_VERSION", 999)
        study_trace.to_npz(path)
        monkeypatch.undo()
        with pytest.raises(TraceSchemaError) as excinfo:
            TraceDataset.from_npz(path)
        message = str(excinfo.value)
        assert "999" in message
        assert str(trace_module.NPZ_SCHEMA_VERSION) in message
        assert str(path) in message
        # Backward compatible: still a ValueError for legacy callers.
        assert isinstance(excinfo.value, ValueError)

    def test_cache_surfaces_trace_schema_mismatch(self, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        # Tamper with the stored entry: pretend an older generator wrote it.
        stale = TraceDataset.from_npz(result.cache_path)
        stale.metadata["trace_schema"] = TRACE_SCHEMA_VERSION - 1
        stale.to_npz(result.cache_path)
        with pytest.raises(TraceSchemaError) as excinfo:
            cache.get(result.cache_key)
        message = str(excinfo.value)
        assert str(TRACE_SCHEMA_VERSION) in message
        assert str(result.cache_path) in message

    def test_cache_surfaces_npz_layout_mismatch(self, tmp_path, monkeypatch):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        entry = TraceDataset.from_npz(result.cache_path)
        monkeypatch.setattr(trace_module, "NPZ_SCHEMA_VERSION", 999)
        entry.to_npz(result.cache_path)
        monkeypatch.undo()
        with pytest.raises(TraceSchemaError) as excinfo:
            cache.get(result.cache_key)
        assert str(result.cache_path) in str(excinfo.value)

    def test_corrupt_entry_is_still_a_miss(self, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        result.cache_path.write_bytes(b"not a zip at all")
        assert cache.get(result.cache_key) is None


class TestBufferedDraws:
    def test_normals_match_the_block_stream(self):
        draws = BufferedDraws(RandomSource(5, name="machine"), block_size=8)
        reference = RandomSource(5, name="machine").child(
            "normal").generator.standard_normal(20)
        values = [draws.normal(0.0, 2.5) for _ in range(20)]
        np.testing.assert_allclose(values, 2.5 * reference)

    def test_uniforms_match_the_block_stream(self):
        draws = BufferedDraws(RandomSource(5, name="machine"), block_size=8)
        reference = RandomSource(5, name="machine").child(
            "uniform").generator.random(20)
        values = [draws.uniform(1.0, 3.0) for _ in range(20)]
        np.testing.assert_allclose(values, 1.0 + 2.0 * reference)
        assert draws.random() == pytest.approx(
            RandomSource(5, name="machine").child(
                "uniform").generator.random(21)[-1])

    def test_interleaved_draws_are_reproducible(self):
        first = BufferedDraws(RandomSource(9), block_size=4)
        second = BufferedDraws(RandomSource(9), block_size=4)
        pattern = [first.normal(), first.random(), first.normal(),
                   first.uniform(0, 10), first.random()]
        replay = [second.normal(), second.random(), second.normal(),
                  second.uniform(0, 10), second.random()]
        assert pattern == replay

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            BufferedDraws(RandomSource(1), block_size=0)
