"""Tests for the data-plane satellites: the npz column load, actionable
schema-mismatch errors and corrupt entries in the trace cache, and the
buffered backlog draw streams."""

import struct
import zipfile

import numpy as np
import pytest

import repro.workloads.trace as trace_module
from repro.core.exceptions import TraceSchemaError, WorkloadError
from repro.core.rng import RandomSource
from repro.runner import TraceCache, run_study
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset
from eventloop import BufferedDraws

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

    def test_a_flipped_bit_in_any_member_is_a_miss(self, tmp_path):
        """One flipped bit inside any member's deflate data — ten evenly
        spaced interior positions in each of the 25 columns, the 6
        vocabularies and ``__meta__`` — or in a member's central-directory
        flags (encrypted, patched data) is a miss, never a raise, and the
        next run overwrites the entry with the same bytes.  The data
        positions are interior because deflate ignores the first byte's
        final-block bit and the last byte's padding bits."""
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        result = run_study(config=config, workers=1, cache_dir=cache)
        path = result.cache_path
        original = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert len(infos) == 32
        flips = []
        for info in infos:
            offset = info.header_offset
            name_length, extra_length = struct.unpack(
                "<HH", original[offset + 26:offset + 30])
            start = offset + 30 + name_length + extra_length
            stop = start + info.compress_size
            flips += [(info.filename, int(position), 1) for position
                      in np.linspace(start, stop, 12).astype(int)[1:-1]]
        end = original.rindex(b"PK\x05\x06")
        count, offset = struct.unpack("<H4xI", original[end + 10:end + 20])
        for _ in range(count):
            lengths = struct.unpack("<HHH", original[offset + 28:offset + 34])
            flips += [("central directory", offset + 8, 1),
                      ("central directory", offset + 8, 1 << 5)]
            offset += 46 + sum(lengths)
        for member, position, bit in flips:
            damaged = bytearray(original)
            damaged[position] ^= bit
            path.write_bytes(bytes(damaged))
            assert cache.get(result.cache_key) is None, (member, position)
        rerun = run_study(config=config, workers=1, cache_dir=cache)
        assert not rerun.cache_hit
        assert path.read_bytes() == original


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
