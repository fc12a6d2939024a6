"""Tests for trace-cache accounting, LRU eviction, and the result store.

Covers :class:`~repro.runner.cache.TraceCache`'s hit/miss/eviction
counters, the cache root's entry listing and max-bytes LRU pruning
(recency = file mtime, bumped on every hit), the
:class:`~repro.service.store.ResultStore` layered on top (comparisons
share the byte budget with traces), and the ``python -m repro cache``
subcommand.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.cacheroot import CacheRoot
from repro.runner import TraceCache, config_fingerprint, run_study
from repro.service import ResultStore
from repro.workloads.generator import TraceGeneratorConfig
from blockcut import chunked_copy

CONFIGS = [TraceGeneratorConfig(total_jobs=40, months=2, seed=seed)
           for seed in (1, 2, 3)]


@pytest.fixture(scope="module")
def filled_cache_dir(tmp_path_factory):
    """A cache holding three distinct small traces, oldest first."""
    root = tmp_path_factory.mktemp("trace-cache")
    cache = TraceCache(root)
    for index, config in enumerate(CONFIGS):
        run_study(config=config, workers=1, num_shards=1, cache_dir=root)
        # Spread mtimes so LRU order is deterministic regardless of how
        # fast the traces were generated.
        path = cache.existing_path_for(config_fingerprint(config))
        stamp = 1_000_000 + index * 1000
        os.utime(path, (stamp, stamp))
    return root


class TestTraceCacheEviction:
    def test_entries_are_lru_ordered(self, filled_cache_dir):
        root = CacheRoot(filled_cache_dir)
        entries = root.entries()
        assert len(entries) == 3
        assert [e.key for e in entries] == \
            [config_fingerprint(c) for c in CONFIGS]
        assert all(e.kind == "trace" and e.size_bytes > 0 for e in entries)
        assert root.total_bytes() == sum(e.size_bytes for e in entries)

    def test_hits_bump_recency(self, filled_cache_dir):
        cache = TraceCache(filled_cache_dir)
        oldest = config_fingerprint(CONFIGS[0])
        assert cache.get(oldest) is not None
        assert cache.cache_root.entries()[-1].key == oldest  # most recent
        # restore the stamped order for the other tests
        path = cache.existing_path_for(oldest)
        os.utime(path, (1_000_000, 1_000_000))

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        source = TraceCache(tmp_path)
        for index, config in enumerate(CONFIGS):
            run_study(config=config, workers=1, num_shards=1,
                      cache_dir=tmp_path)
            path = source.existing_path_for(config_fingerprint(config))
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        cache = TraceCache(tmp_path)
        root = cache.cache_root
        entries = root.entries()
        keep = entries[-1]  # most recently used survives
        evicted = root.prune(keep.size_bytes)
        assert [e.key for e in evicted] == [e.key for e in entries[:2]]
        assert [e.key for e in root.entries()] == [keep.key]
        assert cache.stats()["evictions"] == 2
        assert cache.get(entries[0].key) is None  # evicted → miss
        assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 2}
        assert root.prune(keep.size_bytes) == []  # already under budget
        with pytest.raises(ValueError):
            root.prune(-1)

    def test_hit_miss_counters(self, filled_cache_dir):
        cache = TraceCache(filled_cache_dir)
        key = config_fingerprint(CONFIGS[1])
        assert cache.get(key) is not None
        assert cache.get("no-such-key") is None
        assert cache.get_bytes(key) is not None
        assert cache.get_bytes("no-such-key") is None
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 2


class TestResultStore:
    def test_comparisons_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"comparison_key": "k1", "suite": {"studies": 2}}
        store.put_comparison("k1", payload)
        assert store.get_comparison("k1") == payload
        assert store.get_comparison("missing") is None
        stats = store.stats()
        assert stats["comparison_hits"] == 1
        assert stats["comparison_misses"] == 1

    def test_prune_spans_traces_and_comparisons(self, tmp_path):
        run_study(config=CONFIGS[0], workers=1, num_shards=1,
                  cache_dir=tmp_path)
        store = ResultStore(tmp_path)
        trace_key = config_fingerprint(CONFIGS[0])
        trace_path = store.trace_path(trace_key)
        os.utime(trace_path, (1_000_000, 1_000_000))  # trace is the LRU
        store.put_comparison("recent", {"comparison_key": "recent"})
        comparison_size = store.comparison_path_for("recent").stat().st_size
        evicted = store.prune(comparison_size)
        assert [entry.key for entry in evicted] == [trace_key]
        assert store.trace_bytes(trace_key) is None
        assert store.get_comparison("recent") is not None

    def test_unbudgeted_store_never_evicts(self, tmp_path):
        store = ResultStore(tmp_path)  # max_bytes=None
        store.put_comparison("k", {"comparison_key": "k"})
        assert store.prune() == []
        assert store.get_comparison("k") is not None

    def test_budget_enforced_on_put(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=0)
        store.put_comparison("k1", {"comparison_key": "k1"})
        # put_comparison prunes to the zero budget: nothing survives.
        assert store.cache_root.entries() == []

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=-1)

    def test_concurrent_puts_of_one_key_never_collide(self, tmp_path):
        """Gateway executor threads store a resubmitted suite's comparison
        under one key at the same time; no put may lose its scratch file
        to another writer."""
        store = ResultStore(tmp_path)
        deadline = time.monotonic() + 5.0
        errors = []

        def writer(index):
            payload = {"comparison_key": "k", "writer": index,
                       "padding": "x" * 4096}
            for _ in range(200):
                if time.monotonic() > deadline:
                    return
                try:
                    store.put_comparison("k", payload)
                except Exception as exc:
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer, args=(index,),
                                    daemon=True)
                   for index in range(2 * (os.cpu_count() or 1) + 2)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave writers between bytecodes
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stored = json.loads(store.comparison_path_for("k").read_text())
        assert stored["comparison_key"] == "k"
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_two_writers_of_one_out_of_core_trace_both_succeed(
            self, tmp_path, monkeypatch):
        """Two processes finish the same budgeted study: both fill their
        scratch before either renames it into place, and both puts must
        return with the entry readable."""
        source = run_study(config=CONFIGS[0], workers=1).trace
        traces = []
        for _ in range(2):
            trace = chunked_copy(source, 8, budget=1024)
            assert trace.is_out_of_core
            traces.append(trace)
        both_filled = threading.Barrier(2, timeout=30)
        replace = Path.replace

        def replace_once_both_filled(self, target):
            both_filled.wait()
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", replace_once_both_filled)
        cache = TraceCache(tmp_path)
        key = "k" * 24
        errors = []

        def writer(trace):
            try:
                cache.put(key, trace)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(trace,),
                                    daemon=True) for trace in traces]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        monkeypatch.undo()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.get(key).records == source.records
        assert not list(tmp_path.glob("*.tmp.*"))


class TestCacheCli:
    def test_list_and_prune(self, tmp_path, capsys):
        for index, config in enumerate(CONFIGS[:2]):
            run_study(config=config, workers=1, num_shards=1,
                      cache_dir=tmp_path)
            path = TraceCache(tmp_path).existing_path_for(
                config_fingerprint(config))
            os.utime(path, (1_000_000 + index, 1_000_000 + index))

        assert main(["cache", "--cache-dir", str(tmp_path), "--list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["entries"] == 2
        assert len(listing["cache"]) == 2
        assert listing["total_bytes"] > 0

        keep_bytes = listing["cache"][-1]["size_bytes"]
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune", "--max-bytes", str(keep_bytes)]) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert len(pruned["evicted"]) == 1
        assert pruned["evicted"][0]["key"] == listing["cache"][0]["key"]
        assert pruned["remaining_bytes"] <= keep_bytes

    def test_prune_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path), "--prune"]) == 2
        assert "--max-bytes" in capsys.readouterr().err
