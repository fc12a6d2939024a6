"""The cache root: one byte budget and one write path for every kind.

Traces (one ``.npz`` file each, out-of-core or not), transpile
summaries and gateway comparisons live in one directory.  The
gateway's ``--max-cache-bytes`` (``ResultStore.prune``) and ``repro cache
--prune --max-bytes`` must both evict least recently used first across
every kind, and a write that fails — a full disk — must leave no scratch
behind, keep the entry already stored under its key, and surface as a
clear error.
"""

import errno
import json
import os
import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.exceptions import WorkloadError
from repro.runner import TraceCache, run_study
from repro.service import ResultStore
from repro.transpiler.cache import TranspileCache, TranspileSummary
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TraceDataset
from blockcut import chunked_copy

SUMMARY = TranspileSummary(
    family="ghz", width=3, machine="ibmq_athens", level=1, seed=11,
    class_fingerprint="c" * 24, backend_fingerprint="b" * 24,
    estimated_success=0.75, cx_total=2, cx_depth=2, compiled_size=5,
    compiled_depth=4, swap_count=0)
COMPARISON = {"comparison_key": "k", "comparison": {"rows": [1, 2, 3]}}


@pytest.fixture(scope="module")
def plain_trace():
    return run_study(config=TraceGeneratorConfig(total_jobs=40, months=2,
                                                 seed=3),
                     workers=1).trace


def _chunked(trace):
    dataset = chunked_copy(trace, 16, budget=2048)
    assert dataset.is_out_of_core
    return dataset


def _disk_bytes(path: Path) -> int:
    """Bytes of the file at ``path``, or of every file under the root."""
    if path.is_file():
        return path.stat().st_size
    return sum(child.stat().st_size for child in path.rglob("*")
               if child.is_file())


def _fill(root: Path, plain_trace):
    """Four entries in one root, at pinned mtimes (oldest first): an
    out-of-core trace, a transpile summary, an in-memory trace and a
    comparison.  Returns their paths and a budget that keeps only the two
    most recently used, so the older two must go whatever their kind."""
    traces = TraceCache(root)
    paths = [
        traces.put("a" * 24, _chunked(plain_trace)),
        TranspileCache(root).put("b" * 24, SUMMARY),
        traces.put("c" * 24, plain_trace),
        ResultStore(root).put_comparison("d" * 24, COMPARISON),
    ]
    for age, path in enumerate(paths):
        os.utime(path, (1_000_000 + age, 1_000_000 + age))
    return paths, _disk_bytes(paths[2]) + _disk_bytes(paths[3])


class TestOneBudget:
    def test_result_store_prune_evicts_lru_across_kinds(self, tmp_path,
                                                        plain_trace):
        paths, budget = _fill(tmp_path, plain_trace)
        store = ResultStore(tmp_path, max_bytes=budget)
        evicted = store.prune()
        assert [entry.path for entry in evicted] == paths[:2]
        assert _disk_bytes(tmp_path) <= budget
        assert store.stats()["total_bytes"] == _disk_bytes(tmp_path)
        counts = {kind: store.cache_root.counts(kind)["evictions"]
                  for kind in ("trace", "transpile", "comparison")}
        assert counts == {"trace": 1, "transpile": 1, "comparison": 0}

    def test_cache_cli_prune_evicts_lru_across_kinds(self, tmp_path,
                                                     plain_trace, capsys):
        paths, budget = _fill(tmp_path, plain_trace)
        assert main(["cache", "--cache-dir", str(tmp_path), "--list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [(entry["kind"], entry["path"])
                for entry in listing["cache"]] == list(zip(
                    ["trace", "transpile", "trace", "comparison"],
                    map(str, paths)))
        assert listing["entries"] == 4
        assert listing["total_bytes"] == _disk_bytes(tmp_path)

        assert main(["cache", "--cache-dir", str(tmp_path), "--prune",
                     "--max-bytes", str(budget)]) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert [entry["path"] for entry in pruned["evicted"]] == \
            list(map(str, paths[:2]))
        assert pruned["remaining_bytes"] == _disk_bytes(tmp_path) <= budget

        assert main(["cache", "--cache-dir", str(tmp_path), "--prune",
                     "--max-bytes", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["remaining_bytes"] == 0
        assert _disk_bytes(tmp_path) == 0

    def test_cache_cli_rejects_a_negative_budget(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path), "--prune",
                     "--max-bytes", "-1"]) == 2
        assert "--max-bytes" in capsys.readouterr().err


# -- a full disk ----------------------------------------------------------------------


def _enospc(path):
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


def _partial(path):
    """Write a few bytes of ``path``, then run out of space."""
    with open(path, "wb") as handle:
        handle.write(b"partial")
    raise _enospc(path)


def _full_disk_npz(self, path):
    _partial(path)


def _full_disk_text(path, data, *args, **kwargs):
    _partial(path)


class TestFullDisk:
    @staticmethod
    def _check(monkeypatch, put, path, full_disk):
        """``put`` stores an entry at ``path``; with the ``(owner, name,
        stand_in)`` of ``full_disk`` patched in, a second put must fail
        cleanly and keep the stored entry."""
        put()
        before = path.read_bytes()
        monkeypatch.setattr(*full_disk)
        with pytest.raises(WorkloadError, match=re.escape(str(path))):
            put()
        monkeypatch.undo()
        assert not list(path.parent.glob("*.tmp.*"))
        assert path.read_bytes() == before

    def test_trace_npz(self, tmp_path, plain_trace, monkeypatch):
        """An in-memory and an out-of-core trace, both put as ``.npz``."""
        cache = TraceCache(tmp_path)
        for key, trace in (("e" * 24, plain_trace),
                           ("f" * 24, _chunked(plain_trace))):
            self._check(monkeypatch, lambda: cache.put(key, trace),
                        cache.path_for(key),
                        (TraceDataset, "to_npz", _full_disk_npz))

    def test_transpile_summary(self, tmp_path, monkeypatch):
        cache = TranspileCache(tmp_path)
        self._check(monkeypatch, lambda: cache.put("g" * 24, SUMMARY),
                    cache.path_for("g" * 24),
                    (Path, "write_text", _full_disk_text))
        assert cache.get("g" * 24) == SUMMARY

    def test_comparison(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        self._check(monkeypatch,
                    lambda: store.put_comparison("h" * 24, COMPARISON),
                    store.comparison_path_for("h" * 24),
                    (Path, "write_text", _full_disk_text))
        assert store.get_comparison("h" * 24) == COMPARISON

    def test_run_study_reports_a_clear_error(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(TraceDataset, "to_npz", _full_disk_npz)
        cache_dir = tmp_path / "cache"
        assert main(["run-study", "--jobs", "40", "--months", "2",
                     "--workers", "1", "--cache-dir", str(cache_dir),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert re.search(re.escape(str(cache_dir)) + r"/trace-[0-9a-f]{24}"
                         r"\.npz", err), err
        assert not list(cache_dir.glob("*.tmp.*"))
