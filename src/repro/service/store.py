"""The gateway's content-addressed result store.

:class:`ResultStore` layers the service-facing result surface over the
runner's on-disk :class:`~repro.runner.cache.TraceCache`:

* **traces** are the cache's own ``.npz`` entries, addressed by config
  fingerprint — the same key the batch CLI uses, so a trace generated by
  ``run-scenarios`` and one generated through the gateway are literally
  the same bytes on disk;
* **comparisons** (the JSON delta report of a suite) are stored next to
  them, addressed by a content hash over the suite's ordered scenario
  ``(name, fingerprint, replicate_of)`` triples — two submissions of the
  same suite share one comparison entry;
* **eviction**: a configurable ``max_bytes`` budget pruned LRU across
  traces *and* comparisons after every write (hits bump entry recency), so
  a long-lived service cannot grow its disk footprint without bound;
* **accounting**: served/missed counters per surface, merged with the
  underlying cache's hit/miss/eviction counters in :meth:`stats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.cache import CacheEntry, TraceCache
from repro.telemetry import get_registry

__all__ = ["ResultStore", "comparison_key"]


def comparison_key(
        entries: Sequence[Tuple[str, str, Optional[str]]]) -> str:
    """The content address of a suite comparison.

    ``entries`` is the suite's ordered ``(scenario name, config
    fingerprint, replicate_of)`` triples — everything that shapes the
    delta report given the traces.  Identical suites (even submitted by
    different tenants) hash to the same key.
    """
    payload = json.dumps([list(entry) for entry in entries],
                         sort_keys=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


class ResultStore:
    """Finished traces and comparisons, served by fingerprint."""

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None,
                 cache: Optional[TraceCache] = None):
        self.root = Path(root)
        self.cache = cache if cache is not None else TraceCache(self.root)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        # Per-instance counters aggregated under shared registry names
        # (see TraceCache: attribute reads/writes keep per-store values,
        # /metrics sums every live store).
        registry = get_registry()
        self._trace_hits = registry.instance_counter(
            "repro_store_trace_hits_total",
            help="Trace fetches served from the result store.")
        self._trace_misses = registry.instance_counter(
            "repro_store_trace_misses_total",
            help="Trace fetches that missed the result store.")
        self._comparison_hits = registry.instance_counter(
            "repro_store_comparison_hits_total",
            help="Comparison fetches served from the result store.")
        self._comparison_misses = registry.instance_counter(
            "repro_store_comparison_misses_total",
            help="Comparison fetches that missed the result store.")

    @property
    def trace_hits(self) -> int:
        return self._trace_hits.value

    @trace_hits.setter
    def trace_hits(self, value: int) -> None:
        self._trace_hits.set_local(value)

    @property
    def trace_misses(self) -> int:
        return self._trace_misses.value

    @trace_misses.setter
    def trace_misses(self, value: int) -> None:
        self._trace_misses.set_local(value)

    @property
    def comparison_hits(self) -> int:
        return self._comparison_hits.value

    @comparison_hits.setter
    def comparison_hits(self, value: int) -> None:
        self._comparison_hits.set_local(value)

    @property
    def comparison_misses(self) -> int:
        return self._comparison_misses.value

    @comparison_misses.setter
    def comparison_misses(self, value: int) -> None:
        self._comparison_misses.set_local(value)

    # -- traces ------------------------------------------------------------------------

    def trace_bytes(self, fingerprint: str) -> Optional[bytes]:
        """The exact cached trace bytes for a fingerprint (None on miss).

        Byte-identical to what the batch path wrote: the entry *is* the
        trace cache's ``.npz`` dump.
        """
        data = self.cache.get_bytes(fingerprint)
        if data is None:
            self.trace_misses += 1
            return None
        self.trace_hits += 1
        return data

    def trace_path(self, fingerprint: str) -> Optional[Path]:
        return self.cache.existing_path_for(fingerprint)

    # -- comparisons -------------------------------------------------------------------

    def comparison_path_for(self, key: str) -> Path:
        return self.root / f"comparison-{key}.json"

    def put_comparison(self, key: str, payload: Dict[str, object]) -> Path:
        """Store a comparison report under its content key (atomic).

        The report goes to a uuid-suffixed scratch file first, so two
        threads or processes storing the same key never share one.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.comparison_path_for(key)
        scratch = path.with_suffix(f".tmp.{uuid.uuid4().hex}")
        try:
            scratch.write_text(json.dumps(payload, indent=2, sort_keys=True))
            scratch.replace(path)
        finally:
            scratch.unlink(missing_ok=True)
        self.prune()
        return path

    def get_comparison(self, key: str) -> Optional[Dict[str, object]]:
        path = self.comparison_path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.comparison_misses += 1
            return None
        self.comparison_hits += 1
        try:
            os.utime(path, None)  # recency for LRU pruning
        except OSError:
            pass
        return payload

    # -- eviction ----------------------------------------------------------------------

    def _comparison_entries(self) -> List[CacheEntry]:
        found: List[CacheEntry] = []
        if not self.root.is_dir():
            return found
        for path in self.root.glob("comparison-*.json"):
            if not path.is_file():
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append(CacheEntry(
                key=path.name[len("comparison-"):-len(".json")],
                path=path, size_bytes=stat.st_size,
                modified=stat.st_mtime))
        return found

    def entries(self) -> List[CacheEntry]:
        """Every stored trace and comparison, least recently used first."""
        combined = self.cache.entries() + self._comparison_entries()
        combined.sort(key=lambda entry: (entry.modified, entry.key))
        return combined

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def prune(self, max_bytes: Optional[int] = None) -> List[CacheEntry]:
        """Evict LRU entries (traces and comparisons) down to the budget.

        Uses the store's configured ``max_bytes`` when none is given; a
        store without a budget never evicts on its own.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        if budget is None:
            return []
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted: List[CacheEntry] = []
        for entry in entries:
            if total <= budget:
                break
            try:
                entry.path.unlink()
            except FileNotFoundError:
                total -= entry.size_bytes
                continue
            except OSError:
                continue
            total -= entry.size_bytes
            self.cache.evictions += 1
            evicted.append(entry)
        return evicted

    def stats(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "total_bytes": self.total_bytes(),
            "entries": len(self.entries()),
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "comparison_hits": self.comparison_hits,
            "comparison_misses": self.comparison_misses,
            "cache": self.cache.stats(),
        }
