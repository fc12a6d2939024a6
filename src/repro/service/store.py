"""The gateway's content-addressed result store.

:class:`ResultStore` is the service-facing result surface over one
:class:`~repro.core.cacheroot.CacheRoot`:

* **traces** are the trace cache's own ``.npz`` entries, addressed by
  config fingerprint — the same key the batch CLI uses, so a trace
  generated by ``run-scenarios`` and one generated through the gateway are
  literally the same bytes on disk, whatever memory budget either ran
  under;
* **comparisons** (the JSON delta report of a suite) are
  ``comparison-<key>.json`` entries of the same root, addressed by a
  content hash over the suite's ordered scenario ``(name, fingerprint,
  replicate_of)`` triples — two submissions of the same suite share one
  comparison entry;
* **eviction**: a configurable ``max_bytes`` budget over the whole root —
  traces, transpile summaries and comparisons — pruned LRU after every
  write (hits bump entry recency), so a long-lived service cannot grow its
  disk footprint without bound; it is the same prune as ``repro cache
  --prune --max-bytes N``;
* **accounting**: served/missed trace fetches per store, and the root's
  per-kind hit/miss/eviction counts, in :meth:`stats`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cacheroot import CacheEntry, CacheRoot
from repro.runner.cache import TraceCache
from repro.telemetry import Tally, get_registry

__all__ = ["ResultStore", "comparison_key"]

_TRACE_HITS = get_registry().counter(
    "repro_store_trace_hits_total",
    help="Trace fetches served from the result store.")
_TRACE_MISSES = get_registry().counter(
    "repro_store_trace_misses_total",
    help="Trace fetches that missed the result store.")


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

    def __init__(self, root: Union[str, Path, CacheRoot],
                 max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.cache = TraceCache(root)
        self.cache_root = self.cache.cache_root
        self.root = self.cache.root
        self.max_bytes = max_bytes
        self._trace_hits = Tally(_TRACE_HITS)
        self._trace_misses = Tally(_TRACE_MISSES)

    # -- traces ------------------------------------------------------------------------

    def trace_bytes(self, fingerprint: str) -> Optional[bytes]:
        """The exact cached trace bytes for a fingerprint (None on miss).

        Byte-identical to what the batch path wrote: the entry *is* the
        trace cache's ``.npz`` dump, which every finished trace has, under
        a memory budget or not.
        """
        data = self.cache.get_bytes(fingerprint)
        (self._trace_misses if data is None else self._trace_hits).inc()
        return data

    def trace_path(self, fingerprint: str) -> Optional[Path]:
        return self.cache.existing_path_for(fingerprint)

    # -- comparisons -------------------------------------------------------------------

    def comparison_path_for(self, key: str) -> Path:
        return self.cache_root.entry_path("comparison", key, ".json")

    def put_comparison(self, key: str, payload: Dict[str, object]) -> Path:
        """Store a comparison report under its content key (atomic), then
        prune the root to the store's budget."""
        text = json.dumps(payload, indent=2, sort_keys=True)
        path = self.cache_root.write("comparison", key, ".json",
                                     lambda scratch: scratch.write_text(text))
        self.prune()
        return path

    def get_comparison(self, key: str) -> Optional[Dict[str, object]]:
        path = self.comparison_path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.cache_root.miss("comparison")
            return None
        self.cache_root.hit("comparison", path)
        return payload

    # -- eviction ----------------------------------------------------------------------

    def prune(self, max_bytes: Optional[int] = None) -> List[CacheEntry]:
        """Prune the whole cache root, LRU first, to ``max_bytes`` (default:
        the store's budget); a store without a budget never evicts."""
        budget = max_bytes if max_bytes is not None else self.max_bytes
        return [] if budget is None else self.cache_root.prune(budget)

    def stats(self) -> Dict[str, object]:
        entries = self.cache_root.entries()
        comparisons = self.cache_root.counts("comparison")
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "total_bytes": sum(entry.size_bytes for entry in entries),
            "entries": len(entries),
            "trace_hits": self._trace_hits.value,
            "trace_misses": self._trace_misses.value,
            "comparison_hits": comparisons["hits"],
            "comparison_misses": comparisons["misses"],
            "cache": self.cache.stats(),
        }
