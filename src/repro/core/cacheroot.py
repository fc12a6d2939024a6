"""One on-disk cache root and the rules every entry in it shares.

A cache root is one directory holding the trace cache
(:class:`~repro.runner.cache.TraceCache`), the transpile cache
(:class:`~repro.transpiler.cache.TranspileCache`) and the gateway's
comparisons (:class:`~repro.service.store.ResultStore`).  Every entry is
one file named ``<kind>-<key><suffix>``, with one suffix per kind, and
:class:`CacheRoot` owns what the kinds share:

* :meth:`~CacheRoot.write` fills a uuid-named scratch file beside the
  entry and renames it into place, so concurrent writers never share a
  scratch, the last rename wins whole, and a reader never sees a partial
  entry;
* :meth:`~CacheRoot.hit` bumps the entry's mtime, so recency is last *use*
  and survives process restarts;
* :meth:`~CacheRoot.entries` lists every kind least recently used first,
  and :meth:`~CacheRoot.prune` evicts down to one byte budget across all
  of them;
* hits, misses and evictions are counted per kind, on the root object and
  under each kind's process-wide metric family.

The stores keep only their formats and lookups.  A get or a put touches
its own entry; only listing and pruning scan the directory.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Union

from repro.core.exceptions import WorkloadError
from repro.telemetry import Tally, get_registry

__all__ = ["CacheEntry", "CacheRoot"]

#: Each kind's entry suffix.
_KINDS: Dict[str, str] = {
    "trace": ".npz",
    "transpile": ".json",
    "comparison": ".json",
}

#: The process-wide hit/miss/eviction family of each kind.
_FAMILIES = {
    (kind, event): get_registry().counter(name, help=help_text)
    for kind, event, name, help_text in (
        ("trace", "hits", "repro_cache_hits_total",
         "Trace-cache hits across every TraceCache instance."),
        ("trace", "misses", "repro_cache_misses_total",
         "Trace-cache misses across every TraceCache instance."),
        ("trace", "evictions", "repro_cache_evictions_total",
         "Trace-cache entries evicted by evict() or prune()."),
        ("transpile", "hits", "repro_transpile_cache_hits_total",
         "Transpile-cache hits across every TranspileCache instance."),
        ("transpile", "misses", "repro_transpile_cache_misses_total",
         "Transpile-cache misses across every TranspileCache instance."),
        ("transpile", "evictions", "repro_transpile_cache_evictions_total",
         "Transpile-cache entries evicted by evict() or prune()."),
        ("comparison", "hits", "repro_store_comparison_hits_total",
         "Comparison fetches served from the result store."),
        ("comparison", "misses", "repro_store_comparison_misses_total",
         "Comparison fetches that missed the result store."),
        ("comparison", "evictions", "repro_store_comparison_evictions_total",
         "Stored comparisons evicted by a cache-root prune."),
    )
}


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk entry: its kind, key, location, size and recency."""

    kind: str
    key: str
    path: Path
    size_bytes: int
    modified: float  # last use (hits bump the mtime, so this is LRU order)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "key": self.key,
            "path": str(self.path),
            "size_bytes": self.size_bytes,
            "modified": self.modified,
        }


class CacheRoot:
    """A cache directory: atomic writes, LRU recency and one byte budget
    over every kind of entry, with per-kind hit/miss/eviction counts."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._tallies = {key: Tally(family)
                         for key, family in _FAMILIES.items()}

    @classmethod
    def of(cls, root: Union[str, Path, "CacheRoot"]) -> "CacheRoot":
        """``root`` itself when it is a cache root, else one over it."""
        return root if isinstance(root, CacheRoot) else cls(root)

    def entry_path(self, kind: str, key: str, suffix: str) -> Path:
        return self.path / f"{kind}-{key}{suffix}"

    # -- lookups -----------------------------------------------------------------------

    def hit(self, kind: str, path: Path) -> None:
        """Count a hit on ``path`` and bump its mtime (its LRU recency)."""
        self._tallies[kind, "hits"].inc()
        try:
            os.utime(path, None)
        except OSError:  # read-only cache dirs still serve hits
            pass

    def miss(self, kind: str) -> None:
        self._tallies[kind, "misses"].inc()

    def counts(self, kind: str) -> Dict[str, int]:
        """This root's ``hits``, ``misses`` and ``evictions`` of ``kind``."""
        return {event: self._tallies[kind, event].value
                for event in ("hits", "misses", "evictions")}

    # -- writes ------------------------------------------------------------------------

    def write(self, kind: str, key: str, suffix: str,
              fill: Callable[[Path], object]) -> Path:
        """Store one entry atomically; returns its path.

        ``fill`` writes the entry file at the uuid-named scratch path it is
        given; the scratch is then renamed over the entry in one step, so
        two writers of one key both succeed and the last rename wins.  The
        scratch never outlives the call.  If ``fill`` fails, the entry
        already stored under the key is left as it was, and an ``OSError``
        (a full disk, say) is raised as a
        :class:`~repro.core.exceptions.WorkloadError` naming the entry.
        """
        path = self.entry_path(kind, key, suffix)
        scratch = path.with_suffix(f".tmp.{uuid.uuid4().hex}")
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            fill(scratch)
            scratch.replace(path)
        except OSError as exc:
            raise WorkloadError(
                f"could not write cache entry {path}: {exc}") from exc
        finally:
            scratch.unlink(missing_ok=True)
        return path

    # -- listing and eviction ----------------------------------------------------------

    def entries(self) -> List[CacheEntry]:
        """Every entry of every kind, least recently used first."""
        found: List[CacheEntry] = []
        if not self.path.is_dir():
            return found
        for path in self.path.iterdir():
            kind, _, name = path.name.partition("-")
            if _KINDS.get(kind) != path.suffix:
                continue
            try:
                info = path.stat()
            except OSError:  # evicted by a concurrent pruner mid-scan
                continue
            found.append(CacheEntry(
                kind=kind,
                key=name[:-len(path.suffix)],
                path=path,
                size_bytes=info.st_size,
                modified=info.st_mtime,
            ))
        found.sort(key=lambda entry: (entry.modified, entry.key))
        return found

    def total_bytes(self) -> int:
        """Bytes held by every entry of the root."""
        return sum(entry.size_bytes for entry in self.entries())

    def prune(self, max_bytes: int) -> List[CacheEntry]:
        """Evict least-recently-used entries of any kind until at most
        ``max_bytes`` remain; returns the evicted entries.

        ``max_bytes=0`` clears the root.  Recency is entry mtime, which
        hits bump — so a hot entry survives a prune that drops a colder,
        newer-written one.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted: List[CacheEntry] = []
        for entry in entries:
            if total <= max_bytes:
                break
            try:
                entry.path.unlink()
            except FileNotFoundError:  # a concurrent pruner got there first
                total -= entry.size_bytes
                continue
            except OSError:
                continue
            total -= entry.size_bytes
            self._tallies[entry.kind, "evictions"].inc()
            evicted.append(entry)
        return evicted
