"""On-disk caching of generated study traces.

Generating the full 6000-job trace takes minutes of CPU; every benchmark
session and CI run used to pay that cost again.  :class:`TraceCache` stores
each generated trace under a key derived from the *content* of its
:class:`~repro.workloads.generator.TraceGeneratorConfig`, so any run with an
equivalent config — regardless of worker or shard count, which do not affect
the result — gets the exact bytes of the first run back.

Every entry is the versioned compressed ``.npz`` column dump of
:meth:`~repro.workloads.trace.TraceDataset.to_npz` (deterministic bytes,
loads as typed arrays with no row parsing), whatever the memory budget of
the process that wrote it.  Under a budget, ``put`` streams the dump from
the trace's blocks and ``get`` reads it back block by block, so neither
holds a whole column; either way ``get`` reads the entry once and the
trace never goes back to it.  *Stale-content* invalidation happens through
the fingerprint itself — entries written by incompatible versions live
under different keys and simply miss.

Trace entries share their directory with the transpile cache and the
gateway's comparisons: :class:`~repro.core.cacheroot.CacheRoot` owns the
atomic write, recency, listing, pruning and counts of every kind, and
:class:`TraceCache` keeps only the trace formats and lookups.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.cacheroot import CacheEntry, CacheRoot
from repro.core.exceptions import TraceSchemaError
from repro.telemetry import get_tracer
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset

__all__ = ["CacheEntry", "TRACE_SCHEMA_VERSION", "TraceCache",
           "config_fingerprint"]

#: What reading a damaged or missing entry raises: a missing file, a
#: broken zip structure or CRC, zip flag bits that ``zipfile`` cannot
#: honour (``RuntimeError``, ``NotImplementedError``), an inflate error, a
#: truncated member, a member that fails the reader's shape and dtype
#: checks, and an ``.npy`` header that numpy's fallback tokenizer cannot
#: parse.
_UNREADABLE = (OSError, EOFError, ValueError, TypeError, KeyError,
               RuntimeError, SyntaxError, zipfile.BadZipFile, zlib.error,
               tokenize.TokenError)


def _canonical(value: object) -> object:
    """Reduce a config value to a JSON-serialisable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__class__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_fingerprint(config: TraceGeneratorConfig) -> str:
    """A stable content hash of everything that shapes the generated trace.

    The package version is part of the hash so that releases that change
    generator/simulator behaviour invalidate old caches automatically;
    ``TRACE_SCHEMA_VERSION`` covers intentional format breaks in between.
    """
    from repro import __version__

    payload = {
        "schema": TRACE_SCHEMA_VERSION,
        "version": __version__,
        "config": _canonical(config),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:24]


class TraceCache:
    """The trace entries of a cache root, keyed by config fingerprint.

    ``root`` is a directory or a shared
    :class:`~repro.core.cacheroot.CacheRoot`; the root owns the atomic
    write, the recency bump on a hit, listing, pruning and the hit/miss/
    eviction counts, which :meth:`stats` reports for the ``trace`` kind.
    """

    def __init__(self, root: Union[str, Path, CacheRoot]):
        self.cache_root = CacheRoot.of(root)
        self.root = self.cache_root.path

    def path_for(self, key: str) -> Path:
        return self.cache_root.entry_path("trace", key, ".npz")

    def existing_path_for(self, key: str) -> Optional[Path]:
        """The on-disk entry a hit for ``key`` would be served from, if any."""
        path = self.path_for(key)
        return path if path.is_file() else None

    def get(self, key: str) -> Optional[TraceDataset]:
        """The cached trace for ``key``, or None on a miss.

        A corrupt or unreadable entry (hand-edited, truncated mid-write, a
        flipped bit) counts as a miss and will be overwritten by the
        regenerated trace rather than poisoning every later run.  A
        *schema-version* mismatch, however, raises
        :class:`~repro.core.exceptions.TraceSchemaError` with the expected
        and found versions and the cache path — an entry written under an
        incompatible layout sitting at the exact key this config hashes to
        is a configuration problem to surface, not one to silently re-pay
        minutes of regeneration for on every run.

        The entry is read once, block by block under the process-wide
        memory budget (see :meth:`TraceDataset.from_npz`), so the trace
        outlives a prune or a rewrite of its entry.
        """
        path = self.path_for(key)
        with get_tracer().span("cache.get", study=key):
            try:
                trace = TraceDataset.from_npz(path)
            except TraceSchemaError as exc:
                raise TraceSchemaError(
                    f"cache entry {path} has an incompatible trace "
                    f"schema: {exc}; delete the entry (or point "
                    f"--cache-dir at a fresh directory) to regenerate "
                    f"it") from exc
            except _UNREADABLE:
                self.cache_root.miss("trace")
                return None
            found = trace.metadata.get("trace_schema")
            if found is not None and found != TRACE_SCHEMA_VERSION:
                raise TraceSchemaError(
                    f"cache entry {path} holds a trace generated under "
                    f"TRACE_SCHEMA_VERSION={found!r} but this version "
                    f"expects {TRACE_SCHEMA_VERSION}; delete the entry "
                    f"(or point --cache-dir at a fresh directory) to "
                    f"regenerate it")
            self.cache_root.hit("trace", path)
            return trace

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The exact cached bytes for ``key`` (None on a miss)."""
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.cache_root.miss("trace")
            return None
        self.cache_root.hit("trace", path)
        return data

    def put(self, key: str, trace: TraceDataset) -> Path:
        """Store ``trace`` under ``key`` atomically; returns the cache path.

        Every trace is written as the one deterministic ``.npz`` dump, the
        same bytes whether or not it is chunked, so a chunked trace is
        streamed from its blocks without being materialised.
        :meth:`CacheRoot.write` makes the write atomic.
        """
        with get_tracer().span("cache.put", study=key):
            return self.cache_root.write("trace", key, ".npz", trace.to_npz)

    def stats(self) -> Dict[str, int]:
        return self.cache_root.counts("trace")
