"""On-disk caching of generated study traces.

Generating the full 6000-job trace takes minutes of CPU; every benchmark
session and CI run used to pay that cost again.  :class:`TraceCache` stores
each generated trace under a key derived from the *content* of its
:class:`~repro.workloads.generator.TraceGeneratorConfig`, so any run with an
equivalent config — regardless of worker or shard count, which do not affect
the result — gets the exact bytes of the first run back.

Entries are written as the versioned compressed ``.npz`` column dump of
:meth:`~repro.workloads.trace.TraceDataset.to_npz` (deterministic bytes,
loads as typed arrays with no row parsing).  Traces whose column bytes
exceed their resident-memory budget are stored as *block-manifest
directories* instead (``trace-<key>.blocks/``: a ``manifest.json`` plus
one versioned block ``.npz`` per chunk), written and re-served block by
block so neither ``put`` nor ``get`` ever materialises the whole trace.
*Stale-content* invalidation happens through the fingerprint itself —
entries written by incompatible versions live under different keys and
simply miss.

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
import zipfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.cacheroot import CacheEntry, CacheRoot
from repro.core.exceptions import TraceSchemaError
from repro.telemetry import get_tracer
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset

__all__ = ["CacheEntry", "TRACE_SCHEMA_VERSION", "TraceCache",
           "config_fingerprint"]


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

    def manifest_dir_for(self, key: str) -> Path:
        """Where a block-manifest entry for ``key`` would live (the layout
        used for traces too large for their resident-bytes budget)."""
        return self.cache_root.entry_path("trace", key, ".blocks")

    def existing_path_for(self, key: str) -> Optional[Path]:
        """The on-disk entry a hit for ``key`` would be served from, if any."""
        path = self.path_for(key)
        if path.is_file():
            return path
        manifest_dir = self.manifest_dir_for(key)
        if manifest_dir.is_dir():
            return manifest_dir
        return None

    def get(self, key: str) -> Optional[TraceDataset]:
        """The cached trace for ``key``, or None on a miss.

        The ``.npz`` column dump is tried first, then a block manifest.  A
        corrupt or unreadable entry (e.g. hand-edited, or truncated
        mid-write) counts as a miss and will be overwritten by the
        regenerated trace rather than poisoning every later run.  A
        *schema-version* mismatch, however, raises
        :class:`~repro.core.exceptions.TraceSchemaError` with the expected
        and found versions and the cache path — an entry written under an
        incompatible layout sitting at the exact key this config hashes to
        is a configuration problem to surface, not one to silently re-pay
        minutes of regeneration for on every run.

        A ``.npz`` entry is read whole (and chunked under the process-wide
        memory budget), so the trace never reads its entry again and
        outlives a prune of it.  A block-manifest entry loads lazily: every
        block starts spilled, backed by its file in the entry, and the
        budget governs how many become resident.
        """
        manifest_dir = self.manifest_dir_for(key)
        candidates = [
            (self.path_for(key), TraceDataset.from_npz),
            (manifest_dir, TraceDataset.from_block_manifest),
        ]
        with get_tracer().span("cache.get", study=key):
            for path, loader in candidates:
                if path is manifest_dir:
                    if not (path / "manifest.json").is_file():
                        continue
                elif not path.is_file():
                    continue
                try:
                    trace = loader(path)
                except TraceSchemaError as exc:
                    raise TraceSchemaError(
                        f"cache entry {path} has an incompatible trace "
                        f"schema: {exc}; delete the entry (or point "
                        f"--cache-dir at a fresh directory) to regenerate "
                        f"it") from exc
                except (ValueError, TypeError, KeyError, OSError,
                        zipfile.BadZipFile):
                    continue
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
            self.cache_root.miss("trace")
            return None

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The exact cached bytes for ``key`` (None on a miss).

        Block-manifest entries have no single-file byte representation —
        serving one through this path would materialise the whole trace,
        which is exactly what the out-of-core format exists to avoid — so
        they miss here; callers that need the data stream it block-wise
        through :meth:`get` instead.
        """
        path = self.existing_path_for(key)
        if path is None or path.is_dir():
            self.cache_root.miss("trace")
            return None
        data = path.read_bytes()
        self.cache_root.hit("trace", path)
        return data

    def put(self, key: str, trace: TraceDataset) -> Path:
        """Store ``trace`` under ``key`` atomically; returns the cache path.

        In-RAM-sized traces are written as the single deterministic ``.npz``
        dump (byte-identical to every prior release); a trace whose column
        bytes exceed its resident budget is streamed block by block into a
        ``trace-<key>.blocks/`` manifest directory instead, so the put never
        materialises it.  :meth:`CacheRoot.write` makes either atomic and
        drops the other format's entry for the key.
        """
        if trace.is_out_of_core:
            suffix, fill = ".blocks", trace.to_block_manifest
        else:
            suffix, fill = ".npz", trace.to_npz
        with get_tracer().span("cache.put", study=key,
                               out_of_core=trace.is_out_of_core):
            return self.cache_root.write("trace", key, suffix, fill)

    def stats(self) -> Dict[str, int]:
        return self.cache_root.counts("trace")
