"""Parallel sharded execution of the study trace pipeline.

The runner turns the trace generation behind every figure of the paper into
an embarrassingly parallel workload:

* :mod:`repro.runner.sharding` — deterministic partitioning of the
  submission plan (synthesis shards) and of the fleet (simulation groups).
* :mod:`repro.runner.pool` — :class:`SharedWorkerPool`, the persistent
  pool/session object every study schedules onto, with per-study worker
  state keyed by config fingerprint.
* :mod:`repro.runner.executor` — :func:`run_suite`, which schedules many
  distinct studies as one interleaved queue over a single pool and merges
  each with stable ordering; :func:`run_study` runs one config through it
  on a shared or transient pool.
* :mod:`repro.runner.cache` — the on-disk :class:`TraceCache` keyed by a
  content fingerprint of the generator config.

The merged trace is a pure function of the
:class:`~repro.workloads.generator.TraceGeneratorConfig`: worker count,
shard count and which studies share the pool only change how fast it is
produced, never its bytes.
"""

from repro.runner.cache import CacheEntry, TraceCache, config_fingerprint
from repro.runner.executor import (
    EventCallback,
    StudyResult,
    SuiteCancelled,
    SuiteEvent,
    default_workers,
    run_study,
    run_suite,
)
from repro.runner.pool import SharedWorkerPool
from repro.runner.sharding import (
    MachineGroup,
    ShardSpec,
    plan_machine_groups,
    plan_shards,
)

__all__ = [
    "CacheEntry",
    "EventCallback",
    "MachineGroup",
    "ShardSpec",
    "SharedWorkerPool",
    "StudyResult",
    "SuiteCancelled",
    "SuiteEvent",
    "TraceCache",
    "config_fingerprint",
    "default_workers",
    "plan_machine_groups",
    "plan_shards",
    "run_study",
    "run_suite",
]
