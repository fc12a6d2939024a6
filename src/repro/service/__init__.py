"""The study-service gateway: studies as submitted, streamed workloads.

Everything below ``repro.service`` turns the batch what-if pipeline into a
long-lived multi-tenant server over the one shared worker pool:

* :mod:`repro.service.jobs` — the job registry (``queued → running →
  done/failed/cancelled``), per-tenant quotas, FIFO fairness across
  tenants, and per-job event logs with blocking streams.
* :mod:`repro.service.store` — :class:`ResultStore`, the content-addressed
  result surface over the cache root: traces by config fingerprint,
  comparisons by suite hash, hit accounting, and one max-bytes LRU budget
  over every entry of the root.
* :mod:`repro.service.gateway` — :class:`StudyService` and the stdlib
  HTTP server (`python -m repro serve`): JSON submissions, NDJSON event
  streams, result fetches.
* :mod:`repro.service.client` — :class:`StudyServiceClient`, the
  dependency-free ``urllib`` client the CLI subcommands and the gateway
  tests use.
"""

from repro.core.lazy import lazy_exports
from repro.service.client import GatewayError, StudyServiceClient
from repro.service.jobs import (
    JobQuotaExceeded,
    JobRegistry,
    ServiceError,
    ServiceJob,
    UnknownJobError,
)

# The gateway and the store run studies and read traces, so they load
# numpy; the client commands import only the client and the registry.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.gateway": ("StudyService", "serve"),
    "repro.service.store": ("ResultStore", "comparison_key"),
})

__all__ = [
    "GatewayError",
    "JobQuotaExceeded",
    "JobRegistry",
    "ResultStore",
    "ServiceError",
    "ServiceJob",
    "StudyService",
    "StudyServiceClient",
    "UnknownJobError",
    "comparison_key",
    "serve",
]
