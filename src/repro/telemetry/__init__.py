"""Unified telemetry: the metrics registry, span tracer and exposition.

One import surface for every instrumented layer::

    from repro.telemetry import get_registry, get_tracer

    get_registry().counter("repro_pool_tasks_total", kind="synthesis").inc()
    with get_tracer().span("synthesis.shard", job_shard=3):
        ...

See :mod:`repro.telemetry.metrics` for the registry semantics (shared
instruments, per-object tallies), :mod:`repro.telemetry.
tracing` for the span model and Chrome trace export, and
:mod:`repro.telemetry.exposition` for the Prometheus text surface.
"""

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tally,
    get_registry,
)
from repro.telemetry.exposition import (
    parse_prometheus_text,
    render_prometheus,
)
from repro.telemetry.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tally",
    "Tracer",
    "get_registry",
    "get_tracer",
    "parse_prometheus_text",
    "render_prometheus",
    "set_tracer",
]
