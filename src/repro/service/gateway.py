"""The study-service gateway: a long-lived multi-tenant HTTP server.

:class:`StudyService` wraps one process-wide
:class:`~repro.runner.pool.SharedWorkerPool` plus a content-addressed
:class:`~repro.service.store.ResultStore` behind a small stdlib
(``http.server``) JSON API, turning the batch what-if CLI into submitted,
multiplexed, streamed workloads:

* ``POST /jobs`` — submit a study/suite/sweep as JSON (resolved by
  :func:`repro.scenarios.spec.resolve_submission`, exactly as the batch
  CLI resolves its flags), per-tenant quota enforced, FIFO-fair across
  tenants;
* ``GET /jobs`` / ``GET /jobs/<id>`` — list / inspect submissions;
* ``POST /jobs/<id>/cancel`` — dequeue a queued job (freeing its quota
  slot) or abort a running one between studies;
* ``GET /jobs/<id>/events`` — the job's progress log as an NDJSON stream:
  queueing, per-shard progress with ETA, partial per-scenario results,
  and the terminal event;
* ``GET /results/<fingerprint>`` — the finished trace, byte-identical to
  what the batch ``run-scenarios`` path caches under the same key;
* ``GET /comparisons/<key>`` — a suite's stored delta report;
* ``GET /stats`` / ``GET /healthz`` — pool, store and registry telemetry;
* ``GET /metrics`` — the process-wide metrics registry in Prometheus text
  exposition format (counters, gauges, histograms across every layer).

Executor threads (``executors``, default 2) pull jobs from the registry
and run each through :func:`~repro.scenarios.engine.run_scenarios`
scheduled onto the *shared* pool, so concurrent tenants interleave their
synthesis shards and simulations on one set of workers — determinism is
the runner's: every study is a pure function of its config fingerprint,
whoever submitted it and whatever ran alongside.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Union
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.analysis.compare import compare_suite
from repro.runner.executor import SuiteCancelled, SuiteEvent
from repro.runner.pool import SharedWorkerPool
from repro.scenarios import resolve_submission, run_scenarios
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    TERMINAL_STATES,
    JobQuotaExceeded,
    JobRegistry,
    ServiceError,
    ServiceJob,
    UnknownJobError,
)
from repro.service.store import ResultStore, comparison_key
from repro.telemetry import get_registry, get_tracer, render_prometheus
from repro.workloads.generator import TraceGeneratorConfig

__all__ = ["StudyService", "serve"]

class StudyService:
    """The long-lived multi-tenant study service over one shared pool."""

    def __init__(
        self,
        base_config: Optional[TraceGeneratorConfig] = None,
        *,
        workers: Optional[int] = None,
        num_shards: Optional[int] = None,
        cache_dir: Union[str, Path] = ".repro-cache",
        max_cache_bytes: Optional[int] = None,
        tenant_quota: int = 8,
        executors: int = 2,
        stream_idle_seconds: float = 15.0,
    ):
        self.base_config = base_config or TraceGeneratorConfig()
        self.num_shards = num_shards
        self.pool = SharedWorkerPool(workers)
        self.store = ResultStore(cache_dir, max_bytes=max_cache_bytes)
        self.registry = JobRegistry(tenant_quota=tenant_quota)
        self.executors = max(1, int(executors))
        self.stream_idle_seconds = stream_idle_seconds
        self._threads: List[threading.Thread] = []
        self._started = False
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "StudyService":
        """Start the executor threads (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._threads = [
                threading.Thread(target=self._executor_loop,
                                 name=f"study-exec-{index}", daemon=True)
                for index in range(self.executors)
            ]
            for thread in self._threads:
                thread.start()
        return self

    def stop(self) -> None:
        """Stop taking work, drain the executors, release the pool."""
        self.registry.close()
        for thread in self._threads:
            thread.join(timeout=60)
        self.pool.close()

    def __enter__(self) -> "StudyService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- the executor side -------------------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            job = self.registry.take(timeout=0.5)
            if job is None:
                if self.registry.closed:
                    return
                continue
            try:
                self._run_job(job)
            except Exception as exc:
                # _run_job finishes every failure it expects itself; any
                # other raise (storing or pruning results) must neither
                # strand the job in ``running`` nor end this thread.
                if job.state not in TERMINAL_STATES:
                    self.registry.finish(
                        job, FAILED, error=f"{type(exc).__name__}: {exc}")

    def _run_job(self, job: ServiceJob) -> None:
        try:
            base, scenarios = resolve_submission(job.payload,
                                                 self.base_config)
        except Exception as exc:
            self.registry.finish(job, FAILED, error=str(exc))
            return
        if job.cancel_requested:
            self.registry.finish(job, CANCELLED)
            return

        # run_scenarios names the scenarios of each finished study, so
        # partial results are labelled for the stream while the suite runs;
        # the names leave the progress event, whose bytes stay as they were.
        def forward(event: SuiteEvent) -> None:
            detail = event.as_dict()
            kind = detail.pop("kind")
            names = detail.pop("scenarios", ())
            job.emit("progress", kind=kind, **detail)
            for name in names:
                job.emit("scenario-done", scenario=name,
                         fingerprint=event.key,
                         cache_hit=(kind == "cache-hit"),
                         **{k: v for k, v in detail.items()
                            if k in ("jobs", "seconds")})

        cache = (self.store.cache if job.payload.get("use_cache", True)
                 else None)
        try:
            suite = run_scenarios(
                scenarios, base,
                num_shards=self.num_shards,
                cache_dir=cache,
                pool=self.pool,
                on_event=forward,
                should_stop=lambda: job.cancel_requested,
            )
        except SuiteCancelled:
            self.registry.finish(job, CANCELLED)
            return
        except Exception as exc:
            self.registry.finish(job, FAILED, error=str(exc))
            return

        # The on-wire summary is derived from the suite's StudyResult
        # handles (name → fingerprint/cache-hit), keeping the JSON bytes
        # exactly what earlier releases emitted.
        result: Dict[str, object] = {
            "scenarios": [run.summary() for run in suite],
            "fingerprints": suite.fingerprints(),
            "cache_hits": sum(1 for run in suite if run.cache_hit),
            "total_seconds": round(suite.total_seconds, 3),
        }
        if bool(job.payload.get("compare", True)):
            try:
                report = compare_suite(suite)
            except Exception as exc:
                self.registry.finish(job, FAILED,
                                     error=f"comparison failed: {exc}")
                return
            key = comparison_key([
                (run.name, run.fingerprint, run.scenario.replicate_of)
                for run in suite])
            self.store.put_comparison(key, {
                "comparison_key": key,
                "suite": suite.summary(),
                "comparison": report.as_dict(),
            })
            result["comparison_key"] = key
        self.store.prune()
        self.registry.finish(job, DONE, result=result)

    # -- the HTTP surface --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        metrics = get_registry()
        kinds = ("transpile", "synthesis", "simulation", "task")
        transpile_entries = [entry
                             for entry in self.store.cache_root.entries()
                             if entry.kind == "transpile"]
        return {
            "service": "repro-study-service",
            "version": __version__,
            "workers": self.pool.workers,
            "executors": self.executors,
            "registry": self.registry.stats(),
            "store": self.store.stats(),
            "transpile_cache": {
                "entries": len(transpile_entries),
                "total_bytes": sum(entry.size_bytes
                                   for entry in transpile_entries),
                # Process-wide family counters: the transpile caches the
                # runner opened did the probing.
                "hits": int(metrics.value(
                    "repro_transpile_cache_hits_total")),
                "misses": int(metrics.value(
                    "repro_transpile_cache_misses_total")),
                "evictions": int(metrics.value(
                    "repro_transpile_cache_evictions_total")),
            },
            "pool": {
                "workers": self.pool.workers,
                "queue_depth": int(
                    metrics.value("repro_pool_queue_depth")),
                "tasks_submitted": int(sum(
                    metrics.value("repro_pool_tasks_total", kind=kind)
                    for kind in kinds)),
                "tasks_completed": int(sum(
                    metrics.value("repro_pool_tasks_completed_total",
                                  kind=kind)
                    for kind in kinds)),
            },
        }

    def make_server(self, host: str = "127.0.0.1",
                    port: int = 8765) -> ThreadingHTTPServer:
        """An HTTP server bound to this service (``port=0`` picks a free
        one).  Call :meth:`start` first; ``serve_forever`` is the caller's."""
        service = self

        class Handler(_GatewayHandler):
            pass

        Handler.service = service
        server = ThreadingHTTPServer((host, port), Handler)
        server.daemon_threads = True
        return server


class _GatewayHandler(BaseHTTPRequestHandler):
    """Routes the gateway's HTTP surface onto a :class:`StudyService`."""

    service: StudyService  # bound by StudyService.make_server
    server_version = "repro-study-service"
    protocol_version = "HTTP/1.0"  # streams end at connection close

    # -- plumbing ----------------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service is quiet; telemetry lives under /stats

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ServiceError("request body must be a JSON object")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    # -- routing -----------------------------------------------------------------------

    @contextmanager
    def _observed(self, method: str, parts: List[str]):
        """Count the request, time it, and span it (bounded route labels)."""
        route = "/" + parts[0] if parts else "/"
        registry = get_registry()
        registry.counter(
            "repro_gateway_requests_total", method=method, route=route,
            help="HTTP requests served by the gateway.").inc()
        histogram = registry.histogram(
            "repro_gateway_request_seconds",
            help="Gateway request handling latency in seconds.")
        start = time.perf_counter()
        with get_tracer().span("gateway.request", method=method,
                               route=route):
            try:
                yield
            finally:
                histogram.observe(time.perf_counter() - start)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        with self._observed("GET", parts):
            self._handle_get(url, parts)

    def _handle_get(self, url, parts: List[str]) -> None:
        query = parse_qs(url.query)
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"status": "ok",
                                      "version": __version__})
            elif parts == ["stats"]:
                self._send_json(200, self.service.stats())
            elif parts == ["jobs"]:
                tenant = query.get("tenant", [None])[0]
                self._send_json(200, {"jobs": [
                    job.snapshot()
                    for job in self.service.registry.jobs(tenant)]})
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self.service.registry.get(parts[1])
                self._send_json(200, job.snapshot())
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "events":
                since = int(query.get("since", ["0"])[0])
                self._stream_events(self.service.registry.get(parts[1]),
                                    since)
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "result":
                self._send_result(self.service.registry.get(parts[1]))
            elif len(parts) == 2 and parts[0] == "results":
                self._send_trace(parts[1])
            elif len(parts) == 2 and parts[0] == "comparisons":
                payload = self.service.store.get_comparison(parts[1])
                if payload is None:
                    self._send_error_json(
                        404, f"no comparison {parts[1]!r}")
                else:
                    self._send_json(200, payload)
            elif parts == ["metrics"]:
                self._send_metrics()
            else:
                self._send_error_json(404, f"no route GET {url.path}")
        except UnknownJobError as exc:
            self._send_error_json(404, str(exc))
        except ServiceError as exc:
            self._send_error_json(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        with self._observed("POST", parts):
            self._handle_post(url, parts)

    def _handle_post(self, url, parts: List[str]) -> None:
        try:
            if parts == ["jobs"]:
                payload = self._read_json()
                tenant = str(
                    payload.get("tenant")
                    or self.headers.get("X-Repro-Tenant")
                    or "default")
                # Fail fast on malformed submissions: resolution errors
                # surface as HTTP 400 instead of a failed job.
                resolve_submission(payload, self.service.base_config)
                job = self.service.registry.submit(tenant, payload)
                self._send_json(202, job.snapshot())
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "cancel":
                job = self.service.registry.cancel(parts[1])
                self._send_json(200, job.snapshot())
            else:
                self._send_error_json(404, f"no route POST {url.path}")
        except JobQuotaExceeded as exc:
            self._send_error_json(429, str(exc))
        except UnknownJobError as exc:
            self._send_error_json(404, str(exc))
        except ServiceError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # malformed payloads must not kill threads
            self._send_error_json(400, str(exc))

    # -- responses ---------------------------------------------------------------------

    def _send_metrics(self) -> None:
        body = render_prometheus(get_registry()).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_events(self, job: ServiceJob, since: int) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        for event in job.stream(since=since,
                                idle=self.service.stream_idle_seconds):
            if event is None:
                line = json.dumps({"event": "heartbeat", "job": job.job_id})
            else:
                line = json.dumps(event)
            self.wfile.write(line.encode("utf-8") + b"\n")
            self.wfile.flush()

    def _send_result(self, job: ServiceJob) -> None:
        if job.result is None:
            self._send_error_json(
                409, f"job {job.job_id} is {job.state}; no result yet"
                if job.state not in ("failed", "cancelled")
                else f"job {job.job_id} finished {job.state} "
                     f"without a result")
            return
        self._send_json(200, job.snapshot())

    def _send_trace(self, fingerprint: str) -> None:
        data = self.service.store.trace_bytes(fingerprint)
        if data is None:
            self._send_error_json(
                404, f"no trace for fingerprint {fingerprint!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Repro-Fingerprint", fingerprint)
        self.end_headers()
        self.wfile.write(data)


def serve(
    service: StudyService,
    host: str = "127.0.0.1",
    port: int = 8765,
) -> None:
    """Run the gateway until interrupted (the blocking CLI entry point)."""
    service.start()
    server = service.make_server(host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
