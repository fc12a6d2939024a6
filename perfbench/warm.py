"""The warm workload: two tenants resubmitting one suite to a gateway.

Set-up fills a trace and transpile cache once with a fresh
``repro run-scenarios`` process, then starts ``repro serve`` on a copy of
it (three times, keeping the last) and checks that ``GET /results/<fp>``
serves the very bytes that process wrote.  Each tenant is one client
thread with one connection at a time; an op is ``POST /jobs``, the NDJSON
event stream to its end, ``GET /jobs/<id>`` and ``GET /comparisons/<key>``.
Every study of the suite must be a cache hit, so no pool task runs.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from harness import (
    SCENARIOS,
    WORKERS,
    BenchError,
    Child,
    Finished,
    OpResult,
    OutputChecks,
    closed_loop,
    first_json,
    median,
    repro_argv,
    run_child,
    sha256_json,
    tail,
    timed_metrics,
)
from spans import Recorder

EXECUTORS = 2
TENANTS = ("tenant-a", "tenant-b")
HOST = "127.0.0.1"
#: server-side layer times of a warm op; the traced run names the largest
BUSY_LAYERS = ("scenarios.resolve_s", "compare.busy_s", "store.put_s")


class OpDeadline(Exception):
    """The op outlived its deadline (a stuck job keeps its stream alive
    with heartbeats, so only the client can end it)."""


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Gateway:
    """One ``repro serve`` process and a minimal HTTP client for it."""

    def __init__(self, ctx, workload, cache_dir, logs, trace_out=None):
        jobs, months = ctx.scale(workload)
        self.port = _free_port()
        self.stderr = logs.with_suffix(".err")
        self.child = Child(
            repro_argv("serve", "--jobs", jobs, "--months", months,
                       "--seed", ctx.seed, "--workers", WORKERS,
                       "--executors", EXECUTORS, "--cache-dir", cache_dir,
                       "--host", HOST, "--port", self.port,
                       *(("--trace-out", trace_out) if trace_out else ())),
            env=ctx.env, stdout=logs.with_suffix(".out"), stderr=self.stderr)

    def request(self, method: str, path: str, timeout: float,
                body: Optional[Dict[str, object]] = None,
                tenant: Optional[str] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(HOST, self.port,
                                                timeout=timeout)
        try:
            headers = {"X-Repro-Tenant": tenant} if tenant else {}
            data = None
            if body is not None:
                data = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def wait_ready(self, limit: float = 60.0) -> None:
        end = time.monotonic() + limit
        while time.monotonic() < end:
            if not self.child.alive():
                raise BenchError(f"gateway exited: {tail(self.stderr, 5)}")
            try:
                if self.request("GET", "/healthz", timeout=2.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise BenchError(f"gateway not ready after {limit:.0f}s")

    def requests_served(self) -> float:
        """Sum of ``repro_gateway_requests_total`` on ``GET /metrics``."""
        status, body = self.request("GET", "/metrics", timeout=10.0)
        if status != 200:
            raise BenchError(f"GET /metrics answered {status}")
        pattern = re.compile(r"^repro_gateway_requests_total(\{[^}]*\})? (\S+)$")
        return sum(float(match.group(2))
                   for line in body.decode("utf-8").splitlines()
                   for match in [pattern.match(line)] if match)

    def stop(self) -> Finished:
        """SIGINT (the gateway's clean shutdown), then the group is killed
        if it has not exited in time."""
        if self.child.alive():
            try:
                os.kill(self.child.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
        return self.child.wait(deadline=30.0)

    def executor_tracebacks(self) -> List[str]:
        text = self.stderr.read_text(errors="replace")
        return [block.strip() for block in
                re.split(r"(?=Exception in thread )", text)
                if block.startswith("Exception in thread ")]


class WarmWorkload:
    name = "whatif-warm"
    jobs, months = 500, 3
    deadline = 45.0  # seconds per op; a two-tenant op takes about 12


WHATIF_WARM = WarmWorkload()


class Fill:
    """The cache every gateway of a run starts from, filled once."""

    def __init__(self, ctx):
        jobs, months = ctx.scale(WHATIF_WARM)
        self.root = ctx.workdir / "fill"
        self.root.mkdir(parents=True)
        started = time.perf_counter()
        finished = run_child(
            repro_argv("run-scenarios", "--jobs", jobs, "--months", months,
                       "--seed", ctx.seed, "--workers", WORKERS,
                       "--cache-dir", self.root / "cache",
                       "--scenarios", ",".join(SCENARIOS),
                       "--output-dir", self.root / "out", "--quiet"),
            env=ctx.env, logs=self.root / "cli", deadline=120.0)
        if finished.returncode != 0:
            raise BenchError(f"filling the cache failed: "
                            f"{tail(self.root / 'cli.err', 5)}")
        summary = first_json((self.root / "cli.out").read_text())
        self.seconds = time.perf_counter() - started
        self.fingerprints = {run["scenario"]: run["fingerprint"]
                             for run in summary["scenarios"]}
        self.rows = sum(int(run["jobs"]) for run in summary["scenarios"])

    def copy(self, name: str):
        target = self.root.parent / name
        shutil.copytree(self.root / "cache", target)
        return target

    def start(self, ctx, name: str, mismatches: List[Dict[str, object]],
              trace_out=None) -> Gateway:
        """A gateway on a fresh copy, checked against the fill's outputs."""
        gateway = Gateway(ctx, WHATIF_WARM, self.copy(name),
                          ctx.workdir / name, trace_out=trace_out)
        try:
            gateway.wait_ready()
            for scenario, fingerprint in self.fingerprints.items():
                status, body = gateway.request(
                    "GET", f"/results/{fingerprint}", timeout=30.0)
                written = (self.root / "out" / f"{scenario}.npz").read_bytes()
                if status != 200 or body != written:
                    mismatches.append({
                        "op": name, "against": "run-scenarios output",
                        "expected": f"{scenario}.npz ({len(written)} bytes)",
                        "got": f"HTTP {status}, {len(body)} bytes"})
        except BaseException:
            gateway.stop()
            raise
        return gateway


def warm_op(gateway: Gateway, tenant: str, label: str,
            deadline: float) -> OpResult:
    """One closed-loop op of one tenant, ended by the checked comparison."""
    started = time.perf_counter()
    end = started + deadline

    def remaining() -> float:
        left = end - time.perf_counter()
        if left <= 0:
            raise OpDeadline()
        return left

    result = OpResult(label, 0.0, 0.0, extra={"tenant": tenant})
    job_id = None
    try:
        status, body = gateway.request("POST", "/jobs", remaining(),
                                       body={"scenarios": list(SCENARIOS)},
                                       tenant=tenant)
        if status != 202:
            raise ValueError(f"POST /jobs answered {status}: {body[:200]!r}")
        job_id = json.loads(body)["job"]
        result.extra["job"] = job_id
        result.extra["first_event_s"], last = _follow_events(
            gateway, job_id, tenant, started, remaining)
        status, body = gateway.request("GET", f"/jobs/{job_id}", remaining(),
                                       tenant=tenant)
        snapshot = json.loads(body)
        if snapshot.get("state") != "done":
            raise ValueError(f"job ended {snapshot.get('state')} "
                             f"({snapshot.get('error')}); last event {last}")
        result.extra["job_run_s"] = snapshot["finished"] - snapshot["started"]
        summary = snapshot["result"]
        result.extra["cache_hits"] = summary["cache_hits"]
        if summary["cache_hits"] < len(SCENARIOS):
            raise ValueError(f"{summary['cache_hits']} cache hits for "
                             f"{len(SCENARIOS)} studies")
        result.rows = sum(int(run["jobs"]) for run in summary["scenarios"])
        fetch_started = time.perf_counter()
        status, body = gateway.request(
            "GET", f"/comparisons/{summary['comparison_key']}", remaining(),
            tenant=tenant)
        if status != 200:
            raise ValueError(f"GET /comparisons answered {status}")
        result.digests = {"comparison": sha256_json(
            json.loads(body)["comparison"])}
        result.extra["fetch_s"] = time.perf_counter() - fetch_started
    except (OpDeadline, socket.timeout):
        result.failure = f"deadline of {deadline:.0f}s passed"
    except Exception as exc:  # any other failure ends this op, not the run
        result.failure = repr(exc)
    result.seconds = time.perf_counter() - started
    if result.failure and job_id is not None:
        try:
            status, body = gateway.request("GET", f"/jobs/{job_id}", 5.0)
            result.extra["job_state"] = json.loads(body).get("state")
        except (OSError, ValueError):
            pass
    return result


def _follow_events(gateway: Gateway, job_id: str, tenant: str,
                   started: float, remaining) -> Tuple[float, object]:
    """Read the job's NDJSON stream to its end; returns the seconds from
    the submission to the first event, and the last event's type.

    The op deadline is checked after every line, heartbeats included, and
    bounds each read.
    """
    first_event_s = None
    last = None
    connection = http.client.HTTPConnection(HOST, gateway.port,
                                            timeout=remaining())
    response = None
    try:
        connection.request("GET", f"/jobs/{job_id}/events",
                           headers={"X-Repro-Tenant": tenant})
        # the response reads this socket after the connection lets go of it
        # (the stream ends at connection close)
        sock = connection.sock
        response = connection.getresponse()
        if response.status != 200:
            raise ValueError(f"event stream answered {response.status}")
        while True:
            sock.settimeout(remaining())
            line = response.readline()
            if not line:
                break
            if not line.strip():
                continue
            if first_event_s is None:
                first_event_s = time.perf_counter() - started
            event = json.loads(line)
            if event.get("event") != "heartbeat":
                last = event.get("event")
    finally:
        if response is not None:
            response.close()
        connection.close()
    if first_event_s is None:
        raise ValueError("the event stream was empty")
    return first_event_s, last


def tenant_loops(gateway: Gateway, window: float, deadline: float,
                 max_ops: Optional[int] = None, prefix: str = ""
                 ) -> List[OpResult]:
    """Both tenants' closed loops, started together."""
    barrier = threading.Barrier(len(TENANTS))
    per_tenant: Dict[str, List[OpResult]] = {}

    def client(tenant: str) -> None:
        barrier.wait()
        per_tenant[tenant] = closed_loop(
            window, lambda index: warm_op(
                gateway, tenant, f"{prefix}{tenant}-{index}", deadline),
            max_ops)

    threads = [threading.Thread(target=client, args=(tenant,), daemon=True)
               for tenant in TENANTS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [result for tenant in TENANTS for result in per_tenant[tenant]]


def _setup(ctx, mismatches) -> Tuple[Fill, Gateway, float]:
    """Fill once, start the gateway three times; set-up seconds are the
    fill plus the median start."""
    fill = Fill(ctx)
    starts = []
    gateway = None
    for index in range(3):
        if gateway is not None:
            gateway.stop()
        started = time.perf_counter()
        gateway = fill.start(ctx, f"gateway-{index}", mismatches)
        starts.append(time.perf_counter() - started)
    return fill, gateway, fill.seconds + median(starts)


def _p50(results: List[OpResult], key: Optional[str] = None) -> float:
    """Median of an op measurement over the ops that succeeded (0 when
    none did; the failures are counted)."""
    values = [result.seconds if key is None else result.extra[key]
              for result in results if result.ok]
    return median(values) if values else 0.0


def _checked(checks: OutputChecks, results: List[OpResult],
             tracebacks: List[str]) -> List[OpResult]:
    for result in results:
        checks.op(result)
    if checks.failures:
        checks.failures.append({"executor_tracebacks": tracebacks})
    return results


def run_timed(ctx) -> Dict[str, object]:
    checks = OutputChecks(ctx, WHATIF_WARM)
    fill, gateway, setup_s = _setup(ctx, checks.book.mismatches)
    try:
        results = tenant_loops(gateway, ctx.seconds,
                               ctx.deadline(WHATIF_WARM))
    finally:
        finished = gateway.stop()
    _checked(checks, results, gateway.executor_tracebacks())
    timed, details = timed_metrics(results, clients=len(TENANTS))
    return {
        "attempted": len(results),
        "failed": sum(1 for result in results if not result.ok),
        "mismatches": checks.book.mismatches,
        "metrics": {
            **timed,
            "peak_rss_mb": finished.peak_rss_mb,
            "setup_s": setup_s,
        },
        "details": {**details, "failures": checks.failures,
                    "output": checks.book.report()},
    }


def run_traced(ctx) -> Dict[str, object]:
    """One op per tenant untraced, one traced, then the read side called
    directly in this process."""
    import layers

    checks = OutputChecks(ctx, WHATIF_WARM)
    fill, gateway, _ = _setup(ctx, checks.book.mismatches)
    deadline = ctx.deadline(WHATIF_WARM)
    try:
        untraced = tenant_loops(gateway, 0.0, deadline, max_ops=1,
                                prefix="untraced-")
    finally:
        gateway.stop()
    tracebacks = gateway.executor_tracebacks()
    program_spans = ctx.artifacts / "program-spans.json"
    gateway = fill.start(ctx, "gateway-traced", checks.book.mismatches,
                         trace_out=program_spans)
    try:
        before = gateway.requests_served()
        traced = tenant_loops(gateway, 0.0, deadline, max_ops=1,
                              prefix="traced-")
        requests = gateway.requests_served() - before - 1
    finally:
        gateway.stop()
    results = _checked(checks, untraced + traced,
                       tracebacks + gateway.executor_tracebacks())

    rec = Recorder()
    jobs, months = ctx.scale(WHATIF_WARM)
    read, resolved = layers.read_side(
        layers.base_config(jobs, months, ctx.seed), SCENARIOS,
        fill.copy("in-process-cache"), ctx.workdir / "in-process-store",
        WORKERS, rec)
    calibration_build_s = layers.headline_calibration(resolved, rec)
    rec.write_chrome_trace(ctx.artifacts / "bench-spans.json")

    op_p50 = _p50(untraced)
    traced_p50 = _p50(traced)
    first_event = _p50(untraced, "first_event_s")
    fetch = _p50(untraced, "fetch_s")
    server_side = read["resolve_s"] + read["compare_s"] + read["store_put_s"]
    metrics = {
        "cache.get_s": read["cache_get_s"],
        "cache.hit_ratio": _p50(results, "cache_hits") / len(SCENARIOS),
        "calibration.build_s": calibration_build_s,
        "scenarios.resolve_s": read["resolve_s"],
        "compare.busy_s": read["compare_s"],
        "store.put_s": read["store_put_s"],
        "gateway.first_event_s": first_event,
        "gateway.fetch_s": fetch,
        "gateway.overhead_s": op_p50 - server_side,
        "gateway.requests": requests / len(traced),
        "telemetry.overhead_ratio": traced_p50 / op_p50 if op_p50 else 0.0,
        "op.unattributed_s": traced_p50 - server_side - first_event - fetch,
    }
    ok = [result for result in results if result.ok]
    return {
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "mismatches": checks.book.mismatches,
        "metrics": metrics,
        "details": {"op_seconds": {result.label: result.seconds
                                   for result in results},
                    "failures": checks.failures,
                    "output": checks.book.report(),
                    "rows_compared": fill.rows,
                    "largest_busy_layer": max(BUSY_LAYERS, key=metrics.get),
                    "span_files": [str(program_spans),
                                   str(ctx.artifacts / "bench-spans.json")]},
    }
