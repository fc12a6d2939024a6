"""End-to-end tests for the study-service gateway.

An in-process :class:`~repro.service.gateway.StudyService` plus its HTTP
server (bound to an ephemeral port) is exercised through the stdlib
:class:`~repro.service.client.StudyServiceClient` — the exact stack
``python -m repro serve`` / ``submit`` / ``fetch`` runs.  Covers the
submit → stream → fetch round trip (byte-identical to the batch
``run-scenarios`` path), two tenants sharing one worker pool, quota and
cancellation semantics of the job registry, and submission validation.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.__main__ import _resolve_suite, _suite_payload, build_parser, main
from repro.core.exceptions import ScenarioError
from repro.runner import TraceCache
from repro.runner.cache import config_fingerprint
from repro.scenarios import resolve_scenarios, resolve_submission, run_scenarios
from repro.service import (
    GatewayError,
    JobQuotaExceeded,
    JobRegistry,
    StudyService,
    StudyServiceClient,
    UnknownJobError,
    comparison_key,
)
from repro.workloads.generator import TraceGeneratorConfig

CONFIG = dict(total_jobs=60, months=3, seed=11)
SUITE = ["baseline", "demand-surge"]

INLINE_SUITE = {
    "study": {"total_jobs": 50, "months": 3, "seed": 4},
    "scenarios": [
        {"name": "base", "description": "the baseline"},
        {"name": "surge", "perturbations": [
            {"kind": "demand_surge", "scale": 1.4, "start_month": 1},
        ]},
    ],
}


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    """(service, client factory) — one in-process server for the module."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    service = StudyService(
        TraceGeneratorConfig(**CONFIG),
        workers=2,
        cache_dir=cache_dir,
        tenant_quota=4,
        executors=2,
        stream_idle_seconds=0.2,
    )
    service.start()
    server = service.make_server("127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield service, lambda tenant: StudyServiceClient(url, tenant=tenant)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        thread.join(timeout=10)


class TestRoundTrip:
    def test_submit_stream_fetch(self, gateway, tmp_path):
        service, make_client = gateway
        client = make_client("alice")

        snapshot = client.submit({"scenarios": SUITE})
        job_id = snapshot["job"]
        assert snapshot["state"] in ("queued", "running")

        events = list(client.events(job_id))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert kinds[-1] == "done"
        # Structured runner progress rides along on the stream.
        progress = [event for event in events if event["event"] == "progress"]
        assert any(event["kind"] == "shard-done" for event in progress)
        assert any(event["kind"] == "suite-done" for event in progress)
        shard_done = [e for e in progress if e["kind"] == "shard-done"]
        assert all(e["completed"] <= e["total"] for e in shard_done)
        # Partial per-scenario results are labelled with scenario names.
        partial = {event["scenario"]: event for event in events
                   if event["event"] == "scenario-done"}
        assert set(partial) == set(SUITE)

        final = client.wait(job_id)
        assert final["state"] == "done"
        result = final["result"]
        assert set(result["fingerprints"]) == set(SUITE)
        assert "comparison_key" in result

        # Fetched trace bytes are byte-identical to what the batch
        # run-scenarios path caches under the same fingerprint.
        batch_cache = tmp_path / "batch-cache"
        run_scenarios(resolve_scenarios(SUITE), TraceGeneratorConfig(**CONFIG),
                      workers=1, num_shards=1, cache_dir=batch_cache)
        for name in SUITE:
            fingerprint = result["fingerprints"][name]
            served = client.fetch_trace(fingerprint)
            batch_path = TraceCache(batch_cache).existing_path_for(
                fingerprint)
            assert batch_path is not None, name
            assert served == batch_path.read_bytes(), name

        comparison = client.fetch_comparison(result["comparison_key"])
        assert comparison["comparison_key"] == result["comparison_key"]
        assert "comparison" in comparison

    def test_resubmission_is_served_from_cache(self, gateway):
        service, make_client = gateway
        first = make_client("alice").wait(
            make_client("alice").submit({"scenarios": SUITE})["job"])
        client = make_client("bob")  # a different tenant hits the same cache
        final = client.wait(client.submit({"scenarios": SUITE})["job"])
        result = final["result"]
        assert result["cache_hits"] == len(SUITE)
        assert result["comparison_key"] == \
            first["result"]["comparison_key"]
        assert result["fingerprints"] == first["result"]["fingerprints"]

    def test_inline_suite_submission(self, gateway):
        service, make_client = gateway
        client = make_client("alice")
        final = client.wait(client.submit({"suite": INLINE_SUITE})["job"])
        assert final["state"] == "done"
        assert set(final["result"]["fingerprints"]) == {"base", "surge"}
        # The [study] table shaped the configs: base ran 50 jobs.
        base = next(s for s in final["result"]["scenarios"]
                    if s["scenario"] == "base")
        assert base["jobs"] == 50

    def test_two_tenants_share_one_pool(self, gateway):
        service, make_client = gateway
        alice, bob = make_client("t-alice"), make_client("t-bob")
        job_a = alice.submit({"scenarios": ["baseline"]})["job"]
        job_b = bob.submit({"scenarios": ["machine-outage"]})["job"]
        final_a, final_b = alice.wait(job_a), bob.wait(job_b)
        assert final_a["state"] == final_b["state"] == "done"
        assert final_a["tenant"] == "t-alice"
        assert final_b["tenant"] == "t-bob"
        # Tenant filtering on the listing.
        mine = alice.jobs("t-alice")
        assert {job["tenant"] for job in mine} == {"t-alice"}
        assert job_a in {job["job"] for job in mine}
        assert job_b not in {job["job"] for job in mine}

    def test_event_stream_resumes_with_since(self, gateway):
        service, make_client = gateway
        client = make_client("alice")
        final = client.wait(client.submit({"scenarios": ["baseline"]})["job"])
        events = list(client.events(final["job"]))
        tail = list(client.events(final["job"], since=events[2]["seq"]))
        assert tail == events[2:]


class TestHttpErrors:
    def test_unknown_job_is_404(self, gateway):
        _, make_client = gateway
        with pytest.raises(GatewayError) as excinfo:
            make_client("alice").job("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_trace_and_comparison_are_404(self, gateway):
        _, make_client = gateway
        client = make_client("alice")
        with pytest.raises(GatewayError) as excinfo:
            client.fetch_trace("no-such-fingerprint")
        assert excinfo.value.status == 404
        with pytest.raises(GatewayError) as excinfo:
            client.fetch_comparison("no-such-key")
        assert excinfo.value.status == 404

    def test_quota_exceeded_is_429_and_cancel_frees_slot(self, tmp_path):
        # Executors never started: submissions stay queued, so the quota
        # and the cancel-frees-a-slot path are exercised deterministically.
        service = StudyService(TraceGeneratorConfig(**CONFIG),
                               cache_dir=tmp_path, tenant_quota=2)
        server = service.make_server("127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = StudyServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", tenant="acme")
        try:
            first = client.submit({"scenarios": ["baseline"]})
            client.submit({"scenarios": ["demand-surge"]})
            with pytest.raises(GatewayError) as excinfo:
                client.submit({"scenarios": ["machine-outage"]})
            assert excinfo.value.status == 429
            cancelled = client.cancel(first["job"])
            assert cancelled["state"] == "cancelled"
            replacement = client.submit({"scenarios": ["machine-outage"]})
            assert replacement["state"] == "queued"
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
            thread.join(timeout=10)

    def test_malformed_submission_is_400(self, gateway):
        _, make_client = gateway
        client = make_client("alice")
        with pytest.raises(GatewayError) as excinfo:
            client.submit({"scenarios": ["no-such-scenario"]})
        assert excinfo.value.status == 400
        with pytest.raises(GatewayError) as excinfo:
            client.submit({"bogus-key": 1})
        assert excinfo.value.status == 400
        # Study knobs the streams cannot be seeded from are refused at
        # submit, not failed inside the run.
        for study in ({"seed": -4}, {"seed": "abc"}, {"seed": 1.5},
                      {"seed": True}, {"total_jobs": 10.5},
                      {"months": 2.5}):
            with pytest.raises(GatewayError) as excinfo:
                client.submit({"study": study})
            assert excinfo.value.status == 400, study

    def test_result_endpoint_serves_finished_jobs(self, gateway):
        _, make_client = gateway
        client = make_client("alice")
        final = client.wait(client.submit({"scenarios": ["baseline"]})["job"])
        assert client.result(final["job"])["state"] == "done"

    def test_health_and_stats(self, gateway):
        service, make_client = gateway
        client = make_client("alice")
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["workers"] == service.pool.workers
        assert stats["registry"]["tenant_quota"] == 4
        assert stats["store"]["entries"] >= 0
        assert stats["pool"]["workers"] == service.pool.workers
        assert stats["pool"]["queue_depth"] >= 0
        assert stats["pool"]["tasks_completed"] \
            <= stats["pool"]["tasks_submitted"]
        per_tenant = stats["registry"]["per_tenant"]
        for counts in per_tenant.values():
            assert set(counts) == {"active", "completed"}

    def test_metrics_exposition_parses_and_is_monotonic(self, gateway):
        from repro.telemetry import parse_prometheus_text

        service, make_client = gateway
        client = make_client("alice")
        first = parse_prometheus_text(client.metrics())
        # Submitting one more job moves job counters; every counter
        # sample must be monotonically non-decreasing across scrapes.
        client.submit({"scenarios": ["baseline"], "compare": False})
        second = parse_prometheus_text(client.metrics())
        for family in ("repro_cache_misses_total",
                       "repro_residency_spills_total",
                       "repro_pool_tasks_total",
                       "repro_jobs_submitted_total",
                       "repro_gateway_requests_total"):
            assert any(name == family or name.startswith(family)
                       for name in second), family
        for name, series in first.items():
            if not name.endswith("_total"):
                continue
            for labels, value in series.items():
                assert second[name][labels] >= value, (name, labels)

    def test_events_carry_elapsed_and_queue_depth(self, gateway):
        service, make_client = gateway
        client = make_client("alice")
        snapshot = client.submit({"scenarios": ["baseline"],
                                  "compare": False})
        events = list(client.events(snapshot["job"]))
        assert events
        for event in events:
            assert event["elapsed"] >= 0
            assert event["queue_depth"] >= 0
        elapsed = [event["elapsed"] for event in events]
        assert elapsed == sorted(elapsed)


class TestExecutorRobustness:
    def test_failed_result_store_fails_job_and_executor_keeps_serving(
            self, tmp_path):
        """A raise after the suite ran (here: storing the comparison) ends
        the job FAILED, and the only executor thread serves the next job."""
        service = StudyService(TraceGeneratorConfig(**CONFIG), workers=1,
                               cache_dir=tmp_path, executors=1)
        real_put = service.store.put_comparison
        failures = []

        def put_fails_once(key, payload):
            if not failures:
                failures.append(key)
                raise OSError("No space left on device")
            return real_put(key, payload)

        service.store.put_comparison = put_fails_once
        service.start()
        try:
            payload = {"scenarios": ["baseline"]}
            first = service.registry.submit("acme", payload)
            assert first.wait(timeout=60), "job stuck in " + first.state
            assert first.state == "failed"
            assert "No space left on device" in first.error

            second = service.registry.submit("acme", payload)
            assert second.wait(timeout=60), "job stuck in " + second.state
            assert second.state == "done"
            assert service.store.get_comparison(
                second.result["comparison_key"]) is not None
        finally:
            service.stop()


class TestScenarioLabels:
    def test_a_job_fingerprints_each_scenario_once(self, tmp_path,
                                                   monkeypatch):
        """run_scenarios names the scenarios of each finished study, so the
        gateway labels ``scenario-done`` without fingerprinting again."""
        import sys

        calls = []
        real = config_fingerprint

        def counting(config):
            calls.append(config)
            return real(config)

        # Every binding the package holds, wherever it was imported.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" \
                    and getattr(module, "config_fingerprint", None) is real:
                monkeypatch.setattr(module, "config_fingerprint", counting)
        catalog = resolve_scenarios()
        service = StudyService(
            TraceGeneratorConfig(total_jobs=30, months=2, seed=3),
            workers=1, cache_dir=tmp_path, executors=1)
        with service:
            job = service.registry.submit("acme", {"compare": False})
            assert job.wait(timeout=120), "job stuck in " + job.state
        assert job.state == "done", job.error
        assert len(catalog) == 12
        assert len(calls) == len(catalog)
        labelled = [event for event in job.events
                    if event["event"] == "scenario-done"]
        assert [event["scenario"] for event in labelled] \
            == [scenario.name for scenario in catalog]
        assert {event["scenario"]: event["fingerprint"]
                for event in labelled} == job.result["fingerprints"]
        assert not any("scenarios" in event for event in job.events
                       if event["event"] == "progress")


class TestRegistrySemantics:
    """Quota, fairness and cancellation — deterministic, no executors."""

    def test_quota_and_cancel_frees_slot(self):
        registry = JobRegistry(tenant_quota=2)
        one = registry.submit("acme", {"n": 1})
        registry.submit("acme", {"n": 2})
        with pytest.raises(JobQuotaExceeded):
            registry.submit("acme", {"n": 3})
        # Other tenants have their own quota.
        registry.submit("other", {"n": 1})
        # Cancelling a queued job frees the slot immediately.
        cancelled = registry.cancel(one.job_id)
        assert cancelled.state == "cancelled"
        replacement = registry.submit("acme", {"n": 4})
        assert replacement.state == "queued"
        # The cancelled job never reaches an executor.
        taken = [registry.take(timeout=0.1) for _ in range(3)]
        assert one.job_id not in {job.job_id for job in taken if job}

    def test_round_robin_across_tenants(self):
        registry = JobRegistry(tenant_quota=8)
        for index in range(3):
            registry.submit("a", {"n": index})
        for index in range(3):
            registry.submit("b", {"n": index})
        order = [registry.take(timeout=0.1).tenant for _ in range(6)]
        # FIFO per tenant, interleaved across tenants: no tenant serves
        # twice while the other still has queued work.
        assert order[:4] in (["a", "b", "a", "b"], ["b", "a", "b", "a"])

    def test_cancel_running_sets_flag(self):
        registry = JobRegistry()
        registry.submit("acme", {"n": 1})
        job = registry.take(timeout=0.1)
        assert job.state == "running"
        registry.cancel(job.job_id)
        assert job.cancel_requested
        assert job.state == "running"  # the runner aborts between studies
        registry.finish(job, "cancelled")
        assert job.state == "cancelled"

    def test_unknown_job_raises(self):
        registry = JobRegistry()
        with pytest.raises(UnknownJobError):
            registry.get("job-000042")

    def test_job_stream_ends_after_terminal_event(self):
        registry = JobRegistry()
        job = registry.submit("acme", {"n": 1})
        registry.take(timeout=0.1)
        registry.finish(job, "done", result={"ok": True})
        events = [event for event in job.stream(idle=0.05)
                  if event is not None]
        assert [event["event"] for event in events] == \
            ["queued", "started", "done"]


class TestResolveSubmission:
    def test_builtin_names_and_overrides(self):
        base, scenarios = resolve_submission(
            {"scenarios": ["baseline"], "study": {"total_jobs": 99}},
            TraceGeneratorConfig(**CONFIG))
        assert base.total_jobs == 99
        assert base.months == CONFIG["months"]
        assert [scenario.name for scenario in scenarios] == ["baseline"]

    def test_inline_suite_with_sweep_and_replicates(self):
        payload = {
            "suite": INLINE_SUITE,
            "sweep": ["backlog_shift.scale=1,2"],
            "replicates": 2,
        }
        base, scenarios = resolve_submission(payload)
        assert base.total_jobs == 50  # the suite's [study] table applied
        names = [scenario.name for scenario in scenarios]
        # 2 suite scenarios + 2 sweep points, each twice (replicates).
        assert len(names) == 8
        assert "sweep@scale=1" in names and "sweep@scale=2" in names
        assert "base#r1" in names  # the replicate re-roll of the baseline

    def test_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError):
            resolve_submission({"nope": 1})
        with pytest.raises(ScenarioError):
            resolve_submission({"study": {"bogus": 1}})
        with pytest.raises(ScenarioError):
            resolve_submission({"scenarios": "baseline"})
        with pytest.raises(ScenarioError):
            resolve_submission({"sweep": "backlog_shift.scale=1,2"})

    SPEC = str(Path(__file__).resolve().parent.parent / "examples"
               / "scenarios.toml")

    @pytest.mark.parametrize("flags,count", [
        pytest.param([], 12, id="defaults"),
        pytest.param(["--jobs", "300", "--scenarios",
                      "baseline,demand-surge", "--replicates", "2"], 4,
                     id="names-replicates"),
        pytest.param(["--spec", SPEC, "--jobs", "6000", "--sweep",
                      "backlog_shift.scale=1,2"], 11, id="spec-sweep"),
        pytest.param(["--spec", SPEC, "--replicates", "3"], 27,
                     id="spec-replicates"),
    ])
    def test_cli_and_gateway_resolve_alike(self, monkeypatch, flags, count):
        """``run-scenarios`` resolves its flags locally; ``submit`` sends
        the same flags as JSON to a gateway started with the default
        knobs.  Both must run the same scenarios on the same baseline."""
        for variable in ("REPRO_BENCH_JOBS", "REPRO_BENCH_MONTHS",
                         "REPRO_BENCH_SEED"):
            monkeypatch.delenv(variable, raising=False)
        parser = build_parser()
        local_base, local = _resolve_suite(
            parser.parse_args(["run-scenarios", *flags]))
        served = parser.parse_args(["serve"])
        wire = json.loads(json.dumps(
            _suite_payload(parser.parse_args(["submit", *flags]))))
        gateway_base, remote = resolve_submission(wire, TraceGeneratorConfig(
            total_jobs=served.jobs, months=served.months, seed=served.seed))
        assert len(local) == count
        assert gateway_base == local_base
        assert [scenario.name for scenario in remote] == \
            [scenario.name for scenario in local]
        assert [config_fingerprint(scenario.apply_to(gateway_base))
                for scenario in remote] == \
            [config_fingerprint(scenario.apply_to(local_base))
             for scenario in local]

    def test_malformed_spec_error_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenarios": [{"name": "x"}],
                                   "extra": True}))
        assert main(["run-scenarios", "--spec", str(bad), "--no-cache",
                     "--quiet"]) == 2
        assert f"repro: error: spec {bad} has unknown top-level keys" \
            in capsys.readouterr().err

    def test_comparison_key_is_order_sensitive_content_hash(self):
        triples = [("a", "f1", None), ("b", "f2", "a")]
        assert comparison_key(triples) == comparison_key(list(triples))
        assert comparison_key(triples) != comparison_key(triples[::-1])
        assert len(comparison_key(triples)) == 24
