"""Tests for the observability layer (repro.telemetry).

Covers the four contracts the instrumentation must keep:

* the disabled tracer is a true no-op on hot loops (one shared null-span,
  no allocation, nothing recorded);
* telemetry on vs off changes **nothing** about study output — trace
  ``.npz`` bytes and config fingerprints are identical (golden);
* the Prometheus exposition renders valid text whose counters never
  decrease across scrapes, and the parser rejects malformed input;
* span trees merged back from pool workers nest correctly (spans sharing
  a thread either nest or are disjoint; worker-side spans are present);
* building a cache, result store or residency governor registers no
  instrument, so a long-lived process's registry stays flat.
"""

import json
import threading

import pytest

from repro.runner import (
    SharedWorkerPool,
    TraceCache,
    config_fingerprint,
    run_study,
    run_suite,
)
from repro.telemetry import (
    MetricsRegistry,
    NULL_SPAN,
    Tally,
    Tracer,
    get_registry,
    get_tracer,
    parse_prometheus_text,
    render_prometheus,
)
from repro.workloads.generator import TraceGeneratorConfig

CONFIG = dict(total_jobs=120, months=3, seed=23)


@pytest.fixture
def tracer():
    """The process tracer, force-disabled and emptied around each test."""
    tracer = get_tracer()
    tracer.disable()
    tracer.reset()
    yield tracer
    tracer.disable()
    tracer.reset()


# -- disabled path -------------------------------------------------------------------


class TestDisabledPath:
    def test_disabled_span_is_shared_singleton(self, tracer):
        first = tracer.span("synthesis.shard", job_shard=0)
        second = tracer.span("simulation.group", machines=5)
        assert first is NULL_SPAN
        assert second is NULL_SPAN

    def test_disabled_span_records_nothing(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.instant("marker")
        tracer.record_span("external", start=0.0, duration=1.0)
        assert tracer.spans() == []

    def test_timed_measures_even_when_disabled(self, tracer):
        with tracer.timed("study.plan") as timer:
            sum(range(1000))
        assert timer.seconds >= 0.0
        assert tracer.spans() == []  # no span, but the clock still ran

    def test_disabled_registry_histogram_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        histogram = registry.histogram("x_seconds")
        histogram.observe(0.5)  # must not raise, must not register
        assert "x_seconds" not in registry.snapshot()


# -- byte identity (golden) ----------------------------------------------------------


class TestGoldenByteIdentity:
    def test_npz_and_fingerprint_identical_tracing_on_vs_off(
            self, tracer, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)

        result_off = run_study(config=config, workers=1)
        off_path = tmp_path / "off.npz"
        result_off.trace.save(off_path)

        tracer.enable()
        result_on = run_study(config=config, workers=1)
        tracer.disable()
        on_path = tmp_path / "on.npz"
        result_on.trace.save(on_path)

        assert off_path.read_bytes() == on_path.read_bytes()
        assert result_off.fingerprint == result_on.fingerprint
        assert result_off.fingerprint == config_fingerprint(config)

    def test_cache_bytes_identical_tracing_on_vs_off(self, tracer, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        key = config_fingerprint(config)

        result = run_study(config=config, workers=1)
        TraceCache(tmp_path / "off").put(key, result.trace)

        tracer.enable()
        result = run_study(config=config, workers=1)
        TraceCache(tmp_path / "on").put(key, result.trace)
        tracer.disable()

        off_npz = next((tmp_path / "off").rglob("*.npz"))
        on_npz = next((tmp_path / "on").rglob("*.npz"))
        assert off_npz.read_bytes() == on_npz.read_bytes()


# -- metrics registry ----------------------------------------------------------------


class TestRegistry:
    def test_counter_shared_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("t_total", kind="x")
        b = registry.counter("t_total", kind="x")
        c = registry.counter("t_total", kind="y")
        assert a is b and a is not c
        a.inc(2)
        c.inc(5)
        assert registry.value("t_total", kind="x") == 2
        assert registry.value("t_total", kind="y") == 5

    def test_tallies_count_per_object_into_one_family(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total")
        first, second = Tally(family), Tally(family)
        for _ in range(3):
            first.inc()
        second.inc()
        assert (first.value, second.value) == (3, 1)
        assert registry.value("hits_total") == 4

    def test_tally_loses_no_update_across_threads(self):
        import sys

        registry = MetricsRegistry()
        tally = Tally(registry.counter("hits_total"))
        threads = [threading.Thread(
            target=lambda: [tally.inc() for _ in range(2000)], daemon=True)
            for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave increments between bytecodes
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert tally.value == registry.value("hits_total") == 16000

    def test_callback_gauge_drops_out_when_owner_dies(self):
        registry = MetricsRegistry()

        class Owner:
            resident = 42

        owner = Owner()
        registry.callback_gauge("resident_bytes", owner,
                                lambda o: o.resident)
        assert registry.value("resident_bytes") == 42
        del owner
        assert registry.value("resident_bytes") == 0

    def test_histogram_buckets_are_cumulative_in_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        samples = parse_prometheus_text(render_prometheus(registry))
        buckets = samples["lat_seconds_bucket"]
        assert buckets['{le="0.1"}'] == 1
        assert buckets['{le="1"}'] == 2
        assert buckets['{le="+Inf"}'] == 3
        assert samples["lat_seconds_count"][""] == 3

    def test_live_counters_are_instrumented(self):
        """The real process registry carries the migrated families."""
        registry = get_registry()
        config = TraceGeneratorConfig(**CONFIG)
        before = registry.value("repro_sim_jobs_total", engine="batched")
        run_study(config=config, workers=1)
        after = registry.value("repro_sim_jobs_total", engine="batched")
        assert after >= before + 100  # ~120 planned jobs, some dropped


def _instruments(prefix=""):
    """How many instruments the process registry holds under ``prefix``."""
    families = get_registry()._families
    return sum(len(instruments)
               for name, family in families.items() if name.startswith(prefix)
               for instruments in family.instruments.values())


class TestRegistryStaysFlat:
    """The registry keeps every instrument it ever registered, so objects
    built per call must register none."""

    @staticmethod
    def _counts_after(call, times, prefix=""):
        counts = []
        for index in range(times):
            call()
            if index in (1, times - 1):
                counts.append(_instruments(prefix))
        return counts

    def test_gateway_stats(self, tmp_path):
        from repro.service import StudyService

        service = StudyService(workers=1, cache_dir=tmp_path)
        first, last = self._counts_after(service.stats, 1000)
        assert last == first

    def test_cache_hit_studies(self, tmp_path):
        config = TraceGeneratorConfig(total_jobs=40, months=2, seed=5)
        run_study(config=config, workers=1, cache_dir=tmp_path)

        def hit():
            assert run_study(config=config, workers=1,
                             cache_dir=tmp_path).cache_hit

        first, last = self._counts_after(hit, 50)
        assert last == first

    def test_residency_governors(self, tmp_path):
        from blockcut import chunked_copy

        trace = run_study(config=TraceGeneratorConfig(total_jobs=40,
                                                      months=2, seed=5),
                          workers=1).trace

        def chunked():
            dataset = chunked_copy(trace, 8, budget=4096)
            assert dataset.data_plane_stats()["spills"] > 0

        first, last = self._counts_after(chunked, 100, "repro_residency")
        assert last == first


# -- exposition ----------------------------------------------------------------------


class TestExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a_total", kind="x", help="help a").inc(3)
        registry.gauge("b_depth").set(7)
        text = render_prometheus(registry)
        assert "# TYPE a_total counter" in text
        assert text.endswith("\n")
        samples = parse_prometheus_text(text)
        assert samples["a_total"]['{kind="x"}'] == 3
        assert samples["b_depth"][""] == 7

    @pytest.mark.parametrize("bad", [
        "no_value_line\n",
        'metric{unterminated="x\n',
        "metric not-a-number\n",
        "metric NaN\n",
        "0bad_name 1\n",
    ])
    def test_parser_rejects_malformed_text(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_counters_monotonic_across_scrapes(self):
        registry = get_registry()
        first = parse_prometheus_text(render_prometheus(registry))
        run_study(config=TraceGeneratorConfig(**CONFIG), workers=1)
        second = parse_prometheus_text(render_prometheus(registry))
        for name, series in first.items():
            if not name.endswith("_total"):
                continue
            for labels, value in series.items():
                assert second[name][labels] >= value, (name, labels)


# -- span trees under worker-pool concurrency ----------------------------------------


def _span_index(spans):
    return {span["id"]: span for span in spans}


class TestSpanTrees:
    @pytest.fixture(scope="class")
    def traced_spans(self):
        """Spans of a two-study suite on a two-worker pool, recorded by the
        process tracer: the studies' stages run at the same time."""
        tracer = get_tracer()
        tracer.disable()
        tracer.reset()
        tracer.enable()
        configs = (TraceGeneratorConfig(**CONFIG),
                   TraceGeneratorConfig(**{**CONFIG, "seed": 24}))
        try:
            with SharedWorkerPool(2) as pool:
                run_suite([(config_fingerprint(config), config)
                           for config in configs],
                          pool, num_shards=2)
            spans = tracer.spans()
        finally:
            tracer.disable()
            tracer.reset()
        return spans

    def test_worker_spans_are_merged_back(self, traced_spans):
        names = {span["name"] for span in traced_spans}
        assert {"study.plan", "study.synthesis", "study.simulation",
                "study.merge"} <= names
        assert "pool.synthesis" in names
        assert "pool.simulation" in names
        assert "synthesis.shard" in names
        assert "sim.machine" in names
        assert "pool.queued" in names

    def test_parent_links_resolve_and_do_not_cycle(self, traced_spans):
        by_id = _span_index(traced_spans)
        for span in traced_spans:
            parent = span["parent_id"]
            if parent is None:
                continue
            assert parent in by_id
            assert parent != span["id"]
            # child lies within its parent's interval (small slack for
            # float arithmetic on perf_counter deltas)
            outer = by_id[parent]
            assert span["start"] >= outer["start"] - 1e-6

    def test_same_thread_spans_nest_or_are_disjoint(self, traced_spans):
        eps = 1e-6
        by_thread = {}
        for span in traced_spans:
            if span["name"] == "pool.queued":
                # Synthesized queue-wait intervals, not stack frames:
                # concurrently queued tasks legitimately overlap.
                continue
            by_thread.setdefault((span["pid"], span["tid"]),
                                 []).append(span)
        for spans in by_thread.values():
            spans = sorted(spans, key=lambda s: (s["start"],
                                                 -s["duration"]))
            for i, outer in enumerate(spans):
                outer_end = outer["start"] + outer["duration"]
                for inner in spans[i + 1:]:
                    inner_end = inner["start"] + inner["duration"]
                    nested = (inner["start"] >= outer["start"] - eps
                              and inner_end <= outer_end + eps)
                    disjoint = inner["start"] >= outer_end - eps
                    assert nested or disjoint, (outer["name"],
                                                inner["name"])

    def test_chrome_trace_schema(self, traced_spans):
        tracer = Tracer(enabled=True)
        tracer.ingest(traced_spans)
        document = tracer.chrome_trace()
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        events = document["traceEvents"]
        assert events and len(events) == len(traced_spans)
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["args"]["span_id"], int)
        json.dumps(document)  # must be JSON-serialisable end to end

    def test_ingest_rekeys_ids_without_collisions(self):
        parent = Tracer(enabled=True)
        with parent.span("local"):
            pass
        worker = Tracer(enabled=True)
        with worker.span("pool.task"):
            with worker.span("inner"):
                pass
        parent.ingest(worker.export_spans())
        spans = parent.spans()
        assert len(spans) == 3
        ids = [span["id"] for span in spans]
        assert len(set(ids)) == len(ids)
        by_name = {span["name"]: span for span in spans}
        assert by_name["inner"]["parent_id"] == by_name["pool.task"]["id"]

    def test_spans_record_across_threads_without_crosstalk(self, tracer):
        tracer.enable()
        errors = []

        def work(index):
            try:
                with tracer.span("thread.outer", index=index):
                    with tracer.span("thread.inner", index=index):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        spans = tracer.spans()
        assert len(spans) == 16
        inners = [span for span in spans
                  if span["name"] == "thread.inner"]
        by_id = _span_index(spans)
        for inner in inners:
            outer = by_id[inner["parent_id"]]
            assert outer["args"]["index"] == inner["args"]["index"]


# -- cache-hit phase reporting (satellite f) -----------------------------------------


class TestCacheHitPhases:
    def test_cache_hit_reports_zero_phase_timings(self, tracer, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        run_study(config=config, workers=1, cache_dir=tmp_path)
        tracer.enable()
        result = run_study(config=config, workers=1, cache_dir=tmp_path)
        tracer.disable()
        assert result.metadata.get("cache_hit") is True
        timings = result.timings
        for phase in ("plan", "synthesis", "simulation", "merge"):
            assert timings[phase] == 0.0
        names = [span["name"] for span in tracer.spans()]
        assert "study.cache-hit" in names
        for phase in ("plan", "synthesis", "simulation", "merge"):
            assert f"study.{phase}" in names
