"""Tests for suite-level scheduling on the shared worker pool.

Covers the determinism contract of :class:`~repro.runner.pool.
SharedWorkerPool` / :func:`~repro.runner.executor.run_suite` (a suite run
is byte-identical to one ``run_study`` per scenario for any worker/shard
count), seed-replicate fingerprints, sweep expansion, and the failure-path
hygiene of the trace cache and the pool.
"""

import threading

import pytest

from repro.core.exceptions import ScenarioError, WorkloadError
from repro.devices.catalog import MACHINE_NAMES
from repro.runner import (
    SharedWorkerPool,
    TraceCache,
    config_fingerprint,
    run_study,
    run_suite,
)
from repro.scenarios import (
    BacklogShift,
    DemandSurge,
    FleetChange,
    MachineOutage,
    Scenario,
    SweepValues,
    builtin_scenarios,
    expand_sweep,
    expand_sweeps,
    parse_sweep_flag,
    replicate_scenarios,
    resolve_scenarios,
    run_scenarios,
    sweep_from_flags,
)
from repro.workloads.generator import ScenarioKnobs, TraceGeneratorConfig
from repro.workloads.trace import TraceDataset

CONFIG = dict(total_jobs=60, months=3, seed=11)

SUITE_NAMES = ("baseline", "demand-surge", "machine-outage",
               "calibration-drift", "policy-swap")


@pytest.fixture(scope="module")
def base_config():
    return TraceGeneratorConfig(**CONFIG)


def _suite(swept):
    """The five scenarios; ``swept`` adds a two-value backlog sweep and runs
    every scenario as two seed replicates, 14 studies in all."""
    scenarios = list(resolve_scenarios(SUITE_NAMES))
    if not swept:
        return scenarios
    scenarios.append(sweep_from_flags(["backlog_shift.scale=1.5,2.5"]))
    return replicate_scenarios(expand_sweeps(scenarios), 2,
                               base_seed=CONFIG["seed"])


@pytest.fixture(scope="module")
def solo_traces(base_config):
    """The reference every suite run must match: one single-worker
    ``run_study`` per scenario, keyed by scenario name."""
    return {scenario.name: run_study(config=scenario.apply_to(base_config),
                                     workers=1, num_shards=1).trace
            for scenario in _suite(swept=True)}


def _trace_bytes(tmp_path, tag, trace):
    path = tmp_path / f"{tag}.npz"
    trace.to_npz(path)
    return path.read_bytes()


def _exploding_task(payload):
    raise RuntimeError("worker blew up")


def _bounded(call, timeout=240.0):
    """Run ``call`` on a thread joined with a timeout, so that a hung
    suite fails the test instead of stalling the run."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"run_suite hung for {timeout}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _study(config):
    return [(config_fingerprint(config), config)]


class TestSuiteDeterminism:
    @pytest.mark.parametrize("workers,num_shards,swept", [
        pytest.param(1, 1, False, id="1-1"),
        pytest.param(2, 4, False, id="2-4"),
        pytest.param(2, 2, False, id="2-2"),
        pytest.param(2, 4, True, id="2-4-sweep-replicates"),
    ])
    def test_suite_byte_identical_to_sequential(
            self, base_config, solo_traces, tmp_path, workers,
            num_shards, swept):
        scenarios = _suite(swept)
        suite = run_scenarios(scenarios, base_config, workers=workers,
                              num_shards=num_shards)
        for scenario in scenarios:
            name = scenario.name
            ours = _trace_bytes(tmp_path, "suite", suite.run_for(name).trace)
            reference = _trace_bytes(tmp_path, "seq", solo_traces[name])
            assert ours == reference, name

    def test_run_suite_matches_solo_studies(self, base_config, tmp_path):
        surge = builtin_scenarios()["demand-surge"].apply_to(base_config)
        studies = [(config_fingerprint(base_config), base_config),
                   (config_fingerprint(surge), surge)]
        with SharedWorkerPool(2) as pool:
            results = run_suite(studies, pool, num_shards=3)
        for key, config in studies:
            solo = run_study(config=config, workers=1, num_shards=1)
            assert _trace_bytes(tmp_path, f"suite-{key}",
                                results[key].trace) == \
                _trace_bytes(tmp_path, f"solo-{key}", solo.trace)

    def test_run_suite_rejects_duplicate_fingerprints(self, base_config):
        key = config_fingerprint(base_config)
        with pytest.raises(WorkloadError):
            run_suite([(key, base_config), (key, base_config)],
                      SharedWorkerPool(1))

    def test_pool_survives_several_suite_runs(self, base_config, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        with SharedWorkerPool(2) as pool:
            scenarios = resolve_scenarios(("baseline", "demand-surge"))
            first = run_scenarios(scenarios, base_config, cache_dir=cache,
                                  pool=pool)
            assert all(not run.cache_hit for run in first)
            second = run_scenarios(scenarios, base_config, cache_dir=cache,
                                   pool=pool)
            assert all(run.cache_hit for run in second)

    def test_closed_pool_rejects_new_work(self, base_config):
        pool = SharedWorkerPool(2)
        pool.close()
        with pytest.raises(WorkloadError):
            run_study(config=base_config, pool=pool)

    def test_epochs_are_unique_across_pool_instances(self):
        # Regression: per-instance epoch counters restarting at 1 let a
        # later (transient or inline) pool reuse a previous run's cached
        # worker state and never evict it.  Epochs opened here must be
        # released (as run_suite's finally does) — an active epoch pins
        # the worker-state eviction floor for every later run.
        first_pool, second_pool = SharedWorkerPool(1), SharedWorkerPool(1)
        first, second = first_pool.next_epoch(), second_pool.next_epoch()
        try:
            assert first < second
        finally:
            first_pool.release_epoch(first)
            second_pool.release_epoch(second)

    def test_inline_worker_state_is_evicted_between_runs(self, base_config):
        from repro.runner import pool as pool_module

        run_study(config=base_config, workers=1)
        other = TraceGeneratorConfig(total_jobs=40, months=2, seed=23)
        run_study(config=other, workers=1)
        # Only the most recent run's epoch may keep state alive in-process.
        epochs = {epoch for epoch, _ in pool_module._STATE}
        assert len(epochs) <= 1
        assert len(pool_module._STATE) <= 1


class TestReplicates:
    def test_replicates_have_distinct_fingerprints_and_do_not_dedupe(
            self, base_config):
        scenarios = replicate_scenarios(
            [builtin_scenarios()["baseline"]], 3,
            base_seed=base_config.seed)
        assert [s.name for s in scenarios] == \
            ["baseline", "baseline#r1", "baseline#r2"]
        assert scenarios[0].replicate_of is None
        assert all(s.replicate_of == "baseline" for s in scenarios[1:])
        suite = run_scenarios(scenarios, base_config, workers=1)
        fingerprints = {run.fingerprint for run in suite}
        assert len(fingerprints) == 3
        assert all(run.deduplicated_from is None for run in suite)

    def test_first_replicate_keeps_the_single_run_fingerprint(
            self, base_config):
        scenario = builtin_scenarios()["demand-surge"]
        replicated = replicate_scenarios([scenario], 2,
                                         base_seed=base_config.seed)
        assert config_fingerprint(replicated[0].apply_to(base_config)) == \
            config_fingerprint(scenario.apply_to(base_config))

    def test_replication_is_deterministic(self, base_config):
        first = replicate_scenarios([Scenario("x")], 4, base_seed=3)
        second = replicate_scenarios([Scenario("x")], 4, base_seed=3)
        assert [s.seed for s in first] == [s.seed for s in second]
        assert len({s.seed for s in first[1:]}) == 3

    def test_bad_replicate_count_rejected(self):
        with pytest.raises(ScenarioError):
            replicate_scenarios([Scenario("x")], 0)


class TestSweeps:
    def test_single_axis_expansion(self):
        template = Scenario("backlog", perturbations=(
            BacklogShift(scale=SweepValues(1.0, 2.0, 4.0, 8.0)),))
        assert template.has_sweep
        variants = expand_sweep(template)
        assert [v.name for v in variants] == [
            "backlog@scale=1", "backlog@scale=2",
            "backlog@scale=4", "backlog@scale=8"]
        assert [v.perturbations[0].scale for v in variants] == \
            [1.0, 2.0, 4.0, 8.0]
        assert not any(v.has_sweep for v in variants)

    def test_cartesian_grid_across_axes(self):
        template = Scenario("grid", perturbations=(
            BacklogShift(scale=SweepValues(2.0, 4.0)),
            DemandSurge(scale=SweepValues(1.2, 1.5)),
        ))
        variants = expand_sweep(template)
        assert len(variants) == 4
        # Two axes sweep the same field name: labels carry the kind.
        assert variants[0].name == \
            "grid@backlog_shift.scale=2,demand_surge.scale=1.2"

    def test_concrete_scenario_passes_through(self):
        scenario = Scenario("plain", perturbations=(DemandSurge(scale=1.5),))
        assert expand_sweeps([scenario]) == [scenario]

    def test_replicated_template_groups_under_its_variant(self):
        # Regression: replicating a sweep *template* and expanding after
        # must group each re-roll under its own grid point, never mix
        # different grid points into one replicate group.
        template = Scenario("backlog", perturbations=(
            BacklogShift(scale=SweepValues(2.0, 4.0)),))
        replicated = replicate_scenarios([template], 2, base_seed=5)
        variants = expand_sweeps(replicated)
        groups = {}
        for scenario in variants:
            groups.setdefault(scenario.replicate_of or scenario.name,
                              []).append(scenario)
        assert sorted(groups) == ["backlog@scale=2", "backlog@scale=4"]
        for members in groups.values():
            assert len(members) == 2
            scales = {m.perturbations[0].scale for m in members}
            assert len(scales) == 1  # one grid point per group

    def test_unexpanded_sweep_cannot_run(self, base_config):
        template = Scenario("backlog", perturbations=(
            BacklogShift(scale=SweepValues(1.0, 2.0)),))
        with pytest.raises(ScenarioError):
            template.apply_to(base_config)

    def test_engine_auto_expands_sweeps(self, base_config):
        template = Scenario("backlog", perturbations=(
            BacklogShift(scale=SweepValues(1.0, 2.0)),))
        suite = run_scenarios([template], base_config, workers=1)
        assert suite.names() == ["backlog@scale=1", "backlog@scale=2"]
        # The neutral grid point expands to the plain baseline study.
        assert suite.run_for("backlog@scale=1").fingerprint == \
            config_fingerprint(base_config)

    def test_sweep_flag_parsing(self):
        kind, field_name, values = parse_sweep_flag(
            "backlog_shift.scale=1,2.5,8")
        assert (kind, field_name) == ("backlog_shift", "scale")
        assert values == (1, 2.5, 8)
        kind, field_name, values = parse_sweep_flag(
            "policy_swap.policy=fidelity,queue")
        assert values == ("fidelity", "queue")
        for bad in ("scale=1,2", "backlog_shift.scale", "weather.x=1",
                    "backlog_shift.scale="):
            with pytest.raises(ScenarioError):
                parse_sweep_flag(bad)

    def test_sweep_from_flags_builds_a_grid_template(self):
        template = sweep_from_flags(["backlog_shift.scale=1,2",
                                     "demand_surge.scale=1.5,2"])
        variants = expand_sweep(template)
        assert len(variants) == 4
        with pytest.raises(ScenarioError):
            sweep_from_flags([])

    def test_spec_sweep_syntax(self, tmp_path):
        import json

        from repro.scenarios import load_suite

        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "scenarios": [
                {"name": "backlog", "perturbations": [
                    {"kind": "backlog_shift",
                     "scale": {"sweep": [1.0, 2.0, 4.0]}}]},
            ],
        }))
        spec = load_suite(path)
        variants = expand_sweeps(spec.scenarios)
        assert [v.name for v in variants] == [
            "backlog@scale=1", "backlog@scale=2", "backlog@scale=4"]

    def test_spec_sweep_rejects_empty_axis(self):
        from repro.scenarios import perturbation_from_dict

        with pytest.raises(ScenarioError):
            perturbation_from_dict(
                {"kind": "backlog_shift", "scale": {"sweep": []}})


class TestFailurePaths:
    def test_cache_put_cleans_up_scratch_on_failure(self, tmp_path,
                                                    monkeypatch):
        cache = TraceCache(tmp_path / "cache")
        trace = run_study(config=TraceGeneratorConfig(**CONFIG), workers=1).trace

        def explode(self, path):
            path.write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(TraceDataset, "to_npz", explode)
        with pytest.raises(WorkloadError, match="trace-deadbeef.npz"):
            cache.put("deadbeef", trace)
        leftovers = list((tmp_path / "cache").iterdir())
        assert leftovers == []

    def test_worker_failure_propagates_and_terminates(self, base_config,
                                                      monkeypatch):
        from repro.runner import pool as pool_module

        # Patch before the fork so the children inherit the failing task
        # (a module-level function, so apply_async can pickle it).
        monkeypatch.setattr(pool_module, "_synthesise_task", _exploding_task)
        with pytest.raises(RuntimeError, match="worker blew up"):
            run_study(config=base_config, workers=2)

    def test_simulation_outage_scenario_still_deterministic(
            self, base_config, tmp_path):
        # An outage mid-window exercises the fleet-mutating knobs through
        # the shared pool's keyed worker state.
        scenario = Scenario("outage", perturbations=(
            MachineOutage("ibmqx2", first_month=0, last_month=1),))
        shared = run_scenarios([scenario], base_config, workers=2,
                               num_shards=3)
        solo = run_study(config=scenario.apply_to(base_config), workers=1,
                         num_shards=1)
        assert _trace_bytes(tmp_path, "shared",
                            shared.run_for("outage").trace) == \
            _trace_bytes(tmp_path, "solo", solo.trace)


class TestSuiteEvents:
    """The structured progress stream and cancellation of run_suite."""

    def _studies(self, base_config, count=2):
        catalog = builtin_scenarios()
        names = ("baseline", "demand-surge", "machine-outage")[:count]
        studies = []
        for name in names:
            config = catalog[name].apply_to(base_config)
            studies.append((config_fingerprint(config), config))
        return studies

    def test_event_stream_shape(self, base_config):
        events = []
        studies = self._studies(base_config)
        with SharedWorkerPool(2) as pool:
            run_suite(studies, pool, num_shards=2, on_event=events.append)
        kinds = [event.kind for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "suite-done"
        assert kinds.count("queued") == len(studies)
        assert kinds.count("study-done") == len(studies)
        assert kinds.count("sims-queued") == len(studies)
        shard_done = [e for e in events if e.kind == "shard-done"]
        # Every synthesis shard and simulation group reports completion.
        assert {e.phase for e in shard_done} == {"synthesis", "simulation"}
        completed = [e.completed for e in shard_done]
        assert completed == sorted(completed)  # monotonic progress
        assert all(e.completed <= e.total for e in shard_done)
        final = shard_done[-1]
        assert final.completed == final.total
        # Once something has completed, an ETA is attached.
        assert all(e.eta_seconds is not None and e.eta_seconds >= 0
                   for e in shard_done)
        assert all(e.elapsed_seconds >= 0 for e in events)
        # Study events carry their fingerprint; as_dict stays JSON-ready.
        done = [e for e in events if e.kind == "study-done"]
        assert {e.key for e in done} == {key for key, _ in studies}
        for event in events:
            payload = event.as_dict()
            assert payload["kind"] == event.kind
            assert isinstance(payload["completed"], int)

    def test_cache_hits_emit_events_not_shards(self, base_config, tmp_path):
        studies = self._studies(base_config, count=1)
        with SharedWorkerPool(1) as pool:
            run_suite(studies, pool, num_shards=1, cache=tmp_path)
            events = []
            run_suite(studies, pool, num_shards=1, cache=tmp_path,
                      on_event=events.append)
        kinds = [event.kind for event in events]
        assert "cache-hit" in kinds
        assert "shard-done" not in kinds
        assert kinds[-1] == "suite-done"

    def test_should_stop_raises_suite_cancelled(self, base_config):
        from repro.runner import SuiteCancelled

        studies = self._studies(base_config, count=3)
        with SharedWorkerPool(1) as pool:
            with pytest.raises(SuiteCancelled):
                run_suite(studies, pool, num_shards=1, should_stop=lambda: True)
            # The shared pool survives a cancelled run: the same studies
            # run to completion afterwards.
            results = run_suite(studies, pool, num_shards=1)
        assert len(results) == len(studies)

    def test_event_handler_errors_do_not_break_the_run(self, base_config):
        def explode(event):
            raise RuntimeError("observer crashed")

        studies = self._studies(base_config, count=1)
        with SharedWorkerPool(1) as pool:
            results = run_suite(studies, pool, num_shards=2,
                                on_event=explode)
        assert len(results) == 1


class TestStagePaths:
    """The error and empty-stage paths of run_suite's stage pipeline, each
    run bounded so that a stage that never completes fails the test."""

    RANK = TraceGeneratorConfig(
        total_jobs=30, months=2, seed=7,
        scenario=ScenarioKnobs(ranking_objective="balanced"))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("task", ["_transpile_task", "_synthesise_task",
                                      "_simulate_task"])
    def test_task_error_ends_the_suite(self, monkeypatch, task, workers):
        from repro.runner import pool as pool_module

        # Rank mode runs all three task kinds.  Patched before the pool
        # forks, so the workers inherit the failing task.
        monkeypatch.setattr(pool_module, task, _exploding_task)
        with SharedWorkerPool(workers) as pool:
            with pytest.raises(RuntimeError, match="worker blew up"):
                _bounded(lambda: run_suite(_study(self.RANK), pool))
            if workers == 1:
                # The shared inline pool runs the next suite.
                monkeypatch.undo()
                results = _bounded(lambda: run_suite(
                    _study(self.RANK), pool))
                assert len(results) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_study_stops_the_suite(self, monkeypatch, workers):
        from repro.runner import pool as pool_module

        real_task = pool_module._synthesise_task
        calls = []

        def first_synthesis_fails(payload):
            calls.append(payload[2])
            if len(calls) == 1:
                raise RuntimeError("worker blew up")
            return real_task(payload)

        # Forked workers need a picklable task, and their calls cannot be
        # counted here: every synthesis task fails there instead.
        monkeypatch.setattr(
            pool_module, "_synthesise_task",
            first_synthesis_fails if workers == 1 else _exploding_task)
        base = TraceGeneratorConfig(total_jobs=200, months=3, seed=11)
        studies = [(config_fingerprint(config), config) for config in (
            scenario.apply_to(base) for scenario in resolve_scenarios(
                ("baseline", "demand-surge", "machine-outage")))]
        with SharedWorkerPool(workers) as pool:
            with pytest.raises(RuntimeError, match="worker blew up"):
                _bounded(lambda: run_suite(studies, pool))
        if workers == 1:
            # The inline pool ran the first study's only synthesis shard;
            # no later study was started after it failed.
            assert calls == [studies[0][0]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stage_completion_error_names_the_study(
            self, base_config, monkeypatch, workers):
        from repro.runner import executor

        def explode(*args, **kwargs):
            raise ValueError("grouping failed")

        monkeypatch.setattr(executor, "plan_machine_groups", explode)
        key = config_fingerprint(base_config)
        with SharedWorkerPool(workers) as pool:
            with pytest.raises(WorkloadError, match=key) as caught:
                _bounded(lambda: run_suite(_study(base_config), pool))
        assert isinstance(caught.value.__cause__, ValueError)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_with_every_job_dropped_is_empty(self, workers):
        scenario = Scenario("armonk-only", perturbations=(FleetChange(
            remove=tuple(name for name in MACHINE_NAMES
                         if name != "ibmq_armonk")),))
        config = scenario.apply_to(
            TraceGeneratorConfig(total_jobs=30, months=2, seed=7))
        with SharedWorkerPool(workers) as pool:
            results = _bounded(lambda: run_suite(_study(config), pool))
        (result,) = results.values()
        assert len(result.trace) == 0
        assert result.group_sizes == []
