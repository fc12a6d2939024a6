"""Tests for the scenario engine (repro.scenarios) and its determinism."""

import json

import numpy as np
import pytest

from repro.core.cacheroot import CacheRoot
from repro.core.exceptions import ScenarioError, WorkloadError
from repro.runner import run_study
from repro.runner.cache import config_fingerprint
from repro.scenarios import (
    BacklogShift,
    CalibrationDrift,
    DemandSurge,
    FailureRates,
    FleetChange,
    MachineOutage,
    PolicySwap,
    Scenario,
    builtin_scenarios,
    load_suite,
    perturbation_from_dict,
    resolve_scenarios,
    run_scenarios,
)
from repro.workloads.blocks import get_memory_budget, set_memory_budget
from repro.workloads.generator import ScenarioKnobs, TraceGeneratorConfig
from repro.workloads.users import MachineSelectionPolicy

CONFIG = dict(total_jobs=70, months=4, seed=13)

ACCEPTANCE_SCENARIOS = ("baseline", "demand-surge", "machine-outage",
                        "calibration-drift", "policy-swap")


@pytest.fixture(scope="module")
def base_config():
    return TraceGeneratorConfig(**CONFIG)


class TestCatalog:
    def test_builtin_catalog_covers_the_acceptance_set(self):
        catalog = builtin_scenarios()
        assert len(catalog) >= 5
        for name in ACCEPTANCE_SCENARIOS:
            assert name in catalog

    def test_every_builtin_describes_itself(self):
        for scenario in builtin_scenarios().values():
            assert scenario.describe()

    def test_resolve_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            resolve_scenarios(("no-such-scenario",))


class TestExpansion:
    def test_baseline_expands_to_the_plain_config(self, base_config):
        baseline = builtin_scenarios()["baseline"]
        assert baseline.is_baseline
        assert baseline.apply_to(base_config) == base_config
        assert config_fingerprint(baseline.apply_to(base_config)) == \
            config_fingerprint(base_config)

    def test_neutral_knobs_normalise_to_none(self, base_config):
        surged = DemandSurge(scale=1.0).apply(base_config)
        assert surged.scenario is None or surged.scenario.is_neutral()

    def test_distinct_scenarios_have_distinct_fingerprints(self, base_config):
        fingerprints = {
            name: config_fingerprint(scenario.apply_to(base_config))
            for name, scenario in builtin_scenarios().items()
        }
        assert len(set(fingerprints.values())) == len(fingerprints)

    def test_seed_override_changes_the_fingerprint(self, base_config):
        rerolled = Scenario("reroll", seed=CONFIG["seed"] + 1)
        assert config_fingerprint(rerolled.apply_to(base_config)) != \
            config_fingerprint(base_config)

    def test_perturbations_compose(self, base_config):
        scenario = Scenario("combo", perturbations=(
            DemandSurge(scale=1.5),
            CalibrationDrift(scale=2.0),
            BacklogShift(scale=2.0),
            FailureRates(error_probability=0.1),
            PolicySwap(policy="queue"),
        ))
        knobs = scenario.apply_to(base_config).scenario
        assert knobs.monthly_demand == (1.5,) * CONFIG["months"]
        assert knobs.calibration_drift_scale == 2.0
        assert knobs.backlog_scale == 2.0
        assert knobs.error_probability == 0.1
        assert knobs.forced_policy == \
            MachineSelectionPolicy.LEAST_QUEUE.value


class TestKnobEffects:
    def test_demand_shaping_scales_monthly_counts(self, base_config):
        surged = DemandSurge(scale=2.0).apply(base_config)
        assert sum(surged.jobs_per_month()) > sum(base_config.jobs_per_month())
        lulled = DemandSurge(scale=0.5).apply(base_config)
        assert sum(lulled.jobs_per_month()) < sum(base_config.jobs_per_month())

    def test_windowed_surge_leaves_untouched_months_at_baseline(self):
        config = TraceGeneratorConfig(total_jobs=6000, months=28)
        surged = DemandSurge(scale=1.5, start_month=2,
                             end_month=4).apply(config)
        baseline_counts = config.jobs_per_month()
        surged_counts = surged.jobs_per_month()
        for month, (base, perturbed) in enumerate(
                zip(baseline_counts, surged_counts)):
            if 2 <= month <= 4:
                assert perturbed > base
            else:
                assert perturbed == base

    def test_ramp_clamped_to_one_month_still_applies_the_scale(self):
        config = TraceGeneratorConfig(total_jobs=900, months=9)
        surged = DemandSurge(scale=2.0, start_month=8,
                             ramp=True).apply(config)
        assert surged.scenario is not None
        assert surged.scenario.monthly_demand[-1] == 2.0
        assert surged.jobs_per_month()[-1] > config.jobs_per_month()[-1]

    def test_ramp_reaches_full_scale_at_the_window_end(self):
        config = TraceGeneratorConfig(total_jobs=900, months=6)
        surged = DemandSurge(scale=3.0, start_month=2, end_month=5,
                             ramp=True).apply(config)
        overlay = surged.scenario.monthly_demand
        assert overlay[2] == 1.0
        assert overlay[5] == 3.0
        assert overlay[2] < overlay[3] < overlay[4] < overlay[5]

    def test_outage_takes_the_machine_offline(self, base_config):
        config = MachineOutage("ibmqx2", first_month=1,
                               last_month=2).apply(base_config)
        fleet = config.build_fleet()
        assert not fleet["ibmqx2"].is_online_in_month(1)
        assert not fleet["ibmqx2"].is_online_in_month(2)
        assert fleet["ibmqx2"].is_online_in_month(0)
        assert fleet["ibmqx2"].is_online_in_month(3)

    def test_fleet_change_removes_and_advances(self, base_config):
        config = FleetChange(
            remove=("ibmqx4",),
            bring_online=(("ibmq_manhattan", 1),),
        ).apply(base_config)
        fleet = config.build_fleet()
        assert "ibmqx4" not in fleet
        assert fleet["ibmq_manhattan"].online_since_month == 1

    def test_drift_scale_reaches_the_calibration_model(self, base_config):
        config = CalibrationDrift(scale=4.0).apply(base_config)
        fleet = config.build_fleet()
        baseline_fleet = base_config.build_fleet()
        scaled = fleet["ibmqx2"].calibration_model.drift
        reference = baseline_fleet["ibmqx2"].calibration_model.drift
        assert scaled.error_growth_per_hour == \
            pytest.approx(4.0 * reference.error_growth_per_hour)

    def test_backlog_scale_reaches_the_load_model(self, base_config):
        from repro.cloud.backlog import ExternalLoadModel

        config = BacklogShift(scale=2.0).apply(base_config)
        fleet = config.build_fleet()
        baseline_fleet = base_config.build_fleet()
        shifted = ExternalLoadModel(backend=fleet["ibmqx2"])
        reference = ExternalLoadModel(backend=baseline_fleet["ibmqx2"])
        assert shifted.mean_pending_jobs(0.0) == \
            pytest.approx(2.0 * reference.mean_pending_jobs(0.0))

    def test_failure_rates_build_a_failure_model(self, base_config):
        config = FailureRates(error_probability=0.2,
                              cancel_probability=0.1).apply(base_config)
        model = config.build_failure_model()
        assert model.error_probability == 0.2
        assert model.cancel_probability == 0.1
        assert base_config.build_failure_model() is None

    def test_invalid_knobs_rejected(self):
        with pytest.raises(WorkloadError):
            ScenarioKnobs(demand_scale=0.0)
        with pytest.raises(WorkloadError):
            ScenarioKnobs(error_probability=1.5)
        with pytest.raises(WorkloadError):
            ScenarioKnobs(forced_policy="teleport")
        with pytest.raises(ScenarioError):
            MachineOutage("ibmq_atlantis", 0, 1).apply(TraceGeneratorConfig())
        with pytest.raises(ScenarioError):
            PolicySwap(policy="teleport").apply(TraceGeneratorConfig())


class TestDeterminism:
    """Same seed + same scenario => byte-identical traces, however sharded."""

    @pytest.mark.parametrize("scenario_name",
                             ["demand-surge", "policy-swap"])
    def test_byte_identical_across_worker_and_shard_counts(
            self, base_config, tmp_path, scenario_name):
        scenario = builtin_scenarios()[scenario_name]
        serial = run_scenarios([scenario], base_config, workers=1,
                               num_shards=1).run_for(scenario_name)
        sharded = run_scenarios([scenario], base_config, workers=2,
                                num_shards=4).run_for(scenario_name)
        serial_path = tmp_path / "serial.npz"
        sharded_path = tmp_path / "sharded.npz"
        serial.trace.to_npz(serial_path)
        sharded.trace.to_npz(sharded_path)
        assert serial_path.read_bytes() == sharded_path.read_bytes()

    def test_baseline_scenario_matches_plain_run_study(self, base_config,
                                                       tmp_path):
        plain = run_study(config=base_config, workers=1)
        baseline = run_scenarios([builtin_scenarios()["baseline"]],
                                 base_config, workers=1).run_for("baseline")
        plain_path = tmp_path / "plain.npz"
        scenario_path = tmp_path / "scenario.npz"
        plain.trace.to_npz(plain_path)
        baseline.trace.to_npz(scenario_path)
        assert plain_path.read_bytes() == scenario_path.read_bytes()
        assert baseline.fingerprint == plain.cache_key


class TestEngine:
    def test_cache_reuse_across_suites(self, base_config, tmp_path):
        scenarios = resolve_scenarios(("baseline", "machine-outage"))
        first = run_scenarios(scenarios, base_config, workers=1,
                              cache_dir=tmp_path / "cache")
        assert all(not run.cache_hit for run in first)
        second = run_scenarios(scenarios, base_config, workers=1,
                               cache_dir=tmp_path / "cache")
        assert all(run.cache_hit for run in second)
        assert second.run_for("baseline").trace.records == \
            first.run_for("baseline").trace.records

    def test_baseline_scenario_shares_the_plain_study_cache(
            self, base_config, tmp_path):
        cache_dir = tmp_path / "cache"
        run_study(config=base_config, workers=1, cache_dir=cache_dir)
        suite = run_scenarios([builtin_scenarios()["baseline"]], base_config,
                              workers=1, cache_dir=cache_dir)
        assert suite.run_for("baseline").cache_hit

    def test_identical_expansions_are_deduplicated(self, base_config):
        twin_a = Scenario("twin-a", perturbations=(DemandSurge(scale=1.4),))
        twin_b = Scenario("twin-b", perturbations=(DemandSurge(scale=1.4),))
        suite = run_scenarios([twin_a, twin_b], base_config, workers=1)
        run_b = suite.run_for("twin-b")
        assert run_b.deduplicated_from == "twin-a"
        assert run_b.trace is suite.run_for("twin-a").trace

    def test_duplicate_names_rejected(self, base_config):
        with pytest.raises(ScenarioError):
            run_scenarios([Scenario("x"), Scenario("x")], base_config,
                          workers=1)

    def test_empty_suite_rejected(self, base_config):
        with pytest.raises(ScenarioError):
            run_scenarios([], base_config)


class TestSpecFiles:
    SPEC = {
        "study": {"total_jobs": 50, "months": 3, "seed": 21},
        "scenarios": [
            {"name": "baseline"},
            {
                "name": "crunch",
                "description": "double backlog plus a surge",
                "perturbations": [
                    {"kind": "backlog_shift", "scale": 2.0},
                    {"kind": "demand_surge", "scale": 1.3, "ramp": True},
                ],
            },
            {"name": "reroll", "seed": 99},
        ],
    }

    def test_json_spec_roundtrip(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(self.SPEC))
        spec = load_suite(path)
        assert [s.name for s in spec.scenarios] == \
            ["baseline", "crunch", "reroll"]
        config = spec.base_config()
        assert (config.total_jobs, config.months, config.seed) == (50, 3, 21)
        crunch = spec.catalog()["crunch"]
        assert isinstance(crunch.perturbations[0], BacklogShift)
        assert isinstance(crunch.perturbations[1], DemandSurge)
        assert spec.catalog()["reroll"].seed == 99

    def test_toml_spec(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "suite.toml"
        path.write_text(
            '[study]\ntotal_jobs = 40\nmonths = 3\nseed = 2\n\n'
            '[[scenarios]]\nname = "baseline"\n\n'
            '[[scenarios]]\nname = "surge"\n'
            '[[scenarios.perturbations]]\nkind = "demand_surge"\n'
            'scale = 1.5\n')
        spec = load_suite(path)
        assert spec.base_config().total_jobs == 40
        assert isinstance(spec.catalog()["surge"].perturbations[0],
                          DemandSurge)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            perturbation_from_dict({"kind": "weather"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError):
            perturbation_from_dict({"kind": "demand_surge", "volume": 2})

    def test_bad_specs_rejected(self, tmp_path):
        for payload in (
                {"scenarios": []},
                {"study": {"warp": 9}, "scenarios": [{"name": "x"}]},
                {"scenarios": [{"name": "x"}, {"name": "x"}]},
                {"scenarios": [{"description": "nameless"}]},
                {"extra": 1, "scenarios": [{"name": "x"}]},
        ):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(ScenarioError):
                load_suite(path)

    def test_spec_suffix_and_existence_checked(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_suite(tmp_path / "missing.json")
        path = tmp_path / "suite.yaml"
        path.write_text("scenarios: []")
        with pytest.raises(ScenarioError):
            load_suite(path)


class TestCommandLine:
    ARGS = ["--jobs", "50", "--months", "3", "--seed", "9", "--workers", "1",
            "--quiet"]

    def test_run_scenarios_with_cache_and_output_dir(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.workloads.trace import TraceDataset

        code = main([
            "run-scenarios", *self.ARGS,
            "--scenarios", "baseline,machine-outage",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "traces"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.index("scenario baseline trace")])
        assert [s["scenario"] for s in summary["scenarios"]] == \
            ["baseline", "machine-outage"]
        trace = TraceDataset.load(tmp_path / "traces" / "baseline.npz")
        assert len(trace) == 50
        # Second invocation is served entirely from the cache.
        code = main([
            "run-scenarios", *self.ARGS,
            "--scenarios", "baseline,machine-outage",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cache_hits"] == 2

    def test_compare_scenarios_writes_artifacts(self, tmp_path, capsys):
        from repro.__main__ import main

        artifact = tmp_path / "BENCH_scenarios.json"
        report_path = tmp_path / "scenarios.md"
        code = main([
            "compare-scenarios", *self.ARGS,
            "--scenarios", "baseline,demand-surge,failure-wave",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(artifact), "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert payload["benchmark"] == "scenario_comparison"
        assert payload["comparison"]["baseline"] == "baseline"
        assert len(payload["suite"]["scenarios"]) == 3
        markdown = report_path.read_text()
        assert "| demand-surge |" in markdown
        assert "failure-wave" in markdown

    def test_list_scenarios(self, capsys):
        from repro.__main__ import main

        assert main(["run-scenarios", *self.ARGS, "--list"]) == 0
        out = capsys.readouterr().out
        for name in ACCEPTANCE_SCENARIOS:
            assert f"{name}:" in out

    def test_spec_driven_compare(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps({
            "study": {"total_jobs": 40, "months": 3, "seed": 4},
            "scenarios": [
                {"name": "baseline"},
                {"name": "crunch", "perturbations": [
                    {"kind": "backlog_shift", "scale": 2.0}]},
            ],
        }))
        code = main(["compare-scenarios", *self.ARGS,
                     "--spec", str(spec_path), "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| crunch |" in out

    def test_cli_flags_override_the_spec_study_table(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps({
            "study": {"total_jobs": 5000, "months": 20, "seed": 4},
            "scenarios": [{"name": "baseline"}],
        }))
        artifact = tmp_path / "out.json"
        code = main(["compare-scenarios", "--jobs", "40", "--months", "3",
                     "--seed", "4", "--workers", "1", "--quiet",
                     "--spec", str(spec_path), "--no-cache",
                     "--output", str(artifact)])
        assert code == 0
        payload = json.loads(artifact.read_text())
        # Explicit CLI flags beat the spec; the artifact records what ran.
        assert payload["jobs"] == 40
        assert payload["months"] == 3
        assert payload["comparison"]["baseline_metrics"]["jobs"] == 40.0

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        from repro.__main__ import main

        code = main(["run-scenarios", *self.ARGS,
                     "--scenarios", "weather-machine", "--no-cache"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_negative_seed_is_a_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["run-study", "--jobs", "20", "--months", "2",
                     "--seed", "-1", "--workers", "1", "--quiet",
                     "--no-cache"])
        assert code == 2
        assert "repro: error: seed must be non-negative" \
            in capsys.readouterr().err
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps({
            "study": {"total_jobs": 20, "months": 2, "seed": -2},
            "scenarios": [{"name": "baseline"}],
        }))
        code = main(["run-scenarios", "--workers", "1", "--quiet",
                     "--spec", str(spec_path), "--no-cache"])
        assert code == 2
        assert "repro: error: seed must be non-negative" \
            in capsys.readouterr().err

    def test_sweep_and_replicates_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        artifact = tmp_path / "out.json"
        code = main([
            "compare-scenarios", *self.ARGS, "--no-cache",
            "--scenarios", "baseline",
            "--sweep", "backlog_shift.scale=1.5,3",
            "--replicates", "2",
            "--output", str(artifact),
        ])
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert payload["replicates"] == 2
        # 3 scenario groups (baseline + two grid points) x 2 replicates.
        assert len(payload["suite"]["scenarios"]) == 6
        comparison = payload["comparison"]
        assert comparison["baseline_replicates"] == 2
        names = [entry["scenario"] for entry in comparison["scenarios"]]
        assert names == ["sweep@scale=1.5", "sweep@scale=3"]
        assert all(entry["intervals"]["queue_minutes_median"]["n"] == 2.0
                   for entry in comparison["scenarios"])


class TestScenarioCacheHit:
    """A scenario cache hit is read like a plain study's: whole, chunked
    under the memory budget, and independent of its entry afterwards."""

    CONFIG = dict(total_jobs=300, months=3, seed=7)
    BUDGET = 16 * 1024
    #: the memory budget of the run that fills the cache
    FILL_BUDGET = None

    @pytest.fixture
    def filled(self, tmp_path):
        """A cache holding the baseline study, filled under FILL_BUDGET."""
        config = TraceGeneratorConfig(**self.CONFIG)
        scenarios = resolve_scenarios(("baseline",))
        previous = get_memory_budget()
        set_memory_budget(self.FILL_BUDGET)
        try:
            cold = run_scenarios(scenarios, config, workers=1,
                                 cache_dir=tmp_path)
        finally:
            set_memory_budget(previous)
        assert not cold.runs[0].cache_hit
        assert cold.runs[0].trace.is_out_of_core \
            == (self.FILL_BUDGET is not None)
        return config, scenarios, cold.runs[0].trace

    def test_hit_honours_the_memory_budget(self, filled, tmp_path):
        config, scenarios, _ = filled
        previous = get_memory_budget()
        set_memory_budget(self.BUDGET)
        try:
            study = run_study(config=config, workers=1, cache_dir=tmp_path)
            scenario = run_scenarios(scenarios, config, workers=1,
                                     cache_dir=tmp_path).runs[0]
        finally:
            set_memory_budget(previous)
        assert study.cache_hit and scenario.cache_hit
        assert scenario.fingerprint == study.fingerprint
        for trace in (study.trace, scenario.trace):
            assert trace.is_out_of_core
            trace.group_by("machine")
            stats = trace.data_plane_stats()
            assert stats["total_bytes"] > self.BUDGET
            assert stats["resident_bytes"] <= self.BUDGET

    def test_hit_outlives_a_prune_of_its_entry(self, filled, tmp_path):
        config, scenarios, cold = filled
        hit = run_scenarios(scenarios, config, workers=1,
                            cache_dir=tmp_path).runs[0]
        assert hit.cache_hit
        assert CacheRoot(tmp_path).prune(0)
        assert CacheRoot(tmp_path).entries() == []
        np.testing.assert_array_equal(hit.trace.values("queue_seconds"),
                                      cold.values("queue_seconds"))
        assert hit.trace.records == cold.records


class TestBudgetedScenarioCacheHit(TestScenarioCacheHit):
    """The same hits, on an entry that a budgeted, out-of-core run wrote."""

    FILL_BUDGET = TestScenarioCacheHit.BUDGET
