"""Tests for comparative scenario analysis (repro.analysis.compare)."""

import numpy as np
import pytest

from repro.analysis.compare import (
    _format_value,
    aggregate_replicates,
    compare_suite,
    compare_traces,
    fidelity_proxy,
    headline_metrics,
    replicate_interval,
)
from repro.core.exceptions import AnalysisError
from repro.scenarios import (
    replicate_scenarios,
    resolve_scenarios,
    run_scenarios,
)
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TraceDataset

CONFIG = dict(total_jobs=70, months=4, seed=13)


@pytest.fixture(scope="module")
def suite():
    names = ("baseline", "demand-surge", "calibration-drift", "policy-swap")
    return run_scenarios(resolve_scenarios(names),
                         TraceGeneratorConfig(**CONFIG), workers=1)


@pytest.fixture(scope="module")
def report(suite):
    return compare_suite(suite)


class TestHeadlineMetrics:
    def test_metrics_are_populated(self, suite):
        run = suite.run_for("baseline")
        metrics = headline_metrics(run.trace, run.build_fleet())
        assert metrics.jobs == len(run.trace)
        assert metrics.queue_minutes_median > 0
        assert metrics.queue_minutes_p90 >= metrics.queue_minutes_median
        assert 0 < metrics.utilization_mean <= 1
        assert 0 < metrics.fidelity_median <= 1
        assert 0.5 < metrics.done_fraction <= 1
        total = (metrics.done_fraction + metrics.error_fraction
                 + metrics.cancelled_fraction)
        assert total == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            headline_metrics(TraceDataset(), {})

    def test_fidelity_proxy_shape_and_range(self, suite):
        run = suite.run_for("baseline")
        esp = fidelity_proxy(run.trace, run.build_fleet())
        assert esp.shape == (len(run.trace),)
        finite = esp[~np.isnan(esp)]
        assert finite.size > 0
        assert np.all((finite > 0) & (finite <= 1))

    def test_cancelled_jobs_have_no_fidelity(self, suite):
        run = suite.run_for("baseline")
        esp = fidelity_proxy(run.trace, run.build_fleet())
        start = run.trace.values("start_time")
        assert np.all(np.isnan(esp[np.isnan(start)]))


class TestComparison:
    def test_baseline_is_anchored_and_excluded(self, report):
        assert report.baseline_name == "baseline"
        assert "baseline" not in [c.name for c in report.comparisons]
        assert len(report.comparisons) == 3

    def test_calibration_drift_lowers_fidelity(self, report):
        drift = next(c for c in report.comparisons
                     if c.name == "calibration-drift")
        assert drift.deltas["fidelity_median"].delta < 0
        # Drift does not touch demand: the job count is unchanged.
        assert drift.deltas["jobs"].delta == 0

    def test_surge_adds_jobs(self, report):
        surge = next(c for c in report.comparisons
                     if c.name == "demand-surge")
        assert surge.deltas["jobs"].delta > 0

    def test_as_dict_is_json_shaped(self, report):
        import json

        payload = report.as_dict()
        text = json.dumps(payload)
        assert "baseline_metrics" in payload
        assert json.loads(text)["baseline"] == "baseline"

    def test_markdown_table_lists_every_scenario(self, report):
        markdown = report.render_markdown()
        lines = markdown.splitlines()
        assert lines[0].startswith("| scenario |")
        for name in ("baseline", "demand-surge", "calibration-drift",
                     "policy-swap"):
            assert any(line.startswith(f"| {name} |") for line in lines)

    def test_compare_traces_requires_the_baseline(self, suite):
        run = suite.run_for("baseline")
        with pytest.raises(AnalysisError):
            compare_traces("missing",
                           {"baseline": (run.trace, run.build_fleet())})

    def test_compare_suite_falls_back_to_first_run(self, suite):
        trimmed = type(suite)(runs=[suite.run_for("demand-surge"),
                                    suite.run_for("policy-swap")])
        report = compare_suite(trimmed)
        assert report.baseline_name == "demand-surge"


class TestValueFormatting:
    def test_nan_renders_as_na(self):
        assert _format_value(float("nan")) == "n/a"

    def test_non_finite_values_do_not_overflow(self):
        # Regression: int(float("inf")) raised OverflowError and crashed
        # the markdown rendering of any report with a non-finite metric.
        assert _format_value(float("inf")) == "inf"
        assert _format_value(float("-inf")) == "-inf"

    def test_ordinary_values_unchanged(self):
        assert _format_value(42.0) == "42"
        assert _format_value(0.12345) == "0.123"
        assert _format_value(123.7) == "124"


class TestReplicateAggregation:
    def test_interval_math(self):
        interval = replicate_interval([1.0, 2.0, 3.0])
        assert interval.n == 3
        assert interval.mean == pytest.approx(2.0)
        # t(df=2, 95%) * std(ddof=1) / sqrt(3) = 4.303 * 1 / 1.7320...
        assert interval.half_width == pytest.approx(2.484, abs=1e-3)
        assert interval.low == pytest.approx(2.0 - 2.484, abs=1e-3)

    def test_interval_degenerate_sizes(self):
        lone = replicate_interval([5.0])
        assert lone.n == 1 and lone.mean == 5.0
        assert lone.half_width != lone.half_width  # NaN: no variance info
        empty = replicate_interval([float("nan")])
        assert empty.n == 0

    def test_aggregate_replicates_means_every_metric(self, suite):
        run = suite.run_for("baseline")
        metrics = headline_metrics(run.trace, run.build_fleet())
        mean_metrics, intervals = aggregate_replicates([metrics, metrics])
        assert mean_metrics.queue_minutes_median == \
            pytest.approx(metrics.queue_minutes_median)
        assert intervals["queue_minutes_median"].n == 2
        assert intervals["queue_minutes_median"].half_width == \
            pytest.approx(0.0)

    def test_replicated_suite_collapses_to_groups_with_ci(self):
        scenarios = replicate_scenarios(
            resolve_scenarios(("baseline", "demand-surge")), 2,
            base_seed=CONFIG["seed"])
        replicated = run_scenarios(scenarios, TraceGeneratorConfig(**CONFIG),
                                   workers=1)
        assert len(replicated) == 4  # two scenarios x two seed replicates
        report = compare_suite(replicated)
        # Groups collapse: one baseline anchor plus one comparison row.
        assert report.baseline_name == "baseline"
        assert report.baseline_replicates == 2
        assert [c.name for c in report.comparisons] == ["demand-surge"]
        surge = report.comparisons[0]
        assert surge.replicates == 2
        assert surge.intervals["jobs"].n == 2
        payload = surge.as_dict()
        assert payload["replicates"] == 2
        assert "half_width" in payload["intervals"]["jobs"]
        markdown = report.render_markdown()
        assert "±" in markdown
        assert "#r1" not in markdown  # replicates aggregate, not listed
