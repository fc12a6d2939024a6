"""Tests for the parallel sharded study runner (repro.runner)."""

import json

import pytest

from repro.__main__ import _resolve_suite, build_parser, main
from repro.analysis import summarize
from repro.core.exceptions import WorkloadError
from repro.runner import (
    TraceCache,
    config_fingerprint,
    plan_machine_groups,
    plan_shards,
    run_study,
)
from repro.telemetry import Tracer, set_tracer
from repro.workloads.generator import (
    TraceGeneratorConfig,
    job_id_for_index,
    plan_submissions,
)
from repro.workloads.trace import TraceDataset

CONFIG = dict(total_jobs=100, months=5, seed=19)


@pytest.fixture(scope="module")
def reference_result():
    """The single-shard, single-worker run everything is compared against."""
    return run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                     num_shards=1)


class TestShardPlanning:
    def test_shards_partition_the_plan(self):
        config = TraceGeneratorConfig(**CONFIG)
        submissions = plan_submissions(config)
        shards = plan_shards(config, submissions, 4)
        assert len(shards) == 4
        indices = sorted(
            planned.job_index for shard in shards for planned in shard.submissions
        )
        assert indices == sorted(p.job_index for p in submissions)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_zero_shards_rejected(self):
        config = TraceGeneratorConfig(**CONFIG)
        with pytest.raises(WorkloadError):
            plan_shards(config, plan_submissions(config), 0)

    def test_machine_groups_balance_and_cover(self):
        counts = {"a": 50, "b": 30, "c": 20, "d": 10, "e": 0}
        groups = plan_machine_groups(counts, 2)
        machines = sorted(m for g in groups for m in g.machines)
        assert machines == ["a", "b", "c", "d"]  # zero-job machine dropped
        assert sorted(g.expected_jobs for g in groups) == [50, 60]
        assert groups == plan_machine_groups(counts, 2)

    def test_more_groups_than_machines(self):
        groups = plan_machine_groups({"a": 5, "b": 1}, 8)
        assert len(groups) == 2


class TestShardInvariance:
    """Same seed => same merged trace, no matter how the work is split."""

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_merged_job_counts_invariant(self, reference_result, num_shards):
        result = run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                           num_shards=num_shards)
        assert len(result.trace) == len(reference_result.trace)
        assert result.trace.status_counts() == \
            reference_result.trace.status_counts()
        assert result.trace.summary() == reference_result.trace.summary()

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_queue_time_summaries_invariant(self, reference_result, num_shards):
        result = run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                           num_shards=num_shards)
        ours = summarize(result.trace.numeric_column("queue_seconds"))
        reference = summarize(
            reference_result.trace.numeric_column("queue_seconds"))
        assert ours.as_dict() == reference.as_dict()

    def test_records_identical_across_shard_counts(self, reference_result):
        result = run_study(config=TraceGeneratorConfig(**CONFIG), workers=1,
                           num_shards=4)
        assert result.trace.records == reference_result.trace.records

    def test_job_ids_are_deterministic(self, reference_result):
        ids = {r.job_id for r in reference_result.trace}
        assert job_id_for_index(0) in ids
        assert len(ids) == len(reference_result.trace)


class TestWorkerInvariance:
    def test_multiprocess_run_is_byte_identical(self, reference_result,
                                                tmp_path):
        result = run_study(config=TraceGeneratorConfig(**CONFIG), workers=2,
                           num_shards=4)
        assert result.trace.records == reference_result.trace.records
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        reference_result.trace.to_json(serial_path)
        result.trace.to_json(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_timings_reported(self):
        # A phase time is its stage interval, for any worker count: it
        # covers the stage's longest pool task, the phases fit inside the
        # total, and each equals the study's study.<phase> span.
        phases = ("plan", "transpile", "synthesis", "simulation", "merge")
        for workers in (1, 2):
            tracer = Tracer(enabled=True)
            previous = set_tracer(tracer)
            try:
                result = run_study(config=TraceGeneratorConfig(**CONFIG),
                                   workers=workers, num_shards=2)
            finally:
                set_tracer(previous)
            timings = result.timings
            assert set(timings) == {*phases, "total"}
            spans = tracer.spans()
            for phase in ("synthesis", "simulation"):
                tasks = [span["duration"] for span in spans
                         if span["name"] == f"pool.{phase}"]
                assert tasks, (workers, phase)
                assert timings[phase] >= max(tasks), (workers, phase)
            assert sum(timings[phase] for phase in phases) \
                <= timings["total"], workers
            for phase in phases:
                stage = [span["duration"] for span in spans
                         if span["name"] == f"study.{phase}"]
                if phase == "transpile" and not stage:
                    assert timings[phase] == 0.0  # not a rank study
                    continue
                assert len(stage) == 1, (workers, phase)
                assert timings[phase] == pytest.approx(stage[0], abs=1e-3), \
                    (workers, phase)


class TestTraceCache:
    def test_cache_roundtrip_and_hit_is_byte_identical(self, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        first = run_study(config=config, workers=1, cache_dir=cache)
        assert not first.cache_hit
        cached_bytes = cache.get_bytes(first.cache_key)
        assert cached_bytes is not None

        second = run_study(config=config, workers=1, cache_dir=cache)
        assert second.cache_hit
        assert second.cache_path == first.cache_path
        assert cache.get_bytes(second.cache_key) == cached_bytes
        assert second.trace.records == first.trace.records
        assert cache.stats()["hits"] >= 1

    def test_no_cache_bypasses_lookup(self, tmp_path):
        config = TraceGeneratorConfig(**CONFIG)
        cache = TraceCache(tmp_path / "cache")
        run_study(config=config, workers=1, cache_dir=cache)
        again = run_study(config=config, workers=1)
        assert not again.cache_hit
        assert again.cache_path is None
        assert cache.stats()["hits"] == 0

    def test_fingerprint_changes_with_config(self):
        base = TraceGeneratorConfig(**CONFIG)
        assert config_fingerprint(base) == \
            config_fingerprint(TraceGeneratorConfig(**CONFIG))
        for change in (dict(total_jobs=101), dict(seed=20), dict(months=6)):
            other = TraceGeneratorConfig(**{**CONFIG, **change})
            assert config_fingerprint(other) != config_fingerprint(base)


class TestCommandLine:
    def test_stderr_lines_are_rendered_from_suite_events(self, capsys):
        study = ["run-study", "--jobs", "200", "--months", "2",
                 "--workers", "1", "--no-cache"]
        assert main(study) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(line.startswith("[repro] ") for line in lines)
        assert any(": synthesising 200 submissions in 1 shards" in line
                   for line in lines)
        assert lines[-1].startswith("[repro] suite done: 1 studies")
        assert main([*study, "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["run-scenarios", "--jobs", "200", "--months", "2",
                     "--workers", "1", "--no-cache", "--scenarios",
                     "baseline", "--progress", "--quiet"]) == 0
        lines = capsys.readouterr().err.splitlines()
        shards = [line for line in lines if " shards (" in line]
        assert shards and all(", eta " in line for line in shards)
        assert not any("synthesising" in line for line in lines)

    def test_run_study_writes_trace_and_caches(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "run-study", "--jobs", "40", "--months", "3", "--seed", "5",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
            "--output", str(out), "--quiet",
        ])
        assert code == 0
        trace = TraceDataset.from_json(out)
        assert len(trace) == 40
        capsys.readouterr()  # drain the first run's output
        code = main([
            "run-study", "--jobs", "40", "--months", "3", "--seed", "5",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
            "--quiet",
        ])
        assert code == 0
        summary = json.loads(
            "".join(line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("trace written"))
        )
        assert summary["cache_hit"] is True

    def test_figures_from_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        run_study(config=TraceGeneratorConfig(total_jobs=40, months=3, seed=5),
                  workers=1).trace.to_json(trace_path)
        figures_path = tmp_path / "figures.json"
        code = main([
            "figures", "--trace", str(trace_path),
            "--output", str(figures_path), "--quiet",
        ])
        assert code == 0
        payload = json.loads(figures_path.read_text())
        assert payload["trace_summary"]["jobs"] == 40
        assert "fig3_queue_report" in payload

    @pytest.mark.parametrize("flags,variables,knobs", [
        pytest.param(["--jobs", "6000", "--months", "28"], {},
                     (6000, 28, 7), id="flags-at-defaults"),
        pytest.param(["--jobs", "6001"], {}, (6001, 2, 7), id="flag"),
        pytest.param([], {}, (100, 2, 7), id="spec-only"),
        pytest.param([], {"REPRO_BENCH_JOBS": "6000"}, (6000, 2, 7),
                     id="variable-at-default"),
    ])
    def test_given_study_knobs_beat_the_spec(self, tmp_path, monkeypatch,
                                             flags, variables, knobs):
        # Given means typed or set, whatever the value: a knob repeating
        # its default still overrides the spec's [study] table.
        for variable in ("REPRO_BENCH_JOBS", "REPRO_BENCH_MONTHS",
                         "REPRO_BENCH_SEED"):
            monkeypatch.delenv(variable, raising=False)
        for variable, value in variables.items():
            monkeypatch.setenv(variable, value)
        spec = tmp_path / "suite.json"
        spec.write_text(json.dumps({
            "study": {"total_jobs": 100, "months": 2},
            "scenarios": [{"name": "baseline"}],
        }))
        args = build_parser().parse_args(
            ["run-scenarios", "--spec", str(spec), *flags])
        base = _resolve_suite(args)[0]
        assert (base.total_jobs, base.months, base.seed) == knobs
